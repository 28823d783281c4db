#include "core/session_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace cgctx::core {

namespace {

// Fixed-name lookups: the engine's steady state may append a trace event
// per slot close, so the names must come from string literals, never
// from the (allocating) *_class_names() vectors.
const char* stage_name(ml::Label stage) {
  if (stage == kStageActive) return "active";
  if (stage == kStagePassive) return "passive";
  if (stage == kStageIdle) return "idle";
  return "?";
}

const char* pattern_name(ml::Label pattern) {
  if (pattern == kPatternContinuous) return "continuous-play";
  if (pattern == kPatternSpectate) return "spectate-and-play";
  return "?";
}

std::string_view title_name(const TitleResult& title) {
  return title.label ? std::string_view(title.class_name) : "(unknown)";
}

}  // namespace

void SessionObserver::emit(obs::TraceEventType type, double at_seconds,
                           std::int32_t label, double confidence,
                           std::string_view name) const {
  obs::TraceEvent event;
  event.session_id = session_id;
  event.at_seconds = at_seconds;
  event.type = type;
  event.label = label;
  event.confidence = confidence;
  event.set_name(name);
  if (on_event != nullptr) (*on_event)(event);
  if (trace != nullptr) trace->push(event);
}

SessionEngine::SessionEngine(PipelineModels models,
                             const PipelineParams* params)
    : models_(models), params_(params) {
  if (models_.title == nullptr || models_.stage == nullptr ||
      models_.pattern == nullptr)
    throw std::invalid_argument("SessionEngine: all models are required");
  if (params_ == nullptr)
    throw std::invalid_argument("SessionEngine: params are required");
  scratch_.resize(std::max({models_.title->scratch_size(),
                            models_.stage->scratch_size(),
                            models_.pattern->scratch_size()}));
  tracker_ = VolumetricTracker(params_->tracker);
}

std::span<double> SessionEngine::scratch(std::size_t n) {
  if (scratch_.size() < n) scratch_.resize(n);  // models retrained mid-life
  return std::span<double>(scratch_.data(), n);
}

const ml::FeatureRow& SessionEngine::title_attributes() const {
  static const ml::FeatureRow kNone;
  return title_window_ != nullptr ? title_window_->attributes() : kNone;
}

void SessionEngine::start(net::Timestamp flow_begin) {
  started_ = true;
  flow_begin_ = flow_begin;
  if (title_window_ != nullptr) title_window_->start(flow_begin);
}

void SessionEngine::take_title_window() {
  const LaunchAttributeParams& attributes = models_.title->params().attributes;
  title_window_ = window_pool_ != nullptr
                      ? window_pool_->lend(attributes)
                      : std::make_unique<LaunchWindow>(attributes);
  title_window_->start(flow_begin_);
}

void SessionEngine::set_detection(const DetectionResult& detection,
                                  net::Timestamp detected_at,
                                  const SessionObserver& observer) {
  report_.detection = detection;
  if (!observer.wants_events()) return;
  observer.emit(obs::TraceEventType::kFlowPromoted,
                net::duration_to_seconds(detected_at - flow_begin_), -1, 0.0,
                to_string(detection.platform));
}

void SessionEngine::install_title(const TitleResult& title) {
  // Field-wise copy: class_name assignment reuses the report string's
  // capacity, keeping pooled reuse allocation-free past the first session.
  report_.title.label = title.label;
  report_.title.class_name = title.class_name;
  report_.title.confidence = title.confidence;
  title_done_ = true;
  // The verdict is in: the window is needed again only by the next
  // session, so a pooled engine lends it to whichever starts first.
  if (window_pool_ != nullptr && title_window_ != nullptr)
    window_pool_->give_back(std::move(title_window_));
  if (metrics_ != nullptr) {
    metrics_->title_verdicts->add();
    if (!title.label) metrics_->unknown_titles->add();
    if (title.confidence < models_.title->params().unknown_threshold)
      metrics_->low_confidence_titles->add();
  }
  has_demand_hint_ = false;
  if (report_.title.label) {
    const auto it = params_->title_demand_mbps.find(report_.title.class_name);
    if (it != params_->title_demand_mbps.end()) {
      has_demand_hint_ = true;
      demand_hint_mbps_ = it->second;
    }
  }
}

void SessionEngine::set_title(const TitleResult& title) {
  install_title(title);
}

void SessionEngine::classify_pending_title() {
  const obs::ScopedTimer timer(
      metrics_ != nullptr ? metrics_->title_classify_ns : nullptr);
  if (title_window_ == nullptr) take_title_window();  // saw no packet
  install_title(models_.title->classify_features(
      title_window_->finish(), scratch(models_.title->scratch_size())));
}

void SessionEngine::close_title(double at_seconds,
                                const SessionObserver& observer) {
  classify_pending_title();
  if (!observer.wants_events()) return;
  observer.emit(obs::TraceEventType::kTitleVerdict, at_seconds,
                report_.title.label.value_or(-1), report_.title.confidence,
                title_name(report_.title));
}

void SessionEngine::close_slot(const SessionObserver& observer) {
  const EstimatedSlotQoe estimated = qoe_.end_slot();
  SlotTelemetry slot;
  slot.volumetrics = current_slot_;
  slot.frames = estimated.frame_rate;
  // No passive RTT estimate exists for one-way UDP observation; the
  // deployment feeds RTT from its QoS probes (slot-fidelity telemetry
  // carries it). Packet mode falls back to a configured value.
  slot.rtt_ms = params_->assumed_rtt_ms;
  slot.loss_rate = estimated.loss_rate;
  current_slot_ = RawSlotVolumetrics{};
  push_slot(slot, observer);
}

void SessionEngine::deliver(const SlotOutcome& outcome,
                            const SessionObserver& observer) {
  if (observer.on_slot != nullptr)
    (*observer.on_slot)(observer.session_id, outcome.record);
  if (!observer.wants_events()) return;
  if (outcome.stage_changed)
    observer.emit(obs::TraceEventType::kStageTransition, outcome.at_seconds,
                  last_stage_, 0.0, stage_name(last_stage_));
  if (outcome.pattern_event)
    observer.emit(obs::TraceEventType::kPatternDecision, outcome.at_seconds,
                  pattern_->label, pattern_->confidence,
                  pattern_name(pattern_->label));
  if (outcome.qoe_changed) {
    const auto qoe = static_cast<QoeLevel>(last_effective_);
    observer.emit(obs::TraceEventType::kQoeChange, outcome.at_seconds,
                  static_cast<std::int32_t>(qoe), 0.0, to_string(qoe));
  }
}

const SessionReport& SessionEngine::finish(const SessionObserver& observer) {
  if (started_ &&
      (current_slot_.down_packets + current_slot_.up_packets) > 0)
    close_slot(observer);
  // A session that ended inside the title window is classified from what
  // arrived, uniformly across entry points.
  if (started_ && !title_done_)
    close_title(static_cast<double>(next_slot_), observer);
  finalize();
  if (observer.wants_events())
    observer.emit(obs::TraceEventType::kSessionRetired, report_.duration_s,
                  static_cast<std::int32_t>(report_.effective_session),
                  report_.title.confidence, title_name(report_.title));
  return report_;
}

void SessionEngine::push_slots(std::span<const SlotTelemetry> slots,
                               const SessionObserver& observer) {
  const std::size_t n = slots.size();
  if (n == 0) return;
  // Stage timers are sampled per slot: the tick deliberately survives
  // reset() so pooled engines running short sessions still hit sampled
  // slots. A batch times each step once and records, for every sampled
  // slot, the step's time divided by the batch's slots.
  std::size_t sampled = 0;
  if (metrics_ != nullptr)
    for (std::size_t i = 0; i < n; ++i)
      if (++timer_tick_ >= metrics_->timer_sample_stride) {
        timer_tick_ = 0;
        ++sampled;
      }
  const auto now = [&]() -> std::uint64_t {
    if (sampled == 0) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  const std::uint64_t t0 = now();

  // 1. Stage: every slot's volumetric row, then one forest batch. rows_
  // holds the stage rows, then (once they are classified) the wider
  // pattern rows.
  static_assert(kNumTransitionAttributes >= kNumVolumetricAttributes);
  if (rows_.size() < n * kNumTransitionAttributes)
    rows_.resize(n * kNumTransitionAttributes);
  if (stages_.size() < n) {
    stages_.resize(n);
    inferences_.resize(n);
  }
  const std::span<ml::Label> stages(stages_.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    tracker_.push_into(slots[i].volumetrics,
                       std::span(rows_.data() + i * kNumVolumetricAttributes,
                                 kNumVolumetricAttributes));
  models_.stage->classify_rows(
      std::span<const double>(rows_.data(), n * kNumVolumetricAttributes),
      scratch(n * models_.stage->scratch_size()), stages);
  const std::uint64_t t1 = now();

  // 2. Pattern: replay the stages into the transition matrix, keeping the
  // probability row of every slot at or past the floor (ready() is
  // monotone, so those are the batch's last `ready` slots), then walk the
  // pattern forest over them. Pattern inference runs continuously: the
  // report carries the most recent confident verdict (it sharpens as the
  // transition matrix matures), while pattern_decided_at_s records when
  // the operator first had a usable answer.
  std::size_t ready = 0;
  for (std::size_t i = 0; i < n; ++i) {
    transitions_.push(stages[i]);
    if (!models_.pattern->ready(transitions_)) continue;
    transitions_.probabilities_into(
        std::span(rows_.data() + ready * kNumTransitionAttributes,
                  kNumTransitionAttributes));
    ++ready;
  }
  const std::span inferences(inferences_.data(), ready);
  // Infers rows [begin, end); true if any of them is confident.
  const auto walk = [&](std::size_t begin, std::size_t end) {
    const auto out = inferences.subspan(begin, end - begin);
    models_.pattern->infer_rows(
        std::span<const double>(rows_.data() + begin * kNumTransitionAttributes,
                                out.size() * kNumTransitionAttributes),
        scratch(out.size() * models_.pattern->scratch_size()), out);
    return std::any_of(out.begin(), out.end(), [](const auto& inference) {
      return inference.has_value();
    });
  };
  if (observer.wants_events() || metrics_ != nullptr) {
    // Events and the decision/flip counters read every slot's verdict.
    walk(0, ready);
  } else {
    // The report reads two verdicts: the session's first confident one
    // and its last. So walk, while none is decided, front to back up to
    // the span's first confident row, then back to front from its end
    // (one row, then blocks) down to its last confident row. Every other
    // row goes to record_slot as unconfident; pattern_ and
    // pattern_decided_at_s_ still end the span as the full walk leaves
    // them, since each walked row gets its exact infer_rows verdict.
    constexpr std::size_t kBlock = ml::CompiledForest::kWalkGroup;
    std::fill(inferences.begin(), inferences.end(), std::nullopt);
    std::size_t walked = 0;  // rows [0, walked) are walked
    bool confident = false;
    while (!pattern_ && !confident && walked < ready) {
      const std::size_t end = std::min(walked + kBlock, ready);
      confident = walk(walked, end);
      walked = end;
    }
    for (std::size_t end = ready, step = 1; end > walked; step = kBlock) {
      const std::size_t begin = end - std::min(step, end - walked);
      if (walk(begin, end)) break;
      end = begin;
    }
  }
  const std::uint64_t t2 = now();

  // 3. Everything else, slot by slot.
  const std::size_t first_ready = n - ready;
  const std::optional<PatternResult> below_floor;
  for (std::size_t i = 0; i < n; ++i)
    deliver(record_slot(slots[i], stages[i],
                        i < first_ready ? below_floor
                                        : inferences[i - first_ready]),
            observer);

  if (sampled != 0) {
    const std::uint64_t t3 = now();
    for (std::size_t k = 0; k < sampled; ++k) {
      metrics_->stage_classify_ns->record((t1 - t0) / n);
      metrics_->pattern_infer_ns->record((t2 - t1) / n);
      metrics_->slot_close_ns->record((t3 - t0) / n);
    }
  }
}

SessionEngine::SlotOutcome SessionEngine::record_slot(
    const SlotTelemetry& slot, ml::Label stage,
    const std::optional<PatternResult>& inference) {
  SlotOutcome outcome;
  outcome.at_seconds = static_cast<double>(next_slot_ + 1);
  if (stage != last_stage_) {
    outcome.stage_changed = true;
    last_stage_ = stage;
  }
  if (inference) {
    const bool first = !pattern_.has_value();
    const bool changed = !pattern_ || pattern_->label != inference->label;
    pattern_ = inference;
    if (first) pattern_decided_at_s_ = outcome.at_seconds;
    outcome.pattern_event = first || changed;
    if (metrics_ != nullptr && outcome.pattern_event) {
      if (first) metrics_->pattern_decisions->add();
      else metrics_->pattern_flips->add();
    }
  }

  SlotRecord& record = outcome.record;
  record.stage = stage;
  record.throughput_mbps =
      static_cast<double>(slot.volumetrics.down_bytes) * 8.0 / 1e6;
  record.frame_rate = slot.frames;
  record.rtt_ms = slot.rtt_ms;
  record.loss_rate = slot.loss_rate;

  peak_mbps_ = std::max(peak_mbps_, record.throughput_mbps);
  peak_fps_ = std::max(peak_fps_, record.frame_rate);
  total_mbps_ += record.throughput_mbps;

  const SlotQoeMetrics metrics{record.frame_rate, record.throughput_mbps,
                               record.rtt_ms, record.loss_rate};
  QoeContext context;
  context.stage = stage;
  context.expected_peak_fps = peak_fps_;
  // The classified title's demand caps the expectation: a low-demand
  // title is not expected to ever reach generic "good" throughput.
  context.expected_peak_mbps = has_demand_hint_
                                   ? std::min(peak_mbps_, demand_hint_mbps_)
                                   : peak_mbps_;
  record.objective = objective_qoe(metrics, params_->qoe);
  record.effective = effective_qoe(metrics, context, params_->qoe);

  ++objective_counts_[static_cast<std::size_t>(record.objective)];
  ++effective_counts_[static_cast<std::size_t>(record.effective)];
  report_.stage_seconds[static_cast<std::size_t>(stage)] +=
      params_->tracker.slot_seconds;

  const auto effective_now = static_cast<std::int32_t>(record.effective);
  outcome.qoe_changed =
      last_effective_ >= 0 && effective_now != last_effective_;
  last_effective_ = effective_now;
  if (metrics_ != nullptr) {
    metrics_->slots_processed->add();
    if (outcome.qoe_changed) metrics_->qoe_changes->add();
  }

  ++next_slot_;
  return outcome;
}

void SessionEngine::finalize() {
  report_.pattern = pattern_;
  report_.pattern_decided_at_s = pattern_decided_at_s_;
  // If the confidence threshold was never reached, fall back to the
  // unconditional inference (better than nothing for offline aggregation,
  // flagged by pattern_decided_at_s < 0).
  if (!report_.pattern && transitions_.transition_count() > 0)
    report_.pattern = models_.pattern->infer_unchecked(
        transitions_, scratch(models_.pattern->scratch_size()));
  const auto slots = static_cast<double>(next_slot_);
  report_.duration_s = slots;
  report_.objective_session = session_level(objective_counts_);
  report_.effective_session = session_level(effective_counts_);
  report_.mean_down_mbps = next_slot_ == 0 ? 0.0 : total_mbps_ / slots;
  if (metrics_ != nullptr) {
    metrics_->sessions_finished->add();
    if (next_slot_ != 0 && pattern_decided_at_s_ < 0)
      metrics_->never_confident_patterns->add();
  }
}

void SessionEngine::reset() {
  started_ = false;
  flow_begin_ = 0;
  // A pooled engine returns a window its session never classified from;
  // a standalone one keeps it (capacity and all) for the next session.
  if (title_window_ != nullptr) {
    if (window_pool_ != nullptr)
      window_pool_->give_back(std::move(title_window_));
    else
      title_window_->start(0);
  }
  title_done_ = false;
  has_demand_hint_ = false;
  demand_hint_mbps_ = 0.0;
  next_slot_ = 0;
  current_slot_ = RawSlotVolumetrics{};
  qoe_.reset();
  tracker_.reset();
  transitions_.reset();
  last_stage_ = -1;
  last_effective_ = -1;
  pattern_.reset();
  pattern_decided_at_s_ = -1.0;
  // Clear the report in place (not report_ = {}): the class-name string
  // keeps its capacity for the next pooled session.
  report_.detection.reset();
  report_.title.label.reset();
  report_.title.class_name.clear();
  report_.title.confidence = 0.0;
  report_.pattern.reset();
  report_.pattern_decided_at_s = -1.0;
  report_.objective_session = QoeLevel::kGood;
  report_.effective_session = QoeLevel::kGood;
  report_.stage_seconds.fill(0.0);
  report_.mean_down_mbps = 0.0;
  report_.duration_s = 0.0;
  objective_counts_.fill(0);
  effective_counts_.fill(0);
  peak_mbps_ = 5.0;
  peak_fps_ = 30.0;
  total_mbps_ = 0.0;
}

}  // namespace cgctx::core
