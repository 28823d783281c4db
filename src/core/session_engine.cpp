#include "core/session_engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace cgctx::core {

const char* to_string(StreamEventType type) {
  switch (type) {
    case StreamEventType::kFlowDetected: return "flow-detected";
    case StreamEventType::kTitleClassified: return "title-classified";
    case StreamEventType::kStageChanged: return "stage-changed";
    case StreamEventType::kPatternInferred: return "pattern-inferred";
    case StreamEventType::kQoeChanged: return "qoe-changed";
  }
  return "?";
}

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

const char* title_name(const TitleResult& title) {
  return title.label ? title.class_name.c_str() : "(unknown)";
}

}  // namespace

void SessionObserver::emit(const StreamEvent& event) const {
  if (on_event != nullptr && event.type != StreamEventType::kQoeChanged)
    (*on_event)(event);
  if (trace == nullptr) return;
  obs::TraceEvent out;
  out.session_id = session_id;
  out.at_seconds = event.at_seconds;
  switch (event.type) {
    case StreamEventType::kFlowDetected:
      out.type = obs::TraceEventType::kFlowPromoted;
      if (event.detection) out.set_name(to_string(event.detection->platform));
      break;
    case StreamEventType::kTitleClassified:
      out.type = obs::TraceEventType::kTitleVerdict;
      if (event.title) {
        out.label = event.title->label
                        ? static_cast<std::int32_t>(*event.title->label)
                        : -1;
        out.confidence = event.title->confidence;
        out.set_name(title_name(*event.title));
      }
      break;
    case StreamEventType::kStageChanged:
      out.type = obs::TraceEventType::kStageTransition;
      if (event.stage) {
        out.label = static_cast<std::int32_t>(*event.stage);
        out.set_name(stage_name(*event.stage));
      }
      break;
    case StreamEventType::kPatternInferred:
      out.type = obs::TraceEventType::kPatternDecision;
      if (event.pattern) {
        out.label = static_cast<std::int32_t>(event.pattern->label);
        out.confidence = event.pattern->confidence;
        out.set_name(pattern_name(event.pattern->label));
      }
      break;
    case StreamEventType::kQoeChanged:
      out.type = obs::TraceEventType::kQoeChange;
      if (event.qoe) {
        out.label = static_cast<std::int32_t>(*event.qoe);
        out.set_name(to_string(*event.qoe));
      }
      break;
  }
  trace->push(out);
}

void SessionObserver::retired(const SessionReport& report) const {
  if (trace == nullptr) return;
  obs::TraceEvent out;
  out.session_id = session_id;
  out.at_seconds = report.duration_s;
  out.type = obs::TraceEventType::kSessionRetired;
  out.label = static_cast<std::int32_t>(report.effective_session);
  out.confidence = report.title.confidence;
  out.set_name(title_name(report.title));
  trace->push(out);
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
  title_window_seconds_ = models_.title->params().attributes.window_seconds;
  tracker_ = VolumetricTracker(params_->tracker);
}

std::span<double> SessionEngine::scratch(std::size_t n) {
  if (scratch_.size() < n) scratch_.resize(n);  // models retrained mid-life
  return std::span<double>(scratch_.data(), n);
}

void SessionEngine::start(net::Timestamp flow_begin) {
  started_ = true;
  flow_begin_ = flow_begin;
}

void SessionEngine::set_detection(const DetectionResult& detection,
                                  net::Timestamp detected_at,
                                  const SessionObserver& observer) {
  report_.detection = detection;
  if (!observer.wants_events()) return;
  StreamEvent event;
  event.type = StreamEventType::kFlowDetected;
  event.at_seconds = net::duration_to_seconds(detected_at - flow_begin_);
  event.detection = detection;
  observer.emit(event);
}

void SessionEngine::install_title(const TitleResult& title) {
  // Field-wise copy: class_name assignment reuses the report string's
  // capacity, keeping pooled reuse allocation-free past the first session.
  report_.title.label = title.label;
  report_.title.class_name = title.class_name;
  report_.title.confidence = title.confidence;
  title_done_ = true;
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
  install_title(models_.title->classify_features(
      launch_attributes(title_window_, flow_begin_,
                        models_.title->params().attributes),
      scratch(models_.title->scratch_size())));
  title_window_.clear();  // keeps capacity for the next session
}

void SessionEngine::close_title(double at_seconds,
                                const SessionObserver& observer) {
  classify_pending_title();
  if (!observer.wants_events()) return;
  StreamEvent event;
  event.type = StreamEventType::kTitleClassified;
  event.at_seconds = at_seconds;
  event.title = report_.title;
  observer.emit(event);
}

void SessionEngine::close_slot(const SessionObserver& observer) {
  deliver(close_slot_core(), observer);
}

void SessionEngine::push_slot(const SlotTelemetry& slot,
                              const SessionObserver& observer) {
  deliver(ingest_slot(slot), observer);
}

void SessionEngine::deliver(const SlotOutcome& outcome,
                            const SessionObserver& observer) {
  if (!observer.wants_events()) return;
  if (outcome.stage_changed) {
    StreamEvent event;
    event.type = StreamEventType::kStageChanged;
    event.at_seconds = outcome.at_seconds;
    event.stage = report_.slots.back().stage;
    observer.emit(event);
  }
  if (outcome.pattern_event) {
    StreamEvent event;
    event.type = StreamEventType::kPatternInferred;
    event.at_seconds = outcome.at_seconds;
    event.pattern = pattern_;
    observer.emit(event);
  }
  if (outcome.qoe_changed) {
    StreamEvent event;
    event.type = StreamEventType::kQoeChanged;
    event.at_seconds = outcome.at_seconds;
    event.qoe = report_.slots.back().effective;
    observer.emit(event);
  }
}

const SessionReport& SessionEngine::finish(const SessionObserver& observer) {
  if (started_ &&
      (current_slot_.down_packets + current_slot_.up_packets) > 0)
    close_slot(observer);
  // A session that ended inside the title window is classified from what
  // arrived, uniformly across entry points.
  if (started_ && !title_done_)
    close_title(static_cast<double>(report_.slots.size()), observer);
  finalize();
  observer.retired(report_);
  return report_;
}

SessionEngine::SlotOutcome SessionEngine::close_slot_core() {
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
  return ingest_slot(slot);
}

SessionEngine::SlotOutcome SessionEngine::ingest_slot(
    const SlotTelemetry& slot) {
  // Stage timers are sampled: the tick deliberately survives reset() so
  // pooled engines running short sessions still hit sampled slots.
  bool timed = false;
  if (metrics_ != nullptr && ++timer_tick_ >= metrics_->timer_sample_stride) {
    timer_tick_ = 0;
    timed = true;
  }
  const obs::ScopedTimer slot_timer(timed ? metrics_->slot_close_ns : nullptr);
  SlotOutcome outcome;
  outcome.at_seconds = static_cast<double>(next_slot_ + 1);

  tracker_.push_into(slot.volumetrics, attrs_);
  ml::Label stage;
  {
    const obs::ScopedTimer timer(timed ? metrics_->stage_classify_ns
                                       : nullptr);
    stage = models_.stage->classify(std::span<const double>(attrs_),
                                    scratch(models_.stage->scratch_size()));
  }
  transitions_.push(stage);

  if (stage != last_stage_) {
    outcome.stage_changed = true;
    last_stage_ = stage;
  }

  // Pattern inference runs continuously: the report carries the most
  // recent confident verdict (it sharpens as the transition matrix
  // matures), while pattern_decided_at_s records when the operator first
  // had a usable answer.
  std::optional<PatternResult> inference;
  {
    const obs::ScopedTimer timer(timed ? metrics_->pattern_infer_ns
                                       : nullptr);
    inference = models_.pattern->infer(
        transitions_, scratch(models_.pattern->scratch_size()));
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

  SlotRecord record;
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

  report_.slots.push_back(record);
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
  report_.duration_s = static_cast<double>(report_.slots.size());
  report_.objective_session = session_level(objective_counts_);
  report_.effective_session = session_level(effective_counts_);
  report_.mean_down_mbps =
      report_.slots.empty()
          ? 0.0
          : total_mbps_ / static_cast<double>(report_.slots.size());
  if (metrics_ != nullptr) {
    metrics_->sessions_finished->add();
    if (!report_.slots.empty() && pattern_decided_at_s_ < 0)
      metrics_->never_confident_patterns->add();
  }
}

void SessionEngine::reset() {
  started_ = false;
  flow_begin_ = 0;
  title_window_.clear();
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
  // Clear the report in place (not report_ = {}): the slot vector and
  // class-name string keep their capacity for the next pooled session.
  report_.detection.reset();
  report_.title.label.reset();
  report_.title.class_name.clear();
  report_.title.confidence = 0.0;
  report_.pattern.reset();
  report_.pattern_decided_at_s = -1.0;
  report_.slots.clear();
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
