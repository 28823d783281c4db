// The incremental per-session state machine behind every entry point.
//
// The paper's Fig. 6 method is *one* real-time process per flow: title
// classification over the launch window, then per-slot volumetric
// tracking -> player-activity stage classification -> transition
// accumulation -> confidence-gated pattern inference, plus objective and
// context-calibrated effective QoE per slot. SessionEngine is that
// process. The event-driven analyzer (StreamingAnalyzer) and the
// vantage-point probes (MultiSessionProbe / ShardedProbe) promote flows
// through one core::LaunchFrontEnd and replay them into an engine, and
// the batch pipeline (RealtimePipeline) is an analyzer run over a
// capture. One engine, one front-end and one session-start rule make
// batch ≡ streaming ≡ probe equivalence hold by construction.
//
// Hot-path contract:
//  - on_packet() performs zero heap allocations in steady state (once
//    the engine's internal buffers have reached session size). All
//    scratch — the title window's per-group state, the classifier
//    probability buffer, the forest input rows — is engine-owned and
//    reused.
//  - A live session's state is constant in its length: the report holds
//    session aggregates only, and each slot's SlotRecord goes to the
//    observer's slot hook (if any) and is not kept. The title window
//    (a LaunchWindow, tens of KB of buffers) lives behind a pointer and
//    is taken at the session's first packet; an engine given a
//    TitleWindowPool borrows one there and hands it back at the title
//    verdict, so past the verdict a session holds no window at all, and
//    a telemetry-mode session (set_title, no packets) never takes one.
//  - reset() clears session state but retains buffer capacity, so a
//    pooled engine (MultiSessionProbe keeps a free list) analyzes its
//    second and later sessions without allocating at all.
//  - Milestone events (obs::TraceEvent, a POD record) go to a
//    SessionObserver, a concrete value type holding an optional callback,
//    an optional decision-trace ring and an optional slot hook.
//    Events fire only at milestones (detection, title close, slot close,
//    retirement), never on the per-packet tally, and the engine builds
//    one only when the observer has somewhere to send it: an empty
//    observer constructs and allocates nothing.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/flow_detector.hpp"
#include "core/launch_attributes.hpp"
#include "core/pipeline_metrics.hpp"
#include "core/qoe.hpp"
#include "core/qoe_estimator.hpp"
#include "core/stage_classifier.hpp"
#include "core/title_classifier.hpp"
#include "core/transition_model.hpp"
#include "core/volumetric_tracker.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"

namespace cgctx::core {

/// Trained models the engine consults (owned by the caller; engines stay
/// cheap to construct and safe to share one suite across many sessions).
struct PipelineModels {
  const TitleClassifier* title = nullptr;
  const StageClassifier* stage = nullptr;
  const PatternInferrer* pattern = nullptr;
};

struct PipelineParams {
  FlowDetectorParams detector{};
  VolumetricTrackerParams tracker{};
  PatternInferrerParams pattern{};  ///< thresholds (model supplies weights)
  ObjectiveQoeThresholds qoe{};
  /// Per-title expected peak demand (Mbps), keyed by classifier class
  /// name; consulted by the effective-QoE context when the title is
  /// known. Unknown titles fall back to the session's observed peak.
  std::map<std::string, double> title_demand_mbps;
  /// RTT assumed in packet mode when no QoS probe feed is present
  /// (slot-fidelity telemetry carries measured RTT instead).
  double assumed_rtt_ms = 15.0;
};

/// Pipeline outputs for one I-second slot. The engine hands each one to
/// the observer's slot hook as the slot closes and keeps none of them;
/// a caller that wants the history collects it (core::SlotHistory).
struct SlotRecord {
  ml::Label stage = kStageIdle;
  QoeLevel objective = QoeLevel::kGood;
  QoeLevel effective = QoeLevel::kGood;
  double throughput_mbps = 0.0;
  double frame_rate = 0.0;
  double rtt_ms = 0.0;
  double loss_rate = 0.0;

  friend bool operator==(const SlotRecord&, const SlotRecord&) = default;
};

/// The per-session record produced by the engine.
struct SessionReport {
  std::optional<DetectionResult> detection;
  TitleResult title;
  /// Most recent confident pattern inference (sharpens as the transition
  /// matrix matures); end-of-session unconditional fallback if confidence
  /// was never reached.
  std::optional<PatternResult> pattern;
  /// Seconds into the session at which the pattern inference first
  /// cleared the confidence threshold; <0 when it never did.
  double pattern_decided_at_s = -1.0;
  QoeLevel objective_session = QoeLevel::kGood;
  QoeLevel effective_session = QoeLevel::kGood;
  /// Classified seconds per stage (indexed active/passive/idle).
  std::array<double, kNumStageLabels> stage_seconds{};
  double mean_down_mbps = 0.0;
  /// Closed slots times the slot length (1 s): the session's slot count.
  double duration_s = 0.0;

  /// Exact field-wise equality (doubles compared bitwise-equal); used to
  /// verify that engine refactors reproduce reports identically.
  friend bool operator==(const SessionReport&, const SessionReport&) = default;
};

/// Event callback installed on the adapter layers (StreamingAnalyzer,
/// MultiSessionProbe, ShardedProbe); the engine reaches it through a
/// SessionObserver. It receives the same POD events as the decision
/// trace: every milestone, from flow promotion to session retirement,
/// stamped with the observer's session id. The event is valid only for
/// the call.
using SessionEventCallback = std::function<void(const obs::TraceEvent&)>;

/// Per-slot hook: the session's id (SessionObserver::session_id) and the
/// record of the slot that just closed, called once per slot in slot
/// order. The record is valid only for the call.
using SlotCallback =
    std::function<void(std::uint64_t session_id, const SlotRecord& slot)>;

/// One slot of externally measured telemetry (ISP slot-fidelity mode):
/// raw volumetrics plus the QoS/QoE observables measured out of band.
struct SlotTelemetry {
  RawSlotVolumetrics volumetrics;
  double frames = 0.0;
  double rtt_ms = 0.0;
  double loss_rate = 0.0;
};

/// Where one session's milestone events and slot records go. Every
/// target is optional and caller-owned. The callback and the
/// decision-trace ring receive the same events; the slot hook receives
/// every closed slot's record, whatever the event targets.
struct SessionObserver {
  const SessionEventCallback* on_event = nullptr;  ///< non-null => callable
  obs::DecisionTraceRing* trace = nullptr;
  std::uint64_t session_id = 0;  ///< carried by events and slots
  const SlotCallback* on_slot = nullptr;  ///< non-null => callable

  /// Whether any event has somewhere to go; the engine skips building
  /// events entirely when not.
  [[nodiscard]] bool wants_events() const {
    return on_event != nullptr || trace != nullptr;
  }
  /// Builds one milestone event for this session and hands it to the
  /// callback and the ring. Allocation-free (`name` is truncated into
  /// the event's inline array).
  void emit(obs::TraceEventType type, double at_seconds, std::int32_t label,
            double confidence, std::string_view name) const;
};

/// The empty observer under its former compile-time-sink name, kept
/// because the repository benchmark (perfbench/) constructs it by name.
using NullSessionSink = SessionObserver;

/// Spare title windows shared by the engines of one owner (one thread).
/// An engine borrows a window at its first packet and gives it back at
/// its title verdict, so the pool never holds more windows than the
/// owner ever had sessions inside their launch window at once.
class TitleWindowPool {
 public:
  /// A spare window, or a new one built with `params` when none is left.
  [[nodiscard]] std::unique_ptr<LaunchWindow> lend(
      const LaunchAttributeParams& params) {
    ++on_loan_;
    if (spare_.empty()) return std::make_unique<LaunchWindow>(params);
    std::unique_ptr<LaunchWindow> window = std::move(spare_.back());
    spare_.pop_back();
    return window;
  }
  void give_back(std::unique_ptr<LaunchWindow> window) {
    --on_loan_;
    spare_.push_back(std::move(window));
  }
  /// Windows lent and not yet given back.
  [[nodiscard]] std::size_t on_loan() const { return on_loan_; }
  /// Spare windows awaiting the next session.
  [[nodiscard]] std::size_t pooled() const { return spare_.size(); }

 private:
  std::vector<std::unique_ptr<LaunchWindow>> spare_;
  std::size_t on_loan_ = 0;
};

class SessionEngine {
 public:
  /// Models and params are caller-owned and must outlive the engine
  /// (PipelineParams holds the title-demand map; engines reference it
  /// rather than copying it per session). Throws std::invalid_argument
  /// when any model or the params pointer is missing.
  SessionEngine(PipelineModels models, const PipelineParams* params);

  /// Begins a session whose detected flow started at `flow_begin` (slot
  /// and title-window clocks are relative to it). Call after reset(), and
  /// before the session's first packet. Allocates nothing: the title
  /// window is taken at the first packet (take_title_window).
  void start(net::Timestamp flow_begin);

  /// Records the front-end detection verdict into the report and emits
  /// flow-promoted, stamped with the age of the packet that triggered the
  /// verdict (`detected_at`). Call after start().
  void set_detection(const DetectionResult& detection,
                     net::Timestamp detected_at,
                     const SessionObserver& observer);

  /// Telemetry mode: installs an externally computed title verdict (and
  /// its demand hint) so push_slot() calibrates from the first slot, the
  /// way the deployment's launch-window service feeds the slot pipeline.
  /// Copy-assigns into engine-owned storage (no allocation on reuse).
  void set_title(const TitleResult& title);

  /// Packet mode: advances the session by one packet of the detected
  /// flow, in timestamp order. Feeds the title window, classifies the
  /// title once the window elapses, closes every slot boundary the
  /// packet's timestamp has passed, then tallies the packet into the
  /// open slot. Allocation-free in steady state.
  ///
  /// Late packets: a packet older than the open telemetry slot (its own
  /// slot has closed) is tallied into the open slot, and the QoE
  /// estimator counts it as received but reordered (it does not advance
  /// the expected RTP sequence, and a duplicate only lowers the slot's
  /// loss estimate, floored at 0). Closed slots never reopen, so the slot
  /// count depends only on the newest timestamp seen. This is the title
  /// window's rule for its launch slots (LaunchWindow) applied to the
  /// telemetry slots.
  void on_packet(const net::PacketRecord& pkt,
                 const SessionObserver& observer);

  /// Closes the open packet-mode slot explicitly (classify + QoE + record).
  void close_slot(const SessionObserver& observer);

  /// Telemetry mode: ingests one pre-aggregated slot (push_slots of one).
  void push_slot(const SlotTelemetry& slot, const SessionObserver& observer) {
    push_slots(std::span(&slot, 1), observer);
  }

  /// Telemetry mode: ingests consecutive pre-aggregated slots. Reports,
  /// events and counters are exactly those of push_slot per slot. Stage
  /// verdicts depend only on the volumetric history, so every stage row
  /// is built first and the stage forest runs once over the span, then
  /// the pattern forest over the slots past its transition floor; the
  /// per-slot record, QoE and event work follows in slot order. With an
  /// event target or metrics, the pattern forest walks every such slot.
  /// Without, it walks only the slots the report can read: up to the
  /// span's first confident one while the session is undecided, and back
  /// from the span's end to its last confident one. The engine's batch
  /// buffers grow to the largest span pushed and are kept (allocation-free
  /// once warm).
  void push_slots(std::span<const SlotTelemetry> slots,
                  const SessionObserver& observer);

  /// Flushes the partial final slot, classifies a still-pending title
  /// window (sessions shorter than the window), and finalizes session
  /// aggregates, then tells the observer the session retired. Returns the
  /// engine-owned report; callers copy it if they need it past the next
  /// reset()/start().
  const SessionReport& finish(const SessionObserver& observer);

  /// Clears all session state while retaining buffer capacity, so pooled
  /// engines reanalyze without reallocating.
  void reset();

  /// Installs (or clears, with nullptr) the shared telemetry binding:
  /// classification-health counters and stage timers. Survives reset(),
  /// so pooled engines keep publishing. The instruments are wait-free
  /// atomics and are only touched at slot closes and title/pattern
  /// milestones — never on the per-packet path.
  void set_metrics(const PipelineMetrics* metrics) { metrics_ = metrics; }
  [[nodiscard]] const PipelineMetrics* metrics() const { return metrics_; }

  /// Installs (or clears, with nullptr) the pool the engine borrows its
  /// title window from; it must outlive the engine's sessions. With a
  /// pool, the window goes back at the title verdict (or at reset() if
  /// the verdict never came); without one, the engine keeps its window
  /// across reset(), so a standalone engine reuses one window for good.
  /// Survives reset().
  void set_title_window_pool(TitleWindowPool* pool) { window_pool_ = pool; }

  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool title_classified() const { return title_done_; }
  /// Packet mode: the 51 launch attributes the title verdict was computed
  /// from; empty until then, in telemetry mode, and once the window has
  /// gone back to a pool.
  [[nodiscard]] const ml::FeatureRow& title_attributes() const;
  [[nodiscard]] std::size_t slots_closed() const { return next_slot_; }
  /// The report accumulated so far (finalized only after finish()).
  [[nodiscard]] const SessionReport& report() const { return report_; }

 private:
  /// What one closed slot produced, for deliver().
  struct SlotOutcome {
    SlotRecord record;
    double at_seconds = 0.0;
    bool stage_changed = false;
    bool pattern_event = false;  ///< first confident inference or flip
    bool qoe_changed = false;    ///< effective level differs from last slot
  };

  /// The per-slot tail of push_slots, once the slot's stage and pattern
  /// inference are known: pattern bookkeeping, record, QoE, counters.
  /// `inference` is nullopt below the transition floor or the confidence
  /// threshold, and for a slot push_slots did not walk.
  SlotOutcome record_slot(const SlotTelemetry& slot, ml::Label stage,
                          const std::optional<PatternResult>& inference);
  void classify_pending_title();
  /// Takes a title window for the session, started at flow_begin_: from
  /// the pool when the engine has one, else a new one.
  void take_title_window();
  /// Classifies the title window and emits title-verdict.
  void close_title(double at_seconds, const SessionObserver& observer);
  /// Records the verdict; a pooled engine then gives its window back.
  void install_title(const TitleResult& title);
  void finalize();
  [[nodiscard]] std::span<double> scratch(std::size_t n);

  void deliver(const SlotOutcome& outcome, const SessionObserver& observer);

  PipelineModels models_;
  const PipelineParams* params_;

  bool started_ = false;
  net::Timestamp flow_begin_ = 0;

  // Title window: the first N seconds of packets, folded into per-group
  // state as they arrive (only the open slot's non-full packets wait).
  // Null until the session's first packet, and again past the verdict
  // in a pooled engine. A standalone engine keeps its window across
  // reset().
  std::unique_ptr<LaunchWindow> title_window_;
  TitleWindowPool* window_pool_ = nullptr;
  bool title_done_ = false;
  /// Demand hint resolved once per title verdict (map lookups stay off
  /// the per-slot path).
  bool has_demand_hint_ = false;
  double demand_hint_mbps_ = 0.0;

  /// One probability scratch buffer reused by every classification the
  /// engine performs (sized for the widest model times the largest slot
  /// batch; the compiled-forest path allocates nothing per call given it).
  std::vector<double> scratch_;
  /// push_slots batch buffers, sized to the largest span pushed: forest
  /// input rows (the stage rows, then the pattern rows), stage labels and
  /// pattern inferences.
  std::vector<double> rows_;
  std::vector<ml::Label> stages_;
  std::vector<std::optional<PatternResult>> inferences_;

  // Slot machinery.
  std::size_t next_slot_ = 0;
  RawSlotVolumetrics current_slot_;
  QoeEstimator qoe_{60.0};
  VolumetricTracker tracker_;
  TransitionTracker transitions_;
  ml::Label last_stage_ = -1;
  /// Effective QoE level of the previous slot; -1 before the first slot
  /// (establishing the initial level is not a change).
  std::int32_t last_effective_ = -1;
  std::optional<PatternResult> pattern_;
  double pattern_decided_at_s_ = -1.0;
  const PipelineMetrics* metrics_ = nullptr;
  /// Stage-timer sampling tick (see PipelineMetrics::timer_sample_stride);
  /// deliberately not reset() so short pooled sessions still sample.
  std::uint32_t timer_tick_ = 0;

  // Accumulated report state. QoE levels are counted, not collected:
  // session_level() needs only the per-level tallies.
  SessionReport report_;
  std::array<std::size_t, kNumQoeLevels> objective_counts_{};
  std::array<std::size_t, kNumQoeLevels> effective_counts_{};
  /// Causal peak estimates for the effective-QoE expectations, floored
  /// so the first slots do not divide by near-zero.
  double peak_mbps_ = 5.0;
  double peak_fps_ = 30.0;
  double total_mbps_ = 0.0;
};

inline void SessionEngine::on_packet(const net::PacketRecord& pkt,
                                     const SessionObserver& observer) {
  if (!title_done_) [[unlikely]] {
    if (title_window_ == nullptr) take_title_window();
    if (title_window_->before_end(pkt.timestamp))
      title_window_->add(pkt);
    else
      close_title(net::duration_to_seconds(pkt.timestamp - flow_begin_),
                  observer);
  }

  // Close any slots the clock has passed.
  while (pkt.timestamp - flow_begin_ >=
         static_cast<net::Timestamp>(next_slot_ + 1) * net::kNanosPerSecond)
    close_slot(observer);

  // Tally into the open slot.
  if (pkt.direction == net::Direction::kDownstream) {
    ++current_slot_.down_packets;
    current_slot_.down_bytes += pkt.payload_size;
  } else {
    ++current_slot_.up_packets;
    current_slot_.up_bytes += pkt.payload_size;
  }
  qoe_.add(pkt);
}

}  // namespace cgctx::core
