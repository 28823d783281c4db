// The incremental per-session state machine behind every entry point.
//
// The paper's Fig. 6 method is *one* real-time process per flow: title
// classification over the launch window, then per-slot volumetric
// tracking -> player-activity stage classification -> transition
// accumulation -> confidence-gated pattern inference, plus objective and
// context-calibrated effective QoE per slot. SessionEngine is that
// process, extracted so the batch pipeline (RealtimePipeline), the
// event-driven analyzer (StreamingAnalyzer) and the vantage-point probes
// (MultiSessionProbe / ShardedProbe) all replay into the *same* code —
// batch ≡ streaming ≡ probe equivalence holds by construction instead of
// by test.
//
// Hot-path contract:
//  - on_packet() performs zero heap allocations in steady state (once
//    the title window has closed and the engine's internal buffers have
//    reached session size). All scratch — the classifier probability
//    buffer, the volumetric attribute row, the slot records — is
//    engine-owned and reused.
//  - reset() clears session state but retains buffer capacity, so a
//    pooled engine (MultiSessionProbe keeps a free list) analyzes its
//    second and later sessions without allocating at all.
//  - Milestone events go to a SessionObserver, a concrete value type
//    holding an optional callback and an optional decision-trace ring.
//    Events fire only at milestones (detection, title close, slot close,
//    retirement), never on the per-packet tally, and the engine builds
//    one only when the observer has somewhere to send it: an empty
//    observer constructs and allocates nothing.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
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

/// Pipeline outputs for one I-second slot.
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
  std::vector<SlotRecord> slots;
  QoeLevel objective_session = QoeLevel::kGood;
  QoeLevel effective_session = QoeLevel::kGood;
  /// Classified seconds per stage (indexed active/passive/idle).
  std::array<double, kNumStageLabels> stage_seconds{};
  double mean_down_mbps = 0.0;
  double duration_s = 0.0;

  /// Exact field-wise equality (doubles compared bitwise-equal); used to
  /// verify that engine refactors reproduce reports identically.
  friend bool operator==(const SessionReport&, const SessionReport&) = default;
};

/// Classification milestones the engine surfaces as it advances.
/// kQoeChanged fires once per effective-QoE level change (potentially
/// every slot under churn); SessionObserver routes it to the decision
/// trace only.
enum class StreamEventType : std::uint8_t {
  kFlowDetected,
  kTitleClassified,
  kStageChanged,
  kPatternInferred,
  kQoeChanged,
};

const char* to_string(StreamEventType type);

struct StreamEvent {
  StreamEventType type = StreamEventType::kFlowDetected;
  /// Seconds since the detected flow began.
  double at_seconds = 0.0;
  /// kFlowDetected: the detection result.
  std::optional<DetectionResult> detection;
  /// kTitleClassified: the verdict.
  std::optional<TitleResult> title;
  /// kStageChanged: the new stage label.
  std::optional<ml::Label> stage;
  /// kPatternInferred: the inference.
  std::optional<PatternResult> pattern;
  /// kQoeChanged: the new effective QoE level.
  std::optional<QoeLevel> qoe;

  friend bool operator==(const StreamEvent&, const StreamEvent&) = default;
};

/// Event callback installed on the adapter layers (StreamingAnalyzer,
/// MultiSessionProbe); the engine reaches it through a SessionObserver.
using SessionEventCallback = std::function<void(const StreamEvent&)>;

/// One slot of externally measured telemetry (ISP slot-fidelity mode):
/// raw volumetrics plus the QoS/QoE observables measured out of band.
struct SlotTelemetry {
  RawSlotVolumetrics volumetrics;
  double frames = 0.0;
  double rtt_ms = 0.0;
  double loss_rate = 0.0;
};

/// Where one session's milestone events go. Both targets are optional
/// and caller-owned. This is the one place that routes events: the
/// decision-trace ring records every event, the callback every event
/// except kQoeChanged (callbacks predate that type and never see it).
struct SessionObserver {
  const SessionEventCallback* on_event = nullptr;  ///< non-null => callable
  obs::DecisionTraceRing* trace = nullptr;
  std::uint64_t session_id = 0;  ///< carried by trace events

  /// Whether any event has somewhere to go; the engine skips building
  /// events entirely when not.
  [[nodiscard]] bool wants_events() const {
    return on_event != nullptr || trace != nullptr;
  }
  /// Routes one milestone. The trace side is allocation-free.
  void emit(const StreamEvent& event) const;
  /// Appends the trace's terminal session-retired event (callbacks
  /// receive reports through their front-end instead).
  void retired(const SessionReport& report) const;
};

/// The empty observer under its former compile-time-sink name, kept
/// because the repository benchmark (perfbench/) constructs it by name.
using NullSessionSink = SessionObserver;

class SessionEngine {
 public:
  /// Models and params are caller-owned and must outlive the engine
  /// (PipelineParams holds the title-demand map; engines reference it
  /// rather than copying it per session). Throws std::invalid_argument
  /// when any model or the params pointer is missing.
  SessionEngine(PipelineModels models, const PipelineParams* params);

  /// Begins a session whose detected flow started at `flow_begin` (slot
  /// and title-window clocks are relative to it). Call after reset().
  void start(net::Timestamp flow_begin);

  /// Records the front-end detection verdict into the report and emits
  /// kFlowDetected, stamped with the age of the packet that triggered the
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
  /// flow, in timestamp order. Buffers the title window, classifies the
  /// title once the window elapses, closes every slot boundary the
  /// packet's timestamp has passed, then tallies the packet into the
  /// open slot. Allocation-free in steady state.
  void on_packet(const net::PacketRecord& pkt,
                 const SessionObserver& observer);

  /// Closes the open packet-mode slot explicitly (classify + QoE + record).
  void close_slot(const SessionObserver& observer);

  /// Telemetry mode: ingests one pre-aggregated slot.
  void push_slot(const SlotTelemetry& slot, const SessionObserver& observer);

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

  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool title_classified() const { return title_done_; }
  [[nodiscard]] std::size_t slots_closed() const {
    return report_.slots.size();
  }
  /// The report accumulated so far (finalized only after finish()).
  [[nodiscard]] const SessionReport& report() const { return report_; }

 private:
  /// What one closed slot produced, for deliver().
  struct SlotOutcome {
    double at_seconds = 0.0;
    bool stage_changed = false;
    bool pattern_event = false;  ///< first confident inference or flip
    bool qoe_changed = false;    ///< effective level differs from last slot
  };

  SlotOutcome close_slot_core();
  SlotOutcome ingest_slot(const SlotTelemetry& slot);
  void classify_pending_title();
  /// Classifies the buffered title window and emits kTitleClassified.
  void close_title(double at_seconds, const SessionObserver& observer);
  void install_title(const TitleResult& title);
  void finalize();
  [[nodiscard]] std::span<double> scratch(std::size_t n);

  void deliver(const SlotOutcome& outcome, const SessionObserver& observer);

  PipelineModels models_;
  const PipelineParams* params_;

  bool started_ = false;
  net::Timestamp flow_begin_ = 0;

  // Title window (only the first N seconds are kept).
  double title_window_seconds_ = 5.0;
  std::vector<net::PacketRecord> title_window_;
  bool title_done_ = false;
  /// Demand hint resolved once per title verdict (map lookups stay off
  /// the per-slot path).
  bool has_demand_hint_ = false;
  double demand_hint_mbps_ = 0.0;

  /// One probability scratch buffer reused by every classification the
  /// engine performs (sized once for the widest model; the
  /// compiled-forest path allocates nothing per call given it).
  std::vector<double> scratch_;
  /// Volumetric attribute row reused across slots.
  std::array<double, kNumVolumetricAttributes> attrs_{};

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
    const double t = net::duration_to_seconds(pkt.timestamp - flow_begin_);
    if (t < title_window_seconds_) title_window_.push_back(pkt);
    else close_title(t, observer);
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
