// Incremental, event-driven session analysis.
//
// RealtimePipeline's batch entry points suit offline evaluation; an
// inline probe sees one packet at a time and wants to be told the moment
// something becomes known. StreamingAnalyzer owns the pre-detection
// front-end (flow table + detector + lookback buffer) and adapts one
// core::SessionEngine — the same state machine every entry point drives —
// to a std::function callback, surfacing classification milestones as
// typed events:
//   kFlowDetected    — the cloud-gaming streaming flow was identified;
//   kTitleClassified — the five-second title verdict (or "unknown");
//   kStageChanged    — the player activity stage flipped;
//   kPatternInferred — the gameplay pattern cleared its confidence bar.
#pragma once

#include <cstdint>
#include <optional>

#include "core/launch_lookback.hpp"
#include "core/session_engine.hpp"
#include "net/flow_table.hpp"
#include "obs/trace.hpp"

namespace cgctx::core {

class StreamingAnalyzer {
 public:
  using EventCallback = SessionEventCallback;

  /// Models must outlive the analyzer. The callback may be empty.
  StreamingAnalyzer(PipelineModels models, PipelineParams params,
                    EventCallback on_event);

  /// Non-copyable/movable: the engine references the analyzer-owned
  /// params, and the observer the analyzer-owned callback.
  StreamingAnalyzer(const StreamingAnalyzer&) = delete;
  StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

  /// Feeds one packet in arrival order. Packets of undetected flows feed
  /// the detector; once the gaming flow is identified, only its packets
  /// are analyzed.
  void push(const net::PacketRecord& pkt);

  /// Flushes the partially filled final slot and returns the session
  /// report accumulated so far. The analyzer is reusable afterward
  /// (state resets for the next session).
  SessionReport finish();

  [[nodiscard]] bool flow_detected() const { return detection_.has_value(); }
  [[nodiscard]] bool title_classified() const {
    return engine_.title_classified();
  }

  /// Optional pipeline instrumentation (classification-health counters,
  /// stage timers). Must outlive the analyzer.
  void set_metrics(const PipelineMetrics* metrics) {
    engine_.set_metrics(metrics);
  }

  /// Optional decision trace. Successive sessions the analyzer processes
  /// are numbered 1, 2, ... (advanced by finish()). The ring must outlive
  /// the analyzer.
  void set_trace(obs::DecisionTraceRing* ring) { observer_.trace = ring; }

  /// Candidate packets buffered before detection.
  [[nodiscard]] std::size_t lookback_size() const { return lookback_.size(); }
  /// Buffered packets dropped by the LaunchLookback::kCap bound over the
  /// analyzer's lifetime.
  [[nodiscard]] std::uint64_t lookback_drops() const {
    return lookback_.drops();
  }

 private:
  PipelineParams params_;
  EventCallback on_event_;
  /// Routes events to on_event_ and the trace; its session id advances
  /// at each finish().
  SessionObserver observer_;

  net::FlowTable table_;
  CloudGamingFlowDetector detector_;
  std::optional<DetectionResult> detection_;
  /// Candidate packets seen before detection, so the detected flow's
  /// earliest packets still reach the title window.
  LaunchLookback lookback_;

  /// The shared per-session state machine (declared after params_, which
  /// it references).
  SessionEngine engine_;
};

}  // namespace cgctx::core
