// Incremental, event-driven session analysis.
//
// RealtimePipeline's batch entry points suit offline evaluation; an
// inline probe sees one packet at a time and wants to be told the moment
// something becomes known. StreamingAnalyzer drives the shared launch
// front-end (core::LaunchFrontEnd: flow table + detector + lookback) and
// adapts one core::SessionEngine — the same state machine every entry
// point drives — to a std::function callback, surfacing classification
// milestones as obs::TraceEvent records, the decision trace's events:
//   flow-promoted    — the cloud-gaming streaming flow was identified;
//   title-verdict    — the five-second title verdict (or "unknown");
//   stage-transition — the player activity stage flipped;
//   pattern-decision — the gameplay pattern cleared its confidence bar;
//   qoe-change       — the effective QoE level changed;
//   session-retired  — finish() closed the session.
#pragma once

#include <cstdint>

#include "core/launch_front_end.hpp"
#include "core/session_engine.hpp"
#include "obs/trace.hpp"

namespace cgctx::core {

class StreamingAnalyzer {
 public:
  using EventCallback = SessionEventCallback;

  /// Models must outlive the analyzer. Either callback may be empty;
  /// `on_slot` receives every closed slot's record (SlotCallback), with
  /// the session id set_trace() numbers sessions by.
  StreamingAnalyzer(PipelineModels models, PipelineParams params,
                    EventCallback on_event, SlotCallback on_slot = {});

  /// Non-copyable/movable: the engine references the analyzer-owned
  /// params, and the observer the analyzer-owned callbacks.
  StreamingAnalyzer(const StreamingAnalyzer&) = delete;
  StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

  /// Feeds one packet in arrival order. Non-candidate packets (no
  /// platform port range) are only counted; candidate packets of
  /// undetected flows feed the detector; once the gaming flow is
  /// identified, only its packets are analyzed.
  void push(const net::PacketRecord& pkt);

  /// Flushes the partially filled final slot and returns the session
  /// report accumulated so far. The analyzer is reusable afterward
  /// (state resets for the next session). Without a detected flow it
  /// returns an empty report and retires nothing.
  SessionReport finish();

  [[nodiscard]] bool flow_detected() const {
    return engine_.report().detection.has_value();
  }
  [[nodiscard]] bool title_classified() const {
    return engine_.title_classified();
  }

  /// Optional pipeline instrumentation (classification-health counters,
  /// stage timers). Must outlive the analyzer.
  void set_metrics(const PipelineMetrics* metrics) {
    engine_.set_metrics(metrics);
  }

  /// Optional decision trace. Successive sessions the analyzer processes
  /// are numbered `first_id`, `first_id + 1`, ... (advanced as finish()
  /// retires each). The ring must outlive the analyzer.
  void set_trace(obs::DecisionTraceRing* ring, std::uint64_t first_id = 1) {
    observer_.trace = ring;
    observer_.session_id = first_id;
  }

  /// Non-candidate packets gated out over the analyzer's lifetime.
  [[nodiscard]] std::uint64_t gated_packets() const { return gated_; }
  /// Candidate packets buffered before detection.
  [[nodiscard]] std::size_t lookback_size() const {
    return front_end_.lookback_size();
  }
  /// Buffered packets dropped by the LaunchFrontEnd::kCap bound over the
  /// analyzer's lifetime.
  [[nodiscard]] std::uint64_t lookback_drops() const {
    return front_end_.lookback_drops();
  }

 private:
  PipelineParams params_;
  EventCallback on_event_;
  SlotCallback on_slot_;
  /// Routes events to on_event_ and the trace, and slots to on_slot_; its
  /// session id advances at each finish() that retires a session.
  SessionObserver observer_;

  /// Flow table, detector and lookback until the flow is detected.
  LaunchFrontEnd front_end_;
  std::uint64_t gated_ = 0;

  /// The shared per-session state machine (declared after params_, which
  /// it references).
  SessionEngine engine_;
};

}  // namespace cgctx::core
