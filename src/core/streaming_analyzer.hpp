// Incremental, event-driven session analysis.
//
// RealtimePipeline's batch entry points suit offline evaluation; an
// inline probe sees one packet at a time and wants to be told the moment
// something becomes known. StreamingAnalyzer owns the pre-detection
// front-end (flow table + detector + lookback buffer) and adapts one
// core::SessionEngine — the same state machine every entry point drives —
// to std::function callbacks, surfacing classification milestones as
// typed events:
//   kFlowDetected    — the cloud-gaming streaming flow was identified;
//   kTitleClassified — the five-second title verdict (or "unknown");
//   kStageChanged    — the player activity stage flipped;
//   kPatternInferred — the gameplay pattern cleared its confidence bar.
// Slot-level records stream out alongside, so a caller can feed the same
// observability backends the batch pipeline does.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "core/session_engine.hpp"
#include "core/trace_sink.hpp"
#include "net/flow_table.hpp"
#include "obs/trace.hpp"

namespace cgctx::core {

class StreamingAnalyzer {
 public:
  using EventCallback = SessionEventCallback;
  using SlotCallback = SlotRecordCallback;

  /// Models must outlive the analyzer. Callbacks may be empty.
  StreamingAnalyzer(PipelineModels models, PipelineParams params,
                    EventCallback on_event, SlotCallback on_slot = {});

  /// Non-copyable/movable: the engine references the analyzer-owned
  /// params.
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
  void set_trace(obs::DecisionTraceRing* ring) { trace_ = ring; }

 private:
  /// Forwards engine milestones and slot records to the analyzer's
  /// std::function callbacks and, when installed, the decision trace
  /// (emptiness checked at dispatch; this adapter path is not the probe
  /// hot path). QoE-change events are trace-only: the std::function
  /// callbacks predate the event type and never see it.
  struct CallbackSink {
    static constexpr bool kWantsEvents = true;
    static constexpr bool kWantsSlots = true;
    static constexpr bool kWantsQoe = true;
    StreamingAnalyzer* self;
    void on_stream_event(const StreamEvent& event) {
      if (self->trace_ != nullptr)
        append_trace(*self->trace_, self->trace_session_id_, event);
      if (event.type == StreamEventType::kQoeChanged) return;
      if (self->on_event_) self->on_event_(event);
    }
    void on_slot_record(const SlotRecord& record) {
      if (self->on_slot_) self->on_slot_(record);
    }
  };

  PipelineParams params_;
  EventCallback on_event_;
  SlotCallback on_slot_;

  net::FlowTable table_;
  CloudGamingFlowDetector detector_;
  std::optional<DetectionResult> detection_;
  net::Timestamp flow_begin_ = 0;
  /// Rolling pre-detection buffer (last ~10 s of packets whose tuple
  /// passes is_candidate()) so the detected flow's earliest packets still
  /// reach the title window.
  std::deque<net::PacketRecord> pre_buffer_;

  obs::DecisionTraceRing* trace_ = nullptr;
  std::uint64_t trace_session_id_ = 1;

  /// The shared per-session state machine (declared after params_, which
  /// it references).
  SessionEngine engine_;
};

}  // namespace cgctx::core
