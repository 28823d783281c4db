// The real-time analysis pipeline (paper Fig. 6), assembled for batch use.
//
// Packet streams (or, at ISP scale, per-second flow telemetry plus the
// launch packet window) flow through:
//   1. the cloud-gaming flow detector (front-end filter);
//   2. the game title classifier over the first N seconds;
//   3. continuous slot aggregation -> volumetric tracking -> player
//      activity stage classification -> transition tracking -> gameplay
//      activity pattern inference;
//   4. objective QoE measurement and context-calibrated effective QoE.
// Steps 2–4 are core::SessionEngine — the same state machine the
// streaming analyzer and vantage-point probes advance packet by packet.
// RealtimePipeline is the offline driver: it detects the flow over a
// whole capture, then replays it into an engine, so batch results are
// identical to streaming ones by construction. The output is one
// SessionReport per streaming session, the record the partner ISP's
// observability platform ingests.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>

#include "core/session_engine.hpp"
#include "obs/trace.hpp"
#include "sim/session.hpp"

namespace cgctx::core {

class RealtimePipeline {
 public:
  RealtimePipeline(PipelineModels models, PipelineParams params);

  /// Batch entry point for a raw packet stream that may interleave many
  /// flows: detects the cloud-gaming streaming flow, then analyzes it.
  /// Returns nullopt when no flow passes the detector.
  [[nodiscard]] std::optional<SessionReport> process_packets(
      std::span<const net::PacketRecord> packets) const;

  /// ISP-scale entry point: launch packet window (title classification)
  /// plus per-second flow telemetry (everything else). Detection is
  /// assumed done upstream.
  [[nodiscard]] SessionReport process_session(
      const sim::LabeledSession& session) const;

  [[nodiscard]] const PipelineParams& params() const { return params_; }

  /// Optional pipeline instrumentation, applied to every engine the
  /// batch driver constructs. Must outlive the pipeline.
  void set_metrics(const PipelineMetrics* metrics) { metrics_ = metrics; }

  /// Optional decision trace; sessions are numbered 1, 2, ... in call
  /// order. The ring is single-writer, so with tracing enabled the
  /// process_* entry points must not run concurrently (without a trace
  /// they remain freely concurrent). Must outlive the pipeline.
  void set_trace(obs::DecisionTraceRing* ring) { trace_ = ring; }

 private:
  /// The next session's observer: traced with a fresh id, or empty.
  [[nodiscard]] SessionObserver next_observer() const;

  PipelineModels models_;
  PipelineParams params_;
  const PipelineMetrics* metrics_ = nullptr;
  obs::DecisionTraceRing* trace_ = nullptr;
  /// Trace session numbering across const process_* calls.
  mutable std::atomic<std::uint64_t> next_trace_id_{1};
};

}  // namespace cgctx::core
