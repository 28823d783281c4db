// Classification-health counters and stage timers for the session
// pipeline, published through the unified telemetry plane.
//
// A probe that only counts packets can hide a drifting model: packets
// flow fine while every title verdict comes back unknown. PipelineMetrics
// is the registry binding SessionEngine records its *decisions* into —
// unknown-title verdicts, below-threshold confidences, sessions whose
// pattern inference never reached confidence — plus scoped-timer
// histograms around the pipeline's classification stages, so an operator
// sees model drift and stage cost, not just packet drops.
//
// One instance is shared by every engine of a deployment (counters are
// wait-free atomics; ShardedProbe shares one across all shards). Engines
// hold a const pointer; a null pointer disables everything at the cost
// of one branch per slot close — the per-packet path never consults it.
#pragma once

#include "obs/metrics.hpp"

namespace cgctx::core {

struct PipelineMetrics {
  // Classification health.
  obs::Counter* title_verdicts = nullptr;      ///< all title verdicts
  obs::Counter* unknown_titles = nullptr;      ///< verdicts with no label
  obs::Counter* low_confidence_titles = nullptr;  ///< below the unknown bar
  obs::Counter* pattern_decisions = nullptr;   ///< first confident inference
  obs::Counter* pattern_flips = nullptr;       ///< confident verdict changed
  obs::Counter* never_confident_patterns = nullptr;  ///< finished w/o one
  obs::Counter* sessions_finished = nullptr;
  obs::Counter* slots_processed = nullptr;
  obs::Counter* qoe_changes = nullptr;         ///< effective level changed

  // Stage timers (nanoseconds; compiled-forest walks dominate each).
  obs::Histogram* title_classify_ns = nullptr;
  obs::Histogram* stage_classify_ns = nullptr;
  obs::Histogram* pattern_infer_ns = nullptr;
  obs::Histogram* slot_close_ns = nullptr;  ///< whole slot-close pipeline

  /// Time every Nth slot close (1 = all). Sampling keeps the steady_clock
  /// reads — the dominant instrumentation cost — off most slots, the same
  /// trade ShardedProbeParams::latency_sample_stride makes; the counters
  /// above are exact regardless. The title timer ignores the stride (one
  /// classification per session). A SessionEngine::push_slots batch times
  /// each step once and records, for every sampled slot in it, the step's
  /// time divided by the batch's slot count. Must be >= 1.
  std::uint32_t timer_sample_stride = 8;

  /// Registers all instruments in `registry` (idempotent: registering
  /// twice returns the same instruments) under `cgctx_session_*` /
  /// `cgctx_pipeline_*` names.
  static PipelineMetrics create(obs::MetricsRegistry& registry);
};

}  // namespace cgctx::core
