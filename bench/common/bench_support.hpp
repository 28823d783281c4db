// Shared support for the reproduction benches: a disk-cached,
// production-scale model suite (so twenty bench binaries don't retrain),
// a fleet-measurement runner used by the §5 benches, and small table
// printing helpers.
#pragma once

#include <string>
#include <vector>

#include "core/model_suite.hpp"
#include "sim/fleet.hpp"
#include "telemetry/aggregator.hpp"

namespace cgctx::bench {

/// Returns the production-scale model suite (lab_scale 1.0, augmentation
/// x2). The first call trains and serializes the three models into
/// `cgctx_bench_model_cache/` under the current working directory;
/// subsequent calls (and other bench binaries) load from disk. Delete the
/// directory to force retraining.
const core::ModelSuite& bench_models();

/// Milliseconds bench_models() took to deserialize one model ("title",
/// "stage" or "pattern") from the cache: the process's first load of it.
/// NaN when the suite was trained in this process instead.
double cache_load_ms(const std::string& name);

/// Serialized text of one bench_models() model ("title", "stage" or
/// "pattern") as the model cache holds it; "" when the cache could not be
/// written.
std::string cached_model_text(const std::string& name);

/// Everything the §5 benches need from one simulated deployment window.
struct FleetMeasurement {
  /// Aggregates keyed by *validated* classified title (sessions whose
  /// confident classification matched ground truth), mirroring the
  /// paper's field validation against server logs.
  telemetry::FleetAggregator by_title;
  /// Aggregates keyed by inferred gameplay activity pattern for sessions
  /// the title classifier answered "unknown" (Fig. 11(b)/12(b)/13(b)).
  telemetry::FleetAggregator by_pattern;
  /// Title-classification field validation (popular titles only).
  std::size_t catalog_sessions = 0;
  std::size_t confident = 0;
  std::size_t confident_correct = 0;
  std::size_t total_sessions = 0;
};

struct FleetRunOptions {
  std::size_t sessions = 400;
  std::uint64_t seed = 20241201;
  /// Scale on per-title session durations; 0.35 keeps mean sessions in
  /// the tens of minutes (enough for stable stage/pattern statistics)
  /// while staying fast.
  double duration_scale = 0.35;
};

/// Runs a fleet through the pipeline and aggregates (shared by the
/// Fig. 11/12/13 and validation benches).
FleetMeasurement run_fleet(const FleetRunOptions& options);

/// Prints a horizontal bar of `value` scaled against `max_value`.
std::string bar(double value, double max_value, std::size_t width = 40);

/// Prints "xx.x%" with fixed width.
std::string pct(double fraction);

}  // namespace cgctx::bench
