// Shared declarations of the repository benchmark (see perfbench/README.md).
//
// One executable drives four closed-loop workloads through the library's
// public API. An untraced run reports the end-to-end metrics; a traced
// run times every call the benchmark makes into a layer and reports the
// per-layer metrics. Inputs come from the simulator and depend only on
// the workload seed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/model_suite.hpp"
#include "core/session_engine.hpp"

namespace perfbench {

using namespace cgctx;

/// Command-line configuration of one measured run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path models_dir;  ///< warmed model cache
  std::filesystem::path work_dir;    ///< capture file and span output
};

/// A reported metric's name and unit. The catalogs below are the
/// benchmark's whole vocabulary and match BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};

std::span<const MetricSpec> end_to_end_metrics();
std::span<const MetricSpec> per_layer_metrics();

/// What a workload hands back to main(): metric values by name (every
/// end-to-end metric in an untraced run; the per-layer metrics that apply
/// to the workload in a traced run, the rest read 0), informational lines
/// printed before the result, and the correctness verdict.
struct RunResult {
  std::map<std::string, double> values;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;  ///< packets/frames/slots handed to the program
  std::uint64_t failed = 0;     ///< of those, dropped or rejected
  std::string failure;          ///< first failed check, empty when correct
};

// --- workloads (packet_workloads.cpp, slot_workload.cpp) -----------------

RunResult run_wire_mixed(const RunConfig& config);
RunResult run_pcap_mixed(const RunConfig& config);
RunResult run_sharded_mixed(const RunConfig& config);
RunResult run_slot_fleet(const RunConfig& config);

// --- model cache (models.cpp) ---------------------------------------------

/// Loads the production-scale model suite cached in `dir`; throws
/// std::runtime_error when the cache is missing or unreadable.
core::ModelSuite load_models(const std::filesystem::path& dir);

/// Trains the production-scale suite and writes it to `dir`, unless a
/// readable cache is already there. Training is deterministic, so every
/// checkout of the same sources caches the same models.
void warm_models(const std::filesystem::path& dir);

// --- allocation counting (alloc_counter.cpp) ------------------------------

/// Turns the global operator-new counter on or off (off by default; only
/// traced runs turn it on).
void set_alloc_counting(bool on);

/// Allocations made by the calling thread while counting was on.
std::uint64_t thread_allocs();

// --- memory (memory.cpp) --------------------------------------------------

/// Measures how far resident memory rises during a timed phase.
///
/// begin() returns free heap pages to the kernel and resets the kernel's
/// peak-RSS mark (VmHWM) through /proc/self/clear_refs, then records the
/// RSS. end_mib() reads VmHWM and returns the rise in MiB. Where
/// clear_refs is unavailable the mark cannot be reset; end_mib() then
/// falls back to the highest VmRSS seen by sample() (called where the
/// phase's state is largest), which can miss short-lived peaks. A window
/// that was never begun reads 0 and costs nothing.
class StateWindow {
 public:
  void begin();
  void sample();
  [[nodiscard]] double end_mib() const;

 private:
  bool active_ = false;
  bool hwm_reset_ = false;
  std::uint64_t start_kb_ = 0;
  std::uint64_t sampled_kb_ = 0;
};

// --- shared helpers (main.cpp) --------------------------------------------

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_seconds();

/// Median of `values`; 0 for an empty input.
double median(std::vector<double> values);

/// Quantile `q` of `values`, interpolated between order statistics; 0 for
/// an empty input.
double quantile(std::vector<double> values, double q);

/// The throughput a workload reports: the rate of its slowest timed pass,
/// i.e. the rate it sustained through every pass of the run. On a shared
/// host other tenants slow whole stretches of passes; across runs the
/// slowest pass moved least of the statistics tried (see README.md).
inline double pass_rate(const std::vector<double>& rates) {
  return quantile(rates, 0.0);
}

/// "name min X (q1, median, q3, p90, max) over N passes" for the notes.
std::string spread_note(const std::string& name, std::vector<double> values);

/// Sorts reports by detected flow so outputs from engines that emit in
/// different orders (sharded workers) compare element-wise.
void sort_by_flow(std::vector<core::SessionReport>& reports);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;
/// Timed passes per run at the least, however short `--seconds` is.
inline constexpr std::size_t kMinPasses = 3;

}  // namespace perfbench
