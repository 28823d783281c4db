// Sharded vantage-point probe throughput (PERF-PROBE).
//
// Replays one synthesized multi-subscriber wire (sim/fleet packet-
// fidelity replay: concurrent gaming sessions + household cross traffic)
// through the probe engine at 1/2/4/8 shards and reports packets/sec,
// drops, queue high-water marks, state bounds, and per-packet latency
// percentiles. Also verifies that the single-shard engine reproduces
// MultiSessionProbe's reports byte-identically — sharding is a pure
// scale-out transform, not a behavior change — and that at every shard
// count each pushed packet was accepted, dropped or gated exactly once
// (packets_in + packets_dropped + packets_gated == pushed). Either check
// failing makes the bench exit non-zero.
//
// Scaling: one capture thread hashes and hands off every packet, so once
// the shard workers together outpace it, more shards add nothing; and
// shards beyond the host's hardware threads minus one time-slice with it
// (DESIGN.md section 6 records measured inline / 1-shard / 3-shard
// rates). The bench prints the detected concurrency and flags hosts with
// fewer than 4 hardware threads instead of pretending.
#include <chrono>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "common/bench_support.hpp"
#include "core/multi_session_probe.hpp"
#include "core/sharded_probe.hpp"
#include "sim/fleet.hpp"

using namespace cgctx;

namespace {

struct RunResult {
  double seconds = 0.0;
  double packets_per_sec = 0.0;
  std::vector<core::SessionReport> reports;
  core::ProbeStatsSnapshot stats;
};

RunResult run_sharded(const std::vector<net::PacketRecord>& wire,
                      core::PipelineModels models, std::size_t shards) {
  core::ShardedProbeParams params;
  params.probe.pipeline = core::default_pipeline_params();
  params.num_shards = shards;
  RunResult result;
  core::ShardedProbe probe(models, params,
                           [&result](const core::SessionReport& report) {
                             result.reports.push_back(report);
                           });
  const auto begin = std::chrono::steady_clock::now();
  for (const net::PacketRecord& pkt : wire) probe.push(pkt);
  probe.flush();
  const auto end = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(end - begin).count();
  result.packets_per_sec =
      static_cast<double>(wire.size()) / result.seconds;
  result.stats = probe.stats();
  return result;
}

RunResult run_baseline(const std::vector<net::PacketRecord>& wire,
                       core::PipelineModels models) {
  RunResult result;
  core::MultiSessionProbe probe(
      models, core::MultiSessionProbeParams{core::default_pipeline_params()},
      [&result](const core::SessionReport& report) {
        result.reports.push_back(report);
      });
  const auto begin = std::chrono::steady_clock::now();
  for (const net::PacketRecord& pkt : wire) probe.push(pkt);
  probe.flush();
  const auto end = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(end - begin).count();
  result.packets_per_sec =
      static_cast<double>(wire.size()) / result.seconds;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: a minimal-workload run for CI — fewer sessions, shorter
  // wire, shard counts {1, 2}. The single-shard parity check still runs,
  // so the job fails on behavior regressions, not just crashes.
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  std::cout << "== PERF-PROBE: sharded multi-subscriber probe throughput ==\n";
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "hardware threads: " << hw << "\n";
  if (smoke) std::cout << "mode: smoke (minimal workload; numbers are noise)\n";
  if (hw < 4)
    std::cout << "NOTE: < 4 hardware threads; shard workers time-slice one "
                 "core,\nso multi-shard speedups cannot materialize on this "
                 "host.\n";

  sim::FleetReplayOptions options;
  options.sessions = smoke ? 3 : 8;
  options.gameplay_seconds = smoke ? 20.0 : 40.0;
  options.start_spread_s = smoke ? 10.0 : 20.0;
  options.cross_traffic_flows = smoke ? 4 : 9;
  const sim::FleetReplay replay = sim::build_fleet_replay(options);
  std::cout << "wire: " << replay.wire.size() << " packets, "
            << replay.session_flows.size() << " gaming sessions, "
            << options.cross_traffic_flows << " cross-traffic flows\n\n";

  const core::PipelineModels models = bench::bench_models().models();

  const RunResult baseline = run_baseline(replay.wire, models);
  std::cout << "MultiSessionProbe (inline, no shards): " << std::fixed
            << std::setprecision(0) << baseline.packets_per_sec
            << " pkts/s, " << baseline.reports.size() << " reports\n\n";

  std::cout << std::setw(7) << "shards" << std::setw(12) << "pkts/s"
            << std::setw(10) << "speedup" << std::setw(9) << "drops"
            << std::setw(8) << "q_hwm" << std::setw(10) << "gated"
            << std::setw(10) << "evicted"
            << std::setw(9) << "reports" << std::setw(10) << "p50_us"
            << std::setw(10) << "p99_us" << "\n";
  double one_shard_pps = 0.0;
  bool parity_ok = true;
  bool accounting_ok = true;
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  for (const std::size_t shards : shard_counts) {
    const RunResult run = run_sharded(replay.wire, models, shards);
    if (shards == 1) one_shard_pps = run.packets_per_sec;
    const auto latency = run.stats.latency();
    std::cout << std::setw(7) << shards << std::setw(12)
              << std::setprecision(0) << run.packets_per_sec << std::setw(9)
              << std::setprecision(2)
              << run.packets_per_sec / one_shard_pps << "x" << std::setw(9)
              << run.stats.packets_dropped << std::setw(8)
              << run.stats.queue_depth_hwm << std::setw(10)
              << run.stats.packets_gated << std::setw(10)
              << run.stats.flow_evictions << std::setw(9)
              << run.reports.size() << std::setw(10) << std::setprecision(1)
              << latency.p50_us << std::setw(10) << latency.p99_us << "\n";

    const std::uint64_t accounted = run.stats.packets_in +
                                    run.stats.packets_dropped +
                                    run.stats.packets_gated;
    if (accounted != replay.wire.size()) {
      accounting_ok = false;
      std::cout << "        in + dropped + gated = " << accounted
                << " != pushed " << replay.wire.size()
                << " — REGRESSION\n";
    }
    if (shards == 1) {
      parity_ok = run.reports == baseline.reports;
      std::cout << "        single-shard reports identical to "
                   "MultiSessionProbe: "
                << (parity_ok ? "yes" : "NO — REGRESSION") << "\n";
    }
  }
  return parity_ok && accounting_ok ? 0 : 1;
}
