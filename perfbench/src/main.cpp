// Entry point of the repository benchmark.
//
//   cgctx_perfbench --warm-models DIR
//       trains and caches the model suite in DIR unless already there.
//   cgctx_perfbench --workload W --seed N --seconds S --trace 0|1
//                   --models DIR --work DIR
//       runs one workload; prints notes, one "metric value unit" line per
//       metric and, as the last line, the JSON result. Exits 1 without a
//       result when any output check fails.
//
// perfbench/run.py builds this executable and passes the directories.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr std::array<MetricSpec, 3> kEndToEnd = {{
    {"items_per_s", "items/s"},
    {"state_peak_mb", "MiB"},
    {"setup_s", "s"},
}};

constexpr std::array<MetricSpec, 49> kPerLayer = {{
    {"net.pcap_read.ns_per_frame", "ns"},
    {"net.pcap_read.ns_per_frame_tail", "ns"},
    {"net.pcap_read.allocs_per_frame", "allocs/frame"},
    {"net.decode.ns_per_frame", "ns"},
    {"net.decode.ns_per_frame_tail", "ns"},
    {"net.decode.allocs_per_frame", "allocs/frame"},
    {"net.decode.reject_ratio", "ratio"},
    {"core.probe.undetected.ns_per_pkt", "ns"},
    {"core.probe.undetected.ns_per_pkt_tail", "ns"},
    {"core.probe.undetected.count", "count"},
    {"core.probe.undetected.allocs_per_pkt", "allocs/pkt"},
    {"core.probe.promote.us_per_call", "us"},
    {"core.probe.promote.max_us", "us"},
    {"core.probe.promote.count", "count"},
    {"core.probe.false_promotions", "count"},
    {"core.probe.tally.ns_per_pkt", "ns"},
    {"core.probe.tally.ns_per_pkt_tail", "ns"},
    {"core.probe.tally.count", "count"},
    {"core.probe.tally.allocs_per_pkt", "allocs/pkt"},
    {"core.probe.title.us_per_call", "us"},
    {"core.probe.title.count", "count"},
    {"core.probe.slot_close.us_per_call", "us"},
    {"core.probe.slot_close.us_per_call_tail", "us"},
    {"core.probe.slot_close.count", "count"},
    {"core.probe.retire.us_per_call", "us"},
    {"core.probe.retire.count", "count"},
    {"core.probe.flush_ms", "ms"},
    {"core.probe.flow_table_peak", "count"},
    {"core.probe.live_sessions_peak", "count"},
    {"core.probe.flow_evictions", "count"},
    {"core.probe.miss_ratio", "ratio"},
    {"core.probe.per_packet_to_forest", "ratio"},
    {"core.sharded.push.ns_per_pkt", "ns"},
    {"core.sharded.push.ns_per_pkt_tail", "ns"},
    {"core.sharded.flush_ms", "ms"},
    {"core.sharded.producer_busy_ratio", "ratio"},
    {"core.sharded.queue_hwm", "count"},
    {"core.sharded.latency_p50_us", "us"},
    {"core.sharded.latency_p99_us", "us"},
    {"core.sharded.shard_imbalance", "ratio"},
    {"core.sharded.drop_ratio", "ratio"},
    {"core.title_classifier.us_per_session", "us"},
    {"core.session_engine.setup.us_per_session", "us"},
    {"core.session_engine.push_slot.ns_per_slot", "ns"},
    {"core.session_engine.push_slot.ns_per_slot_tail", "ns"},
    {"core.session_engine.finish.us_per_session", "us"},
    {"core.session_engine.allocs_per_slot", "allocs/slot"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
}};

struct Args {
  RunConfig run;
  std::string warm_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: cgctx_perfbench --warm-models DIR\n"
               "       cgctx_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --models DIR --work DIR\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--warm-models") args.warm_dir = value;
      else if (flag == "--workload") args.run.workload = value;
      else if (flag == "--seed") args.run.seed = std::stoull(value);
      else if (flag == "--seconds") args.run.seconds = std::stod(value);
      else if (flag == "--trace") args.run.trace = std::stoi(value) != 0;
      else if (flag == "--models") args.run.models_dir = value;
      else if (flag == "--work") args.run.work_dir = value;
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.warm_dir.empty() &&
      (args.run.workload.empty() || args.run.models_dir.empty() ||
       args.run.work_dir.empty() || !(args.run.seconds > 0.0)))
    usage("missing arguments");
  return args;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const RunConfig& config) {
  RunResult result;
  if (config.workload == "wire_mixed") result = run_wire_mixed(config);
  else if (config.workload == "pcap_mixed") result = run_pcap_mixed(config);
  else if (config.workload == "sharded_mixed") result = run_sharded_mixed(config);
  else if (config.workload == "slot_fleet") result = run_slot_fleet(config);
  else usage(("unknown workload " + config.workload).c_str());

  if (!result.failure.empty()) {
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", config.workload.c_str(),
                 result.failure.c_str());
    return 1;
  }
  std::cout << "meta: workload=" << config.workload << " seed=" << config.seed
            << " trace=" << (config.trace ? 1 : 0)
            << " build_type=" << CGCTX_PERFBENCH_BUILD_TYPE
            << " nproc=" << std::thread::hardware_concurrency() << "\n";
  for (const std::string& note : result.notes) std::cout << note << "\n";

  const auto specs = config.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(std::max<std::uint64_t>(result.attempted, 1)) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = result.values.find(spec.name);
    if (it == result.values.end() && !config.trace) {
      std::fprintf(stderr, "perfbench: %s produced no %s\n",
                   config.workload.c_str(), spec.name);
      return 1;
    }
    const double value = it == result.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", spec.name);
      return 1;
    }
    std::cout << spec.name << ' ' << json_number(value) << ' ' << spec.unit
              << "\n";
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + json_number(value) + ", \"unit\": \"" +
            spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string spread_note(const std::string& name, std::vector<double> values) {
  if (values.empty()) return name + ": no passes";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s min %.6g (q1 %.6g, median %.6g, q3 %.6g, p90 %.6g, max %.6g) "
                "over %zu passes",
                name.c_str(), quantile(values, 0.0), quantile(values, 0.25),
                quantile(values, 0.5), quantile(values, 0.75),
                quantile(values, 0.9), quantile(values, 1.0), values.size());
  return buf;
}

void sort_by_flow(std::vector<core::SessionReport>& reports) {
  std::stable_sort(reports.begin(), reports.end(),
                   [](const core::SessionReport& a, const core::SessionReport& b) {
                     if (!a.detection || !b.detection)
                       return a.detection.has_value() < b.detection.has_value();
                     return a.detection->flow < b.detection->flow;
                   });
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse(argc, argv);
    if (!args.warm_dir.empty()) {
      perfbench::warm_models(args.warm_dir);
      return 0;
    }
    return perfbench::run(args.run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
