#include "core/probe_stats.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace cgctx::core {

obs::LatencySummary ProbeStatsSnapshot::latency() const {
  return obs::summarize_latency(latency_buckets, latency_max_ns);
}

std::string ProbeStatsSnapshot::to_string() const {
  const obs::LatencySummary lat = latency();
  std::ostringstream os;
  os << "packets: in=" << packets_in << " processed=" << packets_processed
     << " dropped=" << packets_dropped << " gated=" << packets_gated
     << "\n"
     << "flows:   live=" << live_flows << " evicted=" << flow_evictions
     << " lookback_dropped=" << lookback_dropped << "\n"
     << "sessions: live=" << live_sessions
     << " started=" << sessions_started << " reports=" << reports_emitted
     << "\n"
     << "title windows: on_loan=" << title_windows_on_loan
     << " pooled=" << title_windows_pooled << "\n"
     << "queue depth high-water mark: " << queue_depth_hwm << "\n"
     << "per-packet latency (" << lat.samples << " samples): p50="
     << lat.p50_us << "us p90=" << lat.p90_us << "us p99=" << lat.p99_us
     << "us max=" << lat.max_us << "us";
  return os.str();
}

obs::Counter& gated_counter(obs::MetricsRegistry& registry,
                            obs::MetricLabels labels) {
  return registry.counter(
      "cgctx_probe_packets_gated_total",
      "Non-candidate packets gated out before the flow table",
      std::move(labels));
}

ProbeStats::ProbeStats()
    : owned_(std::make_unique<obs::MetricsRegistry>()) {
  bind(*owned_, {});
}

ProbeStats::ProbeStats(obs::MetricsRegistry& registry,
                       obs::MetricLabels labels) {
  bind(registry, std::move(labels));
}

void ProbeStats::bind(obs::MetricsRegistry& registry,
                      obs::MetricLabels labels) {
  packets_in_ = &registry.counter(
      "cgctx_probe_packets_in_total",
      "Packets accepted into a probe shard queue", labels);
  packets_dropped_ = &registry.counter(
      "cgctx_probe_packets_dropped_total",
      "Packets rejected by the queue overflow policy", labels);
  packets_gated_ = &gated_counter(registry, labels);
  packets_processed_ = &registry.counter(
      "cgctx_probe_packets_processed_total",
      "Packets fully pushed through a probe", labels);
  flow_evictions_ = &registry.counter(
      "cgctx_probe_flow_evictions_total",
      "Idle flows evicted from the shared flow table", labels);
  lookback_dropped_ = &registry.counter(
      "cgctx_probe_lookback_dropped_total",
      "Pre-detection lookback packets dropped at the buffer cap", labels);
  sessions_started_ = &registry.counter(
      "cgctx_probe_sessions_started_total",
      "Flows promoted to tracked sessions", labels);
  reports_emitted_ = &registry.counter(
      "cgctx_probe_reports_total",
      "Sessions retired with an emitted report", labels);
  live_flows_ = &registry.gauge(
      "cgctx_probe_live_flows", "Current flow-table size", labels);
  live_sessions_ = &registry.gauge(
      "cgctx_probe_live_sessions", "Current tracked session count", labels);
  title_windows_on_loan_ = &registry.gauge(
      "cgctx_probe_title_windows_on_loan",
      "Title windows lent to sessions awaiting their verdict", labels);
  title_windows_pooled_ = &registry.gauge(
      "cgctx_probe_title_windows_pooled",
      "Spare title windows pooled for the next session", labels);
  queue_depth_hwm_ = &registry.gauge(
      "cgctx_probe_queue_depth_hwm",
      "Shard queue depth high-water mark", labels);
  latency_ = &registry.histogram(
      "cgctx_probe_packet_latency_ns",
      "Per-packet processing latency (sampled)", labels);
  backpressure_wait_ = &registry.histogram(
      "cgctx_probe_backpressure_wait_ns",
      "Capture-thread wait for space in a full shard queue", labels);
  trace_overwritten_ = &registry.gauge(
      "cgctx_probe_trace_overwritten",
      "Decision-trace events lost to ring overwrite", std::move(labels));
}

ProbeStatsSnapshot ProbeStats::snapshot() const {
  ProbeStatsSnapshot snap;
  snap.packets_in = packets_in_->value();
  snap.packets_dropped = packets_dropped_->value();
  snap.packets_gated = packets_gated_->value();
  snap.packets_processed = packets_processed_->value();
  snap.flow_evictions = flow_evictions_->value();
  snap.lookback_dropped = lookback_dropped_->value();
  snap.sessions_started = sessions_started_->value();
  snap.reports_emitted = reports_emitted_->value();
  snap.live_flows = static_cast<std::uint64_t>(live_flows_->value());
  snap.live_sessions = static_cast<std::uint64_t>(live_sessions_->value());
  snap.title_windows_on_loan =
      static_cast<std::uint64_t>(title_windows_on_loan_->value());
  snap.title_windows_pooled =
      static_cast<std::uint64_t>(title_windows_pooled_->value());
  snap.queue_depth_hwm =
      static_cast<std::uint64_t>(queue_depth_hwm_->value());
  snap.latency_max_ns = latency_->max();
  snap.latency_buckets = latency_->bucket_snapshot();
  return snap;
}

ProbeStatsSnapshot ProbeStats::aggregate(
    std::span<const ProbeStatsSnapshot> shards) {
  ProbeStatsSnapshot total;
  total.latency_buckets.assign(obs::LatencyHistogram::kNumBuckets, 0);
  for (const ProbeStatsSnapshot& s : shards) {
    total.packets_in += s.packets_in;
    total.packets_dropped += s.packets_dropped;
    total.packets_gated += s.packets_gated;
    total.packets_processed += s.packets_processed;
    total.flow_evictions += s.flow_evictions;
    total.lookback_dropped += s.lookback_dropped;
    total.sessions_started += s.sessions_started;
    total.reports_emitted += s.reports_emitted;
    total.live_flows += s.live_flows;
    total.live_sessions += s.live_sessions;
    total.title_windows_on_loan += s.title_windows_on_loan;
    total.title_windows_pooled += s.title_windows_pooled;
    total.queue_depth_hwm = std::max(total.queue_depth_hwm,
                                     s.queue_depth_hwm);
    total.latency_max_ns = std::max(total.latency_max_ns, s.latency_max_ns);
    for (std::size_t i = 0;
         i < std::min(total.latency_buckets.size(),
                      s.latency_buckets.size());
         ++i)
      total.latency_buckets[i] += s.latency_buckets[i];
  }
  return total;
}

}  // namespace cgctx::core
