// Probe observability: counters, gauges, and latency percentiles.
//
// A vantage-point probe is only operable if its health is visible while
// it runs: is the capture thread keeping up (drops, queue high-water
// marks), is state bounded (live flows, evictions), and what does the
// per-packet processing latency distribution look like. ProbeStats is
// the per-shard sink for those signals.
//
// Since the unified telemetry plane (obs::MetricsRegistry), ProbeStats
// is a thin facade: every counter it exposes is a registry instrument,
// so the same numbers that feed its snapshot()/aggregate() API also
// appear in the registry's Prometheus/JSON exports, labeled per shard.
// The mutators remain single relaxed atomics — the packet path never
// takes a lock — and the packet counters take batch deltas, so a caller
// can keep per-packet tallies local and publish them once per batch.
// Construction binds the facade to a caller-supplied registry
// (ShardedProbe labels each shard); the default constructor keeps the
// old standalone behavior by owning a private registry.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace cgctx::core {

/// Point-in-time view of one probe's (or one shard's) counters. Also the
/// aggregation unit: ProbeStats::aggregate sums counters, maxes the
/// high-water marks, and merges latency histograms across shards.
struct ProbeStatsSnapshot {
  // Under ShardedProbe the capture-side fields (packets_in,
  // packets_dropped, queue_depth_hwm) are published every 256 pushes per
  // shard, so a mid-run snapshot lags by up to that many packets per
  // shard, and packets_gated every 256 gated packets; after flush()
  // every field is exact and packets_in + packets_dropped +
  // packets_gated equals the packets pushed.
  std::uint64_t packets_in = 0;        ///< accepted into a shard queue
  std::uint64_t packets_dropped = 0;   ///< rejected by the overflow policy
  std::uint64_t packets_gated = 0;     ///< non-candidates gated before demux
  std::uint64_t packets_processed = 0; ///< fully pushed through a probe
  std::uint64_t flow_evictions = 0;    ///< idle flows dropped from tables
  std::uint64_t lookback_dropped = 0;  ///< lookback packets over the cap
  std::uint64_t sessions_started = 0;  ///< flows promoted to sessions
  std::uint64_t reports_emitted = 0;   ///< sessions retired with a report
  std::uint64_t live_flows = 0;        ///< gauge: current flow-table size
  std::uint64_t live_sessions = 0;     ///< gauge: current session count
  std::uint64_t title_windows_on_loan = 0;  ///< gauge: lent to sessions
  std::uint64_t title_windows_pooled = 0;   ///< gauge: spare in the pool
  std::uint64_t queue_depth_hwm = 0;   ///< high-water mark (max on merge)
  std::uint64_t latency_max_ns = 0;
  std::vector<std::uint64_t> latency_buckets;  ///< obs::LatencyHistogram counts

  [[nodiscard]] obs::LatencySummary latency() const;
  /// Multi-line human-readable block (benches, operator logging).
  [[nodiscard]] std::string to_string() const;
};

/// The `cgctx_probe_packets_gated_total` series labeled `labels`. Every
/// ProbeStats binds one; ShardedProbe also binds an unlabeled one for its
/// capture thread, because the gate runs before the shard hash and gated
/// packets belong to no shard.
obs::Counter& gated_counter(obs::MetricsRegistry& registry,
                            obs::MetricLabels labels);

class ProbeStats {
 public:
  /// Standalone facade backed by a private registry (exported nowhere;
  /// snapshot()/aggregate() are the only consumers).
  ProbeStats();
  /// Facade over `registry`: instruments are registered under
  /// `cgctx_probe_*` with the given labels (e.g. {{"shard","3"}}), so a
  /// registry export carries per-shard probe health. The registry must
  /// outlive the facade.
  ProbeStats(obs::MetricsRegistry& registry, obs::MetricLabels labels);

  ProbeStats(const ProbeStats&) = delete;
  ProbeStats& operator=(const ProbeStats&) = delete;

  void add_packets_in(std::uint64_t n) { packets_in_->add(n); }
  void add_drops(std::uint64_t n) { packets_dropped_->add(n); }
  void add_gated(std::uint64_t n) { packets_gated_->add(n); }
  void add_processed(std::uint64_t n) { packets_processed_->add(n); }
  void add_evictions(std::uint64_t n) { flow_evictions_->add(n); }
  void add_lookback_drops(std::uint64_t n) { lookback_dropped_->add(n); }
  void count_session_started() { sessions_started_->add(); }
  void count_report() { reports_emitted_->add(); }

  void set_live_flows(std::uint64_t n) {
    live_flows_->set(static_cast<std::int64_t>(n));
  }
  void set_live_sessions(std::uint64_t n) {
    live_sessions_->set(static_cast<std::int64_t>(n));
  }
  /// Title windows lent to sessions awaiting their verdict, and spare.
  void set_title_windows(std::uint64_t on_loan, std::uint64_t pooled) {
    title_windows_on_loan_->set(static_cast<std::int64_t>(on_loan));
    title_windows_pooled_->set(static_cast<std::int64_t>(pooled));
  }
  /// Raises the queue high-water mark to `depth` if it exceeds it.
  void observe_queue_depth(std::uint64_t depth) {
    queue_depth_hwm_->record_max(static_cast<std::int64_t>(depth));
  }

  void record_latency_ns(std::uint64_t nanos) { latency_->record(nanos); }
  /// Time one push spent waiting for queue space (full-queue slow path).
  void record_backpressure_wait_ns(std::uint64_t nanos) {
    backpressure_wait_->record(nanos);
  }
  /// Decision-trace events lost to ring overwrite so far.
  void set_trace_overwritten(std::uint64_t n) {
    trace_overwritten_->set(static_cast<std::int64_t>(n));
  }

  [[nodiscard]] ProbeStatsSnapshot snapshot() const;

  /// Element-wise merge: sums counters, maxes high-water marks, adds
  /// latency histograms. Snapshots with empty bucket vectors are fine.
  static ProbeStatsSnapshot aggregate(
      std::span<const ProbeStatsSnapshot> shards);

 private:
  void bind(obs::MetricsRegistry& registry, obs::MetricLabels labels);

  /// Set only by the default constructor (standalone mode).
  std::unique_ptr<obs::MetricsRegistry> owned_;
  obs::Counter* packets_in_ = nullptr;
  obs::Counter* packets_dropped_ = nullptr;
  obs::Counter* packets_gated_ = nullptr;
  obs::Counter* packets_processed_ = nullptr;
  obs::Counter* flow_evictions_ = nullptr;
  obs::Counter* lookback_dropped_ = nullptr;
  obs::Counter* sessions_started_ = nullptr;
  obs::Counter* reports_emitted_ = nullptr;
  obs::Gauge* live_flows_ = nullptr;
  obs::Gauge* live_sessions_ = nullptr;
  obs::Gauge* title_windows_on_loan_ = nullptr;
  obs::Gauge* title_windows_pooled_ = nullptr;
  obs::Gauge* queue_depth_hwm_ = nullptr;
  obs::Histogram* latency_ = nullptr;
  obs::Histogram* backpressure_wait_ = nullptr;
  obs::Gauge* trace_overwritten_ = nullptr;
};

}  // namespace cgctx::core
