// Multi-subscriber vantage-point probe.
//
// The partner ISP's deployment watches all subscribers at once: the wire
// carries many concurrent cloud-gaming sessions interleaved with
// everything else. MultiSessionProbe demultiplexes that firehose —
// detecting each gaming flow independently, driving a per-session
// core::SessionEngine, and retiring sessions when their flow goes idle —
// so the single-session machinery scales to the deployment shape.
//
// Engines are pooled: a retired session's engine is reset (buffer
// capacity retained, including the compiled-forest scratch) and reused
// for the next detected session, so the steady-state per-packet path
// performs no heap allocations and no per-session construction. With no
// event callback and no trace installed, each session's SessionObserver
// is empty and the engine builds no events.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/launch_lookback.hpp"
#include "core/pipeline_metrics.hpp"
#include "core/probe_stats.hpp"
#include "core/session_engine.hpp"
#include "net/flow_table.hpp"
#include "obs/trace.hpp"

namespace cgctx::core {

struct MultiSessionProbeParams {
  PipelineParams pipeline{};
  /// A detected session whose flow has been silent this long is retired
  /// (its report emitted).
  net::Duration session_idle_timeout = 30 * net::kNanosPerSecond;
  /// An undetected flow silent this long is evicted from the shared flow
  /// table (cross traffic must not accumulate state forever).
  net::Duration flow_idle_timeout = 60 * net::kNanosPerSecond;
};

class MultiSessionProbe {
 public:
  using ReportCallback = std::function<void(const SessionReport&)>;

  /// Models must outlive the probe. `on_report` receives each retired
  /// session's report (and the remaining ones at flush()); the reference
  /// is valid only for the duration of the callback (the report lives in
  /// a pooled engine that is reset afterward).
  MultiSessionProbe(PipelineModels models, MultiSessionProbeParams params,
                    ReportCallback on_report,
                    SessionEventCallback on_event = {});

  /// Non-copyable/movable: pooled engines reference the probe-owned
  /// pipeline params.
  MultiSessionProbe(const MultiSessionProbe&) = delete;
  MultiSessionProbe& operator=(const MultiSessionProbe&) = delete;

  /// Feeds one packet from the aggregate stream (timestamp order).
  void push(const net::PacketRecord& pkt);

  /// Retires all live sessions, emitting their reports.
  void flush();

  /// Optional counter sink (e.g. a ShardedProbe shard's ProbeStats). The
  /// probe records evictions, lookback drops, session starts, reports, and
  /// the live flow/session gauges into it; it must outlive the probe.
  void set_stats(ProbeStats* stats) { stats_ = stats; }

  /// Optional pipeline instrumentation, shared across all pooled engines.
  /// Must be installed before the first packet and outlive the probe.
  void set_metrics(const PipelineMetrics* metrics) { metrics_ = metrics; }

  /// Optional decision-trace ring. Sessions are numbered `first_id`,
  /// `first_id + id_stride`, ... so shard-local probes can interleave
  /// globally unique ids. Must be installed before the first packet; the
  /// ring must outlive the probe.
  void set_trace(obs::DecisionTraceRing* ring, std::uint64_t first_id = 1,
                 std::uint64_t id_stride = 1) {
    trace_ = ring;
    next_session_id_ = first_id;
    id_stride_ = id_stride;
  }

  [[nodiscard]] std::size_t live_sessions() const { return sessions_.size(); }
  [[nodiscard]] std::size_t reports_emitted() const { return reports_; }
  /// Engines parked in the reuse pool (grows to the high-water mark of
  /// concurrent sessions, never beyond).
  [[nodiscard]] std::size_t pooled_engines() const { return pool_.size(); }
  /// Current size of the shared (undetected-traffic) flow table.
  [[nodiscard]] std::size_t flow_table_size() const { return table_.size(); }
  /// Idle flows evicted from the shared table over the probe's lifetime.
  [[nodiscard]] std::uint64_t flow_evictions() const {
    return table_.evictions();
  }
  /// Candidate packets buffered for replay at promotion.
  [[nodiscard]] std::size_t lookback_size() const { return lookback_.size(); }
  /// Buffered packets dropped by the LaunchLookback::kCap bound over the
  /// probe's lifetime.
  [[nodiscard]] std::uint64_t lookback_drops() const {
    return lookback_.drops();
  }

 private:
  struct Session {
    std::unique_ptr<SessionEngine> engine;
    net::Timestamp last_seen = 0;
    /// Where this session's events go; carries the trace-plane session
    /// id assigned at promotion.
    SessionObserver observer;
  };

  [[nodiscard]] std::unique_ptr<SessionEngine> acquire_engine();
  void release_engine(std::unique_ptr<SessionEngine> engine);
  void retire(const net::FiveTuple& key);
  /// Forwards eviction and lookback-drop deltas and live gauges to stats_
  /// (no-op unset).
  void sync_stats();

  PipelineModels models_;
  MultiSessionProbeParams params_;
  ReportCallback on_report_;
  SessionEventCallback on_event_;

  /// Shared front-end: one flow table + detector across all traffic.
  net::FlowTable table_;
  CloudGamingFlowDetector detector_;
  /// Live sessions keyed by canonical flow tuple.
  std::map<net::FiveTuple, Session> sessions_;
  /// Reset engines awaiting reuse.
  std::vector<std::unique_ptr<SessionEngine>> pool_;
  /// Candidate packets of undetected flows; a promotion replays and
  /// removes its flow's share.
  LaunchLookback lookback_;
  std::size_t reports_ = 0;
  /// Packet time of the last idle sweep; initialized from the first
  /// packet (timestamps are wall-clock nanoseconds, so starting from 0
  /// would fire an immediate empty sweep on every capture).
  net::Timestamp last_sweep_ = 0;
  bool saw_packet_ = false;
  ProbeStats* stats_ = nullptr;
  /// Evictions already forwarded to stats_ (table_ counts lifetime).
  std::uint64_t evictions_reported_ = 0;
  /// Lookback drops already forwarded to stats_.
  std::uint64_t lookback_drops_reported_ = 0;
  const PipelineMetrics* metrics_ = nullptr;
  obs::DecisionTraceRing* trace_ = nullptr;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t id_stride_ = 1;
};

}  // namespace cgctx::core
