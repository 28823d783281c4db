// Multi-subscriber vantage-point probe.
//
// The partner ISP's deployment watches all subscribers at once: the wire
// carries many concurrent cloud-gaming sessions interleaved with
// everything else. MultiSessionProbe demultiplexes that firehose —
// detecting each gaming flow independently, driving a per-session
// core::SessionEngine, and retiring sessions when their flow goes idle —
// so the single-session machinery scales to the deployment shape.
//
// Only UDP flows on a platform streaming port can ever be detected
// (CloudGamingFlowDetector::is_candidate), so push() gates every other
// packet out first, on its wire tuple and before canonicalising it: it
// is counted (gated_packets()) and touches no flow table, lookback,
// detector or session state. The probe's state, its idle-sweep clock
// included, therefore depends on the candidate sub-stream alone. A
// gaming packet then costs one canonical() and one lookup in the hashed
// live-session table (net::FlowMap) before its engine tallies it.
//
// Engines are pooled: a retired session's engine is reset (buffer
// capacity retained, including the compiled-forest scratch) and reused
// for the next detected session, so the steady-state per-packet path
// performs no heap allocations and no per-session construction. With no
// event callback and no trace installed, each session's SessionObserver
// is empty and the engine builds no events.
#pragma once

#include <memory>
#include <vector>

#include "core/launch_front_end.hpp"
#include "core/pipeline_metrics.hpp"
#include "core/probe_stats.hpp"
#include "core/session_engine.hpp"
#include "net/flow_map.hpp"
#include "obs/trace.hpp"

namespace cgctx::core {

struct MultiSessionProbeParams {
  PipelineParams pipeline{};
  /// A detected session whose flow has been silent this long is retired
  /// (its report emitted) by the next idle sweep. Sweeps run every 5 s of
  /// candidate packet time, so after a silence carrying only gated
  /// traffic the session retires at the next candidate packet or flush().
  net::Duration session_idle_timeout = 30 * net::kNanosPerSecond;
  /// An undetected candidate flow silent this long is evicted from the
  /// shared flow table (never-promoting churn must not accumulate state
  /// forever).
  net::Duration flow_idle_timeout = 60 * net::kNanosPerSecond;
};

class MultiSessionProbe {
 public:
  using ReportCallback = std::function<void(const SessionReport&)>;

  /// Models must outlive the probe. `on_report` receives each retired
  /// session's report (and the remaining ones at flush()); the reference
  /// is valid only for the duration of the callback (the report lives in
  /// a pooled engine that is reset afterward). `on_slot`, if set,
  /// receives every closed slot's record with the session's id (see
  /// set_trace() for the numbering).
  MultiSessionProbe(PipelineModels models, MultiSessionProbeParams params,
                    ReportCallback on_report,
                    SessionEventCallback on_event = {},
                    SlotCallback on_slot = {});

  /// Non-copyable/movable: pooled engines reference the probe-owned
  /// pipeline params.
  MultiSessionProbe(const MultiSessionProbe&) = delete;
  MultiSessionProbe& operator=(const MultiSessionProbe&) = delete;

  /// Feeds one packet from the aggregate stream (timestamp order).
  /// Non-candidate packets are only counted. The gate is inline, so a
  /// gated packet costs the caller no call: a tuple outside every
  /// platform port range can never promote and touches no other state,
  /// not even the sweep clock.
  void push(const net::PacketRecord& pkt) {
    if (CloudGamingFlowDetector::is_candidate(pkt.tuple))
      push_candidate(pkt);
    else
      ++gated_;
  }

  /// Retires all live sessions, emitting their reports in canonical-tuple
  /// order.
  void flush();

  /// Optional counter sink (e.g. a ShardedProbe shard's ProbeStats). The
  /// probe records gated packets, evictions, lookback drops, session
  /// starts, reports, and the live flow/session/title-window gauges into
  /// it; it must outlive the probe. Counters and gauges are tallied locally and
  /// published at the next sweep, session start, undetected candidate
  /// packet or flush(), so neither the gated path nor a live session's
  /// packet does an atomic write. Gated packets are thus forwarded at the
  /// next sweep or flush() at the latest.
  void set_stats(ProbeStats* stats) { stats_ = stats; }

  /// Optional pipeline instrumentation, shared across all pooled engines.
  /// Must be installed before the first packet and outlive the probe.
  void set_metrics(const PipelineMetrics* metrics) { metrics_ = metrics; }

  /// Optional decision-trace ring (nullptr: none). Sessions are numbered
  /// `first_id`, `first_id + id_stride`, ... (events and slot hook
  /// alike; 1, 2, ... by default) so shard-local probes can interleave
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
  /// Title windows lent to live sessions still awaiting their verdict.
  [[nodiscard]] std::size_t title_windows_on_loan() const {
    return windows_.on_loan();
  }
  /// Spare title windows (grows to the high-water mark of sessions inside
  /// their launch window at once, never beyond).
  [[nodiscard]] std::size_t title_windows_pooled() const {
    return windows_.pooled();
  }
  /// Packets gated out as non-candidates over the probe's lifetime.
  [[nodiscard]] std::uint64_t gated_packets() const { return gated_; }
  /// Current size of the shared flow table (undetected candidate flows).
  [[nodiscard]] std::size_t flow_table_size() const {
    return front_end_.flows();
  }
  /// Idle candidate flows evicted from the shared table over the probe's
  /// lifetime.
  [[nodiscard]] std::uint64_t flow_evictions() const {
    return front_end_.evictions();
  }
  /// Candidate packets buffered for replay at promotion.
  [[nodiscard]] std::size_t lookback_size() const {
    return front_end_.lookback_size();
  }
  /// Buffered packets dropped by the LaunchFrontEnd::kCap bound over the
  /// probe's lifetime.
  [[nodiscard]] std::uint64_t lookback_drops() const {
    return front_end_.lookback_drops();
  }

 private:
  struct Session {
    std::unique_ptr<SessionEngine> engine;
    net::Timestamp last_seen = 0;
    /// Where this session's events go; carries the trace-plane session
    /// id assigned at promotion.
    SessionObserver observer;
  };

  /// push() past the gate: the candidate sub-stream.
  void push_candidate(const net::PacketRecord& pkt);
  [[nodiscard]] std::unique_ptr<SessionEngine> acquire_engine();
  void release_engine(std::unique_ptr<SessionEngine> engine);
  void retire(const net::FiveTuple& key);
  /// Retires the sessions in `keys` in ascending key order (the order a
  /// sorted map would visit them), so reports do not depend on the
  /// table's layout.
  void retire_sorted(std::vector<net::FiveTuple>& keys);
  /// Forwards gated, eviction and lookback-drop deltas and live gauges to
  /// stats_ (no-op unset).
  void sync_stats();

  PipelineModels models_;
  MultiSessionProbeParams params_;
  ReportCallback on_report_;
  SessionEventCallback on_event_;
  SlotCallback on_slot_;

  /// Shared front-end: one flow table, detector and lookback across all
  /// candidate traffic of undetected flows.
  LaunchFrontEnd front_end_;
  /// Live sessions keyed by canonical flow tuple.
  net::FlowMap<Session> sessions_;
  /// Title windows, lent to engines from session start to title verdict.
  TitleWindowPool windows_;
  /// Reset engines awaiting reuse.
  std::vector<std::unique_ptr<SessionEngine>> pool_;
  std::size_t reports_ = 0;
  /// Packet time of the last idle sweep; initialized from the first
  /// packet (timestamps are wall-clock nanoseconds, so starting from 0
  /// would fire an immediate empty sweep on every capture).
  net::Timestamp last_sweep_ = 0;
  bool saw_packet_ = false;
  /// Non-candidate packets gated out (lifetime).
  std::uint64_t gated_ = 0;
  ProbeStats* stats_ = nullptr;
  /// Gated packets already forwarded to stats_.
  std::uint64_t gated_reported_ = 0;
  /// Evictions already forwarded to stats_ (front_end_ counts lifetime).
  std::uint64_t evictions_reported_ = 0;
  /// Lookback drops already forwarded to stats_.
  std::uint64_t lookback_drops_reported_ = 0;
  const PipelineMetrics* metrics_ = nullptr;
  obs::DecisionTraceRing* trace_ = nullptr;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t id_stride_ = 1;
};

}  // namespace cgctx::core
