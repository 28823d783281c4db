// Sharded, multi-core vantage-point probe engine.
//
// One MultiSessionProbe keeps up with a handful of subscribers; an ISP
// vantage point carries tens of thousands concurrently. ShardedProbe
// scales the same pipeline across cores by partitioning the five-tuple
// space: the capture thread gates out packets no platform port range can
// promote (counting them), hashes each remaining packet's canonical tuple
// to one of N shards and writes it into that shard's single-producer/
// single-consumer ring, and each shard's worker thread owns a private
// FlowTable + session map (a full MultiSessionProbe), so workers share
// nothing and the packet path takes no lock.
//
// Properties this buys:
//  - per-flow ordering is preserved by construction (a flow maps to
//    exactly one shard, whose ring is FIFO), and MultiSessionProbe's
//    state depends only on the candidate packets it is fed, so with
//    num_shards == 1 the engine's reports are byte-identical to
//    MultiSessionProbe's;
//  - the capture thread never blocks indefinitely: rings are bounded,
//    and overflow follows an explicit policy (drop immediately, or wait
//    a bounded time then drop) with every drop counted;
//  - per-shard ProbeStats aggregate into one snapshot readable from any
//    thread while the engine runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/multi_session_probe.hpp"
#include "core/pipeline_metrics.hpp"
#include "core/probe_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cgctx::core {

/// What push() does when the target shard's queue is full.
enum class OverflowPolicy : std::uint8_t {
  /// Drop the incoming packet immediately (prefer capture-thread latency).
  kDropNewest,
  /// Apply backpressure: wait up to `backpressure_timeout` for space,
  /// then drop. Bounds capture-thread stalls while absorbing bursts.
  kBackpressure,
};

const char* to_string(OverflowPolicy policy);

struct ShardedProbeParams {
  /// Per-shard probe configuration (pipeline, idle timeouts).
  MultiSessionProbeParams probe{};
  std::size_t num_shards = 1;
  /// Bounded per-shard queue capacity, in packets: a push is admitted
  /// while fewer than this many packets are pending. The ring behind it
  /// is rounded up to a power of two and always resident (48 B a slot).
  std::size_t queue_capacity = 1 << 12;
  OverflowPolicy overflow = OverflowPolicy::kBackpressure;
  /// Longest one push() may wait for queue space under kBackpressure.
  /// Over 5x the longest worker stall seen on a loaded 4-vCPU host
  /// (150 ms), so a descheduled worker does not by itself drop packets.
  std::chrono::milliseconds backpressure_timeout{1000};
  /// Record processing latency for every Nth packet per shard (1 = all,
  /// 0 = never); sampling keeps the steady_clock reads off most packets.
  std::uint32_t latency_sample_stride = 8;
  /// Per-shard decision-trace ring capacity, in events (rounded up to a
  /// power of two). 0 disables tracing entirely.
  std::size_t trace_capacity = 0;
};

class ShardedProbe {
 public:
  using ReportCallback = MultiSessionProbe::ReportCallback;

  /// Models must outlive the probe and be safe for concurrent const
  /// calls (the trained classifiers are immutable after training).
  /// `on_report` / `on_event` / `on_slot` are invoked from the shards'
  /// worker threads, each on the thread of the shard that owns the
  /// session, but never concurrently (an internal mutex serializes them).
  /// `on_event` and `on_slot` carry the session's id; ids are unique
  /// across shards (shard i numbers its sessions i+1, i+1+N, ...), and a
  /// report's slots and events all arrive before the report.
  ShardedProbe(PipelineModels models, ShardedProbeParams params,
               ReportCallback on_report, SessionEventCallback on_event = {},
               SlotCallback on_slot = {});
  ~ShardedProbe();

  ShardedProbe(const ShardedProbe&) = delete;
  ShardedProbe& operator=(const ShardedProbe&) = delete;

  /// Feeds one packet from the capture thread (single producer).
  /// Returns false iff the packet was dropped by the overflow policy (or
  /// pushed after flush()). A non-candidate packet is gated on the
  /// capture thread: counted, never hashed or queued, and not a drop.
  bool push(const net::PacketRecord& pkt);

  /// Drains all queues, retires every live session (emitting reports),
  /// and joins the workers. Terminal: push() after flush() drops.
  /// Idempotent; also runs from the destructor if never called. Call it
  /// from the capture thread: it publishes that thread's counters.
  void flush();

  /// Aggregated snapshot across shards; callable from any thread, before
  /// or after flush(). The capture-side counters (packets_in,
  /// packets_dropped, queue_depth_hwm) reach it every 256 pushes per
  /// shard, so mid-run they lag by up to 255 packets per shard, and
  /// packets_gated every 256 gated packets; after flush() they are exact,
  /// and packets_in + packets_dropped + packets_gated equals the packets
  /// pushed. queue_depth_hwm is sampled at those publishes and whenever
  /// the ring looks full.
  [[nodiscard]] ProbeStatsSnapshot stats() const;

  /// The probe's unified metrics registry: per-shard `cgctx_probe_*`
  /// series (labeled {"shard","N"}) plus the shared `cgctx_session_*` /
  /// `cgctx_pipeline_*` pipeline instrumentation. Snapshot-safe from any
  /// thread while the workers run; feed it to obs::to_prometheus /
  /// obs::to_json for export.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const {
    return registry_.snapshot();
  }

  /// Flushes (joining the workers), then concatenates every shard's
  /// decision trace in shard order. Empty unless
  /// ShardedProbeParams::trace_capacity > 0. Rings are single-writer
  /// (each shard's worker), so draining waits for the workers to stop.
  [[nodiscard]] std::vector<obs::TraceEvent> drain_trace();

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] std::size_t reports_emitted() const;

  /// Shard a canonical tuple maps to (exposed for tests/benches).
  [[nodiscard]] std::size_t shard_of(const net::FiveTuple& canonical) const;

 private:
  struct Shard;

  /// Full-ring slow path of push(): reloads the worker's progress, then
  /// applies the overflow policy. True iff the packet now fits.
  bool make_room(Shard& s);
  /// Moves the capture thread's gated tally into packets_gated_.
  void publish_gated();

  ShardedProbeParams params_;
  /// Declared before shards_: shard ProbeStats and the shared
  /// PipelineMetrics bind instruments that live in this registry.
  obs::MetricsRegistry registry_;
  PipelineMetrics pipeline_metrics_;
  ReportCallback on_report_;
  /// Serializes report/event/slot callbacks across worker threads.
  mutable std::mutex sink_mu_;
  std::size_t reports_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The capture thread's gated-packet series, unlabeled: the gate runs
  /// before the shard hash, so gated packets belong to no shard.
  obs::Counter* packets_gated_ = nullptr;
  /// Gated packets since the last publish_gated() (capture thread only).
  std::uint32_t gated_unpublished_ = 0;
  bool flushed_ = false;
};

}  // namespace cgctx::core
