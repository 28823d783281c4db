#include "core/sharded_probe.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <stdexcept>
#include <thread>
#include <utility>

namespace cgctx::core {
namespace {

/// Capture-side counters reach the registry once per this many pushes to
/// a shard (or gated packets), and at flush().
constexpr std::uint32_t kPublishStride = 256;
/// Most packets the worker processes before it frees their slots.
constexpr std::uint64_t kMaxBatch = 256;
/// Polls of an empty (worker) or full (kBackpressure producer) ring
/// before that side parks on the shard's condition variable. Each poll
/// yields the core rather than executing a CPU pause: with more threads
/// than cores the other side may need it, and under a hypervisor a pause
/// loop can trap out of the guest. Measured on sharded_mixed (4-vCPU VM),
/// 256 yielding polls beat 2048 pause polls.
constexpr int kSpinPolls = 256;
/// Longest single worker park. The producer's parked-flag check after a
/// push is unfenced, so it can miss a worker that is just parking; the
/// worker then notices the packet at its next poll, at most this late.
constexpr std::chrono::milliseconds kParkLimit{1};

}  // namespace

const char* to_string(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kDropNewest: return "drop-newest";
    case OverflowPolicy::kBackpressure: return "backpressure";
  }
  return "?";
}

/// One worker: a bounded single-producer/single-consumer ring (capture
/// thread -> worker) plus a private MultiSessionProbe. `tail` and `head`
/// count packets ever written and ever freed; a packet's slot is its
/// count masked by the power-of-two ring size, and the ring holds
/// `tail - head` packets. Each side keeps its own view of the other's
/// index and reloads it only when that view runs out, so in steady state
/// the producer writes `tail` per packet and the worker writes `head`
/// once per batch, and neither reads the other's line per packet.
struct ShardedProbe::Shard {
  /// Capture-thread state: only push() and flush() touch it.
  struct alignas(64) Producer {
    std::uint64_t tail = 0;       ///< packets written (== published tail)
    std::uint64_t head_seen = 0;  ///< last `head` the producer read
    std::uint64_t in = 0;         ///< accepted since the last publish
    std::uint64_t dropped = 0;    ///< dropped since the last publish
    std::uint64_t depth_hwm = 0;  ///< deepest ring seen at a head reload
    std::uint32_t unpublished = 0;
  };

  Producer producer;
  alignas(64) std::atomic<std::uint64_t> tail{0};
  alignas(64) std::atomic<std::uint64_t> head{0};
  alignas(64) std::atomic<bool> worker_parked{false};
  std::atomic<bool> producer_parked{false};
  std::atomic<bool> closed{false};
  std::mutex park_mu;
  std::condition_variable data_ready;
  std::condition_variable space_ready;

  std::vector<net::PacketRecord> ring;
  std::uint64_t mask;

  ProbeStats stats;
  /// Decision trace, single-writer (this shard's worker thread).
  std::unique_ptr<obs::DecisionTraceRing> trace;
  MultiSessionProbe probe;
  std::uint32_t latency_tick = 0;
  std::thread worker;

  Shard(obs::MetricsRegistry& registry, const PipelineMetrics* metrics,
        std::size_t index, std::size_t num_shards, std::size_t capacity,
        std::size_t trace_capacity, PipelineModels models,
        const MultiSessionProbeParams& params,
        MultiSessionProbe::ReportCallback on_report,
        SessionEventCallback on_event, SlotCallback on_slot)
      : ring(std::bit_ceil(capacity)),
        mask(ring.size() - 1),
        stats(registry, {{"shard", std::to_string(index)}}),
        probe(models, params, std::move(on_report), std::move(on_event),
              std::move(on_slot)) {
    probe.set_stats(&stats);
    probe.set_metrics(metrics);
    if (trace_capacity > 0)
      trace = std::make_unique<obs::DecisionTraceRing>(trace_capacity);
    // Session ids interleave across shards (shard i takes i+1, i+1+N,
    // ...) so merged traces and slot histories stay globally unique
    // without a lock.
    probe.set_trace(trace.get(), index + 1, num_shards);
  }

  // --- capture thread ------------------------------------------------

  /// Reloads the worker's `head` and raises the depth high-water mark.
  /// Returns the ring's depth.
  std::uint64_t reload_head() {
    Producer& p = producer;
    p.head_seen = head.load(std::memory_order_seq_cst);
    p.depth_hwm = std::max(p.depth_hwm, p.tail - p.head_seen);
    return p.tail - p.head_seen;
  }

  /// Moves the producer-local counters into the registry.
  void publish() {
    Producer& p = producer;
    reload_head();
    stats.add_packets_in(p.in);
    if (p.dropped > 0) stats.add_drops(p.dropped);
    stats.observe_queue_depth(p.depth_hwm);
    p.in = 0;
    p.dropped = 0;
    p.unpublished = 0;
  }

  void wake_worker() {
    if (!worker_parked.exchange(false)) return;
    { const std::lock_guard<std::mutex> lock(park_mu); }
    data_ready.notify_one();
  }

  // --- worker thread -------------------------------------------------

  /// Waits until the ring holds packets past `head_pos` (returns true,
  /// with `tail_seen` updated) or the shard is closed and drained
  /// (returns false). Spins briefly, then parks.
  bool wait_for_data(std::uint64_t head_pos, std::uint64_t& tail_seen) {
    // `closed` is read before `tail`: flush() closes only after the
    // final push, so a closed shard's tail is already final.
    for (int i = 0; i < kSpinPolls; ++i) {
      const bool done = closed.load(std::memory_order_acquire);
      tail_seen = tail.load(std::memory_order_acquire);
      if (tail_seen != head_pos) return true;
      if (done) return false;
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(park_mu);
    for (;;) {
      worker_parked.store(true, std::memory_order_seq_cst);
      const bool done = closed.load(std::memory_order_acquire);
      tail_seen = tail.load(std::memory_order_seq_cst);
      if (tail_seen != head_pos || done) break;
      data_ready.wait_for(lock, kParkLimit);
    }
    worker_parked.store(false, std::memory_order_relaxed);
    return tail_seen != head_pos;
  }

  void process(const net::PacketRecord& pkt, std::uint32_t sample_stride) {
    if (sample_stride == 0 || ++latency_tick < sample_stride) {
      probe.push(pkt);
      return;
    }
    latency_tick = 0;
    const auto begin = std::chrono::steady_clock::now();
    probe.push(pkt);
    const auto end = std::chrono::steady_clock::now();
    stats.record_latency_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count()));
  }

  /// Worker body: drains the ring in place, one batch at a time, until
  /// the shard is closed and empty; then retires every live session.
  void run(std::uint32_t sample_stride) {
    std::uint64_t head_pos = 0;
    std::uint64_t tail_seen = 0;
    for (;;) {
      if (head_pos == tail_seen) {
        tail_seen = tail.load(std::memory_order_acquire);
        if (head_pos == tail_seen && !wait_for_data(head_pos, tail_seen))
          break;
      }
      const std::uint64_t end = std::min(tail_seen, head_pos + kMaxBatch);
      stats.add_processed(end - head_pos);
      for (; head_pos != end; ++head_pos)
        process(ring[head_pos & mask], sample_stride);
      // Frees the batch's slots; seq_cst pairs with a parking producer's
      // flag store (both sides store, then load the other's variable).
      head.store(head_pos, std::memory_order_seq_cst);
      if (producer_parked.load(std::memory_order_seq_cst)) {
        { const std::lock_guard<std::mutex> lock(park_mu); }
        space_ready.notify_one();
      }
      if (trace != nullptr) stats.set_trace_overwritten(trace->overwritten());
    }
    probe.flush();
    if (trace != nullptr) stats.set_trace_overwritten(trace->overwritten());
  }
};

ShardedProbe::ShardedProbe(PipelineModels models, ShardedProbeParams params,
                           ReportCallback on_report,
                           SessionEventCallback on_event,
                           SlotCallback on_slot)
    : params_(std::move(params)), on_report_(std::move(on_report)) {
  if (params_.num_shards == 0)
    throw std::invalid_argument("ShardedProbe: num_shards must be >= 1");
  if (params_.queue_capacity == 0)
    throw std::invalid_argument("ShardedProbe: queue_capacity must be >= 1");
  pipeline_metrics_ = PipelineMetrics::create(registry_);
  packets_gated_ = &gated_counter(registry_, {});

  // Per-shard report sink: serialize across workers, then forward.
  const auto sink = [this](const SessionReport& report) {
    const std::lock_guard<std::mutex> lock(sink_mu_);
    ++reports_;
    if (on_report_) on_report_(report);
  };
  // Events are serialized through the same mutex so downstream consumers
  // never see interleaved callbacks from two shards.
  SessionEventCallback event_sink;
  if (on_event) {
    event_sink = [this, on_event = std::move(on_event)](
                     const obs::TraceEvent& event) {
      const std::lock_guard<std::mutex> lock(sink_mu_);
      on_event(event);
    };
  }
  SlotCallback slot_sink;
  if (on_slot) {
    slot_sink = [this, on_slot = std::move(on_slot)](
                    std::uint64_t session_id, const SlotRecord& slot) {
      const std::lock_guard<std::mutex> lock(sink_mu_);
      on_slot(session_id, slot);
    };
  }

  shards_.reserve(params_.num_shards);
  for (std::size_t i = 0; i < params_.num_shards; ++i)
    shards_.push_back(std::make_unique<Shard>(
        registry_, &pipeline_metrics_, i, params_.num_shards,
        params_.queue_capacity, params_.trace_capacity, models,
        params_.probe, sink, event_sink, slot_sink));
  for (const auto& shard : shards_)
    shard->worker = std::thread(
        [&s = *shard, stride = params_.latency_sample_stride] {
          s.run(stride);
        });
}

ShardedProbe::~ShardedProbe() { flush(); }

std::size_t ShardedProbe::shard_of(const net::FiveTuple& canonical) const {
  return net::flow_hash(canonical) % shards_.size();
}

bool ShardedProbe::push(const net::PacketRecord& pkt) {
  if (flushed_) {
    shards_[shard_of(pkt.tuple.canonical())]->stats.add_drops(1);
    return false;
  }
  // Gate before canonical(), the hash and the ring copy: no shard could
  // ever promote this packet, and a shard's probe would only count and
  // skip it. The test is orientation-independent, so the wire tuple will do.
  if (!CloudGamingFlowDetector::is_candidate(pkt.tuple)) {
    if (++gated_unpublished_ == kPublishStride) publish_gated();
    return true;
  }
  Shard& s = *shards_[shard_of(pkt.tuple.canonical())];
  Shard::Producer& p = s.producer;
  const bool admitted =
      p.tail - p.head_seen < params_.queue_capacity || make_room(s);
  if (admitted) {
    s.ring[p.tail & s.mask] = pkt;
    ++p.tail;
    ++p.in;
  } else {
    ++p.dropped;
  }
  // Publishing before the tail store keeps this packet in the sampled
  // depth: the worker cannot have taken it yet.
  if (++p.unpublished == kPublishStride) s.publish();
  if (admitted) {
    s.tail.store(p.tail, std::memory_order_release);
    if (s.worker_parked.load(std::memory_order_relaxed)) s.wake_worker();
  }
  return admitted;
}

bool ShardedProbe::make_room(Shard& s) {
  const std::size_t capacity = params_.queue_capacity;
  if (s.reload_head() < capacity) return true;
  if (params_.overflow != OverflowPolicy::kBackpressure) return false;

  const auto begin = std::chrono::steady_clock::now();
  // A full ring should mean a busy worker; if it parked on a missed
  // wakeup, the fence makes this check see its flag.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (s.worker_parked.load(std::memory_order_relaxed)) s.wake_worker();
  bool room = false;
  for (int i = 0; i < kSpinPolls && !room; ++i) {
    std::this_thread::yield();
    room = s.reload_head() < capacity;
  }
  if (!room) {
    std::unique_lock<std::mutex> lock(s.park_mu);
    s.producer_parked.store(true, std::memory_order_seq_cst);
    room = s.space_ready.wait_until(
        lock, begin + params_.backpressure_timeout,
        [&s, capacity] { return s.reload_head() < capacity; });
    s.producer_parked.store(false, std::memory_order_relaxed);
  }
  s.stats.record_backpressure_wait_ns(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count()));
  return room;
}

void ShardedProbe::publish_gated() {
  packets_gated_->add(gated_unpublished_);
  gated_unpublished_ = 0;
}

void ShardedProbe::flush() {
  if (flushed_) return;
  flushed_ = true;
  publish_gated();
  for (const auto& shard : shards_) {
    shard->publish();
    {
      const std::lock_guard<std::mutex> lock(shard->park_mu);
      shard->closed.store(true, std::memory_order_release);
    }
    shard->data_ready.notify_one();
  }
  for (const auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

ProbeStatsSnapshot ShardedProbe::stats() const {
  std::vector<ProbeStatsSnapshot> snaps;
  snaps.reserve(shards_.size());
  for (const auto& shard : shards_) snaps.push_back(shard->stats.snapshot());
  ProbeStatsSnapshot total = ProbeStats::aggregate(snaps);
  total.packets_gated += packets_gated_->value();
  return total;
}

std::vector<obs::TraceEvent> ShardedProbe::drain_trace() {
  flush();
  std::vector<obs::TraceEvent> events;
  for (const auto& shard : shards_)
    if (shard->trace != nullptr) shard->trace->append_to(events);
  return events;
}

std::size_t ShardedProbe::reports_emitted() const {
  const std::lock_guard<std::mutex> lock(sink_mu_);
  return reports_;
}

}  // namespace cgctx::core
