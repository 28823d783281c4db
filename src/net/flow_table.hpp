// Flow demultiplexer and per-flow accounting.
//
// The pipeline front-end receives an interleaved packet stream (many
// subscribers, gaming and cross traffic). The FlowTable groups packets by
// canonical five-tuple and maintains the running statistics the
// cloud-gaming flow detector consumes: per-direction packet/byte counts,
// rates over a sliding start window, RTP header consistency, and payload
// size extremes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "net/time.hpp"

namespace cgctx::net {

/// Running statistics for one direction of a flow.
struct DirectionStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;  ///< payload bytes
  std::uint32_t min_payload = 0;
  std::uint32_t max_payload = 0;
  /// RTP bookkeeping: SSRC seen, count of packets that parsed as RTP, and
  /// count of RTP packets whose SSRC matched the first one.
  std::optional<std::uint32_t> rtp_ssrc;
  std::uint64_t rtp_packets = 0;
  std::uint64_t rtp_same_ssrc = 0;

  void add(const PacketRecord& pkt);
};

/// Aggregate state of one bidirectional flow.
struct FlowState {
  FiveTuple key;  ///< canonical tuple
  Timestamp first_seen = 0;
  Timestamp last_seen = 0;
  DirectionStats up;
  DirectionStats down;

  [[nodiscard]] Duration age() const { return last_seen - first_seen; }
  [[nodiscard]] std::uint64_t total_packets() const {
    return up.packets + down.packets;
  }

  /// Mean downstream payload throughput in bits/s over the flow lifetime;
  /// 0 while the flow has no measurable age.
  [[nodiscard]] double downstream_bps() const;

  /// Fraction of downstream packets that parsed as RTP with a consistent
  /// SSRC; 0 when no downstream packets have been seen.
  [[nodiscard]] double downstream_rtp_consistency() const;
};

/// Demultiplexes packets into FlowStates. A flow silent for longer than
/// `idle_timeout` restarts at its own next packet: add() resets it to
/// fresh statistics (counted in evictions()) before accounting the
/// packet, so the restart does not depend on when a sweep last ran.
/// Idle flows are also evicted lazily: every `kLazyEvictStride` calls to
/// add(), the table sweeps and discards idle entries (amortized O(1) per
/// packet, no timer machinery), so the table stays bounded under
/// sustained churn even if the owner never sweeps explicitly. Callers
/// that want the evicted states call evict_idle() themselves.
class FlowTable {
 public:
  /// One internal idle sweep per this many add() calls.
  static constexpr std::uint64_t kLazyEvictStride = 512;

  explicit FlowTable(Duration idle_timeout = 60 * kNanosPerSecond)
      : idle_timeout_(idle_timeout) {}

  /// Accounts one packet; returns the (updated) state of its flow. The
  /// returned reference stays valid until the flow itself is evicted or
  /// erased (map nodes are stable under other erasures).
  const FlowState& add(const PacketRecord& pkt);

  /// Removes and returns flows idle at `now` for longer than the timeout.
  std::vector<FlowState> evict_idle(Timestamp now);

  /// Drops one flow by (any orientation of) its tuple; returns whether an
  /// entry existed. Erasure is not counted as an eviction.
  bool erase(const FiveTuple& tuple);

  /// Drops every flow, as a fresh table would; evictions() stays lifetime.
  void clear() {
    flows_.clear();
    adds_since_sweep_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return flows_.size(); }

  /// Total flows evicted for idleness over the table's lifetime
  /// (explicit evict_idle() sweeps, the lazy add() sweeps and add()'s
  /// restarts of stale flows).
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// Looks up a flow by (any orientation of) its tuple.
  [[nodiscard]] const FlowState* find(const FiveTuple& tuple) const;

  /// Snapshot of all live flows (ordered by canonical key).
  [[nodiscard]] std::vector<const FlowState*> flows() const;

 private:
  /// Shared sweep: erases idle entries, moving them into `out` if given.
  std::size_t sweep_idle(Timestamp now, std::vector<FlowState>* out);

  std::map<FiveTuple, FlowState> flows_;
  Duration idle_timeout_;
  std::uint64_t adds_since_sweep_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace cgctx::net
