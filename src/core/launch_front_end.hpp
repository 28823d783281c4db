// The launch front-end every packet entry point drives: flow table ->
// detector -> lookback -> promotion.
//
// The detector needs a second or two of a flow before it promotes it,
// but the launch packets seen in that time belong to the title window.
// So LaunchFrontEnd accounts each undetected candidate packet in its
// flow table, buffers it, and on promotion hands back the flow's share
// for replay into the new session's engine. One rule sets the session
// clock: a session starts at its flow's oldest buffered packet, which is
// the first packet its engine is replayed.
//
// Lookback rules: packets older than kSpan behind the newest packet age
// out, and at most kCap packets are held, the oldest dropped and counted
// beyond that. Callers feed it only packets whose tuple passes
// CloudGamingFlowDetector::is_candidate() (no other flow can ever
// promote, so the entry points gate those packets out before the demux).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>

#include "core/flow_detector.hpp"
#include "net/flow_table.hpp"
#include "net/packet.hpp"
#include "net/time.hpp"

namespace cgctx::core {

class LaunchFrontEnd {
 public:
  /// Hard bound on buffered packets (≈3 MiB of records).
  static constexpr std::size_t kCap = std::size_t{1} << 16;
  /// Long enough to cover the detector's warmup, so a new session's
  /// engine still sees the flow's very first launch packets.
  static constexpr net::Duration kSpan = 10 * net::kNanosPerSecond;

  /// A flow the detector just accepted.
  struct Promotion {
    DetectionResult detection;
    /// Timestamp of the flow's oldest buffered packet: the session start.
    net::Timestamp flow_begin = 0;
  };

  /// Undetected flows silent for `flow_idle_timeout` leave the table.
  LaunchFrontEnd(const FlowDetectorParams& detector,
                 net::Duration flow_idle_timeout)
      : table_(flow_idle_timeout), detector_(detector) {}

  /// Buffers one undetected candidate packet (ageing and capping the
  /// buffer against its timestamp), accounts it in the flow table, and
  /// returns the promotion when the detector accepts its flow. The caller
  /// then take()s the flow. Preconditions: `key` is the packet's
  /// canonical tuple, and it passes CloudGamingFlowDetector::is_candidate().
  [[nodiscard]] std::optional<Promotion> observe(const net::PacketRecord& pkt,
                                                 const net::FiveTuple& key) {
    buffer_.push_back(pkt);
    while (pkt.timestamp - buffer_.front().timestamp > kSpan)
      buffer_.pop_front();
    if (buffer_.size() > kCap) {
      buffer_.pop_front();
      ++drops_;
    }
    const auto detection = detector_.detect(table_.add(pkt));
    if (!detection) return std::nullopt;
    // The packet itself is buffered, so the flow has a buffered packet.
    const auto oldest = std::find_if(
        buffer_.begin(), buffer_.end(), [&key](const net::PacketRecord& p) {
          return p.tuple.canonical() == key;
        });
    return Promotion{*detection, oldest->timestamp};
  }

  /// Calls `replay` on every buffered packet of `key`, oldest first, and
  /// removes them and the flow's table entry: from now on the flow's
  /// packets bypass the front-end, and a later session on the tuple
  /// starts from its own packets and fresh statistics.
  template <class Replay>
  void take(const net::FiveTuple& key, Replay&& replay) {
    std::erase_if(buffer_, [&](const net::PacketRecord& pkt) {
      if (pkt.tuple.canonical() != key) return false;
      replay(pkt);
      return true;
    });
    table_.erase(key);
  }

  /// Evicts undetected flows idle at `now` past the timeout.
  void evict_idle(net::Timestamp now) { table_.evict_idle(now); }

  /// Drops every flow and buffered packet; lifetime counters stay.
  void clear() {
    table_.clear();
    buffer_.clear();
  }

  /// Undetected candidate flows in the table.
  [[nodiscard]] std::size_t flows() const { return table_.size(); }
  /// Idle flows evicted over the front-end's lifetime.
  [[nodiscard]] std::uint64_t evictions() const { return table_.evictions(); }
  /// Candidate packets buffered for replay at promotion.
  [[nodiscard]] std::size_t lookback_size() const { return buffer_.size(); }
  /// Buffered packets dropped at kCap over the front-end's lifetime.
  [[nodiscard]] std::uint64_t lookback_drops() const { return drops_; }

 private:
  net::FlowTable table_;
  CloudGamingFlowDetector detector_;
  std::deque<net::PacketRecord> buffer_;
  std::uint64_t drops_ = 0;
};

}  // namespace cgctx::core
