// Pre-detection lookback shared by the packet front-ends.
//
// The detector needs a second or two of a flow before it promotes it,
// but the launch packets seen in that time belong to the title window.
// So front-ends buffer recent undetected packets and replay the promoted
// flow's share into its new engine. LaunchLookback owns the rules for
// that buffer: packets older than kSpan behind the newest packet age
// out, and at most kCap packets are held, the oldest dropped and counted
// beyond that. Callers feed it only packets whose tuple passes
// CloudGamingFlowDetector::is_candidate() (no other flow can ever
// promote, so the front-ends gate those packets out before the demux).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>

#include "net/packet.hpp"
#include "net/time.hpp"

namespace cgctx::core {

class LaunchLookback {
 public:
  /// Hard bound on buffered packets (≈3 MiB of records).
  static constexpr std::size_t kCap = std::size_t{1} << 16;
  /// Long enough to cover the detector's warmup, so a new session's
  /// engine still sees the flow's very first launch packets.
  static constexpr net::Duration kSpan = 10 * net::kNanosPerSecond;

  /// Buffers one undetected candidate packet, then ages out and caps the
  /// buffer against its timestamp. Precondition: the packet's canonical
  /// tuple passes CloudGamingFlowDetector::is_candidate(). Inline: it
  /// runs on every undetected candidate packet.
  void observe(const net::PacketRecord& pkt) {
    buffer_.push_back(pkt);
    while (!buffer_.empty() &&
           pkt.timestamp - buffer_.front().timestamp > kSpan)
      buffer_.pop_front();
    if (buffer_.size() > kCap) {
      buffer_.pop_front();
      ++drops_;
    }
  }

  /// Timestamp of the oldest buffered packet of `flow`, if any.
  [[nodiscard]] std::optional<net::Timestamp> first_of(
      const net::FiveTuple& flow) const {
    const auto it = std::find_if(
        buffer_.begin(), buffer_.end(), [&flow](const net::PacketRecord& pkt) {
          return pkt.tuple.canonical() == flow;
        });
    if (it == buffer_.end()) return std::nullopt;
    return it->timestamp;
  }

  /// Calls `replay` on every buffered packet of `flow`, oldest first, and
  /// removes them, so a later session on the tuple never replays them.
  template <class Replay>
  void take(const net::FiveTuple& flow, Replay&& replay) {
    std::erase_if(buffer_, [&](const net::PacketRecord& pkt) {
      if (pkt.tuple.canonical() != flow) return false;
      replay(pkt);
      return true;
    });
  }

  void clear() { buffer_.clear(); }

  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  /// Packets dropped at kCap over the buffer's lifetime.
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  std::deque<net::PacketRecord> buffer_;
  std::uint64_t drops_ = 0;
};

}  // namespace cgctx::core
