// Downstream packet-group labeling (paper §4.2.1).
//
// Within each T-second time slot of the launch stage, downstream packets
// are labeled:
//   full   - payload equals the maximum (MTU-limited) payload size;
//   steady - payload within +-V (fractional) of most of its neighbors in
//            arrival order, i.e. it sits in a narrow payload band;
//   sparse - everything else (near-random payload sizes).
// The steady/sparse decision uses the paper's majority-voting rule over
// adjacent non-full packets, with V tunable (10% is the paper's best).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"

namespace cgctx::core {

enum class PacketGroup : std::uint8_t { kFull = 0, kSteady = 1, kSparse = 2 };
inline constexpr std::size_t kNumPacketGroups = 3;

const char* to_string(PacketGroup group);

struct GroupLabelerParams {
  /// Allowed fractional payload variation between steady neighbors
  /// (paper's V; 0.10 = 10% performs best, §4.4.1).
  double v_fraction = 0.10;
  /// The full-packet payload size; packets at or above this are "full".
  std::uint32_t full_payload = 1432;
  /// Neighbors examined on each side during majority voting.
  std::size_t neighbor_window = 3;
};

/// Labels the packets of ONE time slot, given their payload sizes in
/// arrival order. Returns one group per input packet.
std::vector<PacketGroup> label_packet_groups(
    std::span<const std::uint32_t> payload_sizes,
    const GroupLabelerParams& params = {});

/// The majority vote behind label_packet_groups for one non-full packet:
/// `non_full` holds one slot's non-full payload sizes in arrival order,
/// and the packet at `index` is steady when at least half of its examined
/// neighbors (`neighbor_window` on each side, clipped to the span) lie
/// within +-V of its own size. Reads nothing past index + neighbor_window,
/// so a streaming caller can vote once that many later packets arrived.
bool steady_vote(std::span<const std::uint32_t> non_full, std::size_t index,
                 const GroupLabelerParams& params);

/// A labeled downstream packet (timestamp retained for inter-arrival
/// statistics downstream of the labeler).
struct LabeledPacket {
  net::Timestamp timestamp = 0;
  std::uint32_t payload_size = 0;
  PacketGroup group = PacketGroup::kSparse;
};

/// Slices downstream packets into consecutive T-second slots starting at
/// `window_begin` and labels each slot independently. Packets outside
/// [window_begin, window_begin + slot_count*T) are ignored, as are
/// upstream packets.
std::vector<std::vector<LabeledPacket>> label_window(
    std::span<const net::PacketRecord> packets, net::Timestamp window_begin,
    net::Duration slot_duration, std::size_t slot_count,
    const GroupLabelerParams& params = {});

}  // namespace cgctx::core
