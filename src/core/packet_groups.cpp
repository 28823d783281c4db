#include "core/packet_groups.hpp"

#include <algorithm>
#include <cmath>

namespace cgctx::core {

const char* to_string(PacketGroup group) {
  switch (group) {
    case PacketGroup::kFull: return "full";
    case PacketGroup::kSteady: return "steady";
    case PacketGroup::kSparse: return "sparse";
  }
  return "?";
}

bool steady_vote(std::span<const std::uint32_t> non_full, std::size_t index,
                 const GroupLabelerParams& params) {
  const double own = non_full[index];
  const double tolerance = params.v_fraction * own;
  std::size_t neighbors = 0;
  std::size_t close = 0;
  const std::size_t lo =
      index >= params.neighbor_window ? index - params.neighbor_window : 0;
  const std::size_t hi =
      index + std::min(non_full.size() - index, params.neighbor_window + 1);
  for (std::size_t q = lo; q < hi; ++q) {
    if (q == index) continue;
    ++neighbors;
    if (std::abs(static_cast<double>(non_full[q]) - own) <= tolerance) ++close;
  }
  return neighbors > 0 && 2 * close >= neighbors;
}

std::vector<PacketGroup> label_packet_groups(
    std::span<const std::uint32_t> payload_sizes,
    const GroupLabelerParams& params) {
  std::vector<PacketGroup> labels(payload_sizes.size(), PacketGroup::kSparse);

  // Pass 1: full packets by payload size.
  std::vector<std::uint32_t> rest;  // non-full sizes, arrival order
  for (std::size_t i = 0; i < payload_sizes.size(); ++i) {
    if (payload_sizes[i] >= params.full_payload) {
      labels[i] = PacketGroup::kFull;
    } else {
      rest.push_back(payload_sizes[i]);
    }
  }

  // Pass 2: majority voting among adjacent non-full packets.
  std::size_t r = 0;
  for (PacketGroup& label : labels) {
    if (label == PacketGroup::kFull) continue;
    if (steady_vote(rest, r++, params)) label = PacketGroup::kSteady;
  }
  return labels;
}

std::vector<std::vector<LabeledPacket>> label_window(
    std::span<const net::PacketRecord> packets, net::Timestamp window_begin,
    net::Duration slot_duration, std::size_t slot_count,
    const GroupLabelerParams& params) {
  std::vector<std::vector<LabeledPacket>> slots(slot_count);
  // Collect downstream packets per slot (arrival order preserved).
  std::vector<std::vector<std::uint32_t>> payloads(slot_count);
  for (const net::PacketRecord& pkt : packets) {
    if (pkt.direction != net::Direction::kDownstream) continue;
    if (pkt.timestamp < window_begin) continue;
    const auto slot = static_cast<std::size_t>(
        (pkt.timestamp - window_begin) / slot_duration);
    if (slot >= slot_count) continue;
    slots[slot].push_back(LabeledPacket{pkt.timestamp, pkt.payload_size,
                                        PacketGroup::kSparse});
    payloads[slot].push_back(pkt.payload_size);
  }
  for (std::size_t s = 0; s < slot_count; ++s) {
    const std::vector<PacketGroup> labels =
        label_packet_groups(payloads[s], params);
    for (std::size_t i = 0; i < labels.size(); ++i)
      slots[s][i].group = labels[i];
  }
  return slots;
}

}  // namespace cgctx::core
