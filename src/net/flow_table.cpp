#include "net/flow_table.hpp"

#include <algorithm>

namespace cgctx::net {

void DirectionStats::add(const PacketRecord& pkt) {
  if (packets == 0) {
    min_payload = pkt.payload_size;
    max_payload = pkt.payload_size;
  } else {
    min_payload = std::min(min_payload, pkt.payload_size);
    max_payload = std::max(max_payload, pkt.payload_size);
  }
  ++packets;
  bytes += pkt.payload_size;
  if (pkt.rtp) {
    ++rtp_packets;
    if (!rtp_ssrc) rtp_ssrc = pkt.rtp->ssrc;
    if (*rtp_ssrc == pkt.rtp->ssrc) ++rtp_same_ssrc;
  }
}

double FlowState::downstream_bps() const {
  const Duration span = age();
  if (span <= 0) return 0.0;
  return static_cast<double>(down.bytes) * 8.0 / duration_to_seconds(span);
}

double FlowState::downstream_rtp_consistency() const {
  if (down.packets == 0) return 0.0;
  return static_cast<double>(down.rtp_same_ssrc) /
         static_cast<double>(down.packets);
}

const FlowState& FlowTable::add(const PacketRecord& pkt) {
  // Amortized lazy eviction: a periodic full scan keeps the table bounded
  // under flow churn without the owner having to run a timer. The scan
  // runs before the insert so it can never drop the packet's own flow.
  if (++adds_since_sweep_ >= kLazyEvictStride) {
    adds_since_sweep_ = 0;
    sweep_idle(pkt.timestamp, nullptr);
  }

  const FiveTuple key = pkt.tuple.canonical();
  auto [it, inserted] = flows_.try_emplace(key);
  FlowState& state = it->second;
  if (!inserted && pkt.timestamp - state.last_seen > idle_timeout_) {
    // Silent past the timeout: the flow restarts here whether or not a
    // sweep has run since, so every front-end sees the same flow.
    state = FlowState{};
    ++evictions_;
    inserted = true;
  }
  if (inserted) {
    // Both clocks start at the flow's first packet, whatever its sign: a
    // zero last_seen would make a flow first seen before time 0 look
    // active at 0.
    state.key = key;
    state.first_seen = pkt.timestamp;
    state.last_seen = pkt.timestamp;
  }
  state.last_seen = std::max(state.last_seen, pkt.timestamp);
  (pkt.direction == Direction::kUpstream ? state.up : state.down).add(pkt);
  return state;
}

std::size_t FlowTable::sweep_idle(Timestamp now, std::vector<FlowState>* out) {
  std::size_t count = 0;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (now - it->second.last_seen > idle_timeout_) {
      if (out != nullptr) out->push_back(std::move(it->second));
      it = flows_.erase(it);
      ++count;
    } else {
      ++it;
    }
  }
  evictions_ += count;
  return count;
}

std::vector<FlowState> FlowTable::evict_idle(Timestamp now) {
  std::vector<FlowState> evicted;
  sweep_idle(now, &evicted);
  return evicted;
}

bool FlowTable::erase(const FiveTuple& tuple) {
  return flows_.erase(tuple.canonical()) > 0;
}

const FlowState* FlowTable::find(const FiveTuple& tuple) const {
  auto it = flows_.find(tuple.canonical());
  return it == flows_.end() ? nullptr : &it->second;
}

std::vector<const FlowState*> FlowTable::flows() const {
  std::vector<const FlowState*> out;
  out.reserve(flows_.size());
  for (const auto& [key, state] : flows_) out.push_back(&state);
  return out;
}

}  // namespace cgctx::net
