#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "sim/cross_traffic.hpp"

namespace cgctx::sim {

FleetSampler::FleetSampler(const FleetOptions& options)
    : options_(options), rng_(options.seed) {
  double acc = 0.0;
  cumulative_popularity_.reserve(kNumTitles);
  for (const GameInfo& game : catalog()) {
    acc += game.popularity;
    cumulative_popularity_.push_back(acc);
  }
  // Normalize in case the catalog popularity does not sum to exactly 1.
  for (double& c : cumulative_popularity_) c /= acc;
}

SessionSpec FleetSampler::sample() {
  SessionSpec spec;

  // Popularity-weighted title, long tail included.
  const double u = rng_.next_double();
  std::size_t index = 0;
  while (index + 1 < cumulative_popularity_.size() &&
         u > cumulative_popularity_[index])
    ++index;
  spec.title = static_cast<GameTitle>(index);
  const GameInfo& game = info(spec.title);

  spec.config = sample_config(rng_);

  // Session duration: exponential around the title's mean, floored at two
  // minutes of gameplay so even the shortest sessions cover a launch plus
  // some play.
  const double mean_s = game.mean_session_minutes * 60.0 * options_.duration_scale;
  const double dur = -mean_s * std::log(1.0 - rng_.next_double());
  spec.gameplay_seconds = std::max(120.0 * options_.duration_scale, dur);

  // Network path mix.
  const double n = rng_.next_double();
  if (n < options_.fraction_congested) {
    spec.network = NetworkConditions::congested();
  } else if (n < options_.fraction_congested + options_.fraction_mid) {
    // Mildly degraded: medium latency, some loss, constrained bandwidth.
    spec.network = NetworkConditions{45.0, 6.0, 0.01, 18.0};
  } else {
    spec.network = NetworkConditions::good();
  }

  spec.seed = rng_.next_u64();
  return spec;
}

namespace {

/// A run's next packet in the merge: ties go to the earlier run.
using MergeKey = std::pair<net::Timestamp, std::size_t>;

/// Restores the min-heap order of `heap` after its top changed.
void sift_down(std::vector<MergeKey>& heap) {
  const MergeKey moving = heap.front();
  std::size_t at = 0;
  for (std::size_t child = 1; child < heap.size(); child = 2 * at + 1) {
    if (child + 1 < heap.size() && heap[child + 1] < heap[child]) ++child;
    if (!(heap[child] < moving)) break;
    heap[at] = heap[child];
    at = child;
  }
  heap[at] = moving;
}

}  // namespace

std::vector<net::PacketRecord> merge_by_time(
    std::vector<std::vector<net::PacketRecord>> runs) {
  const auto earlier = [](const net::PacketRecord& a,
                          const net::PacketRecord& b) {
    return a.timestamp < b.timestamp;
  };
  std::size_t total = 0;
  for (const auto& run : runs) {
    if (!std::is_sorted(run.begin(), run.end(), earlier))
      throw std::logic_error("merge_by_time: a run is not sorted by time");
    total += run.size();
  }

  // Min-heap of each unfinished run's next packet.
  std::vector<MergeKey> heap;
  std::vector<std::size_t> next(runs.size(), 0);
  for (std::size_t r = 0; r < runs.size(); ++r)
    if (!runs[r].empty()) heap.emplace_back(runs[r].front().timestamp, r);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());

  std::vector<net::PacketRecord> wire;
  wire.reserve(total);
  while (!heap.empty()) {
    // Copy from the top run while it stays first: until its next key
    // passes the smaller of the top's children.
    const std::size_t r = heap.front().second;
    const std::vector<net::PacketRecord>& run = runs[r];
    MergeKey limit{std::numeric_limits<net::Timestamp>::max(), runs.size()};
    if (heap.size() > 1) limit = heap[1];
    if (heap.size() > 2) limit = std::min(limit, heap[2]);
    std::size_t at = next[r];
    do {
      wire.push_back(run[at++]);
    } while (at < run.size() && MergeKey{run[at].timestamp, r} < limit);

    if (at < run.size()) {
      next[r] = at;
      heap.front().first = run[at].timestamp;
    } else {
      std::vector<net::PacketRecord>().swap(runs[r]);
      heap.front() = heap.back();
      heap.pop_back();
      if (heap.empty()) break;
    }
    sift_down(heap);
  }
  return wire;
}

FleetReplay build_fleet_replay(const FleetReplayOptions& options) {
  FleetReplay replay;
  ml::Rng rng(options.seed);
  FleetOptions fleet_options;
  fleet_options.seed = options.seed;
  FleetSampler sampler(fleet_options);
  const SessionGenerator generator;

  // One time-sorted run per session and per cross flow, in wire order.
  std::vector<std::vector<net::PacketRecord>> runs;
  runs.reserve(options.sessions + options.cross_traffic_flows);
  std::set<net::FiveTuple> used_flows;
  for (std::size_t i = 0; i < options.sessions; ++i) {
    SessionSpec spec = sampler.sample();
    spec.gameplay_seconds = options.gameplay_seconds;
    spec.start_time = net::duration_from_seconds(
        rng.uniform(0.0, options.start_spread_s));
    // The flow tuple derives from the spec seed; reroll until distinct so
    // the wire carries `sessions` separate streaming flows.
    LabeledSession session = generator.generate(spec);
    while (!used_flows.insert(session.tuple.canonical()).second) {
      spec.seed = rng.next_u64();
      session = generator.generate(spec);
    }
    replay.session_flows.push_back(session.tuple.canonical());
    runs.push_back(std::move(session.packets));
  }

  for (std::size_t i = 0; i < options.cross_traffic_flows; ++i) {
    const auto client = net::Ipv4Addr::from_octets(
        10, 200, static_cast<std::uint8_t>(rng.next_below(250) + 1),
        static_cast<std::uint8_t>(rng.next_below(250) + 1));
    std::vector<net::PacketRecord> flow;
    switch (i % 3) {
      case 0: flow = voip_flow(client, options.cross_traffic_duration_s, rng);
              break;
      case 1: flow = web_browsing_flow(client, options.cross_traffic_duration_s,
                                       rng);
              break;
      default: flow = video_streaming_flow(
                   client, options.cross_traffic_duration_s, rng);
    }
    const net::Duration offset =
        net::duration_from_seconds(rng.uniform(0.0, options.start_spread_s));
    for (net::PacketRecord& pkt : flow) pkt.timestamp += offset;
    runs.push_back(std::move(flow));
  }

  replay.wire = merge_by_time(std::move(runs));
  return replay;
}

}  // namespace cgctx::sim
