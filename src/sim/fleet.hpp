// ISP-scale fleet simulation (paper §5).
//
// Samples streaming sessions the way the partner ISP's deployment sees
// them: titles weighted by Table 1 popularity (including a ~31% long tail
// outside the popular 13), the lab device mix, per-title session duration
// distributions, and a mix of healthy and degraded subscriber network
// paths. Rendered at slot fidelity so three months of sessions are
// tractable.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/session.hpp"

namespace cgctx::sim {

struct FleetOptions {
  std::uint64_t seed = 99;
  /// Scale on per-title mean session durations (1.0 = paper-scale hours;
  /// benches use ~0.1 to keep runtimes sane while preserving ratios).
  double duration_scale = 1.0;
  /// Fractions of subscribers on each network profile.
  double fraction_good = 0.82;
  double fraction_mid = 0.13;   ///< mildly degraded
  double fraction_congested = 0.05;
};

/// Draws one fleet session spec (title, config, duration, network path).
class FleetSampler {
 public:
  explicit FleetSampler(const FleetOptions& options);

  [[nodiscard]] SessionSpec sample();

  [[nodiscard]] const FleetOptions& options() const { return options_; }

 private:
  FleetOptions options_;
  ml::Rng rng_;
  std::vector<double> cumulative_popularity_;
};

/// Options for a packet-fidelity replay of a small concurrent fleet, the
/// input shape a vantage-point probe consumes (interleaved subscribers
/// plus household cross traffic on one wire).
struct FleetReplayOptions {
  std::size_t sessions = 6;
  std::uint64_t seed = 2025;
  /// Packet fidelity renders every RTP packet, so gameplay stays short.
  double gameplay_seconds = 40.0;
  /// Session/cross-flow start times spread uniformly over [0, this).
  double start_spread_s = 20.0;
  /// Non-gaming flows (VoIP / web / video round-robin) mixed in.
  std::size_t cross_traffic_flows = 0;
  double cross_traffic_duration_s = 30.0;
};

/// One synthesized vantage-point wire.
struct FleetReplay {
  /// Timestamp-sorted interleaving of all sessions and cross traffic.
  std::vector<net::PacketRecord> wire;
  /// Canonical streaming-flow tuple of each gaming session (distinct).
  std::vector<net::FiveTuple> session_flows;
};

/// Merges `runs`, each sorted by timestamp, into one timestamp-sorted
/// wire. Packets with equal timestamps keep run order, then their order
/// within the run: exactly the order a stable sort of the runs'
/// concatenation gives. Costs O(n log k) for n packets in k runs, and
/// frees each run's storage once its last packet is copied. Throws
/// std::logic_error when a run is not sorted.
[[nodiscard]] std::vector<net::PacketRecord> merge_by_time(
    std::vector<std::vector<net::PacketRecord>> runs);

/// Samples `options.sessions` fleet sessions (reusing FleetSampler's
/// title/config/network mix), renders them at packet fidelity with
/// staggered starts and guaranteed-distinct flow tuples, mixes in cross
/// traffic, and merges everything into one time-sorted wire
/// (merge_by_time, runs in that order: sessions, then cross flows).
[[nodiscard]] FleetReplay build_fleet_replay(const FleetReplayOptions& options);

}  // namespace cgctx::sim
