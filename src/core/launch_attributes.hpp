// Statistical attributes of the launch-stage packet groups (paper §4.2.2).
//
// For the first N seconds of a streaming flow, sliced into T-second time
// slots and group-labeled (packet_groups.hpp), we compute 51 attributes:
// 17 statistics per packet group x 3 groups, covering the three metric
// families the paper names (packet count, payload size, inter-arrival
// time). The paper does not enumerate its 51 attributes; our concrete
// instantiation per group is
//   count over slots:   ct_sum, ct_mean, ct_std, ct_max, ct_min      (5)
//   payload size:       sz_mean, sz_std, sz_min, sz_max, sz_median,
//                       sz_sum                                        (6)
//   inter-arrival time: iat_mean, iat_std, iat_min, iat_max,
//                       iat_median, iat_burstiness (= std/mean)       (6)
// which matches the paper's count (3 x 17 = 51) and its Fig. 7 examples
// (e.g. full_ct_sum). Groups absent from the window contribute zeros.
//
// Every extraction runs through one incremental accumulator, LaunchWindow:
// training, TitleClassifier::classify and a live SessionEngine feed it
// packets and read the same 51 values, bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/packet_groups.hpp"
#include "ml/dataset.hpp"

namespace cgctx::core {

inline constexpr std::size_t kStatsPerGroup = 17;
inline constexpr std::size_t kNumLaunchAttributes =
    kStatsPerGroup * kNumPacketGroups;  // 51

struct LaunchAttributeParams {
  /// Observation window N, seconds (paper: 5).
  double window_seconds = 5.0;
  /// Time slot T, seconds (paper: 1).
  double slot_seconds = 1.0;
  GroupLabelerParams group_params{};
};

/// Throws std::invalid_argument unless `params` describe a window the
/// extraction can evaluate: finite values, a slot of at least 1 ms and at
/// most the window, a window of at most an hour and at most 3600 slots.
/// (A slot rounding to 0 ns would divide by zero, a window past the
/// Duration range would overflow, and millions of slots would exhaust
/// memory.) TitleClassifier's constructor and LaunchWindow call it.
void validate(const LaunchAttributeParams& params);

/// The 51 attributes, accumulated one packet at a time.
///
/// Each downstream packet is group-labeled as soon as its label is
/// final: a full packet at once, a non-full one when `neighbor_window`
/// later non-full packets of its slot have arrived (its majority vote
/// reads no further) or when its slot closes. Only the open slot's
/// non-full (timestamp, payload size) pairs are buffered. A labeled
/// packet goes into its group's state: per-slot counts, and payload sizes
/// and inter-arrival times kept in ascending order as they arrive. The
/// result equals labeling every slot at once and sorting each group's
/// values, so the attributes are bit-identical to that.
///
/// Membership: the window is [flow_begin, flow_begin + N), in
/// nanoseconds; when T does not divide N its last slot is cut short at N.
/// Upstream packets and packets outside the window are ignored (a packet
/// past the end does not end the window). A live engine asks before_end()
/// whether a packet still belongs to the window, so training and the
/// engine read the same packets. Late packets: a packet whose slot has
/// already closed is folded into the open slot (time-sorted traffic never
/// has one).
///
/// start() clears the window but keeps every buffer's capacity, so a
/// pooled owner extracts its second and later windows without allocating.
class LaunchWindow {
 public:
  /// Validates `params` (see validate()); the window starts at 0.
  explicit LaunchWindow(const LaunchAttributeParams& params = {});

  /// Begins an empty window at `flow_begin`.
  void start(net::Timestamp flow_begin);

  /// Feeds one packet.
  void add(const net::PacketRecord& pkt);

  /// True while `timestamp` is before the window's end, flow_begin + N.
  [[nodiscard]] bool before_end(net::Timestamp timestamp) const {
    return timestamp < end_;
  }

  /// Closes the open slot and computes the 51 attributes. This ends the
  /// window: add() nothing more before the next start(). The row stays
  /// valid (see attributes()) until then.
  const ml::FeatureRow& finish();

  /// The row finish() computed; empty before it.
  [[nodiscard]] const ml::FeatureRow& attributes() const { return row_; }

 private:
  /// Values kept in ascending order as they arrive. An insert goes into a
  /// short sorted run, so it moves at most a run's values; a full run is
  /// merged into the sorted base. finish() merges only the last run.
  template <typename T>
  struct SortedValues {
    std::vector<T> base;
    std::vector<T> run;
    void clear();
    void insert(T value);
    void merge_run();
  };

  /// One packet group's values.
  struct GroupState {
    SortedValues<std::uint32_t> sizes;
    SortedValues<double> iats;    ///< ms
    net::Timestamp previous = 0;  ///< carries across slots
    bool has_previous = false;
  };

  /// Labels the open slot's next pending non-full packet.
  void label_next();
  void record(PacketGroup group, net::Timestamp timestamp,
              std::uint32_t payload_size);
  void close_open_slot();

  net::Duration window_duration_ = 0;
  net::Duration slot_duration_ = 0;
  std::size_t slot_count_ = 0;
  GroupLabelerParams group_params_{};

  net::Timestamp begin_ = 0;
  net::Timestamp end_ = 0;       ///< first timestamp past the window
  std::size_t open_slot_ = 0;
  net::Timestamp open_end_ = 0;  ///< first timestamp past the open slot
  /// The open slot's non-full packets in arrival order; the first
  /// `labeled_` of them are labeled.
  std::vector<net::Timestamp> open_times_;
  std::vector<std::uint32_t> open_sizes_;
  std::size_t labeled_ = 0;

  std::array<GroupState, kNumPacketGroups> groups_{};
  std::vector<double> counts_;  ///< [group * slot_count + slot]
  ml::FeatureRow row_;
};

/// Names of the 51 attributes, e.g. "full_ct_sum", "steady_iat_median",
/// in feature-vector order.
std::vector<std::string> launch_attribute_names();

/// Computes the 51-attribute vector from a session's packets by feeding
/// them, in order, into a LaunchWindow. The window starts at `flow_begin`
/// (the first packet of the detected streaming flow). Inter-arrival
/// statistics are in milliseconds.
ml::FeatureRow launch_attributes(std::span<const net::PacketRecord> packets,
                                 net::Timestamp flow_begin,
                                 const LaunchAttributeParams& params = {});

/// The Table 3 baseline: standard flow volumetric attributes — downstream
/// packet count and byte count per time slot over the same window
/// (2 x slot_count features).
ml::FeatureRow flow_volumetric_attributes(
    std::span<const net::PacketRecord> packets, net::Timestamp flow_begin,
    const LaunchAttributeParams& params = {});

std::vector<std::string> flow_volumetric_attribute_names(
    const LaunchAttributeParams& params = {});

}  // namespace cgctx::core
