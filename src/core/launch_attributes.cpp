#include "core/launch_attributes.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cgctx::core {

namespace {

/// Bounds validate() enforces (the paper's window is 5 one-second slots).
constexpr double kMinSlotSeconds = 1e-3;
constexpr double kMaxWindowSeconds = 3600.0;
constexpr double kMaxWindowSlots = 3600.0;

struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double sum = 0.0;
};

/// Five-number-ish summary of an ascending value list; zeros when empty.
/// Sums run in ascending order, so equal multisets give equal bits.
template <typename T>
Summary summarize_sorted(std::span<const T> values) {
  Summary s;
  if (values.empty()) return s;
  s.min = static_cast<double>(values.front());
  s.max = static_cast<double>(values.back());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? static_cast<double>(values[n / 2])
                        : 0.5 * (static_cast<double>(values[n / 2 - 1]) +
                                 static_cast<double>(values[n / 2]));
  for (T v : values) s.sum += static_cast<double>(v);
  s.mean = s.sum / static_cast<double>(n);
  double var = 0.0;
  for (T v : values) {
    const double d = static_cast<double>(v) - s.mean;
    var += d * d;
  }
  s.stddev = std::sqrt(var / static_cast<double>(n));
  return s;
}

/// Values a sorted run holds before it is merged into the base: an
/// insert moves at most this many, and merges stay rare.
constexpr std::size_t kRunLength = 32;

std::size_t slot_count_for(const LaunchAttributeParams& params) {
  return static_cast<std::size_t>(
      std::ceil(params.window_seconds / params.slot_seconds - 1e-9));
}

}  // namespace

void validate(const LaunchAttributeParams& params) {
  const double window = params.window_seconds;
  const double slot = params.slot_seconds;
  const char* error = nullptr;
  if (!std::isfinite(window) || !std::isfinite(slot) ||
      !std::isfinite(params.group_params.v_fraction))
    error = "a value is not finite";
  else if (slot < kMinSlotSeconds)
    error = "slot_seconds is under 1 ms";
  else if (slot > window)
    error = "slot_seconds exceeds window_seconds";
  else if (window > kMaxWindowSeconds)
    error = "window_seconds exceeds an hour";
  else if (window / slot > kMaxWindowSlots)
    error = "the window holds more than 3600 slots";
  if (error != nullptr)
    throw std::invalid_argument(std::string("LaunchAttributeParams: ") +
                                error);
}

template <typename T>
void LaunchWindow::SortedValues<T>::clear() {
  base.clear();
  run.clear();
}

template <typename T>
void LaunchWindow::SortedValues<T>::insert(T value) {
  // Insertion sort's inner loop: a short scan from the back predicts
  // better than a binary search.
  run.push_back(value);
  std::size_t i = run.size() - 1;
  for (; i > 0 && run[i - 1] > value; --i) run[i] = run[i - 1];
  run[i] = value;
  if (run.size() == kRunLength) merge_run();
}

template <typename T>
void LaunchWindow::SortedValues<T>::merge_run() {
  // Merge from the back; once the run is placed, the rest of the base is
  // already in place.
  std::size_t i = base.size();
  std::size_t j = run.size();
  base.resize(i + j);
  std::size_t k = base.size();
  while (j > 0) {
    if (i > 0 && base[i - 1] > run[j - 1])
      base[--k] = base[--i];
    else
      base[--k] = run[--j];
  }
  run.clear();
}

LaunchWindow::LaunchWindow(const LaunchAttributeParams& params) {
  validate(params);
  slot_duration_ = net::duration_from_seconds(params.slot_seconds);
  slot_count_ = slot_count_for(params);
  // N itself, but never past the last slot: slot_count_for rounds an N/T
  // within 1e-9 of an integer down to it.
  window_duration_ =
      std::min(net::duration_from_seconds(params.window_seconds),
               static_cast<net::Duration>(slot_count_) * slot_duration_);
  group_params_ = params.group_params;
  counts_.assign(kNumPacketGroups * slot_count_, 0.0);
  start(0);
}

void LaunchWindow::start(net::Timestamp flow_begin) {
  begin_ = flow_begin;
  end_ = flow_begin + window_duration_;
  open_slot_ = 0;
  open_end_ = flow_begin + slot_duration_;
  open_times_.clear();
  open_sizes_.clear();
  labeled_ = 0;
  for (GroupState& group : groups_) {
    group.sizes.clear();
    group.iats.clear();
    group.previous = 0;
    group.has_previous = false;
  }
  std::fill(counts_.begin(), counts_.end(), 0.0);
  row_.clear();
}

void LaunchWindow::add(const net::PacketRecord& pkt) {
  if (pkt.direction != net::Direction::kDownstream) return;
  if (pkt.timestamp < begin_ || pkt.timestamp >= end_) return;
  if (pkt.timestamp >= open_end_) {
    const auto slot = static_cast<std::size_t>((pkt.timestamp - begin_) /
                                               slot_duration_);
    close_open_slot();
    open_slot_ = slot;
    open_end_ =
        begin_ + static_cast<net::Duration>(slot + 1) * slot_duration_;
  }
  // From here on, the packet belongs to the open slot, late or not.
  if (pkt.payload_size >= group_params_.full_payload) {
    record(PacketGroup::kFull, pkt.timestamp, pkt.payload_size);
    return;
  }
  open_times_.push_back(pkt.timestamp);
  open_sizes_.push_back(pkt.payload_size);
  if (open_sizes_.size() - labeled_ > group_params_.neighbor_window)
    label_next();
}

void LaunchWindow::label_next() {
  const std::size_t i = labeled_++;
  record(steady_vote(open_sizes_, i, group_params_) ? PacketGroup::kSteady
                                                    : PacketGroup::kSparse,
         open_times_[i], open_sizes_[i]);
}

void LaunchWindow::record(PacketGroup label, net::Timestamp timestamp,
                          std::uint32_t payload_size) {
  const auto g = static_cast<std::size_t>(label);
  GroupState& group = groups_[g];
  counts_[g * slot_count_ + open_slot_] += 1.0;
  group.sizes.insert(payload_size);
  if (group.has_previous)
    group.iats.insert(net::duration_to_millis(timestamp - group.previous));
  group.previous = timestamp;
  group.has_previous = true;
}

void LaunchWindow::close_open_slot() {
  while (labeled_ < open_sizes_.size()) label_next();
  open_times_.clear();
  open_sizes_.clear();
  labeled_ = 0;
}

const ml::FeatureRow& LaunchWindow::finish() {
  close_open_slot();
  row_.clear();
  for (std::size_t g = 0; g < kNumPacketGroups; ++g) {
    GroupState& group = groups_[g];
    group.sizes.merge_run();
    group.iats.merge_run();
    const auto counts =
        std::span<double>(counts_).subspan(g * slot_count_, slot_count_);
    std::sort(counts.begin(), counts.end());  // the window is over

    const Summary ct = summarize_sorted<double>(counts);
    row_.push_back(ct.sum);
    row_.push_back(ct.mean);
    row_.push_back(ct.stddev);
    row_.push_back(ct.max);
    row_.push_back(ct.min);

    const Summary sz = summarize_sorted<std::uint32_t>(group.sizes.base);
    row_.push_back(sz.mean);
    row_.push_back(sz.stddev);
    row_.push_back(sz.min);
    row_.push_back(sz.max);
    row_.push_back(sz.median);
    row_.push_back(sz.sum);

    const Summary iat = summarize_sorted<double>(group.iats.base);
    row_.push_back(iat.mean);
    row_.push_back(iat.stddev);
    row_.push_back(iat.min);
    row_.push_back(iat.max);
    row_.push_back(iat.median);
    row_.push_back(iat.mean > 0.0 ? iat.stddev / iat.mean : 0.0);
  }
  return row_;
}

std::vector<std::string> launch_attribute_names() {
  static const char* kGroups[] = {"full", "steady", "sparse"};
  static const char* kStats[] = {
      "ct_sum",     "ct_mean",   "ct_std",  "ct_max",    "ct_min",
      "sz_mean",    "sz_std",    "sz_min",  "sz_max",    "sz_median",
      "sz_sum",     "iat_mean",  "iat_std", "iat_min",   "iat_max",
      "iat_median", "iat_burst"};
  std::vector<std::string> names;
  names.reserve(kNumLaunchAttributes);
  for (const char* group : kGroups)
    for (const char* stat : kStats)
      names.push_back(std::string(group) + "_" + stat);
  return names;
}

ml::FeatureRow launch_attributes(std::span<const net::PacketRecord> packets,
                                 net::Timestamp flow_begin,
                                 const LaunchAttributeParams& params) {
  LaunchWindow window(params);
  window.start(flow_begin);
  for (const net::PacketRecord& pkt : packets) window.add(pkt);
  return window.finish();
}

ml::FeatureRow flow_volumetric_attributes(
    std::span<const net::PacketRecord> packets, net::Timestamp flow_begin,
    const LaunchAttributeParams& params) {
  validate(params);
  const std::size_t slots = slot_count_for(params);
  const auto slot_duration = net::duration_from_seconds(params.slot_seconds);
  ml::FeatureRow features(2 * slots, 0.0);
  for (const net::PacketRecord& pkt : packets) {
    if (pkt.direction != net::Direction::kDownstream) continue;
    if (pkt.timestamp < flow_begin) continue;
    const auto slot =
        static_cast<std::size_t>((pkt.timestamp - flow_begin) / slot_duration);
    if (slot >= slots) continue;
    features[2 * slot] += 1.0;  // packet rate
    features[2 * slot + 1] += static_cast<double>(pkt.payload_size);
  }
  return features;
}

std::vector<std::string> flow_volumetric_attribute_names(
    const LaunchAttributeParams& params) {
  std::vector<std::string> names;
  for (std::size_t s = 0; s < slot_count_for(params); ++s) {
    names.push_back("pkt_rate[" + std::to_string(s) + "]");
    names.push_back("throughput[" + std::to_string(s) + "]");
  }
  return names;
}

}  // namespace cgctx::core
