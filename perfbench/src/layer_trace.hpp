// In-memory layer tracing for the benchmark's traced runs.
//
// Per-packet calls are aggregated into one LayerStat per layer (count,
// total, max and a log-linear histogram); rare calls are also kept as
// individual spans that share the session's canonical flow tuple as their
// id. Spans are written out as JSON lines when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/histogram.hpp"
#include "perfbench.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class LayerStat {
 public:
  void record(std::uint64_t ns);
  void add_allocs(std::uint64_t n) { allocs_ += n; }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t total_ns() const { return total_ns_; }
  [[nodiscard]] std::uint64_t max_ns() const { return max_ns_; }
  [[nodiscard]] std::uint64_t allocs() const { return allocs_; }
  /// Allocations per call; 0 without calls.
  [[nodiscard]] double allocs_per_call() const;

  /// Quantile `q` in ns, interpolated linearly inside its histogram
  /// bucket; 0 without samples.
  [[nodiscard]] double quantile_ns(double q) const;
  /// The highest of p90, p99, p99.9, ... that has at least ten samples
  /// beyond it; p50 below 100 samples.
  [[nodiscard]] double tail_percentile() const;

 private:
  std::array<std::uint64_t, cgctx::obs::LatencyHistogram::kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t total_ns_ = 0;
  std::uint64_t max_ns_ = 0;
  std::uint64_t allocs_ = 0;
};

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  cgctx::net::FiveTuple flow;  ///< canonical tuple of the session (zero if none)
};

class SpanLog {
 public:
  /// Keeps at most `capacity` spans; later ones are counted as dropped.
  explicit SpanLog(std::size_t capacity = 1 << 16) : capacity_(capacity) {}

  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           const cgctx::net::FiveTuple& flow = {});

  /// Writes one JSON object per span, times relative to the first span.
  void write_jsonl(const std::filesystem::path& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Reports a layer's per-call median as `<prefix>.<per>` and its tail as
/// `<prefix>.<per>_tail`, both scaled from ns by `scale`, and adds a note
/// naming the tail percentile.
void put_layer(RunResult& out, const std::string& prefix, const LayerStat& s,
               const char* per, double scale);

}  // namespace perfbench
