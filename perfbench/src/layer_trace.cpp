#include "layer_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "net/time.hpp"

namespace perfbench {

using Histogram = cgctx::obs::LatencyHistogram;

void LayerStat::record(std::uint64_t ns) {
  ++buckets_[Histogram::bucket_index(ns)];
  ++count_;
  total_ns_ += ns;
  max_ns_ = std::max(max_ns_, ns);
}

double LayerStat::allocs_per_call() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(allocs_) / static_cast<double>(count_);
}

double LayerStat::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (rank < static_cast<double>(below + n)) {
      const double lo = static_cast<double>(Histogram::bucket_floor(i));
      const double hi =
          i + 1 < buckets_.size()
              ? static_cast<double>(Histogram::bucket_floor(i + 1))
              : static_cast<double>(max_ns_) + 1.0;
      const double within =
          (rank - static_cast<double>(below) + 0.5) / static_cast<double>(n);
      return std::min(lo + within * (hi - lo), static_cast<double>(max_ns_));
    }
    below += n;
  }
  return static_cast<double>(max_ns_);
}

double LayerStat::tail_percentile() const {
  double best = 50.0;
  for (double tail = 0.1; tail >= 1e-7; tail /= 10.0) {
    if (static_cast<double>(count_) * tail < 10.0) break;
    best = 100.0 * (1.0 - tail);
  }
  return best;
}

void SpanLog::add(const char* name, std::uint64_t start_ns,
                  std::uint64_t end_ns, const cgctx::net::FiveTuple& flow) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, start_ns, end_ns, flow});
}

void SpanLog::write_jsonl(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":"
        << span.start_ns - origin << ",\"end_ns\":" << span.end_ns - origin
        << ",\"id\":\"" << cgctx::net::to_string(span.flow) << "\"}\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

void put_layer(RunResult& out, const std::string& prefix, const LayerStat& s,
               const char* per, double scale) {
  const double tail = s.tail_percentile();
  out.values[prefix + "." + per] = s.quantile_ns(0.5) * scale;
  out.values[prefix + "." + per + "_tail"] = s.quantile_ns(tail / 100.0) * scale;
  char note[160];
  std::snprintf(note, sizeof note, "%s tail is p%g of %llu calls", prefix.c_str(),
                tail, static_cast<unsigned long long>(s.count()));
  out.notes.push_back(note);
}

}  // namespace perfbench
