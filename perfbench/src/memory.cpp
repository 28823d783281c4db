#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

namespace {

/// Reads one "Key:   N kB" field of /proc/self/status; 0 when absent.
std::uint64_t status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':')
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
  }
  return 0;
}

}  // namespace

void StateWindow::begin() {
  active_ = true;
  // Pages freed by earlier passes would otherwise absorb this phase's
  // allocations without raising RSS.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  hwm_reset_ = static_cast<bool>(clear);
  start_kb_ = status_kb("VmRSS");
  sampled_kb_ = start_kb_;
}

void StateWindow::sample() {
  if (active_ && !hwm_reset_) sampled_kb_ = std::max(sampled_kb_, status_kb("VmRSS"));
}

double StateWindow::end_mib() const {
  if (!active_) return 0.0;
  const std::uint64_t peak_kb = hwm_reset_ ? status_kb("VmHWM") : sampled_kb_;
  return peak_kb > start_kb_ ? static_cast<double>(peak_kb - start_kb_) / 1024.0
                             : 0.0;
}

}  // namespace perfbench
