#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "obs/export.hpp"

namespace cgctx::obs {

const char* to_string(TraceEventType type) {
  switch (type) {
    case TraceEventType::kFlowPromoted: return "flow-promoted";
    case TraceEventType::kTitleVerdict: return "title-verdict";
    case TraceEventType::kStageTransition: return "stage-transition";
    case TraceEventType::kPatternDecision: return "pattern-decision";
    case TraceEventType::kQoeChange: return "qoe-change";
    case TraceEventType::kSessionRetired: return "session-retired";
  }
  return "?";
}

void TraceEvent::set_name(std::string_view s) {
  const std::size_t n = std::min(s.size(), name.size() - 1);
  std::memcpy(name.data(), s.data(), n);
  name[n] = '\0';
}

std::string_view TraceEvent::name_view() const {
  return std::string_view(name.data());
}

DecisionTraceRing::DecisionTraceRing(std::size_t capacity) {
  ring_.resize(std::bit_ceil(std::max<std::size_t>(capacity, 2)));
}

void DecisionTraceRing::push(const TraceEvent& event) {
  ring_[pushed_ & (ring_.size() - 1)] = event;
  ++pushed_;
}

std::size_t DecisionTraceRing::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(pushed_, ring_.size()));
}

std::uint64_t DecisionTraceRing::overwritten() const {
  return pushed_ - size();
}

const TraceEvent& DecisionTraceRing::at(std::size_t i) const {
  const std::uint64_t oldest = pushed_ - size();
  return ring_[(oldest + i) & (ring_.size() - 1)];
}

void DecisionTraceRing::clear() { pushed_ = 0; }

void DecisionTraceRing::append_to(std::vector<TraceEvent>& out) const {
  const std::size_t n = size();
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(at(i));
}

std::string to_jsonl(const TraceEvent& event) {
  // Only the fixed-width fields go through the buffer; the name is
  // operator-supplied class-name text (a CRLF model file leaves a '\r' on
  // it), so it is JSON-escaped and appended after.
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"session\":%llu,\"t\":%.3f,\"event\":\"%s\",\"label\":%d,"
                "\"confidence\":%.4f,\"name\":\"",
                static_cast<unsigned long long>(event.session_id),
                event.at_seconds, to_string(event.type), event.label,
                event.confidence);
  std::string line = buf;
  line += json_escape(event.name_view());
  line += "\"}\n";
  return line;
}

void write_jsonl(const DecisionTraceRing& ring, std::ostream& out) {
  for (std::size_t i = 0; i < ring.size(); ++i) out << to_jsonl(ring.at(i));
}

void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& out) {
  for (const TraceEvent& event : events) out << to_jsonl(event);
}

}  // namespace cgctx::obs
