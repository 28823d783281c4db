// Per-session decision tracing: why did the probe say what it said?
//
// Aggregate metrics tell an operator *that* unknown-title verdicts are
// climbing; the decision trace tells them *why a given session* was
// classified the way it was: flow promotion, the title verdict and its
// confidence, every stage transition, pattern decisions and flips, QoE
// level changes, and retirement. Events are fixed-size POD records (the
// class name is truncated into an inline char array) appended to a
// fixed-capacity ring, so tracing a hot session performs zero heap
// allocations and old sessions age out instead of growing state.
//
// The ring is single-writer: each probe shard (or single-threaded
// driver) owns one and drains it after the writer has stopped (or from
// the writer thread). Drained events serialize as JSONL — one JSON
// object per line, one stream per session_id.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace cgctx::obs {

enum class TraceEventType : std::uint8_t {
  kFlowPromoted,     ///< detector promoted a flow to a session
  kTitleVerdict,     ///< launch-window title classification (or unknown)
  kStageTransition,  ///< player-activity stage changed
  kPatternDecision,  ///< confident pattern inference (first or flip)
  kQoeChange,        ///< effective QoE level changed
  kSessionRetired,   ///< session idled out / flushed; report emitted
};

const char* to_string(TraceEventType type);

struct TraceEvent {
  std::uint64_t session_id = 0;
  double at_seconds = 0.0;  ///< seconds since the session's flow began
  TraceEventType type = TraceEventType::kFlowPromoted;
  /// Label index of the decision (stage / pattern / title / QoE level);
  /// -1 when not applicable (unknown title, flow promotion).
  std::int32_t label = -1;
  /// Model confidence of the decision; 0 when not applicable.
  double confidence = 0.0;
  /// Human-readable decision name, truncated to the inline capacity.
  std::array<char, 24> name{};

  void set_name(std::string_view s);
  [[nodiscard]] std::string_view name_view() const;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class DecisionTraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit DecisionTraceRing(std::size_t capacity);

  /// Appends one event, overwriting the oldest once full. Single-writer;
  /// not synchronized with concurrent drains.
  void push(const TraceEvent& event);

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Lifetime events pushed.
  [[nodiscard]] std::uint64_t recorded() const { return pushed_; }
  /// Events lost to overwriting (recorded() - size()).
  [[nodiscard]] std::uint64_t overwritten() const;

  /// i-th held event, 0 = oldest surviving.
  [[nodiscard]] const TraceEvent& at(std::size_t i) const;

  void clear();

  /// Appends all held events, oldest first.
  void append_to(std::vector<TraceEvent>& out) const;

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t pushed_ = 0;
};

/// One JSONL line (with trailing newline) for an event.
std::string to_jsonl(const TraceEvent& event);

/// Writes every held event as JSONL, oldest first.
void write_jsonl(const DecisionTraceRing& ring, std::ostream& out);
void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& out);

}  // namespace cgctx::obs
