#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace cgctx::obs {
namespace {

TraceEvent make_event(std::uint64_t session, double t, TraceEventType type) {
  TraceEvent event;
  event.session_id = session;
  event.at_seconds = t;
  event.type = type;
  return event;
}

// The JSONL "type" values: consumers of the trace and the event
// callbacks key on these names.
TEST(TraceEvent, TypeNames) {
  EXPECT_STREQ(to_string(TraceEventType::kFlowPromoted), "flow-promoted");
  EXPECT_STREQ(to_string(TraceEventType::kTitleVerdict), "title-verdict");
  EXPECT_STREQ(to_string(TraceEventType::kStageTransition),
               "stage-transition");
  EXPECT_STREQ(to_string(TraceEventType::kPatternDecision),
               "pattern-decision");
  EXPECT_STREQ(to_string(TraceEventType::kQoeChange), "qoe-change");
  EXPECT_STREQ(to_string(TraceEventType::kSessionRetired), "session-retired");
}

TEST(TraceEvent, NameTruncatesToInlineCapacity) {
  TraceEvent event;
  event.set_name("short");
  EXPECT_EQ(event.name_view(), "short");
  const std::string long_name(64, 'x');
  event.set_name(long_name);
  EXPECT_EQ(event.name_view().size(), event.name.size() - 1);
  EXPECT_EQ(event.name_view(), std::string(event.name.size() - 1, 'x'));
}

TEST(DecisionTraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(DecisionTraceRing(5).capacity(), 8u);
  EXPECT_EQ(DecisionTraceRing(8).capacity(), 8u);
  EXPECT_EQ(DecisionTraceRing(0).capacity(), 2u);
  EXPECT_EQ(DecisionTraceRing(1).capacity(), 2u);
}

TEST(DecisionTraceRing, HoldsEventsInOrderUntilFull) {
  DecisionTraceRing ring(8);
  for (int i = 0; i < 5; ++i)
    ring.push(make_event(1, i, TraceEventType::kStageTransition));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.overwritten(), 0u);
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_DOUBLE_EQ(ring.at(i).at_seconds, static_cast<double>(i));
}

TEST(DecisionTraceRing, OverwritesOldestWhenFull) {
  DecisionTraceRing ring(8);
  for (int i = 0; i < 10; ++i)
    ring.push(make_event(1, i, TraceEventType::kStageTransition));
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.overwritten(), 2u);
  // Oldest surviving is event #2; newest is #9.
  EXPECT_DOUBLE_EQ(ring.at(0).at_seconds, 2.0);
  EXPECT_DOUBLE_EQ(ring.at(ring.size() - 1).at_seconds, 9.0);
}

TEST(DecisionTraceRing, ClearEmptiesAndReuses) {
  DecisionTraceRing ring(4);
  ring.push(make_event(1, 0, TraceEventType::kFlowPromoted));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.recorded(), 0u);
  ring.push(make_event(2, 5, TraceEventType::kSessionRetired));
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.at(0).session_id, 2u);
}

TEST(DecisionTraceRing, AppendToDrainsOldestFirst) {
  DecisionTraceRing ring(4);
  for (int i = 0; i < 6; ++i)
    ring.push(make_event(1, i, TraceEventType::kQoeChange));
  std::vector<TraceEvent> events;
  ring.append_to(events);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().at_seconds, 2.0);
  EXPECT_DOUBLE_EQ(events.back().at_seconds, 5.0);
}

TEST(TraceJsonl, GoldenLine) {
  TraceEvent event;
  event.session_id = 7;
  event.at_seconds = 12.5;
  event.type = TraceEventType::kTitleVerdict;
  event.label = 3;
  event.confidence = 0.8765;
  event.set_name("fortnite");
  EXPECT_EQ(to_jsonl(event),
            "{\"session\":7,\"t\":12.500,\"event\":\"title-verdict\","
            "\"label\":3,\"confidence\":0.8765,\"name\":\"fortnite\"}\n");
}

TEST(TraceJsonl, EscapesNameQuotes) {
  TraceEvent event;
  event.set_name("a\"b\\c");
  const std::string line = to_jsonl(event);
  EXPECT_NE(line.find("\"name\":\"a\\\"b\\\\c\""), std::string::npos);
}

TEST(TraceJsonl, EscapesControlCharacters) {
  // A class name read from a CRLF model file keeps its '\r'.
  TraceEvent event;
  event.set_name("Halo\r\t\x01");
  const std::string line = to_jsonl(event);
  EXPECT_NE(line.find("\"name\":\"Halo\\r\\t\\u0001\"}\n"),
            std::string::npos);
  // The only raw control byte is the line's own terminator.
  for (std::size_t i = 0; i + 1 < line.size(); ++i)
    EXPECT_GE(static_cast<unsigned char>(line[i]), 0x20u) << "at " << i;

  // A full-width name of control bytes escapes to six bytes each; with
  // wide numeric fields the line still closes.
  event.session_id = ~std::uint64_t{0};
  event.at_seconds = 1e12;
  event.label = -2147483647;
  event.confidence = -1e9;
  event.set_name(std::string(event.name.size() - 1, '\x1f'));
  const std::string wide = to_jsonl(event);
  std::string escaped;
  for (std::size_t i = 0; i + 1 < event.name.size(); ++i)
    escaped += "\\u001f";
  EXPECT_TRUE(wide.ends_with("\"name\":\"" + escaped + "\"}\n")) << wide;
}

TEST(TraceJsonl, WritesOneLinePerHeldEvent) {
  DecisionTraceRing ring(8);
  for (int i = 0; i < 3; ++i)
    ring.push(make_event(1, i, TraceEventType::kPatternDecision));
  std::ostringstream os;
  write_jsonl(ring, os);
  const std::string text = os.str();
  std::size_t newlines = 0;
  for (const char c : text) newlines += c == '\n' ? 1 : 0;
  EXPECT_EQ(newlines, 3u);
  EXPECT_NE(text.find("\"event\":\"pattern-decision\""), std::string::npos);
}

}  // namespace
}  // namespace cgctx::obs
