// LaunchWindow: the incremental launch-attribute accumulator behind
// training, TitleClassifier::classify and the live SessionEngine.
//
// The oracle fixture (data/launch_attributes_oracle.txt) holds attributes
// extracted by the implementation that labeled a whole buffered window at
// once; both the span path and an engine fed packet by packet must
// reproduce them bit for bit.
#include "core/launch_attributes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/session_engine.hpp"
#include "core/title_classifier.hpp"
#include "probe_test_models.hpp"
#include "../rejection_message.hpp"
#include "sim/catalog.hpp"
#include "sim/session.hpp"

namespace cgctx::core {
namespace {

using testing_support::rejection_message;

struct OracleRecord {
  sim::GameTitle title{};
  bool slots_only = false;
  std::uint64_t seed = 0;
  double slot_seconds = 0.0;
  ml::FeatureRow span;
  /// Empty when the engine's row equals the span's.
  ml::FeatureRow engine;

  [[nodiscard]] const ml::FeatureRow& engine_row() const {
    return engine.empty() ? span : engine;
  }
  [[nodiscard]] sim::LabeledSession session() const {
    sim::SessionSpec spec;
    spec.title = title;
    spec.gameplay_seconds = 2.0;
    spec.seed = seed;
    const sim::SessionGenerator gen;
    return slots_only ? gen.generate_slots_only(spec) : gen.generate(spec);
  }
  [[nodiscard]] std::string name() const {
    std::ostringstream os;
    os << sim::to_string(title) << (slots_only ? " slots-only" : " packets")
       << " seed " << seed << " T " << slot_seconds;
    return os.str();
  }
};

std::vector<OracleRecord> load_oracle() {
  std::ifstream in(CGCTX_TEST_DATA_DIR "/launch_attributes_oracle.txt");
  std::vector<OracleRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    int title = 0;
    char generator = 0;
    std::uint64_t seed = 0;
    double slot = 0.0;
    std::string path;
    fields >> title >> generator >> seed >> slot >> path;
    ml::FeatureRow row;
    std::string hex;
    while (fields >> hex) row.push_back(std::strtod(hex.c_str(), nullptr));
    if (path == "engine") {
      records.back().engine = std::move(row);
      continue;
    }
    OracleRecord record;
    record.title = static_cast<sim::GameTitle>(title);
    record.slots_only = generator == 's';
    record.seed = seed;
    record.slot_seconds = slot;
    record.span = std::move(row);
    records.push_back(std::move(record));
  }
  return records;
}

void expect_bit_identical(const ml::FeatureRow& actual,
                          const ml::FeatureRow& expected) {
  ASSERT_EQ(actual.size(), kNumLaunchAttributes);
  ASSERT_EQ(expected.size(), kNumLaunchAttributes);
  const auto names = launch_attribute_names();
  for (std::size_t i = 0; i < kNumLaunchAttributes; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << names[i] << ": " << actual[i] << " vs " << expected[i];
}

LaunchAttributeParams slot_params(double slot_seconds) {
  LaunchAttributeParams params;
  params.slot_seconds = slot_seconds;
  return params;
}

net::PacketRecord down(double t_seconds, std::uint32_t payload) {
  net::PacketRecord pkt;
  pkt.timestamp = net::duration_from_seconds(t_seconds);
  pkt.direction = net::Direction::kDownstream;
  pkt.payload_size = payload;
  return pkt;
}

std::size_t attribute(const std::string& name) {
  const auto names = launch_attribute_names();
  return static_cast<std::size_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
}

TEST(LaunchAttributeOracle, FixtureCoversEveryPopularTitleGeneratorAndSlot) {
  const auto records = load_oracle();
  ASSERT_GE(records.size(), 39u);
  std::set<sim::GameTitle> titles;
  std::set<bool> generators;
  std::set<double> slots;
  for (const OracleRecord& r : records) {
    titles.insert(r.title);
    generators.insert(r.slots_only);
    slots.insert(r.slot_seconds);
  }
  EXPECT_EQ(titles.size(), sim::popular_titles().size());
  EXPECT_EQ(generators.size(), 2u);
  EXPECT_EQ(slots, (std::set<double>{0.5, 0.7, 1.0}));
}

// The window ends at N for training and engine alike, so the span path
// reproduces the engine rows (the span rows are what a window running
// to the end of its last slot, 5.6 s for T = 0.7 s, extracted).
TEST(LaunchAttributeOracle, SpanExtractionIsBitIdentical) {
  for (const OracleRecord& record : load_oracle()) {
    SCOPED_TRACE(record.name());
    const sim::LabeledSession session = record.session();
    expect_bit_identical(
        launch_attributes(session.packets, session.launch_begin,
                          slot_params(record.slot_seconds)),
        record.engine_row());
  }
}

/// A small title forest over the oracle rows with slot T; only its
/// window matters to the engine tests.
TitleClassifier oracle_title_classifier(
    const std::vector<OracleRecord>& records, double slot) {
  const auto popular = sim::popular_titles();
  std::vector<std::string> class_names;
  for (const sim::GameInfo& game : popular) class_names.emplace_back(game.name);
  const auto label_of = [&](sim::GameTitle t) {
    return static_cast<ml::Label>(
        std::find_if(popular.begin(), popular.end(),
                     [t](const sim::GameInfo& g) { return g.title == t; }) -
        popular.begin());
  };
  TitleClassifierParams title_params;
  title_params.attributes = slot_params(slot);
  title_params.forest.n_trees = 2;
  title_params.forest.max_depth = 3;
  ml::Dataset data(launch_attribute_names(), class_names);
  for (const OracleRecord& r : records)
    if (r.slot_seconds == slot) data.add(r.span, label_of(r.title));
  TitleClassifier title(title_params);
  title.train(data);
  return title;
}

TEST(LaunchAttributeOracle, EngineFedPacketByPacketIsBitIdentical) {
  const auto records = load_oracle();
  const ModelSuite& suite = probe_test_suite();
  const PipelineParams params = default_pipeline_params();

  for (const double slot : {1.0, 0.5, 0.7}) {
    const TitleClassifier title = oracle_title_classifier(records, slot);
    PipelineModels models = suite.models();
    models.title = &title;

    // One pooled engine across sessions: reset() must leave no residue.
    SessionEngine engine(models, &params);
    const SessionObserver observer;
    for (const OracleRecord& record : records) {
      if (record.slot_seconds != slot) continue;
      SCOPED_TRACE(record.name());
      const sim::LabeledSession session = record.session();
      engine.reset();
      engine.start(session.launch_begin);
      for (const net::PacketRecord& pkt : session.packets) {
        engine.on_packet(pkt, observer);
        if (engine.title_classified()) break;
      }
      if (!engine.title_classified()) (void)engine.finish(observer);
      expect_bit_identical(engine.title_attributes(), record.engine_row());
    }
  }
}

// Training features, and so the trained models, stay what they were only
// because a time-sorted session never takes the late-packet path.
TEST(LaunchWindow, SimSessionPacketsAreTimeSorted) {
  const sim::SessionGenerator gen;
  for (const sim::GameInfo& game : sim::catalog()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sim::SessionSpec spec;
      spec.title = game.title;
      spec.gameplay_seconds = 3.0;
      spec.seed = seed;
      for (const bool slots_only : {false, true}) {
        SCOPED_TRACE(std::string(game.name) + (slots_only ? " slots" : ""));
        const sim::LabeledSession session =
            slots_only ? gen.generate_slots_only(spec) : gen.generate(spec);
        ASSERT_FALSE(session.packets.empty());
        EXPECT_TRUE(std::is_sorted(
            session.packets.begin(), session.packets.end(),
            [](const net::PacketRecord& a, const net::PacketRecord& b) {
              return a.timestamp < b.timestamp;
            }));
      }
    }
  }
}

// A packet whose slot already closed is folded into the open slot: it is
// counted there, and its inter-arrival time runs from the group's
// previous packet in arrival order (here negative).
TEST(LaunchWindow, LatePacketFoldsIntoTheOpenSlot) {
  const std::vector<net::PacketRecord> packets = {
      down(0.1, 1432), down(2.5, 1432), down(0.4, 1432)};
  LaunchWindow window;
  window.start(0);
  for (const net::PacketRecord& pkt : packets) window.add(pkt);
  const ml::FeatureRow& row = window.finish();
  EXPECT_DOUBLE_EQ(row[attribute("full_ct_sum")], 3.0);
  EXPECT_DOUBLE_EQ(row[attribute("full_ct_max")], 2.0);  // slot 2: 2.5 + 0.4
  EXPECT_NEAR(row[attribute("full_iat_max")], 2400.0, 1e-6);
  EXPECT_NEAR(row[attribute("full_iat_min")], -2100.0, 1e-6);
  // The span path is the same accumulator.
  expect_bit_identical(launch_attributes(packets, 0), row);
}

TEST(LaunchWindow, PacketPastTheLastSlotDoesNotEndTheWindow) {
  const std::vector<net::PacketRecord> packets = {
      down(0.5, 1432), down(7.0, 1432), down(1.5, 1432)};
  const ml::FeatureRow row = launch_attributes(packets, 0);
  EXPECT_DOUBLE_EQ(row[attribute("full_ct_sum")], 2.0);
  EXPECT_NEAR(row[attribute("full_iat_mean")], 1000.0, 1e-6);
}

// With T = 0.7 s the last slot, [4.9, 5.6) s, is cut short at N = 5 s:
// a packet at 5.3 s counts on neither the span path nor in an engine,
// where it closes the window.
TEST(LaunchWindow, WindowEndsAtNWhenTheSlotDoesNotDivideIt) {
  const std::vector<net::PacketRecord> packets = {
      down(0.5, 1432), down(4.95, 1432), down(5.3, 1432)};
  const ml::FeatureRow span = launch_attributes(packets, 0, slot_params(0.7));
  EXPECT_DOUBLE_EQ(span[attribute("full_ct_sum")], 2.0);
  LaunchWindow window(slot_params(0.7));
  window.start(0);
  EXPECT_TRUE(window.before_end(net::duration_from_seconds(4.95)));
  EXPECT_FALSE(window.before_end(net::duration_from_seconds(5.0)));
  EXPECT_FALSE(window.before_end(net::duration_from_seconds(5.3)));

  const TitleClassifier title = oracle_title_classifier(load_oracle(), 0.7);
  PipelineModels models = probe_test_suite().models();
  models.title = &title;
  const PipelineParams params = default_pipeline_params();
  SessionEngine engine(models, &params);
  const SessionObserver observer;
  engine.start(0);
  for (const net::PacketRecord& pkt : packets) {
    EXPECT_FALSE(engine.title_classified());
    engine.on_packet(pkt, observer);
  }
  ASSERT_TRUE(engine.title_classified());
  expect_bit_identical(engine.title_attributes(), span);
}

TEST(LaunchWindow, IgnoresUpstreamAndPacketsBeforeTheFlow) {
  net::PacketRecord up = down(1.2, 1432);
  up.direction = net::Direction::kUpstream;
  const std::vector<net::PacketRecord> packets = {
      down(0.5, 1432), up, down(1.5, 1432)};
  const ml::FeatureRow row =
      launch_attributes(packets, net::duration_from_seconds(1.0));
  EXPECT_DOUBLE_EQ(row[attribute("full_ct_sum")], 1.0);
}

// --- validate(): one test per bound --------------------------------------

/// The message every entry point reports for `params` (all must agree).
std::string rejection(const LaunchAttributeParams& params) {
  const std::string message = rejection_message([&] { validate(params); });
  EXPECT_EQ(rejection_message([&] { LaunchWindow window(params); }), message);
  EXPECT_EQ(rejection_message([&] { (void)launch_attributes({}, 0, params); }),
            message);
  EXPECT_EQ(rejection_message([&] {
              TitleClassifierParams title;
              title.attributes = params;
              TitleClassifier classifier(title);
            }),
            message);
  return message;
}

LaunchAttributeParams window_of(double window_seconds, double slot_seconds) {
  LaunchAttributeParams params;
  params.window_seconds = window_seconds;
  params.slot_seconds = slot_seconds;
  return params;
}

TEST(LaunchAttributeParamsValidation, AcceptsThePaperWindowAndFractionalSlots) {
  EXPECT_EQ(rejection(LaunchAttributeParams{}), "");
  EXPECT_EQ(rejection(window_of(5.0, 0.7)), "");
  EXPECT_EQ(rejection(window_of(3600.0, 1.0)), "");
  EXPECT_EQ(rejection(window_of(1.0, 1e-3)), "");
}

TEST(LaunchAttributeParamsValidation, RejectsNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const LaunchAttributeParams& params :
       {window_of(nan, 1.0), window_of(5.0, nan), window_of(inf, 1.0),
        window_of(inf, inf)}) {
    EXPECT_NE(rejection(params).find("not finite"), std::string::npos);
  }
  LaunchAttributeParams v = window_of(5.0, 1.0);
  v.group_params.v_fraction = nan;
  EXPECT_NE(rejection(v).find("not finite"), std::string::npos);
}

TEST(LaunchAttributeParamsValidation, RejectsASlotUnderOneMillisecond) {
  // 1e-10 s rounds to a 0 ns slot, which would divide by zero.
  for (const double slot : {1e-10, 9e-4, 0.0, -1.0})
    EXPECT_NE(rejection(window_of(5.0, slot)).find("under 1 ms"),
              std::string::npos)
        << slot;
}

TEST(LaunchAttributeParamsValidation, RejectsASlotLongerThanTheWindow) {
  EXPECT_NE(rejection(window_of(1.0, 2.0)).find("exceeds window_seconds"),
            std::string::npos);
}

TEST(LaunchAttributeParamsValidation, RejectsAWindowOverAnHour) {
  // 1e10 s would overflow the nanosecond Duration.
  for (const double seconds : {3600.5, 1e10})
    EXPECT_NE(rejection(window_of(seconds, seconds)).find("exceeds an hour"),
              std::string::npos)
        << seconds;
}

TEST(LaunchAttributeParamsValidation, RejectsMoreThan3600Slots) {
  EXPECT_NE(rejection(window_of(4.0, 1e-3)).find("more than 3600 slots"),
            std::string::npos);
}

}  // namespace
}  // namespace cgctx::core
