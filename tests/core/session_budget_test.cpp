// Per-session memory budget: a live session's state must not grow with
// its length once the title verdict is in.
//
// This binary replaces the global operator new/delete with a counting
// pair (allocations, heap bytes in use by malloc_usable_size, and
// allocations of one watched size), so the tests can read what a stretch
// of a session allocated. An engine
// runs 10 800 telemetry slots (3 h) and a MultiSessionProbe session runs
// an hour of packets; past the verdict neither may allocate, and both
// hold the same heap at 1 min as at the end.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <vector>

#include "core/model_suite.hpp"
#include "core/multi_session_probe.hpp"
#include "core/pipeline.hpp"
#include "core/session_engine.hpp"
#include "core/streaming_analyzer.hpp"
#include "core/title_classifier.hpp"
#include "net/framing.hpp"
#include "net/pcap.hpp"
#include "net/pcapng.hpp"
#include "obs/trace.hpp"
#include "probe_test_models.hpp"
#include "sim/session.hpp"

namespace {

std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_heap_bytes{0};
/// Allocations of exactly g_watched_size bytes.
std::atomic<std::size_t> g_watched_size{0};
std::atomic<std::int64_t> g_watched{0};

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == g_watched_size.load(std::memory_order_relaxed))
    g_watched.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_heap_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace cgctx::core {
namespace {

/// Allocations and heap bytes in use at one point of a run.
struct Heap {
  std::int64_t allocs = g_allocs.load(std::memory_order_relaxed);
  std::int64_t bytes = g_heap_bytes.load(std::memory_order_relaxed);
};

const ModelSuite& suite() { return probe_test_suite(); }

/// A 10-minute slot-fidelity session's telemetry, replayed in a loop for
/// longer sessions.
const std::vector<SlotTelemetry>& telemetry_loop() {
  static const std::vector<SlotTelemetry> slots = [] {
    sim::SessionSpec spec;
    spec.title = sim::GameTitle::kCsgo;
    spec.gameplay_seconds = 600.0;
    spec.seed = 5;
    const sim::LabeledSession session =
        sim::SessionGenerator().generate_slots_only(spec);
    std::vector<SlotTelemetry> out;
    for (const sim::SlotSample& sample : session.slots) {
      SlotTelemetry& slot = out.emplace_back();
      slot.volumetrics =
          RawSlotVolumetrics{sample.down_bytes, sample.down_packets,
                             sample.up_bytes, sample.up_packets};
      slot.frames = sample.frames;
      slot.rtt_ms = sample.rtt_ms;
      slot.loss_rate = sample.loss_rate;
    }
    return out;
  }();
  return slots;
}

/// What `slots` telemetry slots pushed one at a time (a live feed) cost
/// past the verdict and the first slot: [allocations, heap byte growth].
std::pair<std::int64_t, std::int64_t> engine_growth(std::size_t slots) {
  static const PipelineParams params = default_pipeline_params();
  const std::vector<SlotTelemetry>& loop = telemetry_loop();
  const SessionObserver observer;
  SessionEngine engine(suite().models(), &params);
  engine.start(0);
  TitleResult title;
  title.label = 0;
  title.class_name = "title";
  title.confidence = 0.9;
  engine.set_title(title);
  engine.push_slot(loop[0], observer);  // sizes the one-slot batch buffers
  const Heap before;
  for (std::size_t s = 1; s < slots; ++s)
    engine.push_slot(loop[s % loop.size()], observer);
  const Heap after;
  EXPECT_EQ(engine.slots_closed(), slots);
  EXPECT_EQ(engine.finish(observer).duration_s, static_cast<double>(slots));
  return {after.allocs - before.allocs, after.bytes - before.bytes};
}

TEST(SessionBudget, EngineHeapIsFlatPastTheVerdictForThreeHours) {
  const auto minute = engine_growth(60);
  const auto three_hours = engine_growth(10'800);
  EXPECT_EQ(minute.first, 0);
  EXPECT_EQ(minute.second, 0);
  EXPECT_EQ(three_hours.first, 0);
  EXPECT_EQ(three_hours.second, 0);
}

TEST(SessionBudget, ProbeSessionHeapIsFlatPastTheVerdictForAnHour) {
  // One 60 s session's packets, replayed lap after lap on one flow with
  // the timestamps shifted on (a 20 ms gap between laps, well inside the
  // idle timeout): one live session for over an hour.
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kFortnite;
  spec.gameplay_seconds = 60.0;
  spec.seed = 7;
  const sim::LabeledSession lap = sim::SessionGenerator().generate(spec);
  const net::Timestamp lap_span = lap.packets.back().timestamp -
                                  lap.packets.front().timestamp +
                                  net::kNanosPerSecond / 50;
  const std::size_t laps = static_cast<std::size_t>(
      3600 * net::kNanosPerSecond / lap_span + 2);

  std::size_t reports = 0;
  double duration_s = 0.0;
  MultiSessionProbe probe(
      suite().models(), MultiSessionProbeParams{default_pipeline_params()},
      [&](const SessionReport& r) {
        ++reports;
        duration_s = r.duration_s;
      });
  Heap at_one_minute;
  for (std::size_t l = 0; l < laps; ++l) {
    for (net::PacketRecord pkt : lap.packets) {
      pkt.timestamp += static_cast<net::Timestamp>(l) * lap_span;
      probe.push(pkt);
    }
    if (l == 0) {
      // A minute in: promoted, past the verdict, window back in the pool.
      ASSERT_EQ(probe.live_sessions(), 1u);
      ASSERT_EQ(probe.title_windows_on_loan(), 0u);
      ASSERT_EQ(probe.title_windows_pooled(), 1u);
      at_one_minute = Heap{};
    }
  }
  const Heap at_the_end;
  EXPECT_EQ(probe.live_sessions(), 1u);
  EXPECT_EQ(at_the_end.allocs - at_one_minute.allocs, 0);
  EXPECT_EQ(at_the_end.bytes - at_one_minute.bytes, 0);
  probe.flush();
  ASSERT_EQ(reports, 1u);
  EXPECT_GE(duration_s, 3600.0);
}

// A telemetry-mode session gets its title verdict from set_title and
// never feeds a title window, so process_session must not build one.
// Windows are counted as allocations of sizeof(LaunchWindow); the same
// session's packets through process_packets show that the count sees the
// one window a packet-mode session takes.
TEST(SessionBudget, ProcessSessionAllocatesNoTitleWindow) {
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kFortnite;
  spec.gameplay_seconds = 20.0;
  spec.seed = 11;
  const sim::LabeledSession session = sim::SessionGenerator().generate(spec);
  const RealtimePipeline pipeline(suite().models(), default_pipeline_params());
  const auto windows_built = [](const auto& run) {
    g_watched_size.store(sizeof(LaunchWindow), std::memory_order_relaxed);
    const std::int64_t before = g_watched.load(std::memory_order_relaxed);
    run();
    const std::int64_t after = g_watched.load(std::memory_order_relaxed);
    g_watched_size.store(0, std::memory_order_relaxed);
    return after - before;
  };
  EXPECT_EQ(windows_built([&] {
              EXPECT_TRUE(pipeline.process_packets(session.packets));
            }),
            1);
  EXPECT_EQ(windows_built([&] { (void)pipeline.process_session(session); }),
            0);
}

// Tracing a session must cost it no allocation: trace events are POD, so
// a title name longer than libstdc++'s 15-char inline string ("Honkai:
// Star Rail", 17) must reach the ring without a heap copy. One analyzer
// per run, warmed by one session; then the same session with and
// without a decision trace.
TEST(SessionBudget, TracedSessionAllocatesAsMuchAsAnUntracedOne) {
  const auto generate = [](sim::GameTitle title) {
    sim::SessionSpec spec;
    spec.title = title;
    spec.gameplay_seconds = 20.0;
    spec.seed = 3;
    return sim::SessionGenerator().generate(spec);
  };
  const sim::LabeledSession warm = generate(sim::GameTitle::kFortnite);
  const sim::LabeledSession session =
      generate(sim::GameTitle::kHonkaiStarRail);
  const auto session_allocs = [&](obs::DecisionTraceRing* ring) {
    StreamingAnalyzer analyzer(suite().models(), default_pipeline_params(),
                               {});
    analyzer.set_trace(ring);
    for (const net::PacketRecord& pkt : warm.packets) analyzer.push(pkt);
    (void)analyzer.finish();
    const Heap before;
    for (const net::PacketRecord& pkt : session.packets) analyzer.push(pkt);
    const SessionReport report = analyzer.finish();
    const Heap after;
    EXPECT_GT(report.title.class_name.size(), 15u);  // past the inline buffer
    return after.allocs - before.allocs;
  };
  obs::DecisionTraceRing ring(256);
  const std::int64_t untraced = session_allocs(nullptr);
  const std::int64_t traced = session_allocs(&ring);
  EXPECT_GT(ring.size(), 0u);
  EXPECT_EQ(traced, untraced);
}

// A probe restart loads every model before its first packet: a load must
// allocate per model, not per leaf. A 60-tree title model (thousands of
// leaves) parses straight into its compiled layout in a few dozen
// allocations.
TEST(SessionBudget, TitleModelLoadAllocatesPerModelNotPerLeaf) {
  TitleClassifierParams params;
  params.forest.n_trees = 60;
  params.forest.seed = 4;
  ml::Dataset data(launch_attribute_names(), {"a", "b", "c", "d"});
  ml::Rng rng(5);
  for (std::size_t i = 0; i < 400; ++i) {
    const auto label = static_cast<ml::Label>(i % 4);
    ml::FeatureRow row(kNumLaunchAttributes);
    for (double& v : row) v = rng.normal(0.3 * static_cast<double>(label), 1.0);
    data.add(std::move(row), label);
  }
  TitleClassifier trained(params);
  trained.train(data);
  const std::string text = trained.serialize();
  const Heap before;
  const TitleClassifier loaded = TitleClassifier::deserialize(text);
  const Heap after;
  ASSERT_EQ(loaded.compiled().tree_count(), 60u);
  EXPECT_GT(loaded.compiled().node_count(), 60u * 20);
  EXPECT_EQ(loaded.serialize(), text);
  std::printf("title model load: %lld allocations, %zu nodes\n",
              static_cast<long long>(after.allocs - before.allocs),
              loaded.compiled().node_count());
  EXPECT_LE(after.allocs - before.allocs, 64);
}

// The figures DESIGN.md's per-session budget quotes, printed and checked
// for order of magnitude: the engine's own size, its heap with a full
// title window lent to it, and its heap once the window has gone back.
TEST(SessionBudget, PooledEngineGivesItsWindowBackAtTheVerdict) {
  static const PipelineParams params = default_pipeline_params();
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kFortnite;
  spec.gameplay_seconds = 10.0;
  spec.seed = 9;
  const sim::LabeledSession session = sim::SessionGenerator().generate(spec);
  const net::Timestamp begin = session.packets.front().timestamp;

  const PipelineModels models = suite().models();  // trained before `empty`
  TitleWindowPool pool;
  const Heap empty;
  std::int64_t in_window = 0;
  std::int64_t past_verdict = 0;
  std::int64_t window = 0;
  {
    const SessionObserver observer;
    SessionEngine engine(models, &params);
    engine.set_title_window_pool(&pool);
    engine.start(begin);
    for (const net::PacketRecord& pkt : session.packets) {
      if (!engine.title_classified()) in_window = Heap{}.bytes - empty.bytes;
      engine.on_packet(pkt, observer);
    }
    ASSERT_TRUE(engine.title_classified());
    EXPECT_EQ(pool.on_loan(), 0u);
    ASSERT_EQ(pool.pooled(), 1u);
    const Heap with_spare;
    {
      // Take the spare window out and free it: what remains is the engine.
      const auto spare = pool.lend(suite().title.params().attributes);
      (void)spare;
    }
    past_verdict = Heap{}.bytes - empty.bytes;
    window = with_spare.bytes - Heap{}.bytes;
  }
  std::printf(
      "sizeof(SessionEngine) = %zu B; engine heap in the launch window "
      "%lld B, past the verdict %lld B; one used title window %lld B\n",
      sizeof(SessionEngine), static_cast<long long>(in_window),
      static_cast<long long>(past_verdict), static_cast<long long>(window));
  RecordProperty("sizeof_session_engine",
                 static_cast<int>(sizeof(SessionEngine)));
  RecordProperty("heap_in_window", static_cast<int>(in_window));
  RecordProperty("heap_past_verdict", static_cast<int>(past_verdict));
  EXPECT_GT(window, 0);
  EXPECT_LT(past_verdict, in_window);
  EXPECT_LT(past_verdict, window);
}

/// A downstream RTP packet with a 1 160-byte payload, the size of a
/// typical video packet in the generated captures.
net::PacketRecord video_packet() {
  net::PacketRecord pkt;
  pkt.timestamp = 1'700'000'000'123'456'789;
  pkt.tuple = net::FiveTuple{net::Ipv4Addr::from_octets(119, 81, 1, 9),
                             net::Ipv4Addr::from_octets(10, 0, 0, 5), 49004,
                             50123, 17};
  pkt.payload_size = 1160;
  pkt.rtp = net::RtpHeader{.payload_type = 98, .marker = true,
                           .sequence = 4242, .rtp_timestamp = 90'000,
                           .ssrc = 0xabcd0123};
  return pkt;
}

// Framing a record sizes each buffer once: one allocation for the UDP
// payload, one for the Ethernet frame.
TEST(SessionBudget, FramingAllocatesOneBufferEach) {
  const net::PacketRecord pkt = video_packet();
  const std::vector<std::uint8_t> payload = net::build_payload(pkt);
  const Heap before_payload;
  const std::vector<std::uint8_t> again = net::build_payload(pkt);
  const Heap after_payload;
  EXPECT_EQ(after_payload.allocs - before_payload.allocs, 1);
  EXPECT_EQ(again, payload);
  const Heap before_frame;
  const std::vector<std::uint8_t> frame =
      net::encode_udp_frame(pkt.tuple, payload);
  const Heap after_frame;
  EXPECT_EQ(after_frame.allocs - before_frame.allocs, 1);
  EXPECT_EQ(frame.size(), 14u + 20u + 8u + 1160u);
}

/// Allocations of `frames` more writes of one frame through `writer`,
/// after a first write.
template <typename Writer>
std::int64_t writer_allocations(Writer& writer, int frames) {
  net::CapturedFrame frame;
  frame.timestamp = video_packet().timestamp;
  frame.bytes = net::encode_udp_frame(video_packet().tuple,
                                      net::build_payload(video_packet()));
  writer.write(frame);
  const Heap before;
  for (int i = 0; i < frames; ++i) writer.write(frame);
  const Heap after;
  writer.close();
  return after.allocs - before.allocs;
}

// The capture writers append each record into their one buffer: no
// allocation per frame, across many buffer flushes.
TEST(SessionBudget, CaptureWritersAllocateNothingPerFrame) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::filesystem::path pcap = dir / "cgctx_budget_writer.pcap";
  const std::filesystem::path pcapng = dir / "cgctx_budget_writer.pcapng";
  {
    net::PcapWriter writer(pcap);
    EXPECT_EQ(writer_allocations(writer, 1000), 0);
  }
  {
    net::PcapngWriter writer(pcapng);
    EXPECT_EQ(writer_allocations(writer, 1000), 0);
  }
  EXPECT_EQ(net::read_pcap(pcap, net::Ipv4Addr{0}).size(), 1001u);
  EXPECT_EQ(net::read_pcapng(pcapng, net::Ipv4Addr{0}).size(), 1001u);
  std::filesystem::remove(pcap);
  std::filesystem::remove(pcapng);
}

}  // namespace
}  // namespace cgctx::core
