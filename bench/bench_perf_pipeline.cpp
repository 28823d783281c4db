// Performance microbenchmarks (google-benchmark): the per-packet and
// per-slot costs that determine whether the method runs in real time at
// an operator vantage point — flow-table accounting, RTP parsing, packet
// group labeling, launch-attribute extraction, model inference, the
// end-to-end per-session pipeline, and the SessionEngine and
// MultiSessionProbe steady-state hot paths (which must not touch the
// heap — asserted, not just reported: the binary exits non-zero if a
// steady-state bench allocates).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/bench_support.hpp"
#include "core/multi_session_probe.hpp"
#include "core/pipeline_metrics.hpp"
#include "core/session_engine.hpp"
#include "core/training.hpp"
#include "net/flow_table.hpp"
#include "net/framing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fleet.hpp"
#include "sim/session.hpp"

// --- Heap allocation counter -------------------------------------------
// Every global new is routed through malloc with a counter bump so the
// steady-state benches can report (and assert) exact allocations per
// operation. GCC flags free() inside a replaced operator delete as a
// mismatched pair; the pairing is consistent (new -> malloc, delete ->
// free), so the diagnostic is suppressed for this block.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

using namespace cgctx;

namespace {

/// Set when a zero-allocation bench observed a heap allocation; main()
/// turns it into a non-zero exit so CI fails on a hot-path regression.
bool g_zero_alloc_violation = false;

/// Runs `fn` under the benchmark loop and reports allocations per op.
template <typename Fn>
void run_counted(benchmark::State& state, Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) fn();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs/op"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(after - before) /
                static_cast<double>(state.iterations());
}

/// run_counted plus the steady-state contract: any allocation fails the
/// bench (and, via g_zero_alloc_violation, the whole binary).
template <typename Fn>
void run_zero_alloc(benchmark::State& state, Fn&& fn) {
  run_counted(state, std::forward<Fn>(fn));
  if (state.counters["allocs/op"] != 0.0) {
    g_zero_alloc_violation = true;
    state.SkipWithError("steady-state hot path allocated");
  }
}

const sim::LabeledSession& sample_session() {
  static const sim::LabeledSession session = [] {
    sim::SessionGenerator generator;
    sim::SessionSpec spec;
    spec.title = sim::GameTitle::kFortnite;
    spec.gameplay_seconds = 60.0;
    spec.seed = 9;
    return generator.generate(spec);
  }();
  return session;
}

void BM_FlowTableIngest(benchmark::State& state) {
  const auto& packets = sample_session().packets;
  for (auto _ : state) {
    net::FlowTable table;
    for (const auto& pkt : packets) benchmark::DoNotOptimize(&table.add(pkt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_FlowTableIngest);

void BM_RtpParse(benchmark::State& state) {
  net::RtpHeader header;
  header.payload_type = 98;
  header.sequence = 1234;
  header.ssrc = 0xabcd;
  const auto bytes = header.serialize();
  for (auto _ : state) benchmark::DoNotOptimize(net::parse_rtp(bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RtpParse);

void BM_FrameDecode(benchmark::State& state) {
  // Decode + record rebuild views the frame: no allocation per frame.
  const auto& pkt = sample_session().packets.front();
  const auto frame = net::encode_udp_frame(pkt.tuple, net::build_payload(pkt));
  run_zero_alloc(state, [&] {
    if (const auto decoded = net::decode_udp_frame(frame)) {
      auto record = net::record_from_frame(*decoded, pkt.timestamp,
                                           pkt.tuple.src_ip);
      benchmark::DoNotOptimize(record);
    }
  });
}
BENCHMARK(BM_FrameDecode);

void BM_PacketGroupLabeling(benchmark::State& state) {
  // A realistic launch slot: ~300 packets mixing all three groups.
  ml::Rng rng(3);
  std::vector<std::uint32_t> sizes;
  for (int i = 0; i < 300; ++i) {
    const double u = rng.next_double();
    sizes.push_back(u < 0.4    ? 1432u
                    : u < 0.75 ? static_cast<std::uint32_t>(
                                     rng.uniform(780.0, 820.0))
                               : static_cast<std::uint32_t>(
                                     rng.uniform(80.0, 1400.0)));
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(core::label_packet_groups(sizes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 300);
}
BENCHMARK(BM_PacketGroupLabeling);

void BM_LaunchAttributeExtraction(benchmark::State& state) {
  const auto& session = sample_session();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::launch_attributes(session.packets, session.launch_begin));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LaunchAttributeExtraction);

void BM_TitleForestInference(benchmark::State& state) {
  const auto& suite = bench::bench_models();
  const auto row = core::launch_attributes(sample_session().packets,
                                           sample_session().launch_begin);
  for (auto _ : state)
    benchmark::DoNotOptimize(suite.title.classify_features(row));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TitleForestInference);

void BM_StageSlotClassification(benchmark::State& state) {
  const auto& suite = bench::bench_models();
  core::VolumetricTracker tracker;
  const core::RawSlotVolumetrics slot{2'500'000, 1900, 9'000, 95};
  for (auto _ : state) {
    const ml::FeatureRow attrs = tracker.push(slot);
    benchmark::DoNotOptimize(suite.stage.classify(attrs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StageSlotClassification);

void BM_EndToEndSession(benchmark::State& state) {
  const auto& suite = bench::bench_models();
  const core::RealtimePipeline pipeline(suite.models(),
                                        core::default_pipeline_params());
  sim::SessionGenerator generator;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kCsgo;
  spec.gameplay_seconds = 600.0;
  spec.seed = 10;
  const sim::LabeledSession session = generator.generate_slots_only(spec);
  for (auto _ : state)
    benchmark::DoNotOptimize(pipeline.process_session(session));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(session.slots.size()));
}
BENCHMARK(BM_EndToEndSession);

// --- SessionEngine steady-state hot path -------------------------------

/// Rotating pool of distinct packets so the branch predictor cannot
/// memorize one packet's path. A power of two: the cursor wraps with a
/// mask, not a divide.
constexpr std::size_t kPacketPool = 256;
static_assert((kPacketPool & (kPacketPool - 1)) == 0);

void BM_EnginePacketSteadyState(benchmark::State& state) {
  // Drive an engine through a full session so the title verdict is in
  // and every buffer is at capacity, then measure re-delivering
  // mid-session packets. Their timestamps precede the current slot
  // boundary, so each call exercises exactly the steady-state per-packet
  // work: direction tally plus QoE accumulation, zero heap traffic.
  const auto& suite = bench::bench_models();
  static const core::PipelineParams params = core::default_pipeline_params();
  const auto& packets = sample_session().packets;
  core::SessionEngine engine(suite.models(), &params);
  const core::SessionObserver observer;
  engine.start(packets.front().timestamp);
  for (const auto& pkt : packets) engine.on_packet(pkt, observer);

  const std::size_t mid = packets.size() / 2;
  std::size_t next = 0;
  run_zero_alloc(state, [&] {
    engine.on_packet(packets[mid + next], observer);
    next = (next + 1) & (kPacketPool - 1);
  });
}
BENCHMARK(BM_EnginePacketSteadyState);

void BM_EngineTelemetrySessionSteadyState(benchmark::State& state) {
  // Whole telemetry-mode sessions through one pooled engine:
  // reset -> start -> set_title -> push_slot xN -> finish. After the
  // first session installs buffer capacities, subsequent sessions must
  // not allocate — this is the MultiSessionProbe reuse contract.
  const auto& suite = bench::bench_models();
  static const core::PipelineParams params = core::default_pipeline_params();
  sim::SessionGenerator generator;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kCsgo;
  spec.gameplay_seconds = 600.0;
  spec.seed = 10;
  const sim::LabeledSession session = generator.generate_slots_only(spec);
  const core::TitleResult title =
      suite.models().title->classify(session.packets, session.launch_begin);

  core::SessionEngine engine(suite.models(), &params);
  const core::SessionObserver observer;
  const auto run_session = [&] {
    engine.reset();
    engine.start(session.launch_begin);
    engine.set_title(title);
    for (const sim::SlotSample& sample : session.slots) {
      core::SlotTelemetry slot;
      slot.volumetrics =
          core::RawSlotVolumetrics{sample.down_bytes, sample.down_packets,
                                   sample.up_bytes, sample.up_packets};
      slot.frames = sample.frames;
      slot.rtt_ms = sample.rtt_ms;
      slot.loss_rate = sample.loss_rate;
      engine.push_slot(slot, observer);
    }
    benchmark::DoNotOptimize(&engine.finish(observer));
  };
  run_session();  // warm-up: install buffer capacities
  run_zero_alloc(state, run_session);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(session.slots.size()));
}
BENCHMARK(BM_EngineTelemetrySessionSteadyState);

void BM_ProbeCrossTrafficSteadyState(benchmark::State& state) {
  // Undetected cross traffic through a probe whose flow table already
  // holds every flow: each op is one VoIP/web/video packet stamped 1 ms
  // after the last, so the probe demuxes, accounts, rejects and ages its
  // lookback as at a vantage point. None of it may touch the heap.
  const auto& suite = bench::bench_models();
  sim::FleetReplayOptions options;
  options.sessions = 0;
  options.cross_traffic_flows = 12;
  options.start_spread_s = 0.0;
  options.cross_traffic_duration_s = 2.0;
  std::vector<net::PacketRecord> packets = sim::build_fleet_replay(options).wire;
  packets.resize(kPacketPool);

  core::MultiSessionProbe probe(
      suite.models(),
      core::MultiSessionProbeParams{core::default_pipeline_params()}, {});
  net::Timestamp now = packets.front().timestamp;
  std::size_t next = 0;
  const auto push_next = [&] {
    net::PacketRecord pkt = packets[next];
    pkt.timestamp = now;
    now += net::kNanosPerSecond / 1000;
    probe.push(pkt);
    next = (next + 1) & (kPacketPool - 1);
  };
  for (std::size_t i = 0; i < kPacketPool; ++i) push_next();  // warm-up
  run_zero_alloc(state, push_next);
  benchmark::DoNotOptimize(probe.flow_table_size());
}
BENCHMARK(BM_ProbeCrossTrafficSteadyState);

// --- Instrumented steady state -----------------------------------------
// Same hot paths with the full telemetry plane enabled: a registry-bound
// PipelineMetrics and a traced SessionObserver. The 0-allocs/op contract
// must hold with observability ON — that is the deployment configuration.

void BM_EnginePacketSteadyStateInstrumented(benchmark::State& state) {
  const auto& suite = bench::bench_models();
  static const core::PipelineParams params = core::default_pipeline_params();
  const auto& packets = sample_session().packets;

  obs::MetricsRegistry registry;
  const core::PipelineMetrics metrics = core::PipelineMetrics::create(registry);
  obs::DecisionTraceRing ring(1024);
  const core::SessionObserver observer{nullptr, &ring, 1};

  core::SessionEngine engine(suite.models(), &params);
  engine.set_metrics(&metrics);
  engine.start(packets.front().timestamp);
  for (const auto& pkt : packets) engine.on_packet(pkt, observer);

  const std::size_t mid = packets.size() / 2;
  std::size_t next = 0;
  run_zero_alloc(state, [&] {
    engine.on_packet(packets[mid + next], observer);
    next = (next + 1) & (kPacketPool - 1);
  });
}
BENCHMARK(BM_EnginePacketSteadyStateInstrumented);

void BM_EngineTelemetrySessionSteadyStateInstrumented(
    benchmark::State& state) {
  const auto& suite = bench::bench_models();
  static const core::PipelineParams params = core::default_pipeline_params();
  sim::SessionGenerator generator;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kCsgo;
  spec.gameplay_seconds = 600.0;
  spec.seed = 10;
  const sim::LabeledSession session = generator.generate_slots_only(spec);
  const core::TitleResult title =
      suite.models().title->classify(session.packets, session.launch_begin);

  obs::MetricsRegistry registry;
  const core::PipelineMetrics metrics = core::PipelineMetrics::create(registry);
  obs::DecisionTraceRing ring(1024);
  const core::SessionObserver observer{nullptr, &ring, 1};

  core::SessionEngine engine(suite.models(), &params);
  engine.set_metrics(&metrics);
  const auto run_session = [&] {
    engine.reset();
    engine.start(session.launch_begin);
    engine.set_title(title);
    for (const sim::SlotSample& sample : session.slots) {
      core::SlotTelemetry slot;
      slot.volumetrics =
          core::RawSlotVolumetrics{sample.down_bytes, sample.down_packets,
                                   sample.up_bytes, sample.up_packets};
      slot.frames = sample.frames;
      slot.rtt_ms = sample.rtt_ms;
      slot.loss_rate = sample.loss_rate;
      engine.push_slot(slot, observer);
    }
    benchmark::DoNotOptimize(&engine.finish(observer));
  };
  run_session();  // warm-up: install buffer capacities
  run_zero_alloc(state, run_session);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(session.slots.size()));
}
BENCHMARK(BM_EngineTelemetrySessionSteadyStateInstrumented);

// --- Instrumented-overhead gate ----------------------------------------
// CI mode (--instrumented-gate): measures the telemetry-mode session
// throughput with the telemetry plane off vs fully on (metrics +
// tracing) and fails if instrumentation costs more than 10% throughput
// or allocates on the steady-state path. Best-of-N minimum times resist
// scheduler noise on shared CI runners.

int run_instrumented_gate() {
  constexpr int kReps = 7;
  constexpr int kSessionsPerRep = 10;
  constexpr double kMaxRegression = 0.10;

  const auto& suite = bench::bench_models();
  static const core::PipelineParams params = core::default_pipeline_params();
  sim::SessionGenerator generator;
  sim::SessionSpec spec;
  spec.title = sim::GameTitle::kCsgo;
  spec.gameplay_seconds = 600.0;
  spec.seed = 10;
  const sim::LabeledSession session = generator.generate_slots_only(spec);
  const core::TitleResult title =
      suite.models().title->classify(session.packets, session.launch_begin);

  obs::MetricsRegistry registry;
  const core::PipelineMetrics metrics = core::PipelineMetrics::create(registry);
  obs::DecisionTraceRing ring(1024);
  const core::SessionObserver traced{nullptr, &ring, 1};
  const core::SessionObserver untraced;

  core::SessionEngine plain(suite.models(), &params);
  core::SessionEngine instrumented(suite.models(), &params);
  instrumented.set_metrics(&metrics);

  const auto run_session = [&](core::SessionEngine& engine,
                               const core::SessionObserver& observer) {
    engine.reset();
    engine.start(session.launch_begin);
    engine.set_title(title);
    for (const sim::SlotSample& sample : session.slots) {
      core::SlotTelemetry slot;
      slot.volumetrics =
          core::RawSlotVolumetrics{sample.down_bytes, sample.down_packets,
                                   sample.up_bytes, sample.up_packets};
      slot.frames = sample.frames;
      slot.rtt_ms = sample.rtt_ms;
      slot.loss_rate = sample.loss_rate;
      engine.push_slot(slot, observer);
    }
    benchmark::DoNotOptimize(&engine.finish(observer));
  };

  // Warm-up: install buffer capacities in both engines.
  run_session(plain, untraced);
  run_session(instrumented, traced);

  using Clock = std::chrono::steady_clock;
  double plain_min_s = 1e300;
  double instr_min_s = 1e300;
  std::uint64_t instr_allocs = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto begin = Clock::now();
    for (int i = 0; i < kSessionsPerRep; ++i) run_session(plain, untraced);
    const double plain_s =
        std::chrono::duration<double>(Clock::now() - begin).count();
    if (plain_s < plain_min_s) plain_min_s = plain_s;

    const std::uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    begin = Clock::now();
    for (int i = 0; i < kSessionsPerRep; ++i)
      run_session(instrumented, traced);
    const double instr_s =
        std::chrono::duration<double>(Clock::now() - begin).count();
    if (instr_s < instr_min_s) instr_min_s = instr_s;
    instr_allocs +=
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
  }

  const double regression = instr_min_s / plain_min_s - 1.0;
  const double slots =
      static_cast<double>(session.slots.size()) * kSessionsPerRep;
  std::printf(
      "instrumented-gate: plain %.1f slots/ms, instrumented %.1f slots/ms "
      "(overhead %+.1f%%), instrumented allocs %llu\n",
      slots / (plain_min_s * 1e3), slots / (instr_min_s * 1e3),
      100.0 * regression,
      static_cast<unsigned long long>(instr_allocs));

  bool failed = false;
  if (instr_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: instrumented steady state performed %llu heap "
                 "allocations (contract: 0)\n",
                 static_cast<unsigned long long>(instr_allocs));
    failed = true;
  }
  if (regression > kMaxRegression) {
    std::fprintf(stderr,
                 "FAIL: telemetry plane costs %.1f%% throughput "
                 "(budget: %.0f%%)\n",
                 100.0 * regression, 100.0 * kMaxRegression);
    failed = true;
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --instrumented-gate before benchmark::Initialize (it rejects
  // unknown flags).
  bool gate = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--instrumented-gate") == 0)
      gate = true;
    else
      argv[out++] = argv[i];
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  int rc = 0;
  if (gate) rc = run_instrumented_gate();
  if (g_zero_alloc_violation) {
    std::fprintf(stderr,
                 "FAIL: a steady-state hot path performed heap allocations\n");
    rc = 1;
  }
  return rc;
}
