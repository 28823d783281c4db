// slot_fleet: the ISP slot-telemetry path (paper §5).
//
// A fixed sim::FleetSampler set (paper §5 title/device/network mix,
// duration_scale 0.35) rendered at slot fidelity and analysed closed-loop
// by RealtimePipeline::process_session, one pass over the whole fleet per
// pass. No per-packet work runs here, so slot close (stage forest,
// transitions, pattern forest, QoE) and the title forest dominate.
//
// The traced replay makes the same public calls process_session makes
// (construct, start, set_title(TitleClassifier::classify), push_slot x N,
// finish) with a timer around each; its reports must equal
// process_session's exactly.
#include <sstream>

#include "core/pipeline.hpp"
#include "layer_trace.hpp"
#include "perfbench.hpp"
#include "sim/fleet.hpp"

namespace perfbench {

namespace {

using Reports = std::vector<core::SessionReport>;

/// Fleet slots per run input, whatever the seed: sessions are drawn until
/// the total reaches this and the last one is cut short, so input size
/// (and the state it builds) does not vary with the seed.
constexpr std::size_t kFleetSlots = 140000;
constexpr double kDurationScale = 0.35;

struct SlotInputs {
  core::ModelSuite suite;
  core::PipelineParams params = core::default_pipeline_params();
  std::vector<sim::LabeledSession> sessions;
  std::size_t launch_packets = 0;
  double setup_s = 0.0;
  Reports reference;  ///< step-replay reports (untimed)
};

struct EngineLayers {
  LayerStat setup;
  LayerStat title;
  LayerStat push_slot;
  LayerStat finish;
};

std::vector<sim::LabeledSession> fleet(std::uint64_t seed) {
  sim::FleetOptions options;
  options.seed = seed;
  options.duration_scale = kDurationScale;
  sim::FleetSampler sampler(options);
  const sim::SessionGenerator generator;
  std::vector<sim::LabeledSession> sessions;
  std::size_t slots = 0;
  while (slots < kFleetSlots) {
    sim::LabeledSession session = generator.generate_slots_only(sampler.sample());
    if (slots + session.slots.size() > kFleetSlots)
      session.slots.resize(kFleetSlots - slots);
    slots += session.slots.size();
    sessions.push_back(std::move(session));
  }
  return sessions;
}

core::SlotTelemetry telemetry(const sim::SlotSample& sample) {
  core::SlotTelemetry slot;
  slot.volumetrics = core::RawSlotVolumetrics{
      sample.down_bytes, sample.down_packets, sample.up_bytes, sample.up_packets};
  slot.frames = sample.frames;
  slot.rtt_ms = sample.rtt_ms;
  slot.loss_rate = sample.loss_rate;
  return slot;
}

/// process_session's steps, one timer per step when `layers` is given.
Reports step_replay(const SlotInputs& in, EngineLayers* layers,
                    SpanLog* spans) {
  const core::PipelineModels models = in.suite.models();
  Reports reports;
  reports.reserve(in.sessions.size());
  core::NullSessionSink sink;
  for (const sim::LabeledSession& session : in.sessions) {
    const std::uint64_t s0 = now_ns();
    core::SessionEngine engine(models, &in.params);
    engine.start(session.launch_begin);
    const std::uint64_t s1 = now_ns();
    engine.set_title(models.title->classify(session.packets, session.launch_begin));
    const std::uint64_t s2 = now_ns();
    for (const sim::SlotSample& sample : session.slots) {
      const core::SlotTelemetry slot = telemetry(sample);
      if (layers == nullptr) {
        engine.push_slot(slot, sink);
        continue;
      }
      const std::uint64_t a0 = thread_allocs();
      const std::uint64_t t0 = now_ns();
      engine.push_slot(slot, sink);
      const std::uint64_t t1 = now_ns();
      layers->push_slot.record(t1 - t0);
      layers->push_slot.add_allocs(thread_allocs() - a0);
    }
    const std::uint64_t s3 = now_ns();
    reports.push_back(engine.finish(sink));
    const std::uint64_t s4 = now_ns();
    if (layers != nullptr) {
      layers->setup.record(s1 - s0);
      layers->title.record(s2 - s1);
      layers->finish.record(s4 - s3);
      spans->add("core.session", s0, s4, session.tuple.canonical());
    }
  }
  return reports;
}

struct Pass {
  double seconds = 0.0;
  double state_mib = 0.0;
  std::string failure;
};

Pass pipeline_pass(const SlotInputs& in, bool measure_state) {
  Pass pass;
  Reports reports;
  reports.reserve(in.sessions.size());
  StateWindow window;
  if (measure_state) window.begin();
  const core::RealtimePipeline pipeline(in.suite.models(), in.params);
  const double start = now_seconds();
  for (const sim::LabeledSession& session : in.sessions)
    reports.push_back(pipeline.process_session(session));
  pass.seconds = now_seconds() - start;
  window.sample();
  pass.state_mib = window.end_mib();
  if (reports != in.reference)
    pass.failure = "process_session reports differ from the step replay's";
  return pass;
}

Pass traced_pass(const SlotInputs& in, EngineLayers& layers, SpanLog& spans) {
  Pass pass;
  const double start = now_seconds();
  const Reports reports = step_replay(in, &layers, &spans);
  pass.seconds = now_seconds() - start;
  if (reports != in.reference)
    pass.failure = "traced step-replay reports differ from process_session's";
  return pass;
}

}  // namespace

RunResult run_slot_fleet(const RunConfig& config) {
  auto in = std::make_unique<SlotInputs>();
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double start = now_seconds();
    in->suite = load_models(config.models_dir);
    in->sessions = fleet(config.seed);
    times.push_back(now_seconds() - start);
  }
  in->setup_s = median(times);
  for (const sim::LabeledSession& s : in->sessions)
    in->launch_packets += s.packets.size();
  in->reference = step_replay(*in, nullptr, nullptr);

  RunResult out;
  std::ostringstream inputs;
  inputs << "inputs: sessions=" << in->sessions.size() << " slots=" << kFleetSlots
         << " launch_packets=" << in->launch_packets;
  out.notes.push_back(inputs.str());

  const std::size_t slots = kFleetSlots;
  std::vector<double> rates;
  std::vector<double> walls;
  double state_mib = 0.0;  // first pass only: fresh allocator state
  std::vector<double> traced_walls;
  EngineLayers layers;
  SpanLog spans;
  std::string failure;
  const double deadline = now_seconds() + config.seconds;
  set_alloc_counting(config.trace);
  while (walls.size() < kMinPasses || now_seconds() < deadline) {
    const Pass pass = pipeline_pass(*in, walls.empty());
    if (walls.empty()) state_mib = pass.state_mib;
    walls.push_back(pass.seconds);
    rates.push_back(static_cast<double>(slots) / pass.seconds);
    failure = pass.failure;
    if (failure.empty() && config.trace) {
      const Pass traced = traced_pass(*in, layers, spans);
      traced_walls.push_back(traced.seconds);
      failure = traced.failure;
    }
    if (!failure.empty()) break;
  }
  set_alloc_counting(false);
  out.failure = failure;
  out.attempted = slots * walls.size();

  if (!config.trace) {
    out.values["items_per_s"] = pass_rate(rates);
    out.values["state_peak_mb"] = state_mib;
    out.values["setup_s"] = in->setup_s;
    out.notes.push_back(spread_note("slots_per_s", rates));
    return out;
  }
  out.values["core.title_classifier.us_per_session"] =
      layers.title.quantile_ns(0.5) * 1e-3;
  out.values["core.session_engine.setup.us_per_session"] =
      layers.setup.quantile_ns(0.5) * 1e-3;
  out.values["core.session_engine.finish.us_per_session"] =
      layers.finish.quantile_ns(0.5) * 1e-3;
  put_layer(out, "core.session_engine.push_slot", layers.push_slot, "ns_per_slot",
            1.0);
  out.values["core.session_engine.allocs_per_slot"] =
      layers.push_slot.allocs_per_call();
  double traced_total = 0.0;
  for (const double w : traced_walls) traced_total += w;
  const std::uint64_t layer_ns = layers.setup.total_ns() + layers.title.total_ns() +
                                 layers.push_slot.total_ns() +
                                 layers.finish.total_ns();
  out.values["trace.overhead"] = median(traced_walls) / median(walls) - 1.0;
  out.values["trace.coverage"] = static_cast<double>(layer_ns) * 1e-9 / traced_total;
  std::ostringstream shares;
  const double total = static_cast<double>(layer_ns);
  shares << "engine time shares: setup="
         << 100.0 * static_cast<double>(layers.setup.total_ns()) / total
         << "% title=" << 100.0 * static_cast<double>(layers.title.total_ns()) / total
         << "% push_slot="
         << 100.0 * static_cast<double>(layers.push_slot.total_ns()) / total
         << "% finish="
         << 100.0 * static_cast<double>(layers.finish.total_ns()) / total << '%';
  out.notes.push_back(shares.str());
  const auto path = config.work_dir / (config.workload + ".spans.jsonl");
  spans.write_jsonl(path);
  out.notes.push_back("spans: " + std::to_string(spans.size()) + " written to " +
                      path.filename().string());
  return out;
}

}  // namespace perfbench
