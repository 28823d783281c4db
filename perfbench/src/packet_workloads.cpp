// The three probe-path workloads: wire_mixed, pcap_mixed, sharded_mixed.
//
// Each replays a sim::build_fleet_replay wire (concurrent cloud-gaming
// sessions among VoIP/web/video household flows) closed-loop, one whole
// replay per pass, through a fresh probe per pass:
//   wire_mixed    in-memory PacketRecords -> MultiSessionProbe
//   pcap_mixed    .pcap -> PcapReader::next -> decode_udp_frame ->
//                 record_from_frame -> MultiSessionProbe
//   sharded_mixed in-memory PacketRecords -> ShardedProbe (nproc-1 shards)
// Every pass's reports, sorted by flow, must equal an untimed inline
// MultiSessionProbe replay of the generated wire, and no report may name
// a non-gaming flow.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/multi_session_probe.hpp"
#include "core/sharded_probe.hpp"
#include "layer_trace.hpp"
#include "net/framing.hpp"
#include "net/pcap.hpp"
#include "perfbench.hpp"
#include "sim/fleet.hpp"

namespace perfbench {

namespace {

using Reports = std::vector<core::SessionReport>;

// --- inputs -----------------------------------------------------------------

/// wire_mixed / sharded_mixed: cross-traffic-heavy vantage-point wire.
sim::FleetReplayOptions mixed_wire_options(std::uint64_t seed) {
  sim::FleetReplayOptions o;
  o.seed = seed;
  o.sessions = 16;
  o.gameplay_seconds = 40.0;
  o.start_spread_s = 20.0;
  o.cross_traffic_flows = 150;
  o.cross_traffic_duration_s = 50.0;
  return o;
}

/// pcap_mixed: the same shape, smaller, since every frame is real bytes.
sim::FleetReplayOptions capture_wire_options(std::uint64_t seed) {
  sim::FleetReplayOptions o;
  o.seed = seed;
  o.sessions = 4;
  o.gameplay_seconds = 15.0;
  o.start_spread_s = 8.0;
  o.cross_traffic_flows = 36;
  o.cross_traffic_duration_s = 15.0;
  return o;
}

/// Subscribers live in 10.0.0.0/8; the capture path assigns direction by
/// that prefix (record_from_frame takes the subscriber address).
bool is_subscriber(net::Ipv4Addr addr) { return (addr.value >> 24) == 10; }

struct TupleHash {
  std::size_t operator()(const net::FiveTuple& t) const {
    return net::flow_hash(t);
  }
};
using FirstPackets = std::unordered_map<net::FiveTuple, net::Timestamp, TupleHash>;

struct PacketInputs {
  core::ModelSuite suite;
  core::MultiSessionProbeParams params{core::default_pipeline_params()};
  sim::FleetReplay replay;
  std::set<net::FiveTuple> gaming;  ///< canonical tuples of gaming flows
  FirstPackets first_packet;        ///< first timestamp of each gaming flow
  std::filesystem::path capture;    ///< written only for pcap_mixed
  std::uint64_t capture_bytes = 0;
  std::uint64_t capture_frames = 0;
  double setup_s = 0.0;
  Reports reference;  ///< untimed inline replay, sorted by flow
};

/// Writes the wire as a classic pcap. encode_udp_frame always appends a
/// UDP header, so TCP cross flows are framed as UDP (protocol 17) to keep
/// them decodable: pcap_mixed's probe sees the same traffic, but with
/// protocol 17 where wire_mixed's sees 6.
std::uint64_t write_capture(const std::filesystem::path& path,
                            const std::vector<net::PacketRecord>& wire) {
  net::PcapWriter writer(path);
  net::CapturedFrame frame;
  for (const net::PacketRecord& pkt : wire) {
    net::FiveTuple tuple = pkt.tuple;
    tuple.protocol = 17;
    frame.timestamp = pkt.timestamp;
    frame.bytes = net::encode_udp_frame(tuple, net::build_payload(pkt));
    writer.write(frame);
  }
  writer.close();
  return writer.frames_written();
}

Reports inline_replay(const core::PipelineModels& models,
                      const core::MultiSessionProbeParams& params,
                      const std::vector<net::PacketRecord>& wire) {
  Reports reports;
  core::MultiSessionProbe probe(
      models, params,
      [&reports](const core::SessionReport& r) { reports.push_back(r); });
  for (const net::PacketRecord& pkt : wire) probe.push(pkt);
  probe.flush();
  sort_by_flow(reports);
  return reports;
}

/// Model load + input generation (+ capture write), kSetupReps times;
/// `in.setup_s` is the median. Then the untimed reference replay.
void set_up(const RunConfig& config, const sim::FleetReplayOptions& options,
            bool write_pcap, PacketInputs& in) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double start = now_seconds();
    in.suite = load_models(config.models_dir);
    in.replay = sim::build_fleet_replay(options);
    if (write_pcap) {
      in.capture = config.work_dir / (config.workload + ".pcap");
      in.capture_frames = write_capture(in.capture, in.replay.wire);
    }
    times.push_back(now_seconds() - start);
  }
  in.setup_s = median(times);
  if (write_pcap) in.capture_bytes = std::filesystem::file_size(in.capture);
  in.gaming = {in.replay.session_flows.begin(), in.replay.session_flows.end()};
  for (const net::PacketRecord& pkt : in.replay.wire) {
    const net::FiveTuple key = pkt.tuple.canonical();
    if (in.gaming.count(key) != 0) in.first_packet.try_emplace(key, pkt.timestamp);
  }
  in.reference = inline_replay(in.suite.models(), in.params, in.replay.wire);
}

/// Sorts a pass's reports and checks them; returns the failure or "".
std::string check_reports(Reports& reports, const PacketInputs& in) {
  sort_by_flow(reports);
  for (const core::SessionReport& r : reports)
    if (!r.detection || in.gaming.count(r.detection->flow) == 0)
      return "false promotion: report for non-gaming flow " +
             (r.detection ? net::to_string(r.detection->flow) : "?");
  if (reports != in.reference)
    return "reports differ from the inline MultiSessionProbe reference";
  return {};
}

double miss_ratio(const PacketInputs& in) {
  std::set<net::FiveTuple> reported;
  for (const core::SessionReport& r : in.reference)
    if (r.detection) reported.insert(r.detection->flow);
  std::size_t missed = 0;
  for (const net::FiveTuple& flow : in.gaming) missed += reported.count(flow) == 0;
  return in.gaming.empty() ? 0.0
                           : static_cast<double>(missed) /
                                 static_cast<double>(in.gaming.size());
}

std::string input_note(const PacketInputs& in) {
  std::ostringstream os;
  os << "inputs: packets=" << in.replay.wire.size()
     << " sessions=" << in.replay.session_flows.size()
     << " reports=" << in.reference.size();
  if (!in.capture.empty())
    os << " frames=" << in.capture_frames
       << " capture_bytes=" << in.capture_bytes;
  return os.str();
}

// --- push classification (traced runs) ----------------------------------

/// The classes a MultiSessionProbe::push call falls into, in the priority
/// order they are tested (see README.md).
enum PushClass : std::size_t {
  kRetire,
  kPromote,
  kTitle,
  kSlotClose,
  kTally,
  kUndetected,
  kNumClasses
};
constexpr std::array<const char*, kNumClasses> kClassNames = {
    "retire", "promote", "title", "slot_close", "tally", "undetected"};

struct ProbeCounters {
  std::size_t reports = 0;
  std::size_t live = 0;
  std::uint64_t evictions = 0;
};

ProbeCounters counters(const core::MultiSessionProbe& probe) {
  return {probe.reports_emitted(), probe.live_sessions(),
          probe.flow_evictions()};
}

/// The benchmark's own model of which flows the probe has promoted, kept
/// from its inputs and the probe's public accessors, used to put every
/// push into exactly one class. A session's clock starts at its flow's
/// first packet on the wire (simulated tuples are never reused).
class PushClassifier {
 public:
  PushClassifier(net::Duration title_window, const FirstPackets& first_packet)
      : title_window_(title_window), first_packet_(first_packet) {}

  /// Report-callback hook: the retired flow is no longer live.
  void retired(const net::FiveTuple& flow) { live_.erase(flow); }

  /// Call before push(pkt).
  void before(const net::PacketRecord& pkt) {
    key_ = pkt.tuple.canonical();
    was_live_ = live_.count(key_) != 0;
  }

  /// Call after push(pkt); returns its class, or sets `error` when the
  /// probe's accessors contradict the model.
  PushClass after(const net::PacketRecord& pkt, const ProbeCounters& pre,
                  const ProbeCounters& post, std::string& error) {
    const auto retired = static_cast<std::int64_t>(post.reports - pre.reports);
    const std::int64_t promoted = static_cast<std::int64_t>(post.live) + retired -
                                  static_cast<std::int64_t>(pre.live);
    if (promoted < 0 || promoted > 1 || (promoted == 1 && was_live_)) {
      error = "push promoted " + std::to_string(promoted) + " sessions";
      return kUndetected;
    }
    PushClass cls = kUndetected;
    if (promoted == 1) {
      const auto first = first_packet_.find(key_);
      const net::Timestamp begin =
          first != first_packet_.end() ? first->second : pkt.timestamp;
      live_[key_] = FlowClock{begin, slot_of(pkt, begin),
                              pkt.timestamp - begin >= title_window_};
      cls = kPromote;
    } else if (const auto it = live_.find(key_); it != live_.end()) {
      FlowClock& clock = it->second;
      const std::int64_t slot = slot_of(pkt, clock.begin);
      cls = kTally;
      if (!clock.titled && pkt.timestamp - clock.begin >= title_window_) {
        clock.titled = true;
        cls = kTitle;
      } else if (slot > clock.slot) {
        cls = kSlotClose;
      }
      clock.slot = std::max(clock.slot, slot);
    }
    if (live_.size() != post.live)
      error = "benchmark tracks " + std::to_string(live_.size()) +
              " live sessions, probe reports " + std::to_string(post.live);
    if (retired > 0 || post.evictions > pre.evictions) return kRetire;
    return cls;
  }

  [[nodiscard]] const net::FiveTuple& key() const { return key_; }

 private:
  struct FlowClock {
    net::Timestamp begin = 0;
    std::int64_t slot = 0;
    bool titled = false;
  };

  static std::int64_t slot_of(const net::PacketRecord& pkt,
                              net::Timestamp begin) {
    return (pkt.timestamp - begin) / net::kNanosPerSecond;
  }

  net::Duration title_window_;
  const FirstPackets& first_packet_;
  std::unordered_map<net::FiveTuple, FlowClock, TupleHash> live_;
  net::FiveTuple key_;
  bool was_live_ = false;
};

/// Per-layer statistics accumulated over a run's traced passes.
struct ProbeLayers {
  std::array<LayerStat, kNumClasses> push;
  LayerStat flush;
  std::array<std::uint64_t, kNumClasses> pass_counts{};  ///< last pass
  std::uint64_t flow_table_peak = 0;
  std::uint64_t live_sessions_peak = 0;
  std::uint64_t flow_evictions = 0;  ///< last pass
};

/// A MultiSessionProbe whose every push is timed and classified.
class TracedProbe {
 public:
  TracedProbe(const PacketInputs& in, ProbeLayers& layers, SpanLog& spans,
              Reports& reports)
      : layers_(layers),
        spans_(spans),
        reports_(reports),
        classifier_(net::duration_from_seconds(
                        in.suite.title.params().attributes.window_seconds),
                    in.first_packet),
        probe_(in.suite.models(), in.params,
               [this](const core::SessionReport& r) {
                 if (r.detection) classifier_.retired(r.detection->flow);
                 reports_.push_back(r);
               }) {}

  void push(const net::PacketRecord& pkt) {
    classifier_.before(pkt);
    const ProbeCounters pre = counters(probe_);
    const std::uint64_t a0 = thread_allocs();
    const std::uint64_t t0 = now_ns();
    probe_.push(pkt);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t a1 = thread_allocs();
    const ProbeCounters post = counters(probe_);
    const PushClass cls = classifier_.after(pkt, pre, post, error_);
    LayerStat& stat = layers_.push[cls];
    stat.record(t1 - t0);
    stat.add_allocs(a1 - a0);
    ++counts_[cls];
    if (cls != kTally && cls != kUndetected && cls != kSlotClose)
      spans_.add(span_name(cls), t0, t1, classifier_.key());
    layers_.flow_table_peak =
        std::max<std::uint64_t>(layers_.flow_table_peak, probe_.flow_table_size());
    layers_.live_sessions_peak =
        std::max<std::uint64_t>(layers_.live_sessions_peak, post.live);
  }

  void flush() {
    const std::uint64_t t0 = now_ns();
    probe_.flush();
    const std::uint64_t t1 = now_ns();
    layers_.flush.record(t1 - t0);
    spans_.add("core.probe.flush", t0, t1);
    layers_.pass_counts = counts_;
    layers_.flow_evictions = probe_.flow_evictions();
  }

  [[nodiscard]] std::uint64_t pushes() const {
    std::uint64_t n = 0;
    for (const std::uint64_t c : counts_) n += c;
    return n;
  }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  static const char* span_name(PushClass cls) {
    switch (cls) {
      case kRetire: return "core.probe.retire";
      case kPromote: return "core.probe.promote";
      default: return "core.probe.title";
    }
  }

  ProbeLayers& layers_;
  SpanLog& spans_;
  Reports& reports_;
  PushClassifier classifier_;
  std::array<std::uint64_t, kNumClasses> counts_{};
  std::string error_;
  core::MultiSessionProbe probe_;  // last: its callback uses the members above
};

// --- pass runners -----------------------------------------------------------

/// One pass's outcome.
struct Pass {
  double seconds = 0.0;
  std::uint64_t items = 0;  ///< packets (frames) handed to the probe
  std::uint64_t failed = 0;
  double state_mib = 0.0;
  std::string failure;
};

/// Per-run accumulation over passes.
struct Tally {
  std::vector<double> rates;
  std::vector<double> walls;
  double state_mib = 0.0;  ///< measured on the first pass only
  std::uint64_t items = 0;
  std::uint64_t failed = 0;
  std::string failure;

  void add(const Pass& pass) {
    if (rates.empty()) state_mib = pass.state_mib;
    rates.push_back(static_cast<double>(pass.items) / pass.seconds);
    walls.push_back(pass.seconds);
    items += pass.items;
    failed += pass.failed;
    if (failure.empty()) failure = pass.failure;
  }
};

/// Decodes one captured frame the way a vantage point would: IPv4/UDP
/// decode, then direction by the subscriber prefix.
std::optional<net::PacketRecord> decode(const net::CapturedFrame& frame) {
  const auto decoded = net::decode_udp_frame(frame.bytes);
  if (!decoded) return std::nullopt;
  const net::Ipv4Addr client = is_subscriber(decoded->tuple.src_ip)
                                   ? decoded->tuple.src_ip
                                   : decoded->tuple.dst_ip;
  return net::record_from_frame(*decoded, frame.timestamp, client);
}

Pass inline_pass(const PacketInputs& in, bool measure_state) {
  Pass pass;
  Reports reports;
  StateWindow window;
  if (measure_state) window.begin();
  {
    core::MultiSessionProbe probe(
        in.suite.models(), in.params,
        [&reports](const core::SessionReport& r) { reports.push_back(r); });
    const double start = now_seconds();
    for (const net::PacketRecord& pkt : in.replay.wire) probe.push(pkt);
    window.sample();
    probe.flush();
    pass.seconds = now_seconds() - start;
    pass.state_mib = window.end_mib();
  }
  pass.items = in.replay.wire.size();
  pass.failure = check_reports(reports, in);
  return pass;
}

Pass pcap_pass(const PacketInputs& in, bool measure_state) {
  Pass pass;
  Reports reports;
  StateWindow window;
  if (measure_state) window.begin();
  {
    core::MultiSessionProbe probe(
        in.suite.models(), in.params,
        [&reports](const core::SessionReport& r) { reports.push_back(r); });
    const double start = now_seconds();
    net::PcapReader reader(in.capture);
    while (const auto frame = reader.next()) {
      ++pass.items;
      if (const auto pkt = decode(*frame)) {
        probe.push(*pkt);
      } else {
        ++pass.failed;
      }
    }
    window.sample();
    probe.flush();
    pass.seconds = now_seconds() - start;
    pass.state_mib = window.end_mib();
  }
  pass.failure = check_reports(reports, in);
  return pass;
}

core::ShardedProbeParams sharded_params(const PacketInputs& in) {
  core::ShardedProbeParams params;
  params.probe = in.params;
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  params.num_shards = hw - 1;
  params.overflow = core::OverflowPolicy::kBackpressure;
  return params;
}

Pass sharded_pass(const PacketInputs& in, bool measure_state) {
  Pass pass;
  Reports reports;
  StateWindow window;
  if (measure_state) window.begin();
  {
    core::ShardedProbe probe(
        in.suite.models(), sharded_params(in),
        [&reports](const core::SessionReport& r) { reports.push_back(r); });
    const double start = now_seconds();
    for (const net::PacketRecord& pkt : in.replay.wire)
      if (!probe.push(pkt)) ++pass.failed;
    window.sample();
    probe.flush();
    pass.seconds = now_seconds() - start;
    pass.state_mib = window.end_mib();
  }
  pass.items = in.replay.wire.size();
  pass.failure = check_reports(reports, in);
  return pass;
}

// --- traced passes ----------------------------------------------------------

struct CaptureLayers {
  LayerStat read;
  LayerStat decode;
  std::uint64_t rejects = 0;  ///< last pass
  std::uint64_t frames = 0;   ///< last pass
};

Pass traced_inline_pass(const PacketInputs& in, ProbeLayers& layers,
                        SpanLog& spans) {
  Pass pass;
  Reports reports;
  {
    TracedProbe probe(in, layers, spans, reports);
    const double start = now_seconds();
    for (const net::PacketRecord& pkt : in.replay.wire) probe.push(pkt);
    probe.flush();
    pass.seconds = now_seconds() - start;
    pass.items = probe.pushes();
    pass.failure = probe.error();
  }
  if (pass.failure.empty() && pass.items != in.replay.wire.size())
    pass.failure = "push classes sum to " + std::to_string(pass.items) +
                   ", packets pushed " + std::to_string(in.replay.wire.size());
  if (pass.failure.empty()) pass.failure = check_reports(reports, in);
  return pass;
}

Pass traced_pcap_pass(const PacketInputs& in, ProbeLayers& layers,
                      CaptureLayers& capture, SpanLog& spans) {
  Pass pass;
  Reports reports;
  std::uint64_t frames = 0;
  std::uint64_t rejects = 0;
  {
    TracedProbe probe(in, layers, spans, reports);
    const double start = now_seconds();
    net::PcapReader reader(in.capture);
    for (;;) {
      const std::uint64_t a0 = thread_allocs();
      const std::uint64_t t0 = now_ns();
      const auto frame = reader.next();
      const std::uint64_t t1 = now_ns();
      const std::uint64_t a1 = thread_allocs();
      capture.read.record(t1 - t0);
      capture.read.add_allocs(a1 - a0);
      if (!frame) break;
      ++frames;
      const auto pkt = decode(*frame);
      const std::uint64_t t2 = now_ns();
      capture.decode.record(t2 - t1);
      capture.decode.add_allocs(thread_allocs() - a1);
      if (pkt) {
        probe.push(*pkt);
      } else {
        ++rejects;
      }
    }
    probe.flush();
    pass.seconds = now_seconds() - start;
    pass.items = frames;
    pass.failed = rejects;
    pass.failure = probe.error();
    if (pass.failure.empty() && probe.pushes() + rejects != frames)
      pass.failure = "push classes sum to " + std::to_string(probe.pushes()) +
                     ", frames decoded " + std::to_string(frames - rejects);
  }
  capture.frames = frames;
  capture.rejects = rejects;
  if (pass.failure.empty()) pass.failure = check_reports(reports, in);
  return pass;
}

struct ShardedLayers {
  LayerStat push;
  LayerStat flush;
  std::vector<double> busy;  ///< producer busy ratio per pass
  core::ProbeStatsSnapshot stats;
};

Pass traced_sharded_pass(const PacketInputs& in, ShardedLayers& layers,
                         SpanLog& spans) {
  Pass pass;
  Reports reports;
  {
    core::ShardedProbe probe(
        in.suite.models(), sharded_params(in),
        [&reports](const core::SessionReport& r) { reports.push_back(r); });
    std::uint64_t busy_ns = 0;
    const std::uint64_t start = now_ns();
    for (const net::PacketRecord& pkt : in.replay.wire) {
      const std::uint64_t t0 = now_ns();
      const bool accepted = probe.push(pkt);
      const std::uint64_t t1 = now_ns();
      layers.push.record(t1 - t0);
      busy_ns += t1 - t0;
      if (!accepted) ++pass.failed;
    }
    const std::uint64_t t0 = now_ns();
    probe.flush();
    const std::uint64_t t1 = now_ns();
    layers.flush.record(t1 - t0);
    spans.add("core.sharded.flush", t0, t1);
    pass.seconds = static_cast<double>(t1 - start) * 1e-9;
    layers.busy.push_back(static_cast<double>(busy_ns) /
                          static_cast<double>(t1 - start));
    layers.stats = probe.stats();
  }
  pass.items = in.replay.wire.size();
  pass.failure = check_reports(reports, in);
  return pass;
}

// --- metric assembly ---------------------------------------------------------

std::uint64_t probe_layer_ns(const ProbeLayers& layers) {
  std::uint64_t total = layers.flush.total_ns();
  for (const LayerStat& s : layers.push) total += s.total_ns();
  return total;
}

void put_probe_layers(RunResult& out, const ProbeLayers& layers,
                      const PacketInputs& in) {
  const auto& push = layers.push;
  put_layer(out, "core.probe.undetected", push[kUndetected], "ns_per_pkt", 1.0);
  out.values["core.probe.undetected.allocs_per_pkt"] =
      push[kUndetected].allocs_per_call();
  put_layer(out, "core.probe.tally", push[kTally], "ns_per_pkt", 1.0);
  out.values["core.probe.tally.allocs_per_pkt"] = push[kTally].allocs_per_call();
  put_layer(out, "core.probe.slot_close", push[kSlotClose], "us_per_call", 1e-3);
  out.values["core.probe.promote.us_per_call"] =
      push[kPromote].quantile_ns(0.5) * 1e-3;
  out.values["core.probe.promote.max_us"] =
      static_cast<double>(push[kPromote].max_ns()) * 1e-3;
  out.values["core.probe.title.us_per_call"] = push[kTitle].quantile_ns(0.5) * 1e-3;
  out.values["core.probe.retire.us_per_call"] =
      push[kRetire].quantile_ns(0.5) * 1e-3;
  for (std::size_t c = 0; c < kNumClasses; ++c)
    out.values[std::string("core.probe.") + kClassNames[c] + ".count"] =
        static_cast<double>(layers.pass_counts[c]);
  out.values["core.probe.flush_ms"] = layers.flush.quantile_ns(0.5) * 1e-6;
  out.values["core.probe.flow_table_peak"] =
      static_cast<double>(layers.flow_table_peak);
  out.values["core.probe.live_sessions_peak"] =
      static_cast<double>(layers.live_sessions_peak);
  out.values["core.probe.flow_evictions"] =
      static_cast<double>(layers.flow_evictions);
  out.values["core.probe.false_promotions"] = 0.0;  // any would fail the run
  out.values["core.probe.miss_ratio"] = miss_ratio(in);
  const double per_packet = static_cast<double>(push[kUndetected].total_ns() +
                                                push[kTally].total_ns());
  const double forest =
      static_cast<double>(push[kTitle].total_ns() + push[kSlotClose].total_ns());
  out.values["core.probe.per_packet_to_forest"] =
      forest > 0.0 ? per_packet / forest : 0.0;

  std::ostringstream os;
  os << "push classes per pass:";
  for (std::size_t c = 0; c < kNumClasses; ++c)
    os << ' ' << kClassNames[c] << '=' << layers.pass_counts[c];
  out.notes.push_back(os.str());
  std::ostringstream shares;
  const auto total =
      static_cast<double>(std::max<std::uint64_t>(probe_layer_ns(layers), 1));
  shares << "probe time shares:";
  for (std::size_t c = 0; c < kNumClasses; ++c)
    shares << ' ' << kClassNames[c] << '='
           << 100.0 * static_cast<double>(push[c].total_ns()) / total << '%';
  out.notes.push_back(shares.str());
}

void put_trace_summary(RunResult& out, const Tally& plain, const Tally& traced,
                       std::uint64_t layer_ns) {
  double traced_wall = 0.0;
  for (const double w : traced.walls) traced_wall += w;
  out.values["trace.overhead"] = median(traced.walls) / median(plain.walls) - 1.0;
  out.values["trace.coverage"] = static_cast<double>(layer_ns) * 1e-9 / traced_wall;
}

void put_end_to_end(RunResult& out, const Tally& tally, double setup_s,
                    const char* item_name) {
  out.values["items_per_s"] = pass_rate(tally.rates);
  out.values["state_peak_mb"] = tally.state_mib;
  out.values["setup_s"] = setup_s;
  out.notes.push_back(spread_note(item_name, tally.rates));
}

void finish(RunResult& out, const Tally& tally) {
  out.attempted = tally.items;
  out.failed = tally.failed;
  out.failure = tally.failure;
}

/// Runs untraced passes until `seconds` have passed (at least kMinPasses).
template <class RunPass>
Tally measure(double seconds, RunPass&& run_pass) {
  Tally tally;
  const double deadline = now_seconds() + seconds;
  while (tally.rates.size() < kMinPasses || now_seconds() < deadline) {
    tally.add(run_pass(tally.rates.empty()));
    if (!tally.failure.empty()) break;
  }
  return tally;
}

/// Alternates untraced and traced passes for `seconds` (traced runs).
template <class PlainPass, class TracedPass>
void measure_traced(double seconds, PlainPass&& plain_pass,
                    TracedPass&& traced_pass, Tally& plain, Tally& traced) {
  const double deadline = now_seconds() + seconds;
  set_alloc_counting(true);
  while (traced.rates.size() < kMinPasses || now_seconds() < deadline) {
    plain.add(plain_pass());
    traced.add(traced_pass());
    if (!plain.failure.empty() || !traced.failure.empty()) break;
  }
  set_alloc_counting(false);
  if (traced.failure.empty()) traced.failure = plain.failure;
}

void write_spans(const RunConfig& config, const SpanLog& spans,
                 RunResult& out) {
  const auto path = config.work_dir / (config.workload + ".spans.jsonl");
  spans.write_jsonl(path);
  out.notes.push_back("spans: " + std::to_string(spans.size()) + " written to " +
                      path.filename().string() +
                      (spans.dropped() > 0
                           ? " (" + std::to_string(spans.dropped()) + " dropped)"
                           : ""));
}

}  // namespace

RunResult run_wire_mixed(const RunConfig& config) {
  auto in = std::make_unique<PacketInputs>();
  set_up(config, mixed_wire_options(config.seed), false, *in);
  RunResult out;
  out.notes.push_back(input_note(*in));
  if (!config.trace) {
    const Tally tally = measure(
        config.seconds, [&](bool first) { return inline_pass(*in, first); });
    put_end_to_end(out, tally, in->setup_s, "pkts_per_s");
    out.notes.push_back("miss_ratio " + std::to_string(miss_ratio(*in)));
    finish(out, tally);
    return out;
  }
  ProbeLayers layers;
  SpanLog spans;
  Tally plain;
  Tally traced;
  measure_traced(
      config.seconds, [&] { return inline_pass(*in, false); },
      [&] { return traced_inline_pass(*in, layers, spans); }, plain, traced);
  put_probe_layers(out, layers, *in);
  put_trace_summary(out, plain, traced, probe_layer_ns(layers));
  write_spans(config, spans, out);
  finish(out, traced);
  return out;
}

RunResult run_pcap_mixed(const RunConfig& config) {
  auto in = std::make_unique<PacketInputs>();
  // The capture is hundreds of MB; it goes however the run ends.
  const struct RemoveCapture {
    const std::filesystem::path& path;
    ~RemoveCapture() {
      std::error_code ignored;
      std::filesystem::remove(path, ignored);
    }
  } remove_capture{in->capture};
  set_up(config, capture_wire_options(config.seed), true, *in);
  RunResult out;
  out.notes.push_back(input_note(*in));
  if (!config.trace) {
    const Tally tally = measure(
        config.seconds, [&](bool first) { return pcap_pass(*in, first); });
    put_end_to_end(out, tally, in->setup_s, "pkts_per_s");
    out.notes.push_back("miss_ratio " + std::to_string(miss_ratio(*in)));
    finish(out, tally);
  } else {
    ProbeLayers layers;
    CaptureLayers capture;
    SpanLog spans;
    Tally plain;
    Tally traced;
    measure_traced(
        config.seconds, [&] { return pcap_pass(*in, false); },
        [&] { return traced_pcap_pass(*in, layers, capture, spans); }, plain,
        traced);
    put_probe_layers(out, layers, *in);
    put_layer(out, "net.pcap_read", capture.read, "ns_per_frame", 1.0);
    out.values["net.pcap_read.allocs_per_frame"] = capture.read.allocs_per_call();
    put_layer(out, "net.decode", capture.decode, "ns_per_frame", 1.0);
    out.values["net.decode.allocs_per_frame"] = capture.decode.allocs_per_call();
    out.values["net.decode.reject_ratio"] =
        capture.frames == 0 ? 0.0
                            : static_cast<double>(capture.rejects) /
                                  static_cast<double>(capture.frames);
    put_trace_summary(out, plain, traced,
                      probe_layer_ns(layers) + capture.read.total_ns() +
                          capture.decode.total_ns());
    write_spans(config, spans, out);
    finish(out, traced);
  }
  return out;
}

RunResult run_sharded_mixed(const RunConfig& config) {
  auto in = std::make_unique<PacketInputs>();
  set_up(config, mixed_wire_options(config.seed), false, *in);
  RunResult out;
  out.notes.push_back(input_note(*in));
  const std::size_t shards = sharded_params(*in).num_shards;
  out.notes.push_back("shards: " + std::to_string(shards));
  if (!config.trace) {
    const Tally tally = measure(
        config.seconds, [&](bool first) { return sharded_pass(*in, first); });
    put_end_to_end(out, tally, in->setup_s, "pkts_per_s");
    out.notes.push_back(
        "drop_ratio " +
        std::to_string(static_cast<double>(tally.failed) /
                       static_cast<double>(tally.items)));
    finish(out, tally);
    return out;
  }
  ShardedLayers layers;
  SpanLog spans;
  Tally plain;
  Tally traced;
  measure_traced(
      config.seconds, [&] { return sharded_pass(*in, false); },
      [&] { return traced_sharded_pass(*in, layers, spans); }, plain, traced);
  put_layer(out, "core.sharded.push", layers.push, "ns_per_pkt", 1.0);
  out.values["core.sharded.flush_ms"] = layers.flush.quantile_ns(0.5) * 1e-6;
  out.values["core.sharded.producer_busy_ratio"] = median(layers.busy);
  out.values["core.sharded.queue_hwm"] =
      static_cast<double>(layers.stats.queue_depth_hwm);
  const auto latency = layers.stats.latency();
  out.values["core.sharded.latency_p50_us"] = latency.p50_us;
  out.values["core.sharded.latency_p99_us"] = latency.p99_us;
  const std::uint64_t offered =
      layers.stats.packets_in + layers.stats.packets_dropped;
  out.values["core.sharded.drop_ratio"] =
      offered == 0 ? 0.0
                   : static_cast<double>(layers.stats.packets_dropped) /
                         static_cast<double>(offered);
  out.values["core.probe.flow_evictions"] =
      static_cast<double>(layers.stats.flow_evictions);
  out.values["core.probe.miss_ratio"] = miss_ratio(*in);
  {
    // Max over mean packets per shard, from the probe's own shard map.
    core::ShardedProbe mapper(in->suite.models(), sharded_params(*in), {});
    std::vector<double> per_shard(shards, 0.0);
    for (const net::PacketRecord& pkt : in->replay.wire)
      per_shard[mapper.shard_of(pkt.tuple.canonical())] += 1.0;
    double sum = 0.0;
    for (const double n : per_shard) sum += n;
    out.values["core.sharded.shard_imbalance"] =
        *std::max_element(per_shard.begin(), per_shard.end()) /
        (sum / static_cast<double>(shards));
  }
  put_trace_summary(out, plain, traced,
                    layers.push.total_ns() + layers.flush.total_ns());
  write_spans(config, spans, out);
  finish(out, traced);
  return out;
}

}  // namespace perfbench
