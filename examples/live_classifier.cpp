// Live classification demo: replays a packet stream (platform admin
// flows, a gaming session, and household cross-traffic) through the
// StreamingAnalyzer exactly as an inline probe would see it, printing
// classification events as they happen — flow detection, the five-second
// title verdict, player activity stage changes, the pattern inference
// once confident, effective-QoE changes and the session's retirement.
//
//   ./live_classifier [title_index 0-12] [seed]
#include <cstdio>
#include <cstdlib>

#include <algorithm>

#include "core/model_suite.hpp"
#include "core/streaming_analyzer.hpp"
#include "obs/trace.hpp"
#include "sim/cross_traffic.hpp"
#include "sim/platform_anatomy.hpp"

using namespace cgctx;

int main(int argc, char** argv) {
  const int title_index = argc > 1 ? std::atoi(argv[1]) : 10;  // CS:GO
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;
  if (title_index < 0 ||
      static_cast<std::size_t>(title_index) >= sim::kNumPopularTitles) {
    std::fprintf(stderr, "title_index must be 0..12\n");
    return 1;
  }

  std::puts("Training models...");
  core::TrainingBudget budget;
  budget.lab_scale = 0.3;
  budget.gameplay_seconds = 180.0;
  budget.augment_copies = 1;
  const core::ModelSuite suite = core::train_model_suite(budget);

  // Build the wire view: platform anatomy, then the gaming session,
  // interleaved with VoIP and web browsing from the same subscriber.
  sim::SessionGenerator generator;
  sim::SessionSpec spec;
  spec.title = static_cast<sim::GameTitle>(title_index);
  spec.gameplay_seconds = 300.0;
  spec.seed = seed;
  spec.start_time = net::duration_from_seconds(30.0);
  const sim::LabeledSession session = generator.generate(spec);
  ml::Rng rng(seed ^ 0xabcd);
  std::vector<net::PacketRecord> wire = session.packets;
  for (const auto& pkt : sim::flatten(sim::platform_session_anatomy(
           session.client_ip, session.tuple.dst_ip, session.launch_begin, rng)))
    wire.push_back(pkt);
  for (const auto& pkt : sim::voip_flow(session.client_ip, 380.0, rng))
    wire.push_back(pkt);
  for (const auto& pkt : sim::web_browsing_flow(session.client_ip, 380.0, rng))
    wire.push_back(pkt);
  std::sort(wire.begin(), wire.end(), [](const auto& a, const auto& b) {
    return a.timestamp < b.timestamp;
  });
  std::printf("Replaying %zu packets (platform + gaming + VoIP + web) for"
              " '%s'...\n\n",
              wire.size(), sim::to_string(spec.title));

  core::StreamingAnalyzer analyzer(
      suite.models(), core::default_pipeline_params(),
      [](const obs::TraceEvent& event) {
        std::printf("[%7.2fs] %s: %.*s", event.at_seconds,
                    obs::to_string(event.type),
                    static_cast<int>(event.name_view().size()),
                    event.name_view().data());
        if (event.confidence > 0)
          std::printf(" (confidence %.0f%%)", 100 * event.confidence);
        std::putchar('\n');
      });

  for (const net::PacketRecord& pkt : wire) analyzer.push(pkt);
  const core::SessionReport report = analyzer.finish();

  std::printf("\nSession report: %.1f min analyzed | mean %.1f Mbps |"
              " QoE objective=%s effective=%s\n",
              report.duration_s / 60.0, report.mean_down_mbps,
              core::to_string(report.objective_session),
              core::to_string(report.effective_session));
  if (report.detection)
    std::printf("Detected flow: %s\n",
                net::to_string(report.detection->flow).c_str());
  std::printf("Ground truth: title '%s', pattern '%s'.\n",
              sim::to_string(spec.title),
              sim::to_string(sim::info(spec.title).pattern));
  return 0;
}
