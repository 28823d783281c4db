#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "net/flow_table.hpp"

namespace cgctx::core {

RealtimePipeline::RealtimePipeline(PipelineModels models, PipelineParams params)
    : models_(models), params_(std::move(params)) {
  if (models_.title == nullptr || models_.stage == nullptr ||
      models_.pattern == nullptr)
    throw std::invalid_argument("RealtimePipeline: all models are required");
}

SessionObserver RealtimePipeline::next_observer() const {
  if (trace_ == nullptr) return {};
  return {nullptr, trace_,
          next_trace_id_.fetch_add(1, std::memory_order_relaxed)};
}

std::optional<SessionReport> RealtimePipeline::process_packets(
    std::span<const net::PacketRecord> packets) const {
  // Front-end: demux until the cloud-gaming streaming flow is found.
  net::FlowTable table;
  const CloudGamingFlowDetector detector(params_.detector);
  std::optional<DetectionResult> detection;
  net::Timestamp detected_at = 0;
  for (const net::PacketRecord& pkt : packets) {
    detection = detector.detect(table.add(pkt));
    if (detection) {
      detected_at = pkt.timestamp;
      break;
    }
  }
  if (!detection) return std::nullopt;

  // Keep only the detected flow's packets, in time order. The sort is
  // stable so equal-timestamp packets replay in wire order, exactly as a
  // streaming consumer would see them.
  std::vector<net::PacketRecord> flow_packets;
  for (const net::PacketRecord& pkt : packets)
    if (pkt.tuple.canonical() == detection->flow) flow_packets.push_back(pkt);
  std::stable_sort(flow_packets.begin(), flow_packets.end(),
                   [](const net::PacketRecord& a, const net::PacketRecord& b) {
                     return a.timestamp < b.timestamp;
                   });

  // Replay the flow through the shared session engine.
  const SessionObserver observer = next_observer();
  SessionEngine engine(models_, &params_);
  engine.set_metrics(metrics_);
  engine.start(flow_packets.front().timestamp);
  engine.set_detection(*detection, detected_at, observer);
  for (const net::PacketRecord& pkt : flow_packets)
    engine.on_packet(pkt, observer);
  return engine.finish(observer);
}

SessionReport RealtimePipeline::process_session(
    const sim::LabeledSession& session) const {
  const SessionObserver observer = next_observer();
  SessionEngine engine(models_, &params_);
  engine.set_metrics(metrics_);
  engine.start(session.launch_begin);
  // Title verdict from the launch packet window, installed up front the
  // way the deployment's launch-window service feeds the slot pipeline.
  engine.set_title(
      models_.title->classify(session.packets, session.launch_begin));

  SlotTelemetry slot;
  for (const sim::SlotSample& sample : session.slots) {
    slot.volumetrics = RawSlotVolumetrics{sample.down_bytes,
                                          sample.down_packets, sample.up_bytes,
                                          sample.up_packets};
    slot.frames = sample.frames;
    slot.rtt_ms = sample.rtt_ms;
    slot.loss_rate = sample.loss_rate;
    engine.push_slot(slot, observer);
  }
  return engine.finish(observer);
}

}  // namespace cgctx::core
