#include "core/pipeline.hpp"

#include <array>
#include <stdexcept>

#include "core/streaming_analyzer.hpp"

namespace cgctx::core {

RealtimePipeline::RealtimePipeline(PipelineModels models, PipelineParams params)
    : models_(models), params_(std::move(params)) {
  if (models_.title == nullptr || models_.stage == nullptr ||
      models_.pattern == nullptr)
    throw std::invalid_argument("RealtimePipeline: all models are required");
}

SessionObserver RealtimePipeline::next_observer() const {
  if (trace_ == nullptr && !on_slot_) return {};
  return {nullptr, trace_,
          next_session_id_.fetch_add(1, std::memory_order_relaxed),
          on_slot_ ? &on_slot_ : nullptr};
}

std::optional<SessionReport> RealtimePipeline::process_packets(
    std::span<const net::PacketRecord> packets) const {
  // A batch run is a streaming run over the whole capture.
  StreamingAnalyzer analyzer(models_, params_, {}, on_slot_);
  analyzer.set_metrics(metrics_);
  // With a trace or hook the process_* calls do not run concurrently, so
  // the next id is read here and claimed only once a flow is detected.
  analyzer.set_trace(trace_, next_session_id_.load(std::memory_order_relaxed));
  for (const net::PacketRecord& pkt : packets) analyzer.push(pkt);
  if (!analyzer.flow_detected()) return std::nullopt;
  if (trace_ != nullptr || on_slot_)
    next_session_id_.fetch_add(1, std::memory_order_relaxed);
  return analyzer.finish();
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

  // Fixed-size chunks bound the engine's batch buffers (and the forest
  // batches' working set) whatever the session length.
  std::array<SlotTelemetry, kSlotBatch> chunk;
  std::size_t filled = 0;
  for (const sim::SlotSample& sample : session.slots) {
    SlotTelemetry& slot = chunk[filled++];
    slot.volumetrics = RawSlotVolumetrics{sample.down_bytes,
                                          sample.down_packets, sample.up_bytes,
                                          sample.up_packets};
    slot.frames = sample.frames;
    slot.rtt_ms = sample.rtt_ms;
    slot.loss_rate = sample.loss_rate;
    if (filled == kSlotBatch) {
      engine.push_slots(chunk, observer);
      filled = 0;
    }
  }
  engine.push_slots(std::span(chunk.data(), filled), observer);
  return engine.finish(observer);
}

}  // namespace cgctx::core
