#include "core/streaming_analyzer.hpp"

namespace cgctx::core {

StreamingAnalyzer::StreamingAnalyzer(PipelineModels models,
                                     PipelineParams params,
                                     EventCallback on_event,
                                     SlotCallback on_slot)
    : params_(std::move(params)),
      on_event_(std::move(on_event)),
      on_slot_(std::move(on_slot)),
      detector_(params_.detector),
      engine_(models, &params_) {}

void StreamingAnalyzer::push(const net::PacketRecord& pkt) {
  CallbackSink sink{this};
  if (!detection_) {
    // Detection needs a few hundred packets; the launch-stage packets
    // seen before the verdict still belong to the title-classification
    // window, so buffer recent candidate traffic and replay the flow's
    // share once the verdict lands.
    if (CloudGamingFlowDetector::is_candidate(pkt.tuple.canonical()))
      pre_buffer_.push_back(pkt);
    while (!pre_buffer_.empty() &&
           pkt.timestamp - pre_buffer_.front().timestamp >
               10 * net::kNanosPerSecond)
      pre_buffer_.pop_front();

    const net::FlowState& flow = table_.add(pkt);
    detection_ = detector_.detect(flow);
    if (!detection_) return;
    flow_begin_ = flow.first_seen;
    engine_.start(flow_begin_);
    engine_.set_detection(*detection_);
    if (on_event_ || trace_ != nullptr) {
      StreamEvent event;
      event.type = StreamEventType::kFlowDetected;
      event.at_seconds = net::duration_to_seconds(pkt.timestamp - flow_begin_);
      event.detection = detection_;
      if (trace_ != nullptr) append_trace(*trace_, trace_session_id_, event);
      if (on_event_) on_event_(event);
    }
    // Replay the buffered packets of the detected flow (the triggering
    // packet is among them).
    std::deque<net::PacketRecord> buffered;
    buffered.swap(pre_buffer_);
    for (const net::PacketRecord& earlier : buffered)
      if (earlier.tuple.canonical() == detection_->flow)
        engine_.on_packet(earlier, sink);
    return;
  }
  if (pkt.tuple.canonical() != detection_->flow) return;
  engine_.on_packet(pkt, sink);
}

SessionReport StreamingAnalyzer::finish() {
  CallbackSink sink{this};
  SessionReport out = engine_.finish(sink);  // copy: the engine is reused
  if (trace_ != nullptr) append_retired(*trace_, trace_session_id_, out);
  ++trace_session_id_;

  // Reset for the next session.
  engine_.reset();
  table_ = net::FlowTable();
  detection_.reset();
  flow_begin_ = 0;
  pre_buffer_.clear();
  return out;
}

}  // namespace cgctx::core
