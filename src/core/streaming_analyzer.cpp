#include "core/streaming_analyzer.hpp"

namespace cgctx::core {

StreamingAnalyzer::StreamingAnalyzer(PipelineModels models,
                                     PipelineParams params,
                                     EventCallback on_event)
    : params_(std::move(params)),
      on_event_(std::move(on_event)),
      observer_{on_event_ ? &on_event_ : nullptr, nullptr, 1},
      detector_(params_.detector),
      engine_(models, &params_) {}

void StreamingAnalyzer::push(const net::PacketRecord& pkt) {
  const net::FiveTuple key = pkt.tuple.canonical();
  if (!CloudGamingFlowDetector::is_candidate(key)) {
    ++gated_;  // can never be detected: skip the demux, as the probe does
    return;
  }
  if (detection_) {
    if (key == detection_->flow) engine_.on_packet(pkt, observer_);
    return;
  }
  // Detection needs a few hundred packets; the launch-stage packets seen
  // before the verdict still belong to the title-classification window,
  // so buffer recent candidate traffic and replay the flow's share once
  // the verdict lands (the triggering packet is among them).
  lookback_.observe(pkt);
  const net::FlowState& flow = table_.add(pkt);
  detection_ = detector_.detect(flow);
  if (!detection_) return;
  engine_.start(flow.first_seen);
  engine_.set_detection(*detection_, pkt.timestamp, observer_);
  lookback_.take(key, [this](const net::PacketRecord& earlier) {
    engine_.on_packet(earlier, observer_);
  });
  lookback_.clear();  // only the detected flow is analyzed from here on
}

SessionReport StreamingAnalyzer::finish() {
  SessionReport out = engine_.finish(observer_);  // copy: the engine is reused
  ++observer_.session_id;

  // Reset for the next session.
  engine_.reset();
  table_ = net::FlowTable();
  detection_.reset();
  lookback_.clear();
  return out;
}

}  // namespace cgctx::core
