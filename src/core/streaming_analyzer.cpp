#include "core/streaming_analyzer.hpp"

namespace cgctx::core {

StreamingAnalyzer::StreamingAnalyzer(PipelineModels models,
                                     PipelineParams params,
                                     EventCallback on_event,
                                     SlotCallback on_slot)
    : params_(std::move(params)),
      on_event_(std::move(on_event)),
      on_slot_(std::move(on_slot)),
      observer_{on_event_ ? &on_event_ : nullptr, nullptr, 1,
                on_slot_ ? &on_slot_ : nullptr},
      front_end_(params_.detector, 60 * net::kNanosPerSecond),
      engine_(models, &params_) {}

void StreamingAnalyzer::push(const net::PacketRecord& pkt) {
  if (!CloudGamingFlowDetector::is_candidate(pkt.tuple)) {
    ++gated_;  // can never be detected: skip the demux, as the probe does
    return;
  }
  const net::FiveTuple key = pkt.tuple.canonical();
  if (const auto& detection = engine_.report().detection) {
    if (key == detection->flow) engine_.on_packet(pkt, observer_);
    return;
  }
  // Detection needs a few hundred packets; the launch-stage packets seen
  // before the verdict still belong to the title-classification window,
  // so the front-end buffers them and the flow's share is replayed once
  // the verdict lands (the triggering packet is among them).
  const auto promotion = front_end_.observe(pkt, key);
  if (!promotion) return;
  engine_.start(promotion->flow_begin);
  engine_.set_detection(promotion->detection, pkt.timestamp, observer_);
  front_end_.take(key, [this](const net::PacketRecord& earlier) {
    engine_.on_packet(earlier, observer_);
  });
  front_end_.clear();  // only the detected flow is analyzed from here on
}

SessionReport StreamingAnalyzer::finish() {
  if (!engine_.started()) {  // no flow detected: no session to retire
    front_end_.clear();
    return SessionReport{};
  }
  SessionReport out = engine_.finish(observer_);  // copy: the engine is reused
  ++observer_.session_id;

  // Reset for the next session.
  engine_.reset();
  front_end_.clear();
  return out;
}

}  // namespace cgctx::core
