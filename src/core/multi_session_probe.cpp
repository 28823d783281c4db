#include "core/multi_session_probe.hpp"

#include <stdexcept>
#include <utility>

namespace cgctx::core {

MultiSessionProbe::MultiSessionProbe(PipelineModels models,
                                     MultiSessionProbeParams params,
                                     ReportCallback on_report,
                                     SessionEventCallback on_event)
    : models_(models),
      params_(std::move(params)),
      on_report_(std::move(on_report)),
      on_event_(std::move(on_event)),
      front_end_(params_.pipeline.detector, params_.flow_idle_timeout) {
  if (models_.title == nullptr || models_.stage == nullptr ||
      models_.pattern == nullptr)
    throw std::invalid_argument("MultiSessionProbe: all models are required");
}

std::unique_ptr<SessionEngine> MultiSessionProbe::acquire_engine() {
  if (pool_.empty()) {
    auto engine = std::make_unique<SessionEngine>(models_, &params_.pipeline);
    engine->set_metrics(metrics_);
    return engine;
  }
  std::unique_ptr<SessionEngine> engine = std::move(pool_.back());
  pool_.pop_back();
  engine->set_metrics(metrics_);
  return engine;
}

void MultiSessionProbe::release_engine(std::unique_ptr<SessionEngine> engine) {
  engine->reset();
  pool_.push_back(std::move(engine));
}

void MultiSessionProbe::retire(const net::FiveTuple& key) {
  const auto it = sessions_.find(key);
  if (it == sessions_.end()) return;
  std::unique_ptr<SessionEngine> engine = std::move(it->second.engine);
  const SessionObserver observer = it->second.observer;
  sessions_.erase(it);
  ++reports_;
  if (stats_ != nullptr) stats_->count_report();
  const SessionReport& report = engine->finish(observer);
  if (on_report_) on_report_(report);
  release_engine(std::move(engine));
}

void MultiSessionProbe::push(const net::PacketRecord& pkt) {
  // Gate: a tuple outside every platform port range can never promote,
  // so its packet is counted and touches no other state, not even the
  // sweep clock. Everything below sees the candidate sub-stream only.
  const net::FiveTuple key = pkt.tuple.canonical();
  if (!CloudGamingFlowDetector::is_candidate(key)) {
    ++gated_;
    return;
  }

  if (!saw_packet_) {
    saw_packet_ = true;
    last_sweep_ = pkt.timestamp;
  }

  // Periodic idle sweep, driven by candidate packet time: retire silent
  // sessions and evict idle undetected flows (candidate-port churn that
  // never promotes must not grow the table without bound).
  if (pkt.timestamp - last_sweep_ > 5 * net::kNanosPerSecond) {
    last_sweep_ = pkt.timestamp;
    std::vector<net::FiveTuple> idle;
    for (const auto& [key, session] : sessions_)
      if (pkt.timestamp - session.last_seen > params_.session_idle_timeout)
        idle.push_back(key);
    for (const net::FiveTuple& key : idle) retire(key);
    front_end_.evict_idle(pkt.timestamp);
  }

  const auto live = sessions_.find(key);
  if (live != sessions_.end()) {
    live->second.engine->on_packet(pkt, live->second.observer);
    live->second.last_seen = pkt.timestamp;
    sync_stats();
    return;
  }

  // Undetected candidate: the front-end accounts and buffers it.
  const auto promotion = front_end_.observe(pkt, key);
  if (!promotion) {
    sync_stats();
    return;
  }

  // New session: acquire a pooled engine, start it at the flow's oldest
  // buffered packet and replay the flow's buffered packets into it. The
  // take() also drops the flow's table entry, so a live session's key is
  // never in the table and a later session on the tuple is re-detected
  // from fresh statistics.
  Session session;
  session.engine = acquire_engine();
  session.last_seen = pkt.timestamp;
  session.observer = {on_event_ ? &on_event_ : nullptr, trace_,
                      next_session_id_};
  next_session_id_ += id_stride_;
  session.engine->start(promotion->flow_begin);
  session.engine->set_detection(promotion->detection, pkt.timestamp,
                                session.observer);
  front_end_.take(key, [&session](const net::PacketRecord& earlier) {
    session.engine->on_packet(earlier, session.observer);
  });
  sessions_.emplace(key, std::move(session));
  if (stats_ != nullptr) stats_->count_session_started();
  sync_stats();
}

void MultiSessionProbe::sync_stats() {
  if (stats_ == nullptr) return;
  if (gated_ > gated_reported_) {
    stats_->add_gated(gated_ - gated_reported_);
    gated_reported_ = gated_;
  }
  const std::uint64_t evictions = front_end_.evictions();
  if (evictions > evictions_reported_) {
    stats_->add_evictions(evictions - evictions_reported_);
    evictions_reported_ = evictions;
  }
  const std::uint64_t lookback_drops = front_end_.lookback_drops();
  if (lookback_drops > lookback_drops_reported_) {
    stats_->add_lookback_drops(lookback_drops - lookback_drops_reported_);
    lookback_drops_reported_ = lookback_drops;
  }
  stats_->set_live_flows(front_end_.flows());
  stats_->set_live_sessions(sessions_.size());
}

void MultiSessionProbe::flush() {
  while (!sessions_.empty()) retire(sessions_.begin()->first);
  sync_stats();  // the live-session gauge must read 0 after a flush
}

}  // namespace cgctx::core
