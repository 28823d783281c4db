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
      table_(params_.flow_idle_timeout),
      detector_(params_.pipeline.detector) {
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
  // Drop any residual flow-table entry so a later session on the same
  // five-tuple starts its detection from fresh statistics instead of a
  // lifetime mean diluted by the idle gap. Done before erasing the
  // session: `key` may alias the session map node being destroyed.
  table_.erase(key);
  sessions_.erase(it);
  ++reports_;
  if (stats_ != nullptr) stats_->count_report();
  const SessionReport& report = engine->finish(observer);
  if (on_report_) on_report_(report);
  release_engine(std::move(engine));
}

void MultiSessionProbe::push(const net::PacketRecord& pkt) {
  if (!saw_packet_) {
    saw_packet_ = true;
    last_sweep_ = pkt.timestamp;
  }

  // Periodic idle sweep, driven by packet time: retire silent sessions
  // and evict idle undetected flows (cross traffic churns constantly; an
  // unswept table grows without bound at vantage-point scale).
  if (pkt.timestamp - last_sweep_ > 5 * net::kNanosPerSecond) {
    last_sweep_ = pkt.timestamp;
    std::vector<net::FiveTuple> idle;
    for (const auto& [key, session] : sessions_)
      if (pkt.timestamp - session.last_seen > params_.session_idle_timeout)
        idle.push_back(key);
    for (const net::FiveTuple& key : idle) retire(key);
    table_.evict_idle(pkt.timestamp);
  }

  const net::FiveTuple key = pkt.tuple.canonical();
  const auto live = sessions_.find(key);
  if (live != sessions_.end()) {
    live->second.engine->on_packet(pkt, live->second.observer);
    live->second.last_seen = pkt.timestamp;
    sync_stats();
    return;
  }

  // Undetected traffic: account it, and keep a lookback of the packets
  // detect() could ever promote.
  lookback_.observe(pkt, key);

  const net::FlowState& flow = table_.add(pkt);
  const auto detection = detector_.detect(flow);
  if (!detection) {
    sync_stats();
    return;
  }

  // New session: acquire a pooled engine and replay the flow's lookback
  // packets into it. The session clock starts at the flow's earliest
  // buffered packet — for flows detected within the lookback span (the
  // detector fires in 1–2 s) that is the flow's true first packet, so
  // the title window and slot boundaries match a from-the-start
  // analyzer's exactly. The promoted tuple leaves the shared table — its
  // packets bypass it from now on, and stale cumulative stats must not
  // greet a future session that reuses the tuple.
  const net::Timestamp flow_begin =
      lookback_.first_of(key).value_or(pkt.timestamp);

  Session session;
  session.engine = acquire_engine();
  session.last_seen = pkt.timestamp;
  session.observer = {on_event_ ? &on_event_ : nullptr, trace_,
                      next_session_id_};
  next_session_id_ += id_stride_;
  session.engine->start(flow_begin);
  session.engine->set_detection(*detection, pkt.timestamp, session.observer);
  // Replay and remove: a later session on this tuple, e.g. after flush(),
  // must not replay packets that belong to this one.
  lookback_.take(key, [&session](const net::PacketRecord& earlier) {
    session.engine->on_packet(earlier, session.observer);
  });
  sessions_.emplace(key, std::move(session));
  table_.erase(key);
  if (stats_ != nullptr) stats_->count_session_started();
  sync_stats();
}

void MultiSessionProbe::sync_stats() {
  if (stats_ == nullptr) return;
  const std::uint64_t evictions = table_.evictions();
  if (evictions > evictions_reported_) {
    stats_->add_evictions(evictions - evictions_reported_);
    evictions_reported_ = evictions;
  }
  const std::uint64_t lookback_drops = lookback_.drops();
  if (lookback_drops > lookback_drops_reported_) {
    stats_->add_lookback_drops(lookback_drops - lookback_drops_reported_);
    lookback_drops_reported_ = lookback_drops;
  }
  stats_->set_live_flows(table_.size());
  stats_->set_live_sessions(sessions_.size());
}

void MultiSessionProbe::flush() {
  while (!sessions_.empty()) retire(sessions_.begin()->first);
  sync_stats();  // the live-session gauge must read 0 after a flush
}

}  // namespace cgctx::core
