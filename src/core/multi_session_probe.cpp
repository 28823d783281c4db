#include "core/multi_session_probe.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cgctx::core {

MultiSessionProbe::MultiSessionProbe(PipelineModels models,
                                     MultiSessionProbeParams params,
                                     ReportCallback on_report,
                                     SessionEventCallback on_event,
                                     SlotCallback on_slot)
    : models_(models),
      params_(std::move(params)),
      on_report_(std::move(on_report)),
      on_event_(std::move(on_event)),
      on_slot_(std::move(on_slot)),
      front_end_(params_.pipeline.detector, params_.flow_idle_timeout) {
  if (models_.title == nullptr || models_.stage == nullptr ||
      models_.pattern == nullptr)
    throw std::invalid_argument("MultiSessionProbe: all models are required");
}

std::unique_ptr<SessionEngine> MultiSessionProbe::acquire_engine() {
  if (pool_.empty()) {
    auto engine = std::make_unique<SessionEngine>(models_, &params_.pipeline);
    engine->set_metrics(metrics_);
    engine->set_title_window_pool(&windows_);
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
  std::optional<Session> session = sessions_.erase(key);
  if (!session) return;
  ++reports_;
  if (stats_ != nullptr) stats_->count_report();
  const SessionReport& report = session->engine->finish(session->observer);
  if (on_report_) on_report_(report);
  release_engine(std::move(session->engine));
}

void MultiSessionProbe::retire_sorted(std::vector<net::FiveTuple>& keys) {
  std::sort(keys.begin(), keys.end());
  for (const net::FiveTuple& key : keys) retire(key);
}

void MultiSessionProbe::push_candidate(const net::PacketRecord& pkt) {
  // The gate is orientation-independent, so push() ran it on the wire
  // tuple; only candidates pay for canonical(). Everything below sees
  // the candidate sub-stream only.
  const net::FiveTuple key = pkt.tuple.canonical();

  if (!saw_packet_) {
    saw_packet_ = true;
    last_sweep_ = pkt.timestamp;
  }

  // Periodic idle sweep, driven by candidate packet time: retire silent
  // sessions and evict idle undetected flows (candidate-port churn that
  // never promotes must not grow the table without bound). Stats are
  // published here, after the retires, not per live-session packet.
  if (pkt.timestamp - last_sweep_ > 5 * net::kNanosPerSecond) {
    last_sweep_ = pkt.timestamp;
    std::vector<net::FiveTuple> idle;
    sessions_.for_each([&](const net::FiveTuple& key, const Session& live) {
      if (pkt.timestamp - live.last_seen > params_.session_idle_timeout)
        idle.push_back(key);
    });
    retire_sorted(idle);
    front_end_.evict_idle(pkt.timestamp);
    sync_stats();
  }

  if (Session* live = sessions_.find(key)) {
    live->engine->on_packet(pkt, live->observer);
    live->last_seen = pkt.timestamp;
    return;
  }

  // Undetected candidate: the front-end accounts and buffers it. These
  // are rare (the detector promotes a gaming flow within seconds), so
  // they keep the lookback-drop and eviction counters current during a
  // candidate-port flood.
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
                      next_session_id_, on_slot_ ? &on_slot_ : nullptr};
  next_session_id_ += id_stride_;
  session.engine->start(promotion->flow_begin);
  session.engine->set_detection(promotion->detection, pkt.timestamp,
                                session.observer);
  front_end_.take(key, [&session](const net::PacketRecord& earlier) {
    session.engine->on_packet(earlier, session.observer);
  });
  sessions_.insert(key, std::move(session));
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
  stats_->set_title_windows(windows_.on_loan(), windows_.pooled());
}

void MultiSessionProbe::flush() {
  std::vector<net::FiveTuple> live;
  live.reserve(sessions_.size());
  sessions_.for_each([&live](const net::FiveTuple& key, const Session&) {
    live.push_back(key);
  });
  retire_sorted(live);
  sync_stats();  // the live-session gauge must read 0 after a flush
}

}  // namespace cgctx::core
