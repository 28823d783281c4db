#include "core/multi_session_probe.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cgctx::core {

namespace {

/// Pre-detection lookback: long enough to cover the detector's warmup so
/// a new session's engine still sees the very first launch packets.
constexpr net::Duration kLookback = 10 * net::kNanosPerSecond;

}  // namespace

MultiSessionProbe::MultiSessionProbe(PipelineModels models,
                                     MultiSessionProbeParams params,
                                     ReportCallback on_report,
                                     SessionEventCallback on_event)
    : models_(models),
      params_(std::move(params)),
      on_report_(std::move(on_report)),
      on_event_(std::move(on_event)),
      has_event_(static_cast<bool>(on_event_)),
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
  const std::uint64_t session_id = it->second.id;
  // Drop any residual flow-table entry so a later session on the same
  // five-tuple starts its detection from fresh statistics instead of a
  // lifetime mean diluted by the idle gap. Done before erasing the
  // session: `key` may alias the session map node being destroyed.
  table_.erase(key);
  sessions_.erase(it);
  ++reports_;
  if (stats_ != nullptr) stats_->count_report();
  const SessionReport* report = nullptr;
  if (trace_ != nullptr) {
    if (has_event_) {
      DualSink sink{&on_event_, trace_, session_id};
      report = &engine->finish(sink);
    } else {
      TraceSessionSink sink{trace_, session_id};
      report = &engine->finish(sink);
    }
    append_retired(*trace_, session_id, *report);
  } else if (has_event_) {
    EventSink sink{&on_event_};
    report = &engine->finish(sink);
  } else {
    NullSessionSink sink;
    report = &engine->finish(sink);
  }
  if (on_report_) on_report_(*report);
  release_engine(std::move(engine));
}

void MultiSessionProbe::feed(Session& session, const net::PacketRecord& pkt) {
  if (trace_ != nullptr) {
    if (has_event_) {
      DualSink sink{&on_event_, trace_, session.id};
      session.engine->on_packet(pkt, sink);
    } else {
      TraceSessionSink sink{trace_, session.id};
      session.engine->on_packet(pkt, sink);
    }
  } else if (has_event_) {
    EventSink sink{&on_event_};
    session.engine->on_packet(pkt, sink);
  } else {
    NullSessionSink sink;
    session.engine->on_packet(pkt, sink);
  }
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
    feed(live->second, pkt);
    live->second.last_seen = pkt.timestamp;
    sync_stats();
    return;
  }

  // Undetected traffic: account it, and keep a lookback of the packets
  // detect() could ever promote. A tuple that fails is_candidate() never
  // promotes, so its packets would never be replayed.
  if (CloudGamingFlowDetector::is_candidate(key)) lookback_.push_back(pkt);
  while (!lookback_.empty() &&
         pkt.timestamp - lookback_.front().timestamp > kLookback)
    lookback_.pop_front();
  if (lookback_.size() > kLookbackCap) {
    lookback_.pop_front();
    ++lookback_drops_;
  }

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
  const auto in_flow = [&key](const net::PacketRecord& earlier) {
    return earlier.tuple.canonical() == key;
  };
  const auto first = std::find_if(lookback_.begin(), lookback_.end(), in_flow);
  const net::Timestamp flow_begin =
      first != lookback_.end() ? first->timestamp : pkt.timestamp;

  Session session;
  session.engine = acquire_engine();
  session.last_seen = pkt.timestamp;
  session.id = next_session_id_;
  next_session_id_ += id_stride_;
  session.engine->start(flow_begin);
  session.engine->set_detection(*detection);
  if (has_event_ || trace_ != nullptr) {
    StreamEvent event;
    event.type = StreamEventType::kFlowDetected;
    event.at_seconds = net::duration_to_seconds(pkt.timestamp - flow_begin);
    event.detection = detection;
    if (has_event_) on_event_(event);
    if (trace_ != nullptr) append_trace(*trace_, session.id, event);
  }
  // Replay and remove in one pass (remove_if visits the buffer in order):
  // a later session on this tuple, e.g. after flush(), must not replay
  // packets that belong to this one.
  std::erase_if(lookback_, [&](const net::PacketRecord& earlier) {
    if (!in_flow(earlier)) return false;
    feed(session, earlier);
    return true;
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
  if (lookback_drops_ > lookback_drops_reported_) {
    stats_->add_lookback_drops(lookback_drops_ - lookback_drops_reported_);
    lookback_drops_reported_ = lookback_drops_;
  }
  stats_->set_live_flows(table_.size());
  stats_->set_live_sessions(sessions_.size());
}

void MultiSessionProbe::flush() {
  while (!sessions_.empty()) retire(sessions_.begin()->first);
  sync_stats();  // the live-session gauge must read 0 after a flush
}

}  // namespace cgctx::core
