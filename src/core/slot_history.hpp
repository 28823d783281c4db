// Per-slot history, collected on request.
//
// A SessionReport carries session aggregates only; the engine keeps no
// per-slot records, so a live session's state does not grow with its
// length. A caller that wants every slot's SlotRecord (a per-second
// timeline, an equivalence check) installs a SlotHistory's hook on the
// entry point that produces its reports, which hands the hook each slot
// as it closes, tagged with the session's observer id.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/session_engine.hpp"

namespace cgctx::core {

class SlotHistory {
 public:
  SlotHistory()
      : hook_([this](std::uint64_t session_id, const SlotRecord& slot) {
          sessions_[session_id].push_back(slot);
        }) {}

  /// Non-copyable/movable: the hook refers to this collector.
  SlotHistory(const SlotHistory&) = delete;
  SlotHistory& operator=(const SlotHistory&) = delete;

  /// The hook to install; it must not be called concurrently (every
  /// entry point calls it from one thread at a time) and the collector
  /// must outlive every copy of it that an entry point still calls.
  [[nodiscard]] const SlotCallback& hook() const { return hook_; }

  /// Collected slots by session id (sessions that closed no slot are
  /// absent), each in slot order.
  [[nodiscard]] const std::map<std::uint64_t, std::vector<SlotRecord>>&
  sessions() const {
    return sessions_;
  }

  /// Removes and returns every collected history, in ascending session
  /// id (for the probes: the order their sessions started).
  std::vector<std::vector<SlotRecord>> take_all() {
    std::vector<std::vector<SlotRecord>> out;
    out.reserve(sessions_.size());
    for (auto& [id, slots] : sessions_) out.push_back(std::move(slots));
    sessions_.clear();
    return out;
  }

 private:
  std::map<std::uint64_t, std::vector<SlotRecord>> sessions_;
  SlotCallback hook_;
};

}  // namespace cgctx::core
