// Shared smoke-scale model suite for the probe tests. One program-wide
// instance (inline function static) so multi_session_probe_test and
// sharded_probe_test, which link into one test binary, train it once.
#pragma once

#include <ostream>

#include "core/model_suite.hpp"
#include "obs/trace.hpp"

namespace cgctx::obs {

/// Readable gtest output for trace comparisons (one JSONL line per event).
inline void PrintTo(const TraceEvent& event, std::ostream* os) {
  *os << to_jsonl(event);
}

}  // namespace cgctx::obs

namespace cgctx::core {

inline const ModelSuite& probe_test_suite() {
  static const ModelSuite models = [] {
    TrainingBudget budget;
    budget.lab_scale = 0.12;
    budget.gameplay_seconds = 150.0;
    budget.augment_copies = 1;
    return train_model_suite(budget);
  }();
  return models;
}

}  // namespace cgctx::core
