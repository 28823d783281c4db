// Compiled vs. reference forest inference (google-benchmark).
//
// The deployment's hot path is pure inference: a 500-tree title verdict
// per detected session and a 100-tree stage verdict per session-second
// (§4.2–4.3). This bench pins the single-row and batched predictions/
// second of ml::CompiledForest against the reference RandomForest walk,
// and counts heap allocations per prediction (a global operator new hook)
// to prove the compiled path allocates nothing: any allocation in a
// compiled single-row, batch or label bench fails the binary (exit 1).
// BM_ModelLoad* time the other end of a model's life: loading it from
// its cached text, and report the heap the loaded model keeps.
//
// Single-row latency is measured over a rotating pool of distinct rows:
// production never classifies the same flow-second twice, and repeating
// one row would let the branch predictor memorize the reference walk's
// entire descent path, flattering it far beyond deployment behavior.
// Both engines see the identical row sequence.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bench_support.hpp"
#include "core/launch_attributes.hpp"
#include "core/stage_classifier.hpp"
#include "core/title_classifier.hpp"
#include "core/transition_model.hpp"
#include "ml/compiled_forest.hpp"
#include "sim/session.hpp"

// --- Heap allocation counter -------------------------------------------
// Every global new is routed through malloc with a counter bump, so each
// benchmark can report exact allocations per operation. GCC flags
// free() inside a replaced operator delete as a mismatched pair; the
// pairing is consistent (new -> malloc, delete -> free), so the
// diagnostic is suppressed for this block.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

using namespace cgctx;

namespace {

/// Launch-attribute row of one generated session (title forest input).
ml::FeatureRow title_row(std::uint64_t seed) {
  sim::SessionGenerator generator;
  sim::SessionSpec spec;
  spec.title = static_cast<sim::GameTitle>(seed % sim::kNumPopularTitles);
  spec.gameplay_seconds = 10.0;
  spec.seed = seed;
  const sim::LabeledSession session = generator.generate(spec);
  return core::launch_attributes(session.packets, session.launch_begin);
}

/// Volumetric-attribute row a few slots into a session (stage input).
/// `variant` perturbs the slot volumetrics so a pool of these rows takes
/// distinct paths through the stage forest.
ml::FeatureRow stage_row(std::uint64_t variant = 0) {
  core::VolumetricTracker tracker;
  ml::FeatureRow attrs;
  const core::RawSlotVolumetrics slot{
      2'500'000 + 40'000 * (variant % 17), 1900 + 13 * (variant % 23),
      9'000 + 250 * (variant % 11), 95 + variant % 7};
  for (int i = 0; i < 8; ++i) attrs = tracker.push(slot);
  return attrs;
}

/// Rotating pool of distinct single rows (see file comment). A power of
/// two so the cursor wraps with a mask, not a divide.
constexpr std::size_t kRowPool = 64;
static_assert((kRowPool & (kRowPool - 1)) == 0);

std::vector<ml::FeatureRow> title_pool() {
  std::vector<ml::FeatureRow> rows;
  rows.reserve(kRowPool);
  for (std::size_t i = 0; i < kRowPool; ++i) rows.push_back(title_row(i));
  return rows;
}

std::vector<ml::FeatureRow> stage_pool() {
  std::vector<ml::FeatureRow> rows;
  rows.reserve(kRowPool);
  for (std::size_t i = 0; i < kRowPool; ++i) rows.push_back(stage_row(i));
  return rows;
}

/// Set when a zero-allocation bench observed a heap allocation; main()
/// turns it into a non-zero exit so CI fails on an allocating hot path.
bool g_zero_alloc_violation = false;

/// Runs `fn` under the benchmark loop and reports allocations per op.
template <typename Fn>
void run_counted(benchmark::State& state, Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) fn();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs/op"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(after - before) /
                static_cast<double>(state.iterations());
}

/// run_counted plus the compiled engine's contract: any allocation fails
/// the bench (and, via g_zero_alloc_violation, the whole binary).
template <typename Fn>
void run_zero_alloc(benchmark::State& state, Fn&& fn) {
  run_counted(state, std::forward<Fn>(fn));
  if (state.counters["allocs/op"] != 0.0) {
    g_zero_alloc_violation = true;
    state.SkipWithError("compiled inference allocated");
  }
}

// --- Title forest: 500 trees, depth 10 ---------------------------------

void BM_TitleReference(benchmark::State& state) {
  const ml::RandomForest forest =
      bench::bench_models().title.reference_forest();
  const std::vector<ml::FeatureRow> rows = title_pool();
  std::vector<double> out(forest.num_classes());
  std::size_t next = 0;
  run_counted(state, [&] {
    forest.predict_proba_into(rows[next], out);
    next = (next + 1) & (kRowPool - 1);
    benchmark::DoNotOptimize(out.data());
  });
}
BENCHMARK(BM_TitleReference);

void BM_TitleCompiled(benchmark::State& state) {
  const ml::CompiledForest& compiled = bench::bench_models().title.compiled();
  const std::vector<ml::FeatureRow> rows = title_pool();
  std::vector<double> out(compiled.num_classes());
  std::size_t next = 0;
  run_zero_alloc(state, [&] {
    compiled.predict_proba_into(rows[next], out);
    next = (next + 1) & (kRowPool - 1);
    benchmark::DoNotOptimize(out.data());
  });
}
BENCHMARK(BM_TitleCompiled);

// --- Stage forest: 100 trees, depth 10 ---------------------------------

void BM_StageReference(benchmark::State& state) {
  const ml::RandomForest forest =
      bench::bench_models().stage.reference_forest();
  const std::vector<ml::FeatureRow> rows = stage_pool();
  std::vector<double> out(forest.num_classes());
  std::size_t next = 0;
  run_counted(state, [&] {
    forest.predict_proba_into(rows[next], out);
    next = (next + 1) & (kRowPool - 1);
    benchmark::DoNotOptimize(out.data());
  });
}
BENCHMARK(BM_StageReference);

void BM_StageCompiled(benchmark::State& state) {
  const ml::CompiledForest& compiled = bench::bench_models().stage.compiled();
  const std::vector<ml::FeatureRow> rows = stage_pool();
  std::vector<double> out(compiled.num_classes());
  std::size_t next = 0;
  run_zero_alloc(state, [&] {
    compiled.predict_proba_into(rows[next], out);
    next = (next + 1) & (kRowPool - 1);
    benchmark::DoNotOptimize(out.data());
  });
}
BENCHMARK(BM_StageCompiled);

/// The label-only single-row walk (StageClassifier::classify, a slot
/// pushed on its own), on BM_StageCompiled's rows. trees/row: the trees
/// it walks per row over the pool, stopping after the tree block that
/// decides the label.
void BM_StageLabelCompiled(benchmark::State& state) {
  const ml::CompiledForest& compiled = bench::bench_models().stage.compiled();
  const std::vector<ml::FeatureRow> rows = stage_pool();
  std::vector<double> scratch(compiled.num_classes());
  std::size_t next = 0;
  run_zero_alloc(state, [&] {
    benchmark::DoNotOptimize(compiled.predict(rows[next], scratch));
    next = (next + 1) & (kRowPool - 1);
  });
  std::size_t walked = 0;
  ml::Label label = 0;
  for (const ml::FeatureRow& row : rows)
    walked += compiled.predict_rows_into(row, scratch, std::span(&label, 1));
  state.counters["trees/row"] =
      static_cast<double>(walked) / static_cast<double>(rows.size());
}
BENCHMARK(BM_StageLabelCompiled);

// --- Tree-major batches: stage and pattern forests -----------------------
// RealtimePipeline::process_session classifies slots in batches of
// RealtimePipeline::kSlotBatch rows. Each batch holds distinct rows (the
// rotating-pool rule: no flow-second is classified twice), so the
// tree-major walk cannot lean on repeated descent paths either.

constexpr std::size_t kBatch = 256;

/// kBatch distinct stage rows, packed row-major.
std::vector<double> stage_batch() {
  std::vector<double> rows;
  rows.reserve(kBatch * core::kNumVolumetricAttributes);
  for (std::size_t i = 0; i < kBatch; ++i) {
    const ml::FeatureRow row = stage_row(i);
    rows.insert(rows.end(), row.begin(), row.end());
  }
  return rows;
}

/// kBatch distinct transition-probability rows, packed row-major: each
/// from a sticky random stage sequence of its own length past the
/// pattern forest's transition floor.
std::vector<double> pattern_batch() {
  ml::Rng rng(41);
  std::vector<double> rows(kBatch * core::kNumTransitionAttributes);
  for (std::size_t i = 0; i < kBatch; ++i) {
    core::TransitionTracker tracker;
    ml::Label stage = core::kStageActive;
    const double stay = rng.uniform(0.6, 0.98);
    for (std::size_t slot = 0; slot < 150 + 3 * i; ++slot) {
      if (rng.next_double() > stay)
        stage = static_cast<ml::Label>(rng.next_below(core::kNumStageLabels));
      tracker.push(stage);
    }
    tracker.probabilities_into(std::span(
        rows.data() + i * core::kNumTransitionAttributes,
        core::kNumTransitionAttributes));
  }
  return rows;
}

/// One predict_proba_rows_into call over `rows` per op.
void run_batch(benchmark::State& state, const ml::CompiledForest& compiled,
               const std::vector<double>& rows) {
  std::vector<double> out(kBatch * compiled.num_classes());
  run_zero_alloc(state, [&] {
    compiled.predict_proba_rows_into(rows, out);
    benchmark::DoNotOptimize(out.data());
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}

/// One label-only predict_rows_into call over `rows` per op (the
/// StageClassifier::classify_rows path); trees/row is the trees walked
/// per row before its label was decided.
void run_label_batch(benchmark::State& state,
                     const ml::CompiledForest& compiled,
                     const std::vector<double>& rows) {
  std::vector<double> scratch(kBatch * compiled.num_classes());
  std::vector<ml::Label> labels(kBatch);
  std::size_t walked = 0;
  run_zero_alloc(state, [&] {
    walked = compiled.predict_rows_into(rows, scratch, labels);
    benchmark::DoNotOptimize(labels.data());
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  state.counters["trees/row"] =
      static_cast<double>(walked) / static_cast<double>(kBatch);
}

void BM_StageBatchCompiled(benchmark::State& state) {
  run_batch(state, bench::bench_models().stage.compiled(), stage_batch());
}
BENCHMARK(BM_StageBatchCompiled);

void BM_StageBatchLabels(benchmark::State& state) {
  run_label_batch(state, bench::bench_models().stage.compiled(),
                  stage_batch());
}
BENCHMARK(BM_StageBatchLabels);

/// The stage forest with its votes rewritten so no label is ever decided
/// early: trees 0-49 vote passive, trees 50-99 active, on every leaf. The
/// label walk checks every row from tree 50 on and retires none, which
/// bounds what the checks cost on top of the walk.
const ml::CompiledForest& undecided_forest() {
  static const ml::CompiledForest compiled = [] {
    const std::string text =
        bench::bench_models().stage.reference_forest().serialize();
    std::string out;
    std::size_t tree = 0;
    std::size_t begin = 0;
    while (begin < text.size()) {
      const std::size_t end = text.find('\n', begin);
      const std::string_view line(text.data() + begin, end - begin);
      if (line.starts_with("tree ")) ++tree;
      if (line.starts_with("leaf "))
        out += tree <= 50 ? "leaf 0 1 0" : "leaf 1 0 0";
      else
        out += line;
      out += '\n';
      begin = end + 1;
    }
    ml::RandomForestParams header;
    return ml::CompiledForest::parse(out, header);
  }();
  return compiled;
}

void BM_UndecidedBatchCompiled(benchmark::State& state) {
  run_batch(state, undecided_forest(), stage_batch());
}
BENCHMARK(BM_UndecidedBatchCompiled);

void BM_UndecidedBatchLabels(benchmark::State& state) {
  run_label_batch(state, undecided_forest(), stage_batch());
}
BENCHMARK(BM_UndecidedBatchLabels);

void BM_PatternBatchCompiled(benchmark::State& state) {
  run_batch(state, bench::bench_models().pattern.compiled(), pattern_batch());
}
BENCHMARK(BM_PatternBatchCompiled);

// --- Batched title predictions -----------------------------------------
// predict_rows packs its rows into one buffer and walks tree-major.

std::vector<ml::FeatureRow> title_batch() {
  std::vector<ml::FeatureRow> rows;
  rows.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i)
    rows.push_back(title_row(100 + i % 16));
  return rows;
}

void BM_TitleBatchReference(benchmark::State& state) {
  const ml::RandomForest forest =
      bench::bench_models().title.reference_forest();
  const std::vector<ml::FeatureRow> rows = title_batch();
  std::vector<ml::Label> out(rows.size());
  std::vector<double> scratch(forest.num_classes());
  run_counted(state, [&] {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      forest.predict_proba_into(rows[i], scratch);
      out[i] = static_cast<ml::Label>(
          std::max_element(scratch.begin(), scratch.end()) - scratch.begin());
    }
    benchmark::DoNotOptimize(out.data());
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_TitleBatchReference);

void BM_TitleBatchCompiled(benchmark::State& state) {
  const ml::CompiledForest& compiled = bench::bench_models().title.compiled();
  const std::vector<ml::FeatureRow> rows = title_batch();
  std::vector<ml::Label> out(rows.size());
  run_counted(state, [&] {
    compiled.predict_rows(rows, out);
    benchmark::DoNotOptimize(out.data());
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_TitleBatchCompiled);

// --- Model loading -------------------------------------------------------
// A probe restart loads all three forests before its first packet. Each
// bench deserializes (and compiles) one model from the bench model cache's
// text; bytes/s is the parse rate over that text. model_heap_bytes is what
// one loaded model keeps on the heap: glibc's in-use bytes (mallinfo2
// uordblks + hblkhd) with the model alive, minus the same reading before
// its load. The repeated loads reuse heap the previous one freed, so
// first_load_ms reports the process's first load of the model as well,
// timed once: bench_models()'s load from the cache, or, when the suite
// was trained in this process, the bench's own first load.

/// Heap bytes in use: allocated arena chunks plus mmapped blocks.
std::int64_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

template <typename Model>
void run_model_load(benchmark::State& state, const char* name) {
  const std::string text = bench::cached_model_text(name);
  static const double first_load_ms = [&] {
    const double cached = bench::cache_load_ms(name);
    if (!std::isnan(cached)) return cached;
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(Model::deserialize(text));
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }();
  state.counters["first_load_ms"] = first_load_ms;
  {
    const std::int64_t before = heap_in_use();
    const Model model = Model::deserialize(text);
    state.counters["model_heap_bytes"] =
        static_cast<double>(heap_in_use() - before);
  }
  run_counted(state, [&] {
    Model model = Model::deserialize(text);
    benchmark::DoNotOptimize(model);
  });
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

void BM_ModelLoadTitle(benchmark::State& state) {
  run_model_load<core::TitleClassifier>(state, "title");
}
BENCHMARK(BM_ModelLoadTitle)->Unit(benchmark::kMillisecond);

void BM_ModelLoadStage(benchmark::State& state) {
  run_model_load<core::StageClassifier>(state, "stage");
}
BENCHMARK(BM_ModelLoadStage)->Unit(benchmark::kMillisecond);

void BM_ModelLoadPattern(benchmark::State& state) {
  run_model_load<core::PatternInferrer>(state, "pattern");
}
BENCHMARK(BM_ModelLoadPattern)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_zero_alloc_violation) {
    std::fprintf(stderr,
                 "FAIL: a compiled inference bench performed heap "
                 "allocations\n");
    return 1;
  }
  return 0;
}
