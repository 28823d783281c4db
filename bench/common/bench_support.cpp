#include "bench_support.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

namespace cgctx::bench {

namespace {

/// Bump when the simulator or feature pipeline changes in a way that
/// invalidates previously trained models.
constexpr const char* kCacheEpoch = "cgctx-bench-v7";

const std::filesystem::path kCacheDir = "cgctx_bench_model_cache";

/// CGCTX_BENCH_SMOKE=1 trades model quality for training time (CI runs
/// the benches as a smoke test, not for numbers). Smoke models live in
/// their own cache subdirectory and carry their budget in the version
/// string, so the two modes can never load each other's models.
bool smoke_mode() {
  const char* env = std::getenv("CGCTX_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

core::TrainingBudget bench_budget() {
  core::TrainingBudget budget;
  if (smoke_mode()) {
    budget.lab_scale = 0.12;
    budget.gameplay_seconds = 150.0;
    budget.augment_copies = 1;
  } else {
    budget.lab_scale = 1.0;
    budget.gameplay_seconds = 180.0;
    budget.augment_copies = 2;
  }
  return budget;
}

std::filesystem::path cache_dir() {
  return smoke_mode() ? kCacheDir / "smoke" : kCacheDir;
}

std::string forest_signature(const ml::RandomForestParams& p) {
  std::ostringstream os;
  os << p.n_trees << 'x' << p.max_depth << 'x' << p.min_samples_split << 'x'
     << p.min_samples_leaf << 'x' << p.max_features << 'x'
     << (p.bootstrap ? 1 : 0) << 'x' << p.seed;
  return os.str();
}

/// Cache version string: epoch plus every forest hyperparameter of the
/// three default classifiers, so a params change invalidates stale cached
/// models instead of silently loading them.
std::string cache_version() {
  const core::TrainingBudget budget = bench_budget();
  std::ostringstream os;
  os << kCacheEpoch
     << "|budget=" << budget.lab_scale << 'x' << budget.gameplay_seconds << 'x'
     << budget.augment_copies
     << "|title=" << forest_signature(core::TitleClassifierParams{}.forest)
     << "|stage=" << forest_signature(core::StageClassifierParams{}.forest)
     << "|pattern=" << forest_signature(core::PatternInferrerParams{}.forest);
  return os.str();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return in ? os.str() : std::string{};
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

core::ModelSuite train_and_cache() {
  std::fprintf(stderr, "[bench] training %s models (cached in %s)...\n",
               smoke_mode() ? "smoke-scale" : "production-scale",
               cache_dir().string().c_str());
  const auto start = std::chrono::steady_clock::now();
  const core::TrainingBudget budget = bench_budget();
  double title_acc = 0.0;
  double stage_acc = 0.0;
  double pattern_acc = 0.0;
  core::ModelSuite suite =
      core::train_model_suite(budget, &title_acc, &stage_acc, &pattern_acc);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  std::fprintf(stderr,
               "[bench] trained in %llds (held-out: title %.1f%%, stage "
               "%.1f%%, pattern %.1f%%)\n",
               static_cast<long long>(elapsed), 100 * title_acc,
               100 * stage_acc, 100 * pattern_acc);

  std::error_code ec;
  const std::filesystem::path dir = cache_dir();
  std::filesystem::create_directories(dir, ec);
  if (!ec) {
    const bool ok = write_file(dir / "version", cache_version()) &&
                    write_file(dir / "title.model",
                               suite.title.serialize()) &&
                    write_file(dir / "stage.model",
                               suite.stage.serialize()) &&
                    write_file(dir / "pattern.model",
                               suite.pattern.serialize());
    if (!ok)
      std::fprintf(stderr, "[bench] warning: model cache write failed\n");
  }
  return suite;
}

/// How long each model's load from the cache took, by model name.
std::map<std::string, double> g_cache_load_ms;

template <typename Model>
Model load_cached(const std::filesystem::path& dir, const std::string& name) {
  const std::string text = read_file(dir / (name + ".model"));
  const auto start = std::chrono::steady_clock::now();
  Model model = Model::deserialize(text);
  g_cache_load_ms[name] = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  return model;
}

core::ModelSuite load_or_train() {
  const std::filesystem::path dir = cache_dir();
  if (read_file(dir / "version") == cache_version()) {
    try {
      core::ModelSuite suite;
      suite.title = load_cached<core::TitleClassifier>(dir, "title");
      suite.stage = load_cached<core::StageClassifier>(dir, "stage");
      suite.pattern = load_cached<core::PatternInferrer>(dir, "pattern");
      std::fprintf(stderr, "[bench] loaded cached models from %s\n",
                   dir.string().c_str());
      return suite;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[bench] cache unreadable (%s); retraining\n",
                   e.what());
    }
  }
  return train_and_cache();
}

}  // namespace

const core::ModelSuite& bench_models() {
  static const core::ModelSuite suite = load_or_train();
  return suite;
}

double cache_load_ms(const std::string& name) {
  (void)bench_models();
  const auto it = g_cache_load_ms.find(name);
  return it != g_cache_load_ms.end()
             ? it->second
             : std::numeric_limits<double>::quiet_NaN();
}

std::string cached_model_text(const std::string& name) {
  (void)bench_models();  // the first call writes the cache
  return read_file(cache_dir() / (name + ".model"));
}

FleetMeasurement run_fleet(const FleetRunOptions& options) {
  const core::ModelSuite& suite = bench_models();
  const core::RealtimePipeline pipeline(suite.models(),
                                        core::default_pipeline_params());
  sim::FleetOptions fleet_options;
  fleet_options.seed = options.seed;
  fleet_options.duration_scale = options.duration_scale;
  sim::FleetSampler sampler(fleet_options);
  const sim::SessionGenerator generator;

  FleetMeasurement out;
  for (std::size_t i = 0; i < options.sessions; ++i) {
    const sim::SessionSpec spec = sampler.sample();
    const sim::LabeledSession session = generator.generate_slots_only(spec);
    const core::SessionReport report = pipeline.process_session(session);
    ++out.total_sessions;

    const bool in_catalog =
        static_cast<std::size_t>(spec.title) < sim::kNumPopularTitles;
    if (in_catalog) {
      ++out.catalog_sessions;
      if (report.title.label) {
        ++out.confident;
        if (report.title.class_name == sim::info(spec.title).name)
          ++out.confident_correct;
      }
    }

    if (report.title.label) {
      // Keep only field-validated rows in the per-title view, as the
      // paper validates against server logs before reporting.
      if (in_catalog && report.title.class_name == sim::info(spec.title).name)
        out.by_title.add(telemetry::summarize(report, report.title.class_name));
    } else if (report.pattern) {
      out.by_pattern.add(telemetry::summarize(
          report, core::pattern_class_names()[static_cast<std::size_t>(
                      report.pattern->label)]));
    }
  }
  return out;
}

std::string bar(double value, double max_value, std::size_t width) {
  const double fraction =
      max_value > 0.0 ? std::min(1.0, value / max_value) : 0.0;
  const auto filled = static_cast<std::size_t>(fraction * width);
  std::string out(filled, '#');
  out.resize(width, ' ');
  return out;
}

std::string pct(double fraction) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%5.1f%%", 100.0 * fraction);
  return buf;
}

}  // namespace cgctx::bench
