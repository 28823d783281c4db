// Model cache of the benchmark: the production-scale suite the repository
// benches use (full Table 2 lab plan, augmentation x2), trained once per
// checkout before the first measured run so every run's set-up loads the
// same models instead of sometimes training them.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

namespace {

core::TrainingBudget budget() {
  core::TrainingBudget b;
  b.lab_scale = 1.0;
  b.gameplay_seconds = 180.0;
  b.augment_copies = 2;
  return b;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

}  // namespace

core::ModelSuite load_models(const std::filesystem::path& dir) {
  core::ModelSuite suite;
  suite.title = core::TitleClassifier::deserialize(read_file(dir / "title.model"));
  suite.stage = core::StageClassifier::deserialize(read_file(dir / "stage.model"));
  suite.pattern =
      core::PatternInferrer::deserialize(read_file(dir / "pattern.model"));
  return suite;
}

void warm_models(const std::filesystem::path& dir) {
  try {
    (void)load_models(dir);
    return;
  } catch (const std::exception&) {
    // Missing or stale: train below.
  }
  std::fprintf(stderr, "perfbench: training the model suite into %s\n",
               dir.string().c_str());
  const double start = now_seconds();
  const core::ModelSuite suite = core::train_model_suite(budget());
  std::filesystem::create_directories(dir);
  write_file(dir / "title.model", suite.title.serialize());
  write_file(dir / "stage.model", suite.stage.serialize());
  write_file(dir / "pattern.model", suite.pattern.serialize());
  std::fprintf(stderr, "perfbench: trained in %.1f s\n", now_seconds() - start);
}

}  // namespace perfbench
