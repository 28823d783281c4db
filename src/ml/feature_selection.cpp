#include "ml/feature_selection.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "ml/text_reader.hpp"

namespace cgctx::ml {

FeatureSelection::FeatureSelection(std::vector<std::size_t> kept_indices)
    : kept_(std::move(kept_indices)) {
  std::sort(kept_.begin(), kept_.end());
  kept_.erase(std::unique(kept_.begin(), kept_.end()), kept_.end());
  if (kept_.empty())
    throw std::invalid_argument("FeatureSelection: empty index set");
}

FeatureSelection FeatureSelection::from_importance(
    const ImportanceResult& importance, double min_drop) {
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < importance.mean_drop.size(); ++i)
    if (importance.mean_drop[i] > min_drop) kept.push_back(i);
  if (kept.empty())
    throw std::invalid_argument(
        "FeatureSelection: no feature exceeds the importance threshold");
  return FeatureSelection(std::move(kept));
}

FeatureSelection FeatureSelection::top_k(const ImportanceResult& importance,
                                         std::size_t k) {
  const std::size_t width = importance.mean_drop.size();
  if (width == 0)
    throw std::invalid_argument("FeatureSelection::top_k: empty importance");
  k = std::min(std::max<std::size_t>(k, 1), width);
  std::vector<std::size_t> order(width);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return importance.mean_drop[a] > importance.mean_drop[b];
                    });
  order.resize(k);
  return FeatureSelection(std::move(order));
}

FeatureRow FeatureSelection::project(const FeatureRow& row) const {
  if (row.size() <= kept_.back())
    throw std::invalid_argument("FeatureSelection: row narrower than indices");
  FeatureRow out;
  out.reserve(kept_.size());
  for (std::size_t i : kept_) out.push_back(row[i]);
  return out;
}

Dataset FeatureSelection::project(const Dataset& data) const {
  const std::vector<std::string> names =
      data.feature_names().empty() ? std::vector<std::string>{}
                                   : project(data.feature_names());
  Dataset out(names, data.class_names());
  for (std::size_t i = 0; i < data.size(); ++i)
    out.add(project(data.row(i)), data.label(i));
  return out;
}

std::vector<std::string> FeatureSelection::project(
    const std::vector<std::string>& names) const {
  if (names.size() <= kept_.back())
    throw std::invalid_argument(
        "FeatureSelection: name list narrower than indices");
  std::vector<std::string> out;
  out.reserve(kept_.size());
  for (std::size_t i : kept_) out.push_back(names[i]);
  return out;
}

std::string FeatureSelection::serialize() const {
  std::ostringstream os;
  os << "selection " << kept_.size();
  for (std::size_t i : kept_) os << ' ' << i;
  os << '\n';
  return os.str();
}

FeatureSelection FeatureSelection::deserialize(std::string_view text) {
  TextReader in(text, "FeatureSelection");
  in.expect("selection");
  std::vector<std::size_t> kept(in.count());
  for (std::size_t& i : kept) i = in.integer<std::size_t>();
  in.finish();
  return FeatureSelection(std::move(kept));
}

}  // namespace cgctx::ml
