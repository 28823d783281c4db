#include "ml/scaler.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ml/text_reader.hpp"

namespace cgctx::ml {

void StandardScaler::fit(const Dataset& data) {
  if (data.empty()) throw std::invalid_argument("StandardScaler: empty dataset");
  const std::size_t width = data.num_features();
  means_.assign(width, 0.0);
  scales_.assign(width, 0.0);
  const auto n = static_cast<double>(data.size());
  for (const FeatureRow& row : data.rows())
    for (std::size_t j = 0; j < width; ++j) means_[j] += row[j];
  for (double& m : means_) m /= n;
  for (const FeatureRow& row : data.rows())
    for (std::size_t j = 0; j < width; ++j) {
      const double d = row[j] - means_[j];
      scales_[j] += d * d;
    }
  for (double& s : scales_) {
    s = std::sqrt(s / n);
    if (s == 0.0) s = 1.0;
  }
}

FeatureRow StandardScaler::transform(const FeatureRow& row) const {
  if (!fitted()) throw std::logic_error("StandardScaler: transform before fit");
  if (row.size() != means_.size())
    throw std::invalid_argument("StandardScaler: width mismatch");
  FeatureRow out(row.size());
  for (std::size_t j = 0; j < row.size(); ++j)
    out[j] = (row[j] - means_[j]) / scales_[j];
  return out;
}

Dataset StandardScaler::transform(const Dataset& data) const {
  Dataset out(data.feature_names(), data.class_names());
  for (std::size_t i = 0; i < data.size(); ++i)
    out.add(transform(data.row(i)), data.label(i));
  return out;
}

std::string StandardScaler::serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << "scaler " << means_.size() << '\n';
  for (std::size_t j = 0; j < means_.size(); ++j)
    os << means_[j] << ' ' << scales_[j] << '\n';
  return os.str();
}

StandardScaler StandardScaler::deserialize(std::string_view text) {
  TextReader in(text, "StandardScaler");
  in.expect("scaler");
  const std::size_t width = in.count(2);  // two values per column
  StandardScaler out;
  out.means_.resize(width);
  out.scales_.resize(width);
  for (std::size_t j = 0; j < width; ++j) {
    out.means_[j] = in.real();
    out.scales_[j] = in.real();
  }
  in.finish();
  return out;
}

}  // namespace cgctx::ml
