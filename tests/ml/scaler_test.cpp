#include "ml/scaler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include "../rejection_message.hpp"

namespace cgctx::ml {
namespace {

Dataset two_column_data() {
  Dataset data({"a", "b"}, {"c0", "c1"});
  data.add({1.0, 100.0}, 0);
  data.add({2.0, 200.0}, 0);
  data.add({3.0, 300.0}, 1);
  data.add({4.0, 400.0}, 1);
  return data;
}

TEST(StandardScaler, CentersAndScales) {
  StandardScaler scaler;
  const Dataset data = two_column_data();
  scaler.fit(data);
  EXPECT_NEAR(scaler.means()[0], 2.5, 1e-12);
  EXPECT_NEAR(scaler.means()[1], 250.0, 1e-12);

  const Dataset transformed = scaler.transform(data);
  // Transformed columns have mean 0 and unit variance.
  for (std::size_t j = 0; j < 2; ++j) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < transformed.size(); ++i) {
      sum += transformed.row(i)[j];
      sum_sq += transformed.row(i)[j] * transformed.row(i)[j];
    }
    EXPECT_NEAR(sum, 0.0, 1e-9);
    EXPECT_NEAR(sum_sq / 4.0, 1.0, 1e-9);
  }
}

TEST(StandardScaler, ConstantColumnStaysFinite) {
  Dataset data({"const", "var"}, {"c"});
  data.add({5.0, 1.0}, 0);
  data.add({5.0, 3.0}, 0);
  StandardScaler scaler;
  scaler.fit(data);
  const FeatureRow out = scaler.transform(FeatureRow{5.0, 2.0});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_TRUE(std::isfinite(out[1]));
}

TEST(StandardScaler, ThrowsBeforeFit) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.transform(FeatureRow{1.0}), std::logic_error);
}

TEST(StandardScaler, ThrowsOnWidthMismatch) {
  StandardScaler scaler;
  scaler.fit(two_column_data());
  EXPECT_THROW(scaler.transform(FeatureRow{1.0}), std::invalid_argument);
}

TEST(StandardScaler, ThrowsOnEmptyDataset) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.fit(Dataset{}), std::invalid_argument);
}

TEST(StandardScaler, SerializeRoundTrip) {
  StandardScaler scaler;
  scaler.fit(two_column_data());
  const StandardScaler copy = StandardScaler::deserialize(scaler.serialize());
  const FeatureRow row{2.2, 333.0};
  const FeatureRow a = scaler.transform(row);
  const FeatureRow b = copy.transform(row);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) EXPECT_DOUBLE_EQ(a[j], b[j]);
}

TEST(StandardScaler, DeserializeRejectsGarbage) {
  EXPECT_THROW(StandardScaler::deserialize("nonsense 2"),
               std::invalid_argument);
  EXPECT_THROW(StandardScaler::deserialize("scaler 4\n1 2\n"),
               std::invalid_argument);
}

using testing_support::rejection_message;

TEST(StandardScaler, DeserializeRejectsOversizedCounts) {
  // "scaler 20000000" used to allocate ~310 MB before failing.
  for (const char* text : {"scaler 18446744073709551615\n", "scaler 20000000\n",
                           "scaler 3\n1 2\n"}) {
    SCOPED_TRACE(text);
    EXPECT_NE(rejection_message([&] {
                (void)StandardScaler::deserialize(text);
              }).find("bytes left"),
              std::string::npos);
  }
  EXPECT_NE(rejection_message([] {
              (void)StandardScaler::deserialize("scaler -1\n");
            }).find("expected an integer"),
            std::string::npos);
}

TEST(StandardScaler, DeserializeRejectsNonFiniteValues) {
  for (const char* text : {"scaler 1\nnan 1\n", "scaler 1\n0 inf\n"}) {
    SCOPED_TRACE(text);
    EXPECT_NE(rejection_message([&] {
                (void)StandardScaler::deserialize(text);
              }).find("finite number"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace cgctx::ml
