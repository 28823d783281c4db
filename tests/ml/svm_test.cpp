#include "ml/svm.hpp"

#include <gtest/gtest.h>
#include "../rejection_message.hpp"

namespace cgctx::ml {
namespace {

Dataset linear_blobs(std::size_t per_class, std::uint64_t seed) {
  Dataset data({"x", "y"}, {"neg", "pos"});
  Rng rng(seed);
  for (std::size_t i = 0; i < per_class; ++i) {
    data.add({rng.normal(-2.5, 0.8), rng.normal(-2.5, 0.8)}, 0);
    data.add({rng.normal(2.5, 0.8), rng.normal(2.5, 0.8)}, 1);
  }
  return data;
}

/// Concentric rings: inner = class 0, outer = class 1. Not linearly
/// separable; RBF should solve it.
Dataset rings(std::size_t per_class, std::uint64_t seed) {
  Dataset data({"x", "y"}, {"inner", "outer"});
  Rng rng(seed);
  for (std::size_t i = 0; i < per_class; ++i) {
    const double theta = rng.uniform(0.0, 6.28318);
    const double r0 = rng.uniform(0.0, 1.0);
    const double r1 = rng.uniform(3.0, 4.0);
    data.add({r0 * std::cos(theta), r0 * std::sin(theta)}, 0);
    data.add({r1 * std::cos(theta), r1 * std::sin(theta)}, 1);
  }
  return data;
}

TEST(Svm, LinearKernelSolvesLinearProblem) {
  const Dataset data = linear_blobs(40, 1);
  Svm svm(SvmParams{.c = 1.0, .kernel = KernelType::kLinear});
  svm.fit(data);
  EXPECT_GT(svm.score(data), 0.97);
}

TEST(Svm, RbfKernelSolvesRings) {
  const Dataset data = rings(60, 2);
  Svm svm(SvmParams{.c = 5.0, .kernel = KernelType::kRbf, .gamma = 1.0});
  svm.fit(data);
  EXPECT_GT(svm.score(data), 0.97);
}

TEST(Svm, LinearKernelFailsOnRings) {
  const Dataset data = rings(60, 3);
  Svm svm(SvmParams{.c = 1.0, .kernel = KernelType::kLinear});
  svm.fit(data);
  // A linear separator cannot beat ~chance+margin on concentric rings.
  EXPECT_LT(svm.score(data), 0.8);
}

TEST(Svm, PolyKernelWorksOnBlobs) {
  const Dataset data = linear_blobs(30, 4);
  Svm svm(SvmParams{.c = 1.0, .kernel = KernelType::kPoly, .poly_degree = 2});
  svm.fit(data);
  EXPECT_GT(svm.score(data), 0.9);
}

TEST(Svm, MulticlassOneVsRest) {
  Dataset data({"x", "y"}, {"a", "b", "c"});
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    data.add({rng.normal(-4.0, 0.7), rng.normal(0.0, 0.7)}, 0);
    data.add({rng.normal(4.0, 0.7), rng.normal(0.0, 0.7)}, 1);
    data.add({rng.normal(0.0, 0.7), rng.normal(5.0, 0.7)}, 2);
  }
  Svm svm(SvmParams{.c = 2.0, .kernel = KernelType::kRbf});
  svm.fit(data);
  EXPECT_GT(svm.score(data), 0.95);
  EXPECT_EQ(svm.predict({-4.0, 0.0}), 0);
  EXPECT_EQ(svm.predict({4.0, 0.0}), 1);
  EXPECT_EQ(svm.predict({0.0, 5.0}), 2);
}

TEST(Svm, ProbabilitiesSumToOne) {
  const Dataset data = linear_blobs(30, 6);
  Svm svm;
  svm.fit(data);
  const auto probs = svm.predict_proba({0.0, 0.0});
  double total = 0.0;
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Svm, SupportVectorsAreSubsetOfData) {
  const Dataset data = linear_blobs(50, 7);
  Svm svm(SvmParams{.c = 1.0, .kernel = KernelType::kLinear});
  svm.fit(data);
  EXPECT_GT(svm.support_vector_count(), 0u);
  // One-vs-rest trains 2 machines over 100 rows each.
  EXPECT_LE(svm.support_vector_count(), 2u * data.size());
}

TEST(Svm, WellSeparatedDataHasFewSupportVectors) {
  const Dataset data = linear_blobs(50, 8);
  Svm svm(SvmParams{.c = 1.0, .kernel = KernelType::kLinear});
  svm.fit(data);
  // Most points are far from the margin.
  EXPECT_LT(svm.support_vector_count(), data.size());
}

TEST(Svm, ThrowsOnEmptyFit) {
  Svm svm;
  EXPECT_THROW(svm.fit(Dataset{}), std::invalid_argument);
}

TEST(Svm, ThrowsOnPredictBeforeFit) {
  Svm svm;
  EXPECT_THROW((void)svm.predict({0.0, 0.0}), std::logic_error);
}

TEST(Svm, ThrowsOnWidthMismatch) {
  const Dataset data = linear_blobs(10, 9);
  Svm svm;
  svm.fit(data);
  EXPECT_THROW((void)svm.predict({0.0}), std::invalid_argument);
}

TEST(Svm, KernelNamesForReports) {
  EXPECT_STREQ(to_string(KernelType::kLinear), "linear");
  EXPECT_STREQ(to_string(KernelType::kRbf), "rbf");
  EXPECT_STREQ(to_string(KernelType::kPoly), "poly");
}

TEST(Svm, SerializeRoundTripPredictsIdentically) {
  const Dataset data = linear_blobs(30, 11);
  Svm svm(SvmParams{.c = 2.0, .kernel = KernelType::kRbf});
  svm.fit(data);
  const Svm copy = Svm::deserialize(svm.serialize());
  EXPECT_EQ(copy.support_vector_count(), svm.support_vector_count());
  Rng rng(12);
  for (int i = 0; i < 60; ++i) {
    const FeatureRow row{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const auto pa = svm.predict_proba(row);
    const auto pb = copy.predict_proba(row);
    for (std::size_t c = 0; c < pa.size(); ++c) EXPECT_DOUBLE_EQ(pa[c], pb[c]);
  }
}

TEST(Svm, DeserializeRejectsGarbage) {
  EXPECT_THROW(Svm::deserialize("not_svm 1 2 3"), std::invalid_argument);
  EXPECT_THROW(Svm::deserialize("svm 1 2 0.5\n1 9 0 3\n"),
               std::invalid_argument);
}

/// Property sweep: regularization C values all learn the separable case.
class SvmCSweep : public ::testing::TestWithParam<double> {};

TEST_P(SvmCSweep, SeparableBlobsLearnAcrossC) {
  const Dataset data = linear_blobs(30, 10);
  Svm svm(SvmParams{.c = GetParam(), .kernel = KernelType::kRbf});
  svm.fit(data);
  EXPECT_GT(svm.score(data), 0.9) << "C=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CValues, SvmCSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 5.0, 20.0));

using testing_support::rejection_message;

TEST(Svm, DeserializeRejectsOversizedCounts) {
  const std::string params = "1 1 0 3\n";
  for (const std::string& text :
       {"svm 18446744073709551615 2 0.5\n" + params,
        "svm 4000000 2 0.5\n" + params,
        "svm 1 18446744073709551615 0.5\n" + params,
        // Each support vector needs a coefficient and 2 values.
        "svm 1 2 0.5\n" + params + "machine 18446744073709551615 0.1\n",
        "svm 1 2 0.5\n" + params + "machine 4 0.1\n1 2 3\n"}) {
    SCOPED_TRACE(text);
    EXPECT_NE(rejection_message([&] { (void)Svm::deserialize(text); })
                  .find("bytes left"),
              std::string::npos);
  }
  EXPECT_NE(rejection_message([&] {
              (void)Svm::deserialize("svm -1 2 0.5\n" + params);
            }).find("expected an integer"),
            std::string::npos);
}

TEST(Svm, DeserializeRejectsNonFiniteValues) {
  const Dataset data = linear_blobs(20, 13);
  Svm svm;
  svm.fit(data);
  const std::string text = svm.serialize();
  // Replace the first support vector's coefficient (the first token of
  // the line after the first machine header) with NaN.
  const std::size_t machine = text.find("machine");
  const std::size_t line = text.find('\n', machine) + 1;
  const std::size_t end = text.find(' ', line);
  const std::string poisoned = text.substr(0, line) + "nan" + text.substr(end);
  EXPECT_NE(rejection_message([&] { (void)Svm::deserialize(poisoned); })
                .find("finite number"),
            std::string::npos);
  EXPECT_NE(rejection_message([&] {
              (void)Svm::deserialize("svm 0 2 inf\n1 1 0 3\n");
            }).find("finite number"),
            std::string::npos);
}

}  // namespace
}  // namespace cgctx::ml
