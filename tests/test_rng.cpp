#include "tensor/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace evfl::tensor {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float v = rng.normal(2.0f, 3.0f);
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, IndexBounds) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
  EXPECT_THROW(rng.index(0), Error);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, LogUniformRangeAndValidation) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.log_uniform(1.5f, 10.6f);
    EXPECT_GE(v, 1.5f * 0.999f);
    EXPECT_LE(v, 10.6f * 1.001f);
  }
  EXPECT_THROW(rng.log_uniform(0.0f, 1.0f), Error);
  EXPECT_THROW(rng.log_uniform(2.0f, 1.0f), Error);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(17);
  const auto perm = rng.permutation(100);
  EXPECT_EQ(perm.size(), 100u);
  std::set<std::size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

TEST(Rng, PermutationShuffles) {
  Rng rng(19);
  const auto perm = rng.permutation(50);
  std::vector<std::size_t> sorted(perm);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NE(perm, sorted);  // astronomically unlikely to be sorted
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.split();
  // The child stream should not replay the parent's continuation.
  Rng parent_copy(23);
  Rng child_copy = parent_copy.split();
  EXPECT_EQ(child.uniform(0, 1), child_copy.uniform(0, 1));  // deterministic
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform(0, 1) == child.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Splitmix64, KnownAnswers) {
  // Reference values of the splitmix64 finalizer; every fault, adversary,
  // sampling and fleet-seed decision is derived from it.
  EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(splitmix64(1), 0x910A2DEC89025CC1ull);
}

}  // namespace
}  // namespace evfl::tensor
