// Unit + property tests for the sketch family (paper §5.1, Fig. 3).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sketch/bloom.h"
#include "sketch/countmin.h"
#include "sketch/hyperloglog.h"
#include "sketch/quantiles.h"
#include "sketch/spacesaving.h"

namespace taureau::sketch {
namespace {

std::string Key(uint64_t i) { return "key-" + std::to_string(i); }

// ---------------------------------------------------------------- CountMin

TEST(CountMinTest, NeverUndercounts) {
  CountMinSketch cm(4, 256);
  std::map<std::string, uint64_t> truth;
  Rng rng(1);
  ZipfGenerator zipf(500, 0.9);
  for (int i = 0; i < 20000; ++i) {
    const std::string k = Key(zipf.Next(&rng));
    cm.Add(k);
    ++truth[k];
  }
  for (const auto& [k, count] : truth) {
    EXPECT_GE(cm.EstimateCount(k), count) << k;
  }
}

TEST(CountMinTest, ErrorWithinBound) {
  CountMinSketch cm = CountMinSketch::FromErrorBounds(0.01, 0.01);
  std::map<std::string, uint64_t> truth;
  Rng rng(2);
  ZipfGenerator zipf(1000, 0.99);
  for (int i = 0; i < 50000; ++i) {
    const std::string k = Key(zipf.Next(&rng));
    cm.Add(k);
    ++truth[k];
  }
  // eps * N bound, checked per key (allowing the 1% delta to be generous).
  const uint64_t bound = uint64_t(0.01 * 50000) + 1;
  size_t violations = 0;
  for (const auto& [k, count] : truth) {
    if (cm.EstimateCount(k) - count > bound) ++violations;
  }
  EXPECT_LE(violations, truth.size() / 100 + 1);
}

TEST(CountMinTest, UnknownKeysHaveBoundedOvercount) {
  CountMinSketch cm(5, 1024);
  for (int i = 0; i < 1000; ++i) cm.Add(Key(i));
  EXPECT_LE(cm.EstimateCount("never-seen"), 1000u * 5 / 1024 + 5);
}

TEST(CountMinTest, WeightedAdd) {
  CountMinSketch cm(4, 64);
  cm.Add("a", 10);
  cm.Add("a", 5);
  EXPECT_GE(cm.EstimateCount("a"), 15u);
  EXPECT_EQ(cm.TotalCount(), 15u);
}

TEST(CountMinTest, MergeEqualsUnion) {
  CountMinSketch a(4, 128), b(4, 128), whole(4, 128);
  for (int i = 0; i < 500; ++i) {
    a.Add(Key(i));
    whole.Add(Key(i));
  }
  for (int i = 250; i < 750; ++i) {
    b.Add(Key(i));
    whole.Add(Key(i));
  }
  ASSERT_TRUE(a.Merge(b).ok());
  for (int i = 0; i < 750; i += 50) {
    EXPECT_EQ(a.EstimateCount(Key(i)), whole.EstimateCount(Key(i)));
  }
  EXPECT_EQ(a.TotalCount(), whole.TotalCount());
}

TEST(CountMinTest, MergeRejectsMismatchedShapes) {
  CountMinSketch a(4, 128), b(4, 256), c(5, 128), d(4, 128, /*seed=*/99);
  EXPECT_TRUE(a.Merge(b).IsInvalidArgument());
  EXPECT_TRUE(a.Merge(c).IsInvalidArgument());
  EXPECT_TRUE(a.Merge(d).IsInvalidArgument());
}

TEST(CountMinTest, ColumnsMatchStringPath) {
  // Twin sketches, one fed item bytes and one fed each item's memoized
  // columns, hold the same counters at every step.
  for (uint32_t depth : {1u, 4u, 7u}) {
    CountMinSketch by_item(depth, 97, /*seed=*/5);
    CountMinSketch by_cols(depth, 97, /*seed=*/5);
    std::map<std::string, std::vector<uint32_t>> memo;
    Rng rng(depth);
    ZipfGenerator zipf(300, 0.9);
    for (int i = 0; i < 5000; ++i) {
      const std::string k = Key(zipf.Next(&rng));
      const uint64_t n = 1 + rng.NextBounded(3);
      auto [it, fresh] = memo.try_emplace(k, depth);
      if (fresh) by_cols.Columns(k, it->second);
      by_item.Add(k, n);
      by_cols.AddAt(it->second, n);
      ASSERT_EQ(by_cols.EstimateAt(it->second), by_item.EstimateCount(k));
    }
    EXPECT_EQ(by_cols.TotalCount(), by_item.TotalCount());
    for (const auto& [k, cols] : memo) {
      EXPECT_EQ(by_cols.EstimateAt(cols), by_item.EstimateCount(k)) << k;
      EXPECT_EQ(by_cols.EstimateCount(k), by_item.EstimateCount(k)) << k;
      for (uint32_t col : cols) EXPECT_LT(col, 97u);
    }
    for (int i = 0; i < 200; ++i) {  // items never added
      const std::string k = "absent-" + std::to_string(i);
      EXPECT_EQ(by_cols.EstimateCount(k), by_item.EstimateCount(k)) << k;
    }
  }
}

TEST(CountMinTest, PaperFigure3Usage) {
  // The paper's Fig. 3: CountMinSketch sketch = new CountMinSketch(20,20,128)
  // then sketch.add(input, 1); long count = sketch.estimateCount(input).
  CountMinSketch sketch(20, 20, 128);
  sketch.Add("event", 1);
  EXPECT_GE(sketch.EstimateCount("event"), 1u);
}

// ------------------------------------------------------------------ Bloom

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bf = BloomFilter::FromExpectedItems(1000, 0.01);
  for (int i = 0; i < 1000; ++i) bf.Add(Key(i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bf.MayContain(Key(i))) << i;
  }
}

TEST(BloomTest, FalsePositiveRateNearTarget) {
  BloomFilter bf = BloomFilter::FromExpectedItems(10000, 0.01);
  for (int i = 0; i < 10000; ++i) bf.Add(Key(i));
  int fp = 0;
  for (int i = 10000; i < 30000; ++i) {
    if (bf.MayContain(Key(i))) ++fp;
  }
  EXPECT_LT(double(fp) / 20000.0, 0.03);
  EXPECT_NEAR(bf.EstimatedFpRate(), 0.01, 0.01);
}

TEST(BloomTest, MergeIsUnion) {
  BloomFilter a(4096, 4), b(4096, 4);
  a.Add("left");
  b.Add("right");
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_TRUE(a.MayContain("left"));
  EXPECT_TRUE(a.MayContain("right"));
}

TEST(BloomTest, MergeRejectsMismatch) {
  BloomFilter a(4096, 4), b(8192, 4), c(4096, 5);
  EXPECT_TRUE(a.Merge(b).IsInvalidArgument());
  EXPECT_TRUE(a.Merge(c).IsInvalidArgument());
}

// ------------------------------------------------------------ HyperLogLog

TEST(HllTest, EstimateWithinStandardError) {
  HyperLogLog hll(12);
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; ++i) hll.Add(Key(i));
  const double err = std::abs(hll.Estimate() - double(n)) / double(n);
  EXPECT_LT(err, 3 * hll.StandardError());
}

TEST(HllTest, DuplicatesDontInflate) {
  HyperLogLog hll(12);
  for (int rep = 0; rep < 10; ++rep) {
    for (int i = 0; i < 1000; ++i) hll.Add(Key(i));
  }
  EXPECT_NEAR(hll.Estimate(), 1000.0, 1000.0 * 0.1);
}

TEST(HllTest, SmallRangeLinearCounting) {
  HyperLogLog hll(12);
  for (int i = 0; i < 10; ++i) hll.Add(Key(i));
  EXPECT_NEAR(hll.Estimate(), 10.0, 1.0);
}

TEST(HllTest, MergeEqualsUnion) {
  HyperLogLog a(12), b(12), whole(12);
  for (int i = 0; i < 5000; ++i) {
    a.Add(Key(i));
    whole.Add(Key(i));
  }
  for (int i = 2500; i < 7500; ++i) {
    b.Add(Key(i));
    whole.Add(Key(i));
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), whole.Estimate());
}

TEST(HllTest, MergeRejectsPrecisionMismatch) {
  HyperLogLog a(12), b(13);
  EXPECT_TRUE(a.Merge(b).IsInvalidArgument());
}

TEST(HllTest, PrecisionClamped) {
  HyperLogLog tiny(1), huge(30);
  EXPECT_EQ(tiny.precision(), 4u);
  EXPECT_EQ(huge.precision(), 18u);
}

// ------------------------------------------------------------ SpaceSaving

TEST(SpaceSavingTest, FindsTrueHeavyHitters) {
  SpaceSaving ss(20);
  Rng rng(3);
  ZipfGenerator zipf(10000, 1.1);
  std::map<std::string, uint64_t> truth;
  for (int i = 0; i < 100000; ++i) {
    const std::string k = Key(zipf.Next(&rng));
    ss.Add(k);
    ++truth[k];
  }
  // Every item above N/capacity must be tracked.
  const uint64_t threshold = 100000 / 20;
  for (const auto& [k, count] : truth) {
    if (count > threshold) {
      EXPECT_GE(ss.EstimateCount(k), count) << k;
    }
  }
}

TEST(SpaceSavingTest, CountIsUpperBound) {
  SpaceSaving ss(10);
  for (int i = 0; i < 100; ++i) ss.Add("hot");
  for (int i = 0; i < 200; ++i) ss.Add(Key(i));
  EXPECT_GE(ss.EstimateCount("hot"), 100u);
}

TEST(SpaceSavingTest, CapacityBounded) {
  SpaceSaving ss(5);
  for (int i = 0; i < 1000; ++i) ss.Add(Key(i));
  EXPECT_LE(ss.tracked(), 5u);
  EXPECT_EQ(ss.total(), 1000u);
}

TEST(SpaceSavingTest, GuaranteedSubsetOfHeavyHitters) {
  SpaceSaving ss(50);
  Rng rng(4);
  ZipfGenerator zipf(1000, 1.2);
  for (int i = 0; i < 50000; ++i) ss.Add(Key(zipf.Next(&rng)));
  const auto guaranteed = ss.GuaranteedHeavyHitters(500);
  const auto all = ss.HeavyHitters(500);
  EXPECT_LE(guaranteed.size(), all.size());
  for (const auto& g : guaranteed) {
    EXPECT_GE(g.count - g.error, 500u);
  }
}

TEST(SpaceSavingTest, MergePreservesHeavyHitters) {
  SpaceSaving a(20), b(20);
  for (int i = 0; i < 1000; ++i) a.Add("alpha");
  for (int i = 0; i < 800; ++i) b.Add("beta");
  for (int i = 0; i < 100; ++i) {
    a.Add(Key(i));
    b.Add(Key(i + 100));
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_GE(a.EstimateCount("alpha"), 1000u);
  EXPECT_GE(a.EstimateCount("beta"), 800u);
  EXPECT_EQ(a.total(), 1000u + 800u + 200u);
}

// -------------------------------------------------------------- Quantiles

TEST(GKQuantilesTest, UniformQuantiles) {
  GKQuantiles gk(0.01);
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextDouble() * 1000;
    values.push_back(v);
    gk.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double est = gk.Quantile(q);
    const double exact = values[size_t(q * (values.size() - 1))];
    EXPECT_NEAR(est, exact, 1000 * 0.03) << "q=" << q;
  }
}

TEST(GKQuantilesTest, SpaceStaysSublinear) {
  GKQuantiles gk(0.01);
  for (int i = 0; i < 100000; ++i) gk.Add(double(i));
  EXPECT_LT(gk.TupleCount(), 10000u);
}

TEST(GKQuantilesTest, EmptyReturnsZero) {
  GKQuantiles gk;
  EXPECT_EQ(gk.Quantile(0.5), 0.0);
}

TEST(GKQuantilesTest, MergedSummaryStillAccurate) {
  GKQuantiles a(0.02), b(0.02);
  for (int i = 0; i < 10000; ++i) a.Add(double(i));
  for (int i = 10000; i < 20000; ++i) b.Add(double(i));
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.count(), 20000u);
  EXPECT_NEAR(a.Quantile(0.5), 10000.0, 20000 * 0.05);
  EXPECT_NEAR(a.Quantile(0.9), 18000.0, 20000 * 0.05);
}

// ---------------------------------- Parameterized merge-associativity sweep

// gtest prints a parameter without a PrintTo as its raw bytes, and ctest
// keeps that text in each test's name; with no padding bytes the names
// stay the same from build to build.
struct MergeCase {
  int64_t parts;
  uint64_t items;
};

class SketchMergeSweep : public ::testing::TestWithParam<MergeCase> {};

TEST_P(SketchMergeSweep, PartitionedCountMinMatchesMonolithic) {
  // Property: merging per-partition sketches (as serverless reducers would)
  // yields identical estimates to a single sketch over the whole stream.
  const auto& param = GetParam();
  CountMinSketch whole(4, 512);
  std::vector<CountMinSketch> parts(param.parts, CountMinSketch(4, 512));
  Rng rng(17);
  ZipfGenerator zipf(200, 0.9);
  for (uint64_t i = 0; i < param.items; ++i) {
    const std::string k = Key(zipf.Next(&rng));
    whole.Add(k);
    parts[i % param.parts].Add(k);
  }
  CountMinSketch merged = parts[0];
  for (int p = 1; p < param.parts; ++p) {
    ASSERT_TRUE(merged.Merge(parts[p]).ok());
  }
  for (int i = 0; i < 200; i += 10) {
    EXPECT_EQ(merged.EstimateCount(Key(i)), whole.EstimateCount(Key(i)));
  }
}

TEST_P(SketchMergeSweep, PartitionedHllMatchesMonolithic) {
  const auto& param = GetParam();
  HyperLogLog whole(11);
  std::vector<HyperLogLog> parts(param.parts, HyperLogLog(11));
  for (uint64_t i = 0; i < param.items; ++i) {
    whole.Add(Key(i));
    parts[i % param.parts].Add(Key(i));
  }
  HyperLogLog merged = parts[0];
  for (int p = 1; p < param.parts; ++p) {
    ASSERT_TRUE(merged.Merge(parts[p]).ok());
  }
  EXPECT_DOUBLE_EQ(merged.Estimate(), whole.Estimate());
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, SketchMergeSweep,
    ::testing::Values(MergeCase{2, 2000}, MergeCase{4, 5000},
                      MergeCase{8, 10000}, MergeCase{16, 20000}),
    [](const ::testing::TestParamInfo<MergeCase>& param_info) {
      return std::to_string(param_info.param.parts) + "parts";
    });

}  // namespace
}  // namespace taureau::sketch
