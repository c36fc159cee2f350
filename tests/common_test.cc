// Unit tests for the common substrate: Status/Result, RNG, stats, money,
// hashing, and the slab and open-addressed table.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/flat_table.h"
#include "common/hash.h"
#include "common/money.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace taureau {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = Status::NotFound("widget 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "widget 42");
  EXPECT_EQ(s.ToString(), "NotFound: widget 42");
}

TEST(StatusTest, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::Timeout("t").IsTimeout());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_FALSE(Status::Aborted("x").IsTimeout());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseMacros(int x, int* out) {
  TAU_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  TAU_RETURN_IF_ERROR(Status::OK());
  *out = v * 2;
  return Status::OK();
}

TEST(ResultTest, MacrosPropagateAndBind) {
  int out = 0;
  EXPECT_TRUE(UseMacros(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(UseMacros(-1, &out).IsInvalidArgument());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(11);
  Summary s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.NextExponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.NextGaussian(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(RngTest, PoissonMean) {
  Rng rng(15);
  Summary small, large;
  for (int i = 0; i < 20000; ++i) small.Add(double(rng.NextPoisson(3.0)));
  for (int i = 0; i < 20000; ++i) large.Add(double(rng.NextPoisson(100.0)));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(17);
  Rng child = parent.Fork();
  // Child and parent streams should not be identical.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfTest, RankZeroMostPopular) {
  Rng rng(21);
  ZipfGenerator zipf(1000, 0.99);
  std::vector<uint64_t> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next(&rng)];
  // Head should dominate the tail.
  EXPECT_GT(counts[0], counts[100] * 5);
  EXPECT_GT(counts[0], 1000u);
}

TEST(ZipfTest, StaysInUniverse) {
  Rng rng(23);
  ZipfGenerator zipf(64, 0.8);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(&rng), 64u);
  }
}

// ----------------------------------------------------------------- Stats

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.variance(), 2.5, 1e-12);
}

TEST(SummaryTest, MergeEqualsSequential) {
  Summary a, b, all;
  Rng rng(25);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextGaussian(5, 2);
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(SummaryTest, MergeWithEmpty) {
  Summary a, empty;
  a.Add(1.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
}

TEST(HistogramTest, QuantilesOnUniform) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Add(double(i));
  EXPECT_NEAR(h.P50(), 5000, 5000 * 0.02);
  EXPECT_NEAR(h.P99(), 9900, 9900 * 0.02);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_DOUBLE_EQ(h.max(), 10000.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 42.0);
}

TEST(HistogramTest, EmptyReturnsZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Add(1.0);
  for (int i = 0; i < 100; ++i) b.Add(1000.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_NEAR(a.P50(), 1.0, 0.05);
  EXPECT_NEAR(a.Quantile(0.99), 1000.0, 1000 * 0.02);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(FormatTest, HumanReadable) {
  EXPECT_EQ(FormatDuration(500), "500.0us");
  EXPECT_EQ(FormatDuration(1500), "1.50ms");
  EXPECT_EQ(FormatDuration(2.5e6), "2.50s");
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2.0KB");
  EXPECT_EQ(FormatCount(1500), "1.5K");
}

// ----------------------------------------------------------------- Money

TEST(MoneyTest, ExactArithmetic) {
  Money a = Money::FromNanoDollars(100);
  Money b = Money::FromNanoDollars(250);
  EXPECT_EQ((a + b).nano_dollars(), 350);
  EXPECT_EQ((b - a).nano_dollars(), 150);
  EXPECT_EQ((a * 3).nano_dollars(), 300);
  EXPECT_LT(a, b);
}

TEST(MoneyTest, DollarsRoundTrip) {
  Money m = Money::FromDollars(1.25);
  EXPECT_EQ(m.nano_dollars(), 1250000000);
  EXPECT_DOUBLE_EQ(m.dollars(), 1.25);
}

TEST(MoneyTest, SumOfPartsIsExact) {
  // The no-double-billing experiments rely on exact integer sums.
  Money total;
  for (int i = 0; i < 1000; ++i) total += Money::FromNanoDollars(3);
  EXPECT_EQ(total.nano_dollars(), 3000);
}

// ------------------------------------------------------------------ Hash

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64("hello"));
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
  EXPECT_EQ(HashSeeded("abc", 1), HashSeeded("abc", 1));
  EXPECT_NE(HashSeeded("abc", 1), HashSeeded("abc", 2));
}

TEST(HashTest, SeededIndependence) {
  // Different seeds should behave like independent hash functions.
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (HashSeeded(key, 1) % 97 == HashSeeded(key, 2) % 97) ++collisions;
  }
  // ~1/97 expected collision rate => ~10; allow generous slack.
  EXPECT_LT(collisions, 40);
}

TEST(HashTest, MixU64AvalanchesLowBits) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(MixU64(i) % 1024);
  EXPECT_GT(outputs.size(), 500u);
}

// ------------------------------------------------ Rng and Histogram depth

TEST(RngDepthTest, LogNormalMedian) {
  Rng rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.NextLogNormal(std::log(100.0), 0.5));
  EXPECT_NEAR(ExactQuantile(xs, 0.5), 100.0, 5.0);
}

TEST(RngDepthTest, ParetoHeavyTail) {
  Rng rng(2);
  int above_10x = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextPareto(1.0, 1.5);
    EXPECT_GE(x, 1.0);
    if (x > 10.0) ++above_10x;
  }
  // P(X > 10) = 10^-1.5 ~ 3.16%.
  EXPECT_NEAR(double(above_10x) / n, 0.0316, 0.005);
}

TEST(HistogramDepthTest, AddNWeightedEquivalentToLoop) {
  Histogram a, b;
  a.AddN(50.0, 1000);
  for (int i = 0; i < 1000; ++i) b.Add(50.0);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.P99(), b.P99());
}

TEST(HistogramDepthTest, QuantileClampsOutOfRange) {
  Histogram h;
  h.Add(7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(-0.5), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
}

// ------------------------------------------------------ FlatTable and Slab

struct TableItem {
  uint64_t tag = 0;
  uint64_t key = 0;
  uint64_t value = 0;
};

/// Seeded churn of a FlatTable against a std::map. Every tag is shared by
/// three keys, so only `match` tells them apart. With `wrap` the 45 keys'
/// tags all have home slot 124..127 at 128 slots, and so the last slot or
/// two at every smaller size: the table grows from 16 slots while every
/// probe run crosses its end, and erases shift entries back across it.
/// Otherwise 600 keys on spread tags (tag 0, stored as 1, among them) grow
/// the table to 1024 slots. Halfway through, Clear empties it.
void RunFlatTableChurn(bool wrap, uint64_t seed) {
  std::vector<uint64_t> tags;
  for (uint64_t t = 0; tags.size() < (wrap ? 15u : 200u); ++t) {
    if (!wrap || FlatHome(t, 128) >= 124) tags.push_back(t);
  }
  const uint64_t keys = 3 * tags.size();
  FlatTable<TableItem> table;
  std::map<uint64_t, uint64_t> want;
  Rng rng(seed);
  for (int op = 0; op < 100000; ++op) {
    const uint64_t key = rng.NextBounded(keys);
    const uint64_t tag = tags[key / 3];
    const uint64_t dice = rng.NextBounded(100);
    TableItem* found = table.Find(
        tag, [key](const TableItem& e) { return e.key == key; });
    const auto it = want.find(key);
    ASSERT_EQ(found != nullptr, it != want.end()) << "op " << op;
    if (found != nullptr) {
      ASSERT_EQ(found->key, key) << "op " << op;
      ASSERT_EQ(found->value, it->second) << "op " << op;
    }
    if (op == 50000) {
      table.Clear();
      want.clear();
    } else if (dice < 45 && found == nullptr) {
      TableItem& e = table.Insert(tag);
      ASSERT_EQ(e.key, 0u) << "op " << op;  // A default entry.
      e.key = key;
      e.value = uint64_t(op);
      want[key] = uint64_t(op);
    } else if (dice >= 45 && dice < 80 && found != nullptr) {
      table.Erase(*found);
      want.erase(it);
    }
    ASSERT_EQ(table.size(), want.size()) << "op " << op;
  }
  std::map<uint64_t, uint64_t> got;
  table.ForEach([&got](const TableItem& e) { got[e.key] = e.value; });
  EXPECT_EQ(got, want);
}

TEST(FlatTableTest, ChurnMatchesMapReference) {
  for (const bool wrap : {true, false}) {
    SCOPED_TRACE(wrap ? "wrapping runs" : "growing table");
    RunFlatTableChurn(wrap, /*seed=*/29);
    if (HasFailure()) return;
  }
}

TEST(SlabTest, SlotsStayPutAndReleasedSlotsKeepTheirContents) {
  Slab<std::string, 64> slab;
  const uint32_t first = slab.Acquire();
  std::string* const where = &slab[first];
  *where = std::string(100, 'x');
  std::set<uint32_t> slots{first};
  for (int i = 0; i < 10000; ++i) slots.insert(slab.Acquire());
  EXPECT_EQ(slots.size(), 10001u);
  EXPECT_EQ(&slab[first], where);
  EXPECT_EQ(slab[first], std::string(100, 'x'));
  // Released slots come back last-in first-out, contents intact.
  slab[7] = "seven";
  slab.Release(7);
  slab.Release(first);
  EXPECT_EQ(slab.Acquire(), first);
  EXPECT_EQ(slab[first], std::string(100, 'x'));
  EXPECT_EQ(slab.Acquire(), 7u);
  EXPECT_EQ(slab[7], "seven");
  EXPECT_EQ(slab.Acquire(), 10001u);
  EXPECT_TRUE(slab[10001].empty());
}

}  // namespace
}  // namespace taureau
