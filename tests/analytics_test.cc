// Unit tests for the analytics applications (§5.1): MapReduce/ETL, Pregel
// graph processing, matrix multiplication, Monte Carlo simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "analytics/graph.h"
#include "analytics/mapreduce.h"
#include "analytics/matmul.h"
#include "analytics/montecarlo.h"
#include "baas/blob_store.h"
#include "jiffy/controller.h"
#include "sim/simulation.h"

namespace taureau::analytics {
namespace {

// -------------------------------------------------------------- MapReduce

struct MrFixture {
  sim::Simulation sim;
  jiffy::JiffyController jiffy{&sim, [] {
                                 jiffy::JiffyConfig cfg;
                                 cfg.num_memory_nodes = 4;
                                 cfg.blocks_per_node = 1024;
                                 cfg.block_size_bytes = 64 * 1024;
                                 return cfg;
                               }()};
};

TEST(MapReduceTest, WordCountCorrect) {
  MrFixture f;
  ASSERT_TRUE(f.jiffy.CreateNamespace("/wc").ok());
  JiffyShuffle shuffle(&f.jiffy, "/wc", 4);
  ASSERT_TRUE(shuffle.Init().ok());
  std::vector<std::string> input = {
      "the quick brown fox", "the lazy dog", "the fox jumps"};
  std::vector<std::string> output;
  auto stats = RunMapReduce(input, WordCountMap(), WordCountReduce(),
                            &shuffle, {.num_mappers = 2, .num_reducers = 4},
                            &output);
  ASSERT_TRUE(stats.ok());
  std::map<std::string, int> counts;
  for (const std::string& line : output) {
    std::istringstream ss(line);
    std::string word;
    int n;
    ss >> word >> n;
    counts[word] = n;
  }
  EXPECT_EQ(counts["the"], 3);
  EXPECT_EQ(counts["fox"], 2);
  EXPECT_EQ(counts["dog"], 1);
  // the, quick, brown, fox, lazy, dog, jumps
  EXPECT_EQ(counts.size(), 7u);
  EXPECT_GT(stats->shuffle_bytes, 0u);
  EXPECT_GT(stats->makespan_us, 0);
}

TEST(MapReduceTest, SortProducesKeyOrder) {
  MrFixture f;
  ASSERT_TRUE(f.jiffy.CreateNamespace("/sort").ok());
  JiffyShuffle shuffle(&f.jiffy, "/sort", 2);
  ASSERT_TRUE(shuffle.Init().ok());
  std::vector<std::string> input = {"delta\t4", "alpha\t1", "charlie\t3",
                                    "bravo\t2"};
  std::vector<std::string> output;
  auto stats = RunMapReduce(input, IdentityKeyMap(), ConcatReduce(), &shuffle,
                            {.num_mappers = 2, .num_reducers = 2}, &output);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(output.size(), 4u);
  EXPECT_EQ(output[0].substr(0, 5), "alpha");
  EXPECT_EQ(output[1].substr(0, 5), "bravo");
  EXPECT_EQ(output[3].substr(0, 5), "delta");
}

TEST(MapReduceTest, BlobShuffleSameAnswerSlower) {
  MrFixture f;
  ASSERT_TRUE(f.jiffy.CreateNamespace("/j").ok());
  JiffyShuffle jshuffle(&f.jiffy, "/j", 4);
  ASSERT_TRUE(jshuffle.Init().ok());
  baas::BlobStore blob;
  BlobShuffle bshuffle(&blob, "job");

  std::vector<std::string> input;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    input.push_back("word" + std::to_string(rng.NextBounded(30)) + " filler");
  }
  std::vector<std::string> out_j, out_b;
  MapReduceConfig cfg{.num_mappers = 4, .num_reducers = 4};
  auto sj = RunMapReduce(input, WordCountMap(), WordCountReduce(), &jshuffle,
                         cfg, &out_j);
  auto sb = RunMapReduce(input, WordCountMap(), WordCountReduce(), &bshuffle,
                         cfg, &out_b);
  ASSERT_TRUE(sj.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(out_j, out_b);  // identical answers
  EXPECT_LT(sj->makespan_us, sb->makespan_us);  // ephemeral store faster
}

TEST(MapReduceTest, InvalidConfigRejected) {
  MrFixture f;
  ASSERT_TRUE(f.jiffy.CreateNamespace("/x").ok());
  JiffyShuffle shuffle(&f.jiffy, "/x", 1);
  ASSERT_TRUE(shuffle.Init().ok());
  std::vector<std::string> output;
  EXPECT_TRUE(RunMapReduce({}, WordCountMap(), WordCountReduce(), &shuffle,
                           {.num_mappers = 0, .num_reducers = 1}, &output)
                  .status()
                  .IsInvalidArgument());
}

TEST(MapReduceTest, MoreReducersShrinkReduceStage) {
  MrFixture f;
  std::vector<std::string> input;
  for (int i = 0; i < 500; ++i) {
    input.push_back("k" + std::to_string(i % 100) + " v");
  }
  auto run = [&](uint32_t reducers) {
    const std::string path = "/mr-" + std::to_string(reducers);
    EXPECT_TRUE(f.jiffy.CreateNamespace(path).ok());
    JiffyShuffle shuffle(&f.jiffy, path, reducers);
    EXPECT_TRUE(shuffle.Init().ok());
    std::vector<std::string> output;
    auto stats =
        RunMapReduce(input, WordCountMap(), WordCountReduce(), &shuffle,
                     {.num_mappers = 4, .num_reducers = reducers}, &output);
    EXPECT_TRUE(stats.ok());
    return stats->reduce_stage_us;
  };
  EXPECT_GT(run(1), run(8));
}

// ------------------------------------------------------------------ Graph

TEST(GraphTest, GeneratorsShape) {
  auto grid = Graph::Grid(3, 4);
  EXPECT_EQ(grid.num_vertices, 12u);
  // 2*(rows*(cols-1) + cols*(rows-1)) directed edges.
  EXPECT_EQ(grid.num_edges(), 2u * (3 * 3 + 4 * 2));
  auto chain = Graph::Chain(5);
  EXPECT_EQ(chain.num_edges(), 4u);
  auto pl = Graph::RandomPowerLaw(1000, 3, 7);
  EXPECT_EQ(pl.num_vertices, 1000u);
  EXPECT_GT(pl.num_edges(), 2000u);
}

TEST(GraphTest, PowerLawHasHubs) {
  auto g = Graph::RandomPowerLaw(2000, 2, 11);
  size_t max_degree = 0;
  for (const auto& adj : g.out_edges) {
    max_degree = std::max(max_degree, adj.size());
  }
  EXPECT_GT(max_degree, 50u);  // preferential attachment creates hubs
}

TEST(PregelTest, PageRankSumsToOne) {
  auto g = Graph::RandomPowerLaw(200, 3, 13);
  std::vector<double> ranks;
  auto stats = RunPregel(
      g, [&](uint32_t) { return 1.0 / g.num_vertices; },
      PageRankProgram(g.num_vertices, 15), {.num_workers = 4,
                                            .max_supersteps = 20},
      &ranks);
  ASSERT_TRUE(stats.ok());
  double sum = 0;
  for (double r : ranks) sum += r;
  EXPECT_NEAR(sum, 1.0, 0.05);
  EXPECT_GE(stats->supersteps, 15u);
}

TEST(PregelTest, PageRankHubsRankHigher) {
  // A star graph: the center must out-rank the leaves.
  Graph g;
  g.num_vertices = 11;
  g.out_edges.resize(11);
  for (uint32_t leaf = 1; leaf <= 10; ++leaf) {
    g.out_edges[leaf].push_back(0);
    g.out_edges[0].push_back(leaf);
  }
  std::vector<double> ranks;
  ASSERT_TRUE(RunPregel(
                  g, [&](uint32_t) { return 1.0 / 11; },
                  PageRankProgram(11, 20), {.num_workers = 2,
                                            .max_supersteps = 25},
                  &ranks)
                  .ok());
  for (uint32_t leaf = 1; leaf <= 10; ++leaf) {
    EXPECT_GT(ranks[0], ranks[leaf]);
  }
}

TEST(PregelTest, SsspExactOnGrid) {
  auto g = Graph::Grid(5, 5);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist;
  auto stats = RunPregel(
      g, [&](uint32_t v) { return v == 0 ? 0.0 : inf; }, SsspProgram(),
      {.num_workers = 4, .max_supersteps = 30}, &dist);
  ASSERT_TRUE(stats.ok());
  // Manhattan distance from corner (0,0).
  for (uint32_t r = 0; r < 5; ++r) {
    for (uint32_t c = 0; c < 5; ++c) {
      EXPECT_DOUBLE_EQ(dist[r * 5 + c], double(r + c)) << r << "," << c;
    }
  }
  // Converged before the cap (diameter 8 + slack).
  EXPECT_LT(stats->supersteps, 15u);
}

TEST(PregelTest, WccLabelsComponents) {
  // Two disjoint chains (made symmetric for WCC).
  Graph g;
  g.num_vertices = 6;
  g.out_edges.resize(6);
  auto link = [&](uint32_t a, uint32_t b) {
    g.out_edges[a].push_back(b);
    g.out_edges[b].push_back(a);
  };
  link(0, 1);
  link(1, 2);
  link(3, 4);
  link(4, 5);
  std::vector<double> labels;
  ASSERT_TRUE(RunPregel(
                  g, [](uint32_t v) { return double(v); }, WccProgram(),
                  {.num_workers = 2, .max_supersteps = 10}, &labels)
                  .ok());
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(PregelTest, MoreWorkersShrinkMakespan) {
  auto g = Graph::RandomPowerLaw(2000, 3, 17);
  auto run = [&](uint32_t workers) {
    std::vector<double> ranks;
    auto stats = RunPregel(
        g, [&](uint32_t) { return 1.0 / g.num_vertices; },
        PageRankProgram(g.num_vertices, 10),
        {.num_workers = workers, .max_supersteps = 12}, &ranks);
    EXPECT_TRUE(stats.ok());
    return stats->makespan_us;
  };
  EXPECT_GT(run(1), run(8));
}

// ----------------------------------------------------------------- MatMul

TEST(MatmulTest, NaiveAgainstIdentity) {
  Rng rng(19);
  Matrix a = Matrix::Random(8, 8, &rng);
  auto c = MultiplyNaive(a, Matrix::Identity(8));
  ASSERT_TRUE(c.ok());
  EXPECT_LT(c->MaxAbsDiff(a), 1e-12);
}

TEST(MatmulTest, DimensionMismatchRejected) {
  Matrix a(3, 4), b(5, 3);
  EXPECT_TRUE(MultiplyNaive(a, b).status().IsInvalidArgument());
  EXPECT_TRUE(MultiplyStrassen(a, b).status().IsInvalidArgument());
}

TEST(MatmulTest, StrassenMatchesNaive) {
  Rng rng(23);
  Matrix a = Matrix::Random(96, 96, &rng);  // non-power-of-2: exercises pad
  Matrix b = Matrix::Random(96, 96, &rng);
  auto naive = MultiplyNaive(a, b);
  auto strassen = MultiplyStrassen(a, b, 16);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(strassen.ok());
  EXPECT_LT(strassen->MaxAbsDiff(*naive), 1e-9);
}

TEST(MatmulTest, StrassenRectangular) {
  Rng rng(29);
  Matrix a = Matrix::Random(20, 33, &rng);
  Matrix b = Matrix::Random(33, 12, &rng);
  auto naive = MultiplyNaive(a, b);
  auto strassen = MultiplyStrassen(a, b, 8);
  ASSERT_TRUE(strassen.ok());
  EXPECT_EQ(strassen->rows(), 20u);
  EXPECT_EQ(strassen->cols(), 12u);
  EXPECT_LT(strassen->MaxAbsDiff(*naive), 1e-9);
}

TEST(MatmulTest, ServerlessBlockedCorrectAndParallel) {
  Rng rng(31);
  Matrix a = Matrix::Random(64, 64, &rng);
  Matrix b = Matrix::Random(64, 64, &rng);
  auto naive = MultiplyNaive(a, b);
  MatmulStats stats;
  const TaskCostModel model{.invoke_overhead_us = kMillisecond,
                            .compute_us_per_unit = 1.0,
                            .memory_mb = 512};
  auto c = ServerlessBlockedMultiply(a, b, 4, model, &stats);
  ASSERT_TRUE(c.ok());
  EXPECT_LT(c->MaxAbsDiff(*naive), 1e-9);
  EXPECT_EQ(stats.tasks, 16u);
  EXPECT_GT(stats.ephemeral_bytes, 0u);
  EXPECT_LT(stats.makespan_us, stats.serial_time_us);
}

TEST(MatmulTest, ServerlessStrassenCorrect) {
  Rng rng(37);
  Matrix a = Matrix::Random(64, 64, &rng);
  Matrix b = Matrix::Random(64, 64, &rng);
  auto naive = MultiplyNaive(a, b);
  MatmulStats stats;
  const TaskCostModel model{.invoke_overhead_us = kMillisecond,
                            .compute_us_per_unit = 1.0,
                            .memory_mb = 512};
  auto c = ServerlessStrassen(a, b, model, &stats, /*cutoff=*/16);
  ASSERT_TRUE(c.ok());
  EXPECT_LT(c->MaxAbsDiff(*naive), 1e-9);
  EXPECT_EQ(stats.tasks, 7u);  // the 7 Strassen products
  EXPECT_LT(stats.makespan_us, stats.serial_time_us);
}

// ---------------------------------------- Parameterized matmul size sweep

class MatmulSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MatmulSizeSweep, AllAlgorithmsAgree) {
  const uint32_t n = GetParam();
  Rng rng(n);
  Matrix a = Matrix::Random(n, n, &rng);
  Matrix b = Matrix::Random(n, n, &rng);
  auto naive = MultiplyNaive(a, b);
  ASSERT_TRUE(naive.ok());
  auto strassen = MultiplyStrassen(a, b, 16);
  ASSERT_TRUE(strassen.ok());
  EXPECT_LT(strassen->MaxAbsDiff(*naive), 1e-8);
  MatmulStats stats;
  auto blocked =
      ServerlessBlockedMultiply(a, b, 2, {.compute_us_per_unit = 0.01},
                                &stats);
  ASSERT_TRUE(blocked.ok());
  EXPECT_LT(blocked->MaxAbsDiff(*naive), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulSizeSweep,
                         ::testing::Values(7, 16, 31, 64));

// -------------------------------------------------------------- MonteCarlo

TEST(MonteCarloTest, PiConvergesWithinStandardError) {
  auto stats = analytics::EstimatePi(400000, {.num_workers = 16});
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->estimate, M_PI, 4 * stats->std_error);
  EXPECT_GT(stats->std_error, 0);
  EXPECT_LT(stats->std_error, 0.01);
}

TEST(MonteCarloTest, DeterministicForSeed) {
  analytics::MonteCarloConfig cfg{.num_workers = 8, .seed = 42};
  auto a = analytics::EstimatePi(100000, cfg);
  auto b = analytics::EstimatePi(100000, cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->estimate, b->estimate);
}

TEST(MonteCarloTest, MoreWorkersFasterSameSamples) {
  // Compute-dominated configuration so parallelism can show through the
  // per-task invocation overhead.
  analytics::MonteCarloConfig cfg;
  cfg.task_model.compute_us_per_unit = 0.5;
  cfg.num_workers = 1;
  auto w1 = analytics::EstimatePi(2000000, cfg);
  cfg.num_workers = 16;
  auto w16 = analytics::EstimatePi(2000000, cfg);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w16.ok());
  EXPECT_GT(w16->Speedup(), 8.0);
  EXPECT_LT(w16->makespan_us, w1->makespan_us);
}

TEST(MonteCarloTest, AsianOptionSanity) {
  // Deep in-the-money option with ~zero volatility prices near its
  // deterministic discounted payoff.
  analytics::AsianOption option;
  option.spot = 150;
  option.strike = 100;
  option.volatility = 1e-4;
  option.rate = 0.0;
  auto stats = analytics::PriceAsianOption(option, 20000,
                                           {.num_workers = 8});
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->estimate, 50.0, 1.0);

  // Worthless option: far out of the money, tiny vol.
  option.spot = 50;
  auto worthless = analytics::PriceAsianOption(option, 20000,
                                               {.num_workers = 8});
  ASSERT_TRUE(worthless.ok());
  EXPECT_NEAR(worthless->estimate, 0.0, 1e-6);
}

TEST(MonteCarloTest, VolatilityRaisesOptionValue) {
  analytics::AsianOption calm, wild;
  calm.volatility = 0.05;
  wild.volatility = 0.6;
  auto c = analytics::PriceAsianOption(calm, 50000, {.num_workers = 8});
  auto w = analytics::PriceAsianOption(wild, 50000, {.num_workers = 8});
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(w.ok());
  EXPECT_GT(w->estimate, c->estimate);
}

TEST(MonteCarloTest, Validation) {
  EXPECT_TRUE(
      analytics::EstimatePi(0, {}).status().IsInvalidArgument());
  EXPECT_TRUE(analytics::EstimatePi(10, {.num_workers = 0})
                  .status()
                  .IsInvalidArgument());
  analytics::AsianOption bad;
  bad.steps = 0;
  EXPECT_TRUE(analytics::PriceAsianOption(bad, 10, {})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace taureau::analytics
