// Serverless graph processing (paper §5.1 "Graph Processing"): a Pregel
// computation model over workers with ephemeral state between supersteps —
// the Graphless [173] architecture.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analytics/task_model.h"
#include "common/rng.h"
#include "common/status.h"

namespace taureau::analytics {

/// Directed graph in adjacency-list form.
struct Graph {
  uint32_t num_vertices = 0;
  std::vector<std::vector<uint32_t>> out_edges;

  uint64_t num_edges() const;

  /// Preferential-attachment (Barabási–Albert-style) generator: power-law
  /// in-degrees, as in social-network workloads.
  static Graph RandomPowerLaw(uint32_t n, uint32_t edges_per_vertex,
                              uint64_t seed);
  /// 2D grid (deterministic diameter — good for SSSP tests).
  static Graph Grid(uint32_t rows, uint32_t cols);
  /// Chain 0 -> 1 -> ... -> n-1.
  static Graph Chain(uint32_t n);
};

struct PregelConfig;
struct PregelStats;

/// Per-vertex API inside a superstep.
class VertexContext {
 public:
  uint32_t superstep() const { return superstep_; }
  const std::vector<uint32_t>& neighbors() const { return *neighbors_; }

  void SendToAllNeighbors(double message);
  void VoteToHalt() { halted_ = true; }

 private:
  friend Result<PregelStats> RunPregel(
      const Graph& graph, const std::function<double(uint32_t)>& init,
      const std::function<void(uint32_t, double&, const std::vector<double>&,
                               VertexContext&)>& compute,
      const PregelConfig& config, std::vector<double>* values);
  uint32_t superstep_ = 0;
  const std::vector<uint32_t>* neighbors_ = nullptr;
  std::vector<std::pair<uint32_t, double>>* outbox_ = nullptr;
  bool halted_ = false;
};

/// vertex program: may read/update its value, consume incoming messages,
/// send messages, and vote to halt. A halted vertex is reactivated by an
/// incoming message (standard Pregel semantics).
using ComputeFn =
    std::function<void(uint32_t vertex, double& value,
                       const std::vector<double>& messages,
                       VertexContext& ctx)>;

struct PregelConfig {
  uint32_t num_workers = 4;
  uint32_t max_supersteps = 50;
  TaskCostModel task_model{.invoke_overhead_us = 20 * kMillisecond,
                           .compute_us_per_unit = 0.5,
                           .memory_mb = 512};
};

struct PregelStats {
  uint32_t supersteps = 0;
  uint64_t total_messages = 0;
  uint64_t message_bytes = 0;
  SimDuration makespan_us = 0;
  Money cost;
};

/// Runs the program to convergence (all halted, no messages) or
/// max_supersteps. Final vertex values land in *values.
Result<PregelStats> RunPregel(const Graph& graph,
                              const std::function<double(uint32_t)>& init,
                              const ComputeFn& compute,
                              const PregelConfig& config,
                              std::vector<double>* values);

/// PageRank with damping 0.85 for `iterations` supersteps.
ComputeFn PageRankProgram(uint32_t num_vertices, uint32_t iterations);
/// Single-source shortest paths on unit-weight edges. Init: 0 at source,
/// +inf elsewhere.
ComputeFn SsspProgram();
/// Weakly-connected components via min-label propagation (treating edges
/// as symmetric requires the graph to contain both directions).
ComputeFn WccProgram();

}  // namespace taureau::analytics
