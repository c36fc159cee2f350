#include "analytics/graph.h"

#include <algorithm>
#include <limits>

#include "baas/latency_model.h"

namespace taureau::analytics {

uint64_t Graph::num_edges() const {
  uint64_t n = 0;
  for (const auto& adj : out_edges) n += adj.size();
  return n;
}

Graph Graph::RandomPowerLaw(uint32_t n, uint32_t edges_per_vertex,
                            uint64_t seed) {
  Graph g;
  g.num_vertices = n;
  g.out_edges.resize(n);
  if (n == 0) return g;
  Rng rng(seed);
  // Preferential attachment: track endpoints so far; new vertex attaches to
  // uniformly sampled prior endpoints (degree-proportional).
  std::vector<uint32_t> endpoints;
  endpoints.reserve(size_t(n) * edges_per_vertex * 2);
  endpoints.push_back(0);
  for (uint32_t v = 1; v < n; ++v) {
    const uint32_t k = std::min(edges_per_vertex, v);
    for (uint32_t e = 0; e < k; ++e) {
      const uint32_t target =
          endpoints[rng.NextBounded(endpoints.size())];
      g.out_edges[v].push_back(target);
      g.out_edges[target].push_back(v);  // symmetric
      endpoints.push_back(target);
    }
    endpoints.push_back(v);
  }
  return g;
}

Graph Graph::Grid(uint32_t rows, uint32_t cols) {
  Graph g;
  g.num_vertices = rows * cols;
  g.out_edges.resize(g.num_vertices);
  auto id = [cols](uint32_t r, uint32_t c) { return r * cols + c; };
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        g.out_edges[id(r, c)].push_back(id(r, c + 1));
        g.out_edges[id(r, c + 1)].push_back(id(r, c));
      }
      if (r + 1 < rows) {
        g.out_edges[id(r, c)].push_back(id(r + 1, c));
        g.out_edges[id(r + 1, c)].push_back(id(r, c));
      }
    }
  }
  return g;
}

Graph Graph::Chain(uint32_t n) {
  Graph g;
  g.num_vertices = n;
  g.out_edges.resize(n);
  for (uint32_t v = 0; v + 1 < n; ++v) {
    g.out_edges[v].push_back(v + 1);
  }
  return g;
}

void VertexContext::SendToAllNeighbors(double message) {
  for (uint32_t t : *neighbors_) outbox_->emplace_back(t, message);
}

Result<PregelStats> RunPregel(const Graph& graph,
                              const std::function<double(uint32_t)>& init,
                              const ComputeFn& compute,
                              const PregelConfig& config,
                              std::vector<double>* values) {
  if (config.num_workers == 0) {
    return Status::InvalidArgument("need >= 1 worker");
  }
  const uint32_t n = graph.num_vertices;
  const uint32_t W = config.num_workers;
  values->resize(n);
  for (uint32_t v = 0; v < n; ++v) (*values)[v] = init(v);

  std::vector<std::vector<double>> inbox(n), next_inbox(n);
  std::vector<bool> halted(n, false);
  PregelStats stats;
  JobAccounting acct;
  acct.set_memory_mb(config.task_model.memory_mb);
  const baas::LatencyModel state_latency = baas::MemoryStoreLatency();

  for (uint32_t step = 0; step < config.max_supersteps; ++step) {
    bool any_active = false;
    std::vector<std::pair<uint32_t, double>> outbox;

    // Per-worker accounting for this superstep.
    for (uint32_t w = 0; w < W; ++w) {
      const uint32_t begin = uint32_t(uint64_t(n) * w / W);
      const uint32_t end = uint32_t(uint64_t(n) * (w + 1) / W);
      double work_units = 0;
      uint64_t worker_msg_bytes = 0;
      for (uint32_t v = begin; v < end; ++v) {
        const bool active = !halted[v] || !inbox[v].empty();
        if (!active) continue;
        any_active = true;
        halted[v] = false;
        VertexContext ctx;
        ctx.superstep_ = step;
        ctx.neighbors_ = &graph.out_edges[v];
        const size_t outbox_before = outbox.size();
        ctx.outbox_ = &outbox;
        compute(v, (*values)[v], inbox[v], ctx);
        halted[v] = ctx.halted_;
        const size_t sent = outbox.size() - outbox_before;
        work_units += 1.0 + double(inbox[v].size()) + double(sent);
        worker_msg_bytes += sent * (sizeof(uint32_t) + sizeof(double));
        inbox[v].clear();
      }
      // State exchange through the ephemeral store: one batched write of
      // this worker's outbox plus one batched read of its inbox share.
      const SimDuration io =
          state_latency.Mean(worker_msg_bytes) * 2;
      if (work_units > 0) {
        acct.AddTask(config.task_model.TaskDuration(work_units, io));
      }
      stats.message_bytes += worker_msg_bytes;
    }
    acct.EndStage();

    if (!any_active) break;
    stats.supersteps = step + 1;
    stats.total_messages += outbox.size();
    for (auto& [target, msg] : outbox) {
      next_inbox[target].push_back(msg);
    }
    for (uint32_t v = 0; v < n; ++v) {
      inbox[v].swap(next_inbox[v]);
      next_inbox[v].clear();
    }
    // Check for quiescence: no messages and everyone halted.
    bool quiescent = true;
    for (uint32_t v = 0; v < n && quiescent; ++v) {
      if (!halted[v] || !inbox[v].empty()) quiescent = false;
    }
    if (quiescent) break;
  }

  stats.makespan_us = acct.makespan_us();
  stats.cost = acct.cost();
  return stats;
}

ComputeFn PageRankProgram(uint32_t num_vertices, uint32_t iterations) {
  return [num_vertices, iterations](uint32_t /*v*/, double& value,
                                    const std::vector<double>& messages,
                                    VertexContext& ctx) {
    if (ctx.superstep() > 0) {
      double sum = 0;
      for (double m : messages) sum += m;
      value = 0.15 / double(num_vertices) + 0.85 * sum;
    }
    if (ctx.superstep() < iterations) {
      if (!ctx.neighbors().empty()) {
        ctx.SendToAllNeighbors(value / double(ctx.neighbors().size()));
      }
    } else {
      ctx.VoteToHalt();
    }
  };
}

ComputeFn SsspProgram() {
  return [](uint32_t /*v*/, double& value,
            const std::vector<double>& messages, VertexContext& ctx) {
    double best = value;
    for (double m : messages) best = std::min(best, m);
    if (ctx.superstep() == 0 || best < value) {
      value = best;
      if (value < std::numeric_limits<double>::infinity()) {
        ctx.SendToAllNeighbors(value + 1.0);
      }
    }
    ctx.VoteToHalt();
  };
}

ComputeFn WccProgram() {
  return [](uint32_t /*v*/, double& value,
            const std::vector<double>& messages, VertexContext& ctx) {
    double best = value;
    for (double m : messages) best = std::min(best, m);
    if (ctx.superstep() == 0 || best < value) {
      value = best;
      ctx.SendToAllNeighbors(value);
    }
    ctx.VoteToHalt();
  };
}

}  // namespace taureau::analytics
