// Baseline designs Jiffy is compared against (paper §4.4).
//
// 1. GlobalAddressSpaceStore — "a single global address space, as exposed in
//    classical distributed shared memory systems and recent in-memory
//    stores, precludes isolation guarantees... since adding/removing memory
//    resources for an application requires re-partitioning data for the
//    entire address-space."
// 2. ProducerCoupledStore — "existing serverless platforms tightly couple
//    the lifetime of state with that of its producer task", causing
//    premature loss when consumers outlive producers.
// The blob-store baseline for latency (E8) is baas::BlobStore directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "baas/latency_model.h"
#include "common/rng.h"
#include "common/status.h"
#include "jiffy/data_structures.h"

namespace taureau::jiffy {

/// One flat, hash-partitioned address space shared by every tenant.
class GlobalAddressSpaceStore {
 public:
  explicit GlobalAddressSpaceStore(uint32_t initial_nodes, uint64_t seed = 59);

  JiffyOp Put(const std::string& tenant, std::string_view key,
              std::string value);
  JiffyOp Get(const std::string& tenant, std::string_view key,
              std::string* value);

  /// Scaling the *shared* address space: every tenant's data is subject to
  /// rehashing. Returns the total movement plus a per-tenant breakdown —
  /// the isolation-violation evidence for E8.
  struct GlobalRepartition {
    RepartitionStats total;
    std::unordered_map<std::string, uint64_t> moved_bytes_by_tenant;
  };
  Result<GlobalRepartition> Resize(uint32_t new_nodes);

  uint32_t node_count() const {
    return static_cast<uint32_t>(partitions_.size());
  }
  uint64_t size() const { return item_count_; }

 private:
  struct Entry {
    std::string value;
    std::string tenant;
  };
  using Partition = std::unordered_map<std::string, Entry>;

  static std::string FullKey(const std::string& tenant, std::string_view key) {
    return tenant + "\x1f" + std::string(key);
  }
  uint32_t PartitionOf(const std::string& full_key) const;

  std::vector<Partition> partitions_;
  uint64_t item_count_ = 0;
  baas::LatencyModel latency_;
  Rng rng_;
};

/// State whose lifetime is slaved to its producer (the anti-pattern E9
/// quantifies). When a producer finishes, its objects vanish immediately,
/// whether or not a consumer has read them.
class ProducerCoupledStore {
 public:
  explicit ProducerCoupledStore(uint64_t seed = 61);

  JiffyOp Put(uint64_t producer_id, std::string_view key, std::string value);
  /// NotFound when the object was reclaimed with its producer — a premature
  /// loss if the consumer still wanted it.
  JiffyOp Get(std::string_view key, std::string* value);

  /// The producer task finished: all of its state is reclaimed.
  void EndProducer(uint64_t producer_id);

  uint64_t live_objects() const { return objects_.size(); }
  uint64_t live_bytes() const { return bytes_; }
  uint64_t reclaimed_objects() const { return reclaimed_; }

 private:
  struct Object {
    std::string value;
    uint64_t producer;
  };
  std::unordered_map<std::string, Object> objects_;
  std::unordered_map<uint64_t, std::vector<std::string>> by_producer_;
  uint64_t bytes_ = 0;
  uint64_t reclaimed_ = 0;
  baas::LatencyModel latency_;
  Rng rng_;
};

}  // namespace taureau::jiffy
