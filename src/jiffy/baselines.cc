#include "jiffy/baselines.h"

#include "common/hash.h"

namespace taureau::jiffy {

GlobalAddressSpaceStore::GlobalAddressSpaceStore(uint32_t initial_nodes,
                                                 uint64_t seed)
    : partitions_(std::max(initial_nodes, 1u)),
      latency_(baas::MemoryStoreLatency()),
      rng_(seed) {}

uint32_t GlobalAddressSpaceStore::PartitionOf(
    const std::string& full_key) const {
  return static_cast<uint32_t>(Fnv1a64(full_key) % partitions_.size());
}

JiffyOp GlobalAddressSpaceStore::Put(const std::string& tenant,
                                     std::string_view key, std::string value) {
  const std::string fk = FullKey(tenant, key);
  const SimDuration lat = latency_.Sample(&rng_, fk.size() + value.size());
  Partition& part = partitions_[PartitionOf(fk)];
  auto [it, inserted] = part.try_emplace(fk);
  if (inserted) ++item_count_;
  it->second.value = std::move(value);
  it->second.tenant = tenant;
  return {Status::OK(), lat};
}

JiffyOp GlobalAddressSpaceStore::Get(const std::string& tenant,
                                     std::string_view key,
                                     std::string* value) {
  const std::string fk = FullKey(tenant, key);
  const Partition& part = partitions_[PartitionOf(fk)];
  auto it = part.find(fk);
  if (it == part.end()) {
    return {Status::NotFound("key '" + std::string(key) + "'"),
            latency_.Sample(&rng_, fk.size())};
  }
  *value = it->second.value;
  return {Status::OK(), latency_.Sample(&rng_, fk.size() + value->size())};
}

Result<GlobalAddressSpaceStore::GlobalRepartition>
GlobalAddressSpaceStore::Resize(uint32_t new_nodes) {
  if (new_nodes == 0) return Status::InvalidArgument("need >= 1 node");
  GlobalRepartition out;
  out.total.partitions_before = node_count();
  out.total.partitions_after = new_nodes;
  std::vector<Partition> next(new_nodes);
  for (uint32_t old_idx = 0; old_idx < partitions_.size(); ++old_idx) {
    for (auto& [fk, entry] : partitions_[old_idx]) {
      const uint32_t new_idx =
          static_cast<uint32_t>(Fnv1a64(fk) % new_nodes);
      const uint64_t pair_bytes = fk.size() + entry.value.size();
      if (new_idx != old_idx) {
        out.total.moved_bytes += pair_bytes;
        ++out.total.moved_items;
        out.moved_bytes_by_tenant[entry.tenant] += pair_bytes;
      }
      next[new_idx].emplace(fk, std::move(entry));
    }
  }
  partitions_ = std::move(next);
  return out;
}

ProducerCoupledStore::ProducerCoupledStore(uint64_t seed)
    : latency_(baas::MemoryStoreLatency()), rng_(seed) {}

JiffyOp ProducerCoupledStore::Put(uint64_t producer_id, std::string_view key,
                                  std::string value) {
  const SimDuration lat = latency_.Sample(&rng_, key.size() + value.size());
  const std::string k(key);
  auto [it, inserted] = objects_.try_emplace(k);
  if (!inserted) bytes_ -= it->second.value.size();
  bytes_ += value.size();
  it->second.value = std::move(value);
  it->second.producer = producer_id;
  if (inserted) by_producer_[producer_id].push_back(k);
  return {Status::OK(), lat};
}

JiffyOp ProducerCoupledStore::Get(std::string_view key, std::string* value) {
  auto it = objects_.find(std::string(key));
  if (it == objects_.end()) {
    return {Status::NotFound("state '" + std::string(key) +
                             "' was reclaimed with its producer"),
            latency_.Sample(&rng_, key.size())};
  }
  *value = it->second.value;
  return {Status::OK(), latency_.Sample(&rng_, key.size() + value->size())};
}

void ProducerCoupledStore::EndProducer(uint64_t producer_id) {
  auto it = by_producer_.find(producer_id);
  if (it == by_producer_.end()) return;
  for (const std::string& key : it->second) {
    auto obj = objects_.find(key);
    if (obj != objects_.end() && obj->second.producer == producer_id) {
      bytes_ -= obj->second.value.size();
      objects_.erase(obj);
      ++reclaimed_;
    }
  }
  by_producer_.erase(it);
}

}  // namespace taureau::jiffy
