#include "jiffy/data_structures.h"

#include <algorithm>

#include "common/hash.h"

namespace taureau::jiffy {

BlockBacked::BlockBacked(MemoryPool* pool, std::string owner)
    : pool_(pool), owner_(std::move(owner)) {}

void BlockBacked::AttachObservability(obs::Observability* o) {
  obs_ = o;
  if (o != nullptr) {
    ops_counter_ = o->registry.ResolveCounter("jiffy.ops");
    op_latency_ =
        o->registry.ResolveHistogram("jiffy.op_latency_us", double(kMinute));
    if (!owner_.empty()) {
      tenant_ops_counter_ = o->registry.ResolveCounter(
          "jiffy.ops", obs::LabelSet{.tenant = owner_});
    }
  }
}

void BlockBacked::RecordOp(const char* name, obs::TraceContext parent,
                           SimDuration latency_us,
                           const Status& status) const {
  if (obs_ == nullptr) return;
  ops_counter_.Inc();
  tenant_ops_counter_.Inc();  // no-op for anonymous structures
  op_latency_.Add(double(latency_us));
  const SimTime now = obs_->tracer.sim()->Now();
  obs::SpanAttrList attrs = {
      {obs::kCategoryAttr, "shuffle"},
      {obs::kAsyncAttr, "1"},
      {"status", StatusCodeName(status.code())},
      {obs::kOutcomeAttr, status.ok() ? obs::kOutcomeOk : obs::kOutcomeError},
      {obs::kSeverityAttr, status.ok() ? "info" : "error"}};
  if (!owner_.empty()) attrs.Add(obs::kTenantAttr, owner_);
  obs_->tracer.EmitSpan(name, "jiffy", parent, now, now + latency_us, attrs);
}

JiffyOp BlockBacked::Done(JiffyOp op, const char* name,
                          obs::TraceContext parent) const {
  RecordOp(name, parent, op.latency_us, op.status);
  return op;
}

Status BlockBacked::ReconcileBlocks() {
  const uint64_t bs = pool_->block_size();
  const uint64_t needed = (bytes_ + bs - 1) / bs;
  while (blocks_held_ < needed) {
    TAU_ASSIGN_OR_RETURN(BlockId id, pool_->Allocate(owner_));
    block_ids_.push_back(id);
    ++blocks_held_;
  }
  // Shrink lazily with one block of hysteresis to avoid thrash.
  while (blocks_held_ > needed + 1) {
    TAU_RETURN_IF_ERROR(pool_->Free(block_ids_.back()));
    block_ids_.pop_back();
    --blocks_held_;
  }
  return Status::OK();
}

Result<size_t> BlockBacked::RepairBlocks() {
  size_t moved = 0;
  for (BlockId& id : block_ids_) {
    if (!pool_->NodeFailed(id.node)) continue;
    TAU_RETURN_IF_ERROR(pool_->Free(id));
    // Allocate skips failed nodes, so the replacement lands healthy.
    TAU_ASSIGN_OR_RETURN(BlockId fresh, pool_->Allocate(owner_));
    id = fresh;
    ++moved;
  }
  return moved;
}

Status BlockBacked::Destroy() {
  for (BlockId id : block_ids_) {
    TAU_RETURN_IF_ERROR(pool_->Free(id));
  }
  block_ids_.clear();
  blocks_held_ = 0;
  bytes_ = 0;
  return Status::OK();
}

JiffyHashTable::JiffyHashTable(MemoryPool* pool, std::string owner,
                               uint32_t initial_partitions, uint64_t seed)
    : BlockBacked(pool, std::move(owner)),
      partitions_(std::max(initial_partitions, 1u)),
      latency_(baas::MemoryStoreLatency()),
      rng_(seed) {}

uint32_t JiffyHashTable::PartitionOf(std::string_view key) const {
  return static_cast<uint32_t>(Fnv1a64(key) % partitions_.size());
}

JiffyOp JiffyHashTable::Put(std::string_view key, std::string value,
                            obs::TraceContext parent) {
  if (key.empty()) {
    return Done({Status::InvalidArgument("empty key"), 0}, "ht.put", parent);
  }
  const SimDuration lat = latency_.Sample(&rng_, key.size() + value.size());
  Partition& part = partitions_[PartitionOf(key)];
  const uint64_t add = key.size() + value.size();
  auto it = part.data.find(std::string(key));
  uint64_t remove = 0;
  if (it != part.data.end()) {
    remove = key.size() + it->second.size();
  }
  // Reserve capacity before mutating so pool exhaustion is clean.
  bytes_ += add;
  const Status grow = ReconcileBlocks();
  if (!grow.ok()) {
    bytes_ -= add;
    return Done({grow, lat}, "ht.put", parent);
  }
  if (it != part.data.end()) {
    part.bytes -= key.size() + it->second.size();
    it->second = std::move(value);
  } else {
    part.data.emplace(std::string(key), std::move(value));
    ++item_count_;
  }
  bytes_ -= remove;
  part.bytes += add - remove;
  ReconcileBlocks();  // shrink side never fails
  return Done({Status::OK(), lat}, "ht.put", parent);
}

JiffyOp JiffyHashTable::Get(std::string_view key, std::string* value,
                            obs::TraceContext parent) {
  const Partition& part = partitions_[PartitionOf(key)];
  auto it = part.data.find(std::string(key));
  if (it == part.data.end()) {
    return Done({Status::NotFound("key '" + std::string(key) + "'"),
                 latency_.Sample(&rng_, key.size())},
                "ht.get", parent);
  }
  *value = it->second;
  return Done(
      {Status::OK(), latency_.Sample(&rng_, key.size() + value->size())},
      "ht.get", parent);
}

JiffyOp JiffyHashTable::Remove(std::string_view key,
                               obs::TraceContext parent) {
  Partition& part = partitions_[PartitionOf(key)];
  auto it = part.data.find(std::string(key));
  if (it == part.data.end()) {
    return Done({Status::NotFound("key '" + std::string(key) + "'"),
                 latency_.Sample(&rng_, key.size())},
                "ht.remove", parent);
  }
  const uint64_t removed = key.size() + it->second.size();
  part.data.erase(it);
  part.bytes -= removed;
  bytes_ -= removed;
  --item_count_;
  ReconcileBlocks();
  return Done({Status::OK(), latency_.Sample(&rng_, key.size())}, "ht.remove",
              parent);
}

Result<RepartitionStats> JiffyHashTable::Resize(uint32_t new_partitions) {
  if (new_partitions == 0) {
    return Status::InvalidArgument("need >= 1 partition");
  }
  RepartitionStats stats;
  stats.partitions_before = partition_count();
  stats.partitions_after = new_partitions;
  std::vector<Partition> next(new_partitions);
  for (uint32_t old_idx = 0; old_idx < partitions_.size(); ++old_idx) {
    for (auto& [key, value] : partitions_[old_idx].data) {
      const uint32_t new_idx =
          static_cast<uint32_t>(Fnv1a64(key) % new_partitions);
      const uint64_t pair_bytes = key.size() + value.size();
      // A pair moves over the network iff its partition assignment changed.
      if (new_idx != old_idx) {
        stats.moved_bytes += pair_bytes;
        ++stats.moved_items;
      }
      next[new_idx].bytes += pair_bytes;
      next[new_idx].data.emplace(key, std::move(value));
    }
  }
  partitions_ = std::move(next);
  return stats;
}

Status JiffyHashTable::Destroy() {
  partitions_.clear();
  partitions_.resize(1);
  item_count_ = 0;
  return BlockBacked::Destroy();
}

JiffyQueue::JiffyQueue(MemoryPool* pool, std::string owner, uint64_t seed)
    : BlockBacked(pool, std::move(owner)),
      latency_(baas::MemoryStoreLatency()),
      rng_(seed) {}

void JiffyQueue::EnableSpill(baas::BlobStore* cold_store) {
  spill_store_ = cold_store;
}

JiffyOp JiffyQueue::Enqueue(std::string value, obs::TraceContext parent) {
  const SimDuration lat = latency_.Sample(&rng_, value.size());
  bytes_ += value.size();
  const Status grow = ReconcileBlocks();
  if (!grow.ok()) {
    bytes_ -= value.size();
    if (spill_store_ == nullptr || !grow.IsResourceExhausted()) {
      return Done({grow, lat}, "q.enqueue", parent);
    }
    // Pressure relief: spill to cold storage instead of failing.
    const std::string key = owner_ + "/spill/" + std::to_string(spill_seq_++);
    auto put = spill_store_->Put(key, std::move(value));
    if (!put.status.ok()) {
      return Done({put.status, lat + put.latency_us}, "q.enqueue", parent);
    }
    items_.push_back(Item{true, key});
    ++spilled_;
    return Done({Status::OK(), lat + put.latency_us}, "q.enqueue", parent);
  }
  items_.push_back(Item{false, std::move(value)});
  return Done({Status::OK(), lat}, "q.enqueue", parent);
}

JiffyOp JiffyQueue::Dequeue(std::string* value, obs::TraceContext parent) {
  if (items_.empty()) {
    return Done({Status::NotFound("queue empty"), latency_.Sample(&rng_, 0)},
                "q.dequeue", parent);
  }
  Item item = std::move(items_.front());
  items_.pop_front();
  if (item.spilled) {
    auto get = spill_store_->Get(item.value_or_key, value);
    if (!get.status.ok()) {
      return Done({get.status, get.latency_us}, "q.dequeue", parent);
    }
    (void)spill_store_->Delete(item.value_or_key);
    return Done({Status::OK(), get.latency_us}, "q.dequeue", parent);
  }
  *value = std::move(item.value_or_key);
  bytes_ -= value->size();
  ReconcileBlocks();
  return Done({Status::OK(), latency_.Sample(&rng_, value->size())},
              "q.dequeue", parent);
}

JiffyOp JiffyQueue::Peek(std::string* value) const {
  if (items_.empty()) {
    return {Status::NotFound("queue empty"), latency_.Sample(&rng_, 0)};
  }
  const Item& item = items_.front();
  if (item.spilled) {
    auto get = spill_store_->Get(item.value_or_key, value);
    return {get.status, get.latency_us};
  }
  *value = item.value_or_key;
  return {Status::OK(), latency_.Sample(&rng_, value->size())};
}

JiffyFile::JiffyFile(MemoryPool* pool, std::string owner, uint64_t seed)
    : BlockBacked(pool, std::move(owner)),
      latency_(baas::MemoryStoreLatency()),
      rng_(seed) {}

Result<uint64_t> JiffyFile::Append(std::string_view data,
                                   SimDuration* latency_us,
                                   obs::TraceContext parent) {
  const SimDuration lat = latency_.Sample(&rng_, data.size());
  if (latency_us) *latency_us = lat;
  bytes_ += data.size();
  const Status grow = ReconcileBlocks();
  if (!grow.ok()) {
    bytes_ -= data.size();
    RecordOp("file.append", parent, lat, grow);
    return grow;
  }
  const uint64_t offset = data_.size();
  data_.append(data);
  RecordOp("file.append", parent, lat, Status::OK());
  return offset;
}

JiffyOp JiffyFile::Read(uint64_t offset, uint64_t len, std::string* out,
                        obs::TraceContext parent) const {
  if (offset >= data_.size()) {
    return Done(
        {Status::OutOfRange("offset " + std::to_string(offset) +
                            " beyond EOF " + std::to_string(data_.size())),
         latency_.Sample(&rng_, 0)},
        "file.read", parent);
  }
  const uint64_t n = std::min<uint64_t>(len, data_.size() - offset);
  out->assign(data_, offset, n);
  return Done({Status::OK(), latency_.Sample(&rng_, n)}, "file.read", parent);
}

}  // namespace taureau::jiffy
