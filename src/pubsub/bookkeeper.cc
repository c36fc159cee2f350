#include "pubsub/bookkeeper.h"

#include <algorithm>

namespace taureau::pubsub {

Bookie::Bookie(BookieId id, SimDuration write_base_us, double us_per_byte)
    : id_(id), write_base_us_(write_base_us), us_per_byte_(us_per_byte) {}

Result<SimTime> Bookie::Write(LedgerId ledger, uint64_t entry,
                              std::string payload, SimTime now) {
  if (!alive_) return Status::Unavailable("bookie " + std::to_string(id_) +
                                          " is down");
  const SimDuration service =
      write_base_us_ +
      static_cast<SimDuration>(us_per_byte_ * double(payload.size()));
  const SimTime start = std::max(now, next_free_us_);
  next_free_us_ = start + service;
  bytes_ += payload.size();
  entries_[{ledger, entry}] = std::move(payload);
  return next_free_us_;
}

Result<std::string> Bookie::Read(LedgerId ledger, uint64_t entry) const {
  if (!alive_) return Status::Unavailable("bookie " + std::to_string(id_) +
                                          " is down");
  auto it = entries_.find({ledger, entry});
  if (it == entries_.end()) {
    return Status::NotFound("entry " + std::to_string(entry) + " of ledger " +
                            std::to_string(ledger));
  }
  return it->second;
}

Status Bookie::EraseBelow(LedgerId ledger, uint64_t first_retained) {
  auto it = entries_.lower_bound({ledger, 0});
  while (it != entries_.end() && it->first.first == ledger &&
         it->first.second < first_retained) {
    bytes_ -= it->second.size();
    it = entries_.erase(it);
  }
  return Status::OK();
}

Status Bookie::Erase(LedgerId ledger) {
  auto it = entries_.lower_bound({ledger, 0});
  while (it != entries_.end() && it->first.first == ledger) {
    bytes_ -= it->second.size();
    it = entries_.erase(it);
  }
  return Status::OK();
}

uint64_t Bookie::CountLedger(LedgerId ledger) const {
  uint64_t n = 0;
  for (auto it = entries_.lower_bound({ledger, 0});
       it != entries_.end() && it->first.first == ledger; ++it) {
    ++n;
  }
  return n;
}

Ledger::Ledger(LedgerId id, std::vector<BookieId> ensemble,
               uint32_t write_quorum, uint32_t ack_quorum)
    : id_(id),
      ensemble_(std::move(ensemble)),
      write_quorum_(write_quorum),
      ack_quorum_(ack_quorum) {}

BookKeeper::BookKeeper(size_t num_bookies, uint64_t seed) : rng_(seed) {
  bookies_.reserve(num_bookies);
  for (size_t i = 0; i < num_bookies; ++i) {
    bookies_.push_back(std::make_unique<Bookie>(static_cast<BookieId>(i)));
  }
}

bool BookKeeper::Usable(BookieId id) const {
  if (id >= bookies_.size() || !bookies_[id]->alive()) return false;
  if (quarantined_.count(id) > 0) return false;
  return usable_ == nullptr || usable_(id);
}

void BookKeeper::SetUsable(std::function<bool(BookieId)> usable) {
  usable_ = std::move(usable);
}

Status BookKeeper::UnquarantineBookie(BookieId id) {
  if (id >= bookies_.size()) {
    return Status::NotFound("bookie " + std::to_string(id));
  }
  quarantined_.erase(id);
  return Status::OK();
}

Result<size_t> BookKeeper::RepairLedgersFor(BookieId target, SimTime now) {
  if (target >= bookies_.size()) {
    return Status::NotFound("bookie " + std::to_string(target));
  }
  QuarantineBookie(target);
  size_t copied = 0;
  for (auto& [lid, ledger] : ledgers_) {
    auto r = RepairLedger(&ledger, now);
    if (r.ok()) copied += *r;
  }
  return copied;
}

size_t BookKeeper::DropStaleReplicas(BookieId id) {
  if (id >= bookies_.size()) return 0;
  size_t dropped = 0;
  for (const auto& [lid, ledger] : ledgers_) {
    if (std::find(ledger.ensemble().begin(), ledger.ensemble().end(), id) !=
        ledger.ensemble().end()) {
      continue;
    }
    const uint64_t stale = bookies_[id]->CountLedger(lid);
    if (stale == 0) continue;
    bookies_[id]->Erase(lid);
    dropped += stale;
  }
  return dropped;
}

Result<LedgerId> BookKeeper::CreateLedger(uint32_t ensemble_size,
                                          uint32_t write_quorum,
                                          uint32_t ack_quorum) {
  if (ack_quorum == 0 || ack_quorum > write_quorum ||
      write_quorum > ensemble_size) {
    return Status::InvalidArgument(
        "require 1 <= ack_quorum <= write_quorum <= ensemble_size");
  }
  std::vector<BookieId> live;
  for (const auto& b : bookies_) {
    if (Usable(b->id())) live.push_back(b->id());
  }
  if (live.size() < ensemble_size) {
    return Status::ResourceExhausted("only " + std::to_string(live.size()) +
                                     " live bookies for ensemble of " +
                                     std::to_string(ensemble_size));
  }
  // Spread load: pick a random subset of live bookies.
  rng_.Shuffle(&live);
  live.resize(ensemble_size);
  const LedgerId id = next_ledger_++;
  ledgers_.emplace(id, Ledger(id, std::move(live), write_quorum, ack_quorum));
  return id;
}

Status BookKeeper::HealEnsemble(Ledger* ledger) {
  for (BookieId& member : ledger->ensemble_) {
    if (Usable(member)) continue;
    // Find a usable replacement not already in the ensemble.
    bool replaced = false;
    for (const auto& b : bookies_) {
      if (!Usable(b->id())) continue;
      if (std::find(ledger->ensemble_.begin(), ledger->ensemble_.end(),
                    b->id()) != ledger->ensemble_.end()) {
        continue;
      }
      member = b->id();
      replaced = true;
      break;
    }
    if (!replaced) {
      return Status::Unavailable("no live bookie to replace crashed member");
    }
  }
  return Status::OK();
}

Result<size_t> BookKeeper::RepairLedger(Ledger* ledger, SimTime now) {
  if (ledger->offload_store_ != nullptr) return size_t{0};
  std::vector<size_t> dead_slots;
  for (size_t s = 0; s < ledger->ensemble_.size(); ++s) {
    if (!Usable(ledger->ensemble_[s])) dead_slots.push_back(s);
  }
  if (dead_slots.empty()) return size_t{0};
  TAU_RETURN_IF_ERROR(HealEnsemble(ledger));

  // Under round-robin striping, entry e has replicas on slots
  // (e + r) % ensemble_size for r < write_quorum — so the entries a dead
  // slot hosted are exactly those; copy each from a surviving replica.
  const uint64_t n = ledger->ensemble_.size();
  size_t copied = 0;
  for (size_t s : dead_slots) {
    Bookie* replacement = bookies_[ledger->ensemble_[s]].get();
    for (uint64_t e = 0; e < ledger->next_entry_; ++e) {
      bool hosted = false;
      for (uint32_t r = 0; r < ledger->write_quorum_; ++r) {
        if ((e + r) % n == s) {
          hosted = true;
          break;
        }
      }
      if (!hosted) continue;
      auto data = Read(ledger->id_, e);
      if (!data.ok()) continue;  // trimmed, or lost beyond the quorum
      if (replacement->Write(ledger->id_, e, std::move(*data), now).ok()) {
        ++copied;
      }
    }
  }
  return copied;
}

Result<size_t> BookKeeper::CrashBookie(BookieId id, SimTime now) {
  if (id >= bookies_.size()) {
    return Status::NotFound("bookie " + std::to_string(id));
  }
  bookies_[id]->Crash();
  // Best-effort repair of every affected ledger (std::map order keeps the
  // repair sequence deterministic).
  size_t copied = 0;
  for (auto& [lid, ledger] : ledgers_) {
    auto r = RepairLedger(&ledger, now);
    if (r.ok()) copied += *r;
  }
  return copied;
}

Status BookKeeper::RecoverBookie(BookieId id) {
  if (id >= bookies_.size()) {
    return Status::NotFound("bookie " + std::to_string(id));
  }
  bookies_[id]->Recover();
  return Status::OK();
}

Result<AppendResult> BookKeeper::Append(LedgerId ledger_id,
                                        std::string payload, SimTime now) {
  auto it = ledgers_.find(ledger_id);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger " + std::to_string(ledger_id));
  }
  Ledger& ledger = it->second;
  if (ledger.closed_) {
    return Status::FailedPrecondition("ledger " + std::to_string(ledger_id) +
                                      " is closed (read-only)");
  }
  TAU_RETURN_IF_ERROR(HealEnsemble(&ledger));

  const uint64_t entry = ledger.next_entry_;
  // Round-robin striping: entry e goes to ensemble slots e, e+1, ...,
  // e + write_quorum - 1 (mod ensemble size) — BookKeeper's layout.
  std::vector<SimTime> acks;
  acks.reserve(ledger.write_quorum_);
  for (uint32_t r = 0; r < ledger.write_quorum_; ++r) {
    const BookieId b =
        ledger.ensemble_[(entry + r) % ledger.ensemble_.size()];
    auto done = bookies_[b]->Write(ledger_id, entry, payload, now);
    if (!done.ok()) return done.status();
    acks.push_back(*done);
  }
  // The append completes when the ack_quorum-th fastest replica is durable.
  std::sort(acks.begin(), acks.end());
  const SimTime ack_time = acks[ledger.ack_quorum_ - 1];
  ledger.next_entry_ += 1;
  return AppendResult{entry, ack_time};
}

Result<std::string> BookKeeper::Read(LedgerId ledger_id,
                                     uint64_t entry) const {
  auto it = ledgers_.find(ledger_id);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger " + std::to_string(ledger_id));
  }
  const Ledger& ledger = it->second;
  if (ledger.offload_store_ != nullptr) {
    // Tiered storage: serve from cold storage.
    std::string value;
    auto op = ledger.offload_store_->Get(
        "ledgers/" + std::to_string(ledger_id) + "/" + std::to_string(entry),
        &value);
    if (!op.status.ok()) return op.status;
    return value;
  }
  bool any_usable = false;
  for (uint32_t r = 0; r < ledger.write_quorum_; ++r) {
    const BookieId b =
        ledger.ensemble_[(entry + r) % ledger.ensemble_.size()];
    if (!Usable(b)) continue;
    auto res = bookies_[b]->Read(ledger_id, entry);
    if (res.ok()) return res;
    if (res.status().IsNotFound()) any_usable = true;
  }
  if (any_usable) {
    // A reachable replica answered: the entry is genuinely gone (trimmed
    // or never written), not temporarily unreachable.
    return Status::NotFound("entry " + std::to_string(entry) + " of ledger " +
                            std::to_string(ledger_id));
  }
  return Status::Unavailable("no reachable replica of entry " +
                             std::to_string(entry) + " in ledger " +
                             std::to_string(ledger_id));
}

Status BookKeeper::CloseLedger(LedgerId ledger_id) {
  auto it = ledgers_.find(ledger_id);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger " + std::to_string(ledger_id));
  }
  it->second.closed_ = true;
  return Status::OK();
}

Status BookKeeper::TrimLedger(LedgerId ledger_id, uint64_t first_retained) {
  auto it = ledgers_.find(ledger_id);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger " + std::to_string(ledger_id));
  }
  for (const auto& b : bookies_) {
    TAU_RETURN_IF_ERROR(b->EraseBelow(ledger_id, first_retained));
  }
  return Status::OK();
}

Status BookKeeper::OffloadLedger(LedgerId ledger_id,
                                 baas::BlobStore* cold_store) {
  auto it = ledgers_.find(ledger_id);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger " + std::to_string(ledger_id));
  }
  Ledger& ledger = it->second;
  if (!ledger.closed_) {
    return Status::FailedPrecondition(
        "only closed ledgers can be offloaded to tiered storage");
  }
  if (ledger.offload_store_ != nullptr) {
    return Status::FailedPrecondition("ledger already offloaded");
  }
  for (uint64_t e = 0; e < ledger.next_entry_; ++e) {
    TAU_ASSIGN_OR_RETURN(std::string data, Read(ledger_id, e));
    auto op = cold_store->Put(
        "ledgers/" + std::to_string(ledger_id) + "/" + std::to_string(e),
        std::move(data));
    TAU_RETURN_IF_ERROR(op.status);
  }
  for (const auto& b : bookies_) b->Erase(ledger_id);
  ledger.offload_store_ = cold_store;
  return Status::OK();
}

Status BookKeeper::DeleteLedger(LedgerId ledger_id) {
  auto it = ledgers_.find(ledger_id);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger " + std::to_string(ledger_id));
  }
  for (const auto& b : bookies_) b->Erase(ledger_id);
  ledgers_.erase(it);
  return Status::OK();
}

Result<const Ledger*> BookKeeper::GetLedger(LedgerId id) const {
  auto it = ledgers_.find(id);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger " + std::to_string(id));
  }
  return static_cast<const Ledger*>(&it->second);
}

}  // namespace taureau::pubsub
