// BookKeeper-like durable stream storage (paper §4.3 "Bookie").
//
// "A ledger is an append-only data structure with a single writer that is
// assigned to multiple bookies, and their entries are replicated to multiple
// bookie nodes." Ledgers here implement exactly those semantics: create,
// append (striped over an ensemble with write/ack quorums), close, read-only
// after close, delete.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baas/blob_store.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_types.h"

namespace taureau::pubsub {

using BookieId = uint32_t;
using LedgerId = uint64_t;

/// One storage node. Holds real entry bytes; has a service-time model so
/// replication factor shows up as throughput (E6).
class Bookie {
 public:
  Bookie(BookieId id, SimDuration write_base_us = 300, double us_per_byte = 0.001);

  BookieId id() const { return id_; }
  bool alive() const { return alive_; }
  void Crash() { alive_ = false; }
  void Recover() { alive_ = true; }

  /// Stores an entry replica; returns the simulated completion time given
  /// the bookie's queue (each bookie is a serial device).
  Result<SimTime> Write(LedgerId ledger, uint64_t entry, std::string payload,
                        SimTime now);

  Result<std::string> Read(LedgerId ledger, uint64_t entry) const;

  Status Erase(LedgerId ledger);

  /// Erases entries below `first_retained` (retention trimming).
  Status EraseBelow(LedgerId ledger, uint64_t first_retained);

  uint64_t entries_stored() const { return entries_.size(); }
  uint64_t bytes_stored() const { return bytes_; }

  /// Entry replicas this bookie holds for one ledger.
  uint64_t CountLedger(LedgerId ledger) const;

 private:
  BookieId id_;
  bool alive_ = true;
  SimDuration write_base_us_;
  double us_per_byte_;
  SimTime next_free_us_ = 0;  ///< Device queue: when the bookie is next idle.
  std::map<std::pair<LedgerId, uint64_t>, std::string> entries_;
  uint64_t bytes_ = 0;
};

/// Ledger metadata + write path. Single writer; closed ledgers are
/// immutable.
class Ledger {
 public:
  Ledger(LedgerId id, std::vector<BookieId> ensemble, uint32_t write_quorum,
         uint32_t ack_quorum);

  LedgerId id() const { return id_; }
  bool closed() const { return closed_; }
  uint64_t last_entry() const { return next_entry_ == 0 ? 0 : next_entry_ - 1; }
  uint64_t entry_count() const { return next_entry_; }
  const std::vector<BookieId>& ensemble() const { return ensemble_; }
  uint32_t write_quorum() const { return write_quorum_; }
  uint32_t ack_quorum() const { return ack_quorum_; }

  bool offloaded() const { return offload_store_ != nullptr; }

 private:
  friend class BookKeeper;
  LedgerId id_;
  std::vector<BookieId> ensemble_;
  uint32_t write_quorum_;
  uint32_t ack_quorum_;
  uint64_t next_entry_ = 0;
  bool closed_ = false;
  /// Tiered storage: non-null once the ledger moved to cold storage.
  baas::BlobStore* offload_store_ = nullptr;
};

/// Result of an append: the assigned entry id and the simulated time at
/// which the ack quorum completed.
struct AppendResult {
  uint64_t entry_id = 0;
  SimTime ack_time_us = 0;
};

/// The bookie ensemble manager (the BookKeeper "cluster").
class BookKeeper {
 public:
  /// num_bookies storage nodes, all initially alive.
  explicit BookKeeper(size_t num_bookies, uint64_t seed = 37);

  /// Creates a ledger striped over `ensemble_size` distinct live bookies.
  /// Requires ack_quorum <= write_quorum <= ensemble_size <= live bookies.
  Result<LedgerId> CreateLedger(uint32_t ensemble_size, uint32_t write_quorum,
                                uint32_t ack_quorum);

  /// Appends an entry; replicas go to `write_quorum` bookies selected by
  /// round-robin striping. Completes when `ack_quorum` replicas are durable.
  /// If a bookie in the ensemble has crashed, it is replaced (ensemble
  /// change) before the write proceeds.
  Result<AppendResult> Append(LedgerId ledger, std::string payload,
                              SimTime now);

  /// Reads one entry from any live replica. Fails Unavailable when all
  /// replicas are on crashed bookies.
  Result<std::string> Read(LedgerId ledger, uint64_t entry) const;

  /// Seals the ledger; further appends fail FailedPrecondition.
  Status CloseLedger(LedgerId ledger);

  /// Deletes the ledger from all bookies ("when the entries contained in
  /// the ledger are no longer needed").
  Status DeleteLedger(LedgerId ledger);

  /// Retention: drops entries below `first_retained` from every bookie —
  /// "durable storage for messages *until they are consumed*" (§4.3).
  /// Reads below the floor then fail NotFound.
  Status TrimLedger(LedgerId ledger, uint64_t first_retained);

  /// Tiered storage (§4.3): moves a *closed* ledger's entries to the blob
  /// store and frees the bookie replicas. Reads keep working transparently
  /// (at blob latency). FailedPrecondition if the ledger is still open.
  Status OffloadLedger(LedgerId ledger, baas::BlobStore* cold_store);

  Result<const Ledger*> GetLedger(LedgerId id) const;

  /// Crashes a bookie and immediately re-replicates: every ledger whose
  /// ensemble contained it gets a live replacement (same slot, preserving
  /// the striping layout) and the entries the dead bookie hosted are copied
  /// onto the replacement from surviving replicas. Returns the number of
  /// entry replicas copied. Reads keep succeeding through the repair.
  Result<size_t> CrashBookie(BookieId id, SimTime now);

  /// Marks a crashed bookie live again (it rejoins empty; ledgers that
  /// replaced it keep their healed ensembles).
  Status RecoverBookie(BookieId id);

  // ---- membership-driven operation (E25) --------------------------------
  /// Extra usability gate consulted on top of liveness everywhere a bookie
  /// is picked, written or read — e.g. "reachable over the
  /// ClusterTransport from the current writer". nullptr clears the gate.
  void SetUsable(std::function<bool(BookieId)> usable);

  /// Excludes a bookie from ensembles/reads without touching its data —
  /// how a partitioned (not crashed) bookie is treated until it rejoins.
  void QuarantineBookie(BookieId id) { quarantined_.insert(id); }
  Status UnquarantineBookie(BookieId id);

  /// Re-replicates every ledger away from `target`, quarantining it but
  /// preserving its data (partition repair, unlike CrashBookie). Returns
  /// entry replicas copied onto replacements.
  Result<size_t> RepairLedgersFor(BookieId target, SimTime now);

  /// Heal-time reconciliation: drops the replicas `id` still holds for
  /// ledgers whose healed ensembles no longer include it. Returns entries
  /// dropped (the stale-replica cleanup traffic).
  size_t DropStaleReplicas(BookieId id);

  Bookie& bookie(BookieId id) { return *bookies_[id]; }
  size_t bookie_count() const { return bookies_.size(); }
  size_t ledger_count() const { return ledgers_.size(); }

 private:
  /// Alive, not quarantined, and passes the SetUsable gate.
  bool Usable(BookieId id) const;

  /// Replaces crashed members of the ledger's ensemble with live bookies.
  Status HealEnsemble(Ledger* ledger);

  /// Heals one ledger's ensemble and copies the lost replicas onto the
  /// replacements. Returns entry replicas copied (0 if nothing was dead).
  Result<size_t> RepairLedger(Ledger* ledger, SimTime now);

  std::vector<std::unique_ptr<Bookie>> bookies_;
  std::map<LedgerId, Ledger> ledgers_;
  LedgerId next_ledger_ = 1;
  Rng rng_;
  std::function<bool(BookieId)> usable_;
  std::set<BookieId> quarantined_;
};

}  // namespace taureau::pubsub
