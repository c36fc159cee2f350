// Tests for the taureau::membership subsystem (E25): vector clocks and
// semilattice joins (property-tested against the lattice laws), the
// cluster transport's partition/link faults, phi-accrual failure
// detection, SWIM-style gossip membership, and the replication control
// plane's split-brain gate — plus the membership wiring into chaos,
// guard, cluster, pubsub and jiffy.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "chaos/circuit_breaker.h"
#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "guard/guard.h"
#include "jiffy/controller.h"
#include "membership/control_plane.h"
#include "membership/detector.h"
#include "membership/membership.h"
#include "membership/transport.h"
#include "membership/vclock.h"
#include "pubsub/broker.h"
#include "sim/simulation.h"

namespace taureau::membership {
namespace {

// ------------------------------------------------------------ VectorClock

TEST(VectorClockTest, CompareOrders) {
  VectorClock a, b;
  EXPECT_EQ(VectorClock::Compare(a, b), ClockOrder::kEqual);
  a.Tick(0);
  EXPECT_EQ(VectorClock::Compare(a, b), ClockOrder::kAfter);
  EXPECT_EQ(VectorClock::Compare(b, a), ClockOrder::kBefore);
  b.Tick(1);
  EXPECT_EQ(VectorClock::Compare(a, b), ClockOrder::kConcurrent);
  b.MergeFrom(a);
  EXPECT_TRUE(b.DominatesOrEquals(a));
  EXPECT_EQ(b.Count(0), 1u);
  EXPECT_EQ(b.Count(1), 1u);
  EXPECT_EQ(b.TotalTicks(), 2u);
}

TEST(VectorClockTest, MergeIsPointwiseMax) {
  VectorClock a, b;
  a.Tick(0);
  a.Tick(0);
  a.Tick(1);
  b.Tick(1);
  b.Tick(1);
  b.Tick(2);
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(0), 2u);
  EXPECT_EQ(a.Count(1), 2u);
  EXPECT_EQ(a.Count(2), 1u);
  EXPECT_EQ(a.ToString(), "{0:2 1:2 2:1}");
}

TEST(VectorClockTest, TotalTicksStrictlyIncreasesAlongCausalChain) {
  VectorClock a;
  uint64_t prev = a.TotalTicks();
  for (int i = 0; i < 10; ++i) {
    a.Tick(static_cast<NodeId>(i % 3));
    EXPECT_GT(a.TotalTicks(), prev);
    prev = a.TotalTicks();
  }
}

// ------------------------------------------- semilattice property tests
//
// Satellite check: Versioned<T>::Join must satisfy the lattice laws —
// commutativity, associativity, idempotence — and resolve concurrent
// writes deterministically. Replicas are generated the way real ones
// diverge: a shared causal prefix, then per-replica writes by that
// replica's own writer id (a writer only ever writes its own copy, which
// is what makes (weight, writer) priorities unique).

std::vector<Versioned<int>> DivergedReplicas(Rng* rng, int replicas) {
  Versioned<int> base;
  const int prefix = 1 + static_cast<int>(rng->NextBounded(4));
  for (int i = 0; i < prefix; ++i) {
    base.Write(static_cast<NodeId>(100 + i), static_cast<int>(rng->NextBounded(50)));
  }
  std::vector<Versioned<int>> out(replicas, base);
  for (int r = 0; r < replicas; ++r) {
    const int writes = static_cast<int>(rng->NextBounded(4));  // 0..3
    for (int w = 0; w < writes; ++w) {
      out[r].Write(static_cast<NodeId>(r), static_cast<int>(rng->NextBounded(50)));
    }
  }
  return out;
}

TEST(SemilatticeTest, JoinIsCommutative) {
  Rng rng(2501);
  for (int iter = 0; iter < 200; ++iter) {
    auto reps = DivergedReplicas(&rng, 2);
    Versioned<int> ab = reps[0], ba = reps[1];
    ab.Join(reps[1]);
    ba.Join(reps[0]);
    EXPECT_EQ(ab, ba) << "iteration " << iter;
  }
}

TEST(SemilatticeTest, JoinIsAssociative) {
  Rng rng(2502);
  for (int iter = 0; iter < 200; ++iter) {
    auto reps = DivergedReplicas(&rng, 3);
    Versioned<int> left = reps[0];
    left.Join(reps[1]);
    left.Join(reps[2]);
    Versioned<int> bc = reps[1];
    bc.Join(reps[2]);
    Versioned<int> right = reps[0];
    right.Join(bc);
    EXPECT_EQ(left, right) << "iteration " << iter;
  }
}

TEST(SemilatticeTest, JoinIsIdempotent) {
  Rng rng(2503);
  for (int iter = 0; iter < 200; ++iter) {
    auto reps = DivergedReplicas(&rng, 1);
    Versioned<int> twice = reps[0];
    twice.Join(reps[0]);
    EXPECT_EQ(twice, reps[0]) << "iteration " << iter;
  }
}

TEST(SemilatticeTest, CausalDominanceWins) {
  Versioned<int> a;
  a.Write(0, 1);
  Versioned<int> b = a;   // b observed a's write...
  b.Write(1, 2);          // ...then wrote on top: b dominates a.
  Versioned<int> merged = a;
  merged.Join(b);
  EXPECT_EQ(merged.value(), 2);
  EXPECT_FALSE(a.ConflictsWith(b));
}

TEST(SemilatticeTest, ConcurrentConflictResolvesDeterministically) {
  Rng rng(2504);
  int conflicts_seen = 0;
  for (int iter = 0; iter < 300; ++iter) {
    auto reps = DivergedReplicas(&rng, 2);
    const bool conflict = reps[0].ConflictsWith(reps[1]);
    EXPECT_EQ(conflict, reps[1].ConflictsWith(reps[0]));  // symmetric
    if (!conflict) continue;
    ++conflicts_seen;
    Versioned<int> ab = reps[0], ba = reps[1];
    ab.Join(reps[1]);
    ba.Join(reps[0]);
    EXPECT_EQ(ab.value(), ba.value());  // same winner either way
    EXPECT_EQ(ab, ba);
    // Replaying the merge gives the same answer: resolution is a pure
    // function of the two versions, not of history or order.
    Versioned<int> replay = reps[0];
    replay.Join(reps[1]);
    EXPECT_EQ(replay, ab);
  }
  EXPECT_GT(conflicts_seen, 20);  // the generator must exercise conflicts
}

TEST(SemilatticeTest, OwnershipTableJoinLaws) {
  Rng rng(2505);
  for (int iter = 0; iter < 50; ++iter) {
    // Three replicas of a small table, diverged by per-replica claims.
    std::vector<OwnershipTable> reps(3);
    for (int r = 0; r < 3; ++r) {
      const int claims = 1 + static_cast<int>(rng.NextBounded(5));
      for (int c = 0; c < claims; ++c) {
        reps[r].Claim(rng.NextBounded(6),
                      static_cast<NodeId>(rng.NextBounded(4)),
                      static_cast<NodeId>(r));
      }
    }
    OwnershipTable left = reps[0];
    left.Join(reps[1]);
    left.Join(reps[2]);
    OwnershipTable bc = reps[1];
    bc.Join(reps[2]);
    OwnershipTable right = reps[0];
    right.Join(bc);
    EXPECT_EQ(left.ToString(), right.ToString()) << "iteration " << iter;
    OwnershipTable idem = left;
    idem.Join(left);
    EXPECT_EQ(idem, left);
    // Commutativity of the pairwise join.
    OwnershipTable ab = reps[0], ba = reps[1];
    ab.Join(reps[1]);
    ba.Join(reps[0]);
    EXPECT_EQ(ab.ToString(), ba.ToString());
    EXPECT_EQ(reps[0].CountConflicts(reps[1]), reps[1].CountConflicts(reps[0]));
  }
}

TEST(OwnershipTableTest, DomainKeysDoNotCollide) {
  const uint64_t j = MakeOwnershipKey(OwnershipDomain::kJiffyNamespace, 7);
  const uint64_t p = MakeOwnershipKey(OwnershipDomain::kPubsubPartition, 7);
  EXPECT_NE(j, p);
  OwnershipTable t;
  t.Claim(j, 1, 0);
  t.Claim(p, 2, 0);
  EXPECT_EQ(t.OwnerOf(j), 1u);
  EXPECT_EQ(t.OwnerOf(p), 2u);
  EXPECT_EQ(t.OwnerOf(12345), kNoNode);
}

// --------------------------------------------------------- PhiAccrual

TEST(DetectorTest, GracePeriodBeforeFirstHeartbeat) {
  PhiAccrualDetector det;
  EXPECT_EQ(det.Phi(10 * kSecond), 0.0);
  EXPECT_FALSE(det.Suspect(10 * kSecond));
}

TEST(DetectorTest, RegularStreamStaysCalmSilenceEscalates) {
  PhiAccrualDetector det;
  SimTime t = 0;
  for (int i = 0; i < 30; ++i) {
    t += 50 * kMillisecond;
    det.Heartbeat(t);
  }
  // On schedule: not suspicious.
  EXPECT_LT(det.Phi(t + 50 * kMillisecond), PhiAccrualDetector::kPhiSuspect);
  // Phi is monotone in silence and crosses suspect before dead.
  double prev = 0;
  bool suspected = false, died = false;
  for (SimTime probe = t; probe < t + 2 * kSecond; probe += 10 * kMillisecond) {
    const double phi = det.Phi(probe);
    EXPECT_GE(phi, prev);
    prev = phi;
    if (!suspected && det.Suspect(probe)) {
      suspected = true;
      EXPECT_FALSE(died);
    }
    if (det.Dead(probe)) died = true;
  }
  EXPECT_TRUE(suspected);
  EXPECT_TRUE(died);
}

TEST(DetectorTest, AdaptsToJitterAndIsDeterministic) {
  PhiAccrualDetector steady, noisy, replay;
  Rng rng(77);
  SimTime ts = 0, tn = 0;
  std::vector<SimTime> noisy_times;
  for (int i = 0; i < 30; ++i) {
    ts += 50 * kMillisecond;
    steady.Heartbeat(ts);
    tn += 50 * kMillisecond + rng.NextBounded(40 * kMillisecond);
    noisy.Heartbeat(tn);
    noisy_times.push_back(tn);
  }
  // The same 120 ms silence looks more alarming on the steady link.
  EXPECT_GT(steady.Phi(ts + 120 * kMillisecond),
            noisy.Phi(tn + 120 * kMillisecond));
  for (SimTime t : noisy_times) replay.Heartbeat(t);
  EXPECT_EQ(noisy.Phi(tn + 300 * kMillisecond),
            replay.Phi(tn + 300 * kMillisecond));
}

// ---------------------------------------------------- ClusterTransport

TEST(TransportTest, SymmetricPartitionAndHeal) {
  ClusterTransport tr(5);
  EXPECT_TRUE(tr.Reachable(0, 4));
  tr.PartitionGroups(0b11000);  // {3,4} vs {0,1,2}
  EXPECT_TRUE(tr.partitioned());
  EXPECT_FALSE(tr.Reachable(0, 3));
  EXPECT_FALSE(tr.Reachable(4, 1));
  EXPECT_TRUE(tr.Reachable(3, 4));  // same side
  EXPECT_TRUE(tr.Reachable(0, 2));
  EXPECT_EQ(tr.SideSize(0), 3u);
  EXPECT_EQ(tr.SideSize(4), 2u);
  tr.Heal();
  EXPECT_FALSE(tr.partitioned());
  EXPECT_TRUE(tr.Reachable(0, 3));
  EXPECT_EQ(tr.stats().partitions, 1u);
  EXPECT_EQ(tr.stats().heals, 1u);
  EXPECT_GT(tr.stats().blocked_queries, 0u);
}

TEST(TransportTest, EmptyOrFullMaskIsNoOp) {
  ClusterTransport tr(3);
  tr.PartitionGroups(0);
  EXPECT_FALSE(tr.partitioned());
  tr.PartitionGroups(0b111);
  EXPECT_FALSE(tr.partitioned());
  EXPECT_EQ(tr.stats().partitions, 0u);
}

TEST(TransportTest, HealListenersFireOncePerActualHeal) {
  ClusterTransport tr(4);
  int heals_seen = 0;
  tr.AddHealListener([&] { ++heals_seen; });
  tr.Heal();  // not partitioned: no-op, listener must not fire
  EXPECT_EQ(heals_seen, 0);
  tr.PartitionGroups(0b0001);
  tr.Heal();
  EXPECT_EQ(heals_seen, 1);
  tr.Heal();
  EXPECT_EQ(heals_seen, 1);
}

TEST(TransportTest, AsymmetricLinkLoss) {
  ClusterTransport tr(4);
  tr.CutLink(1, 2);
  EXPECT_FALSE(tr.Reachable(1, 2));
  EXPECT_TRUE(tr.Reachable(2, 1));  // the half-open direction still flows
  tr.CutLink(1, 2);                 // duplicate cut: counted once
  EXPECT_EQ(tr.stats().links_cut, 1u);
  tr.RestoreLink(1, 2);
  EXPECT_TRUE(tr.Reachable(1, 2));
  EXPECT_EQ(tr.stats().links_restored, 1u);
  tr.CutLink(0, 3);
  tr.CutLink(3, 0);
  tr.RestoreAllLinks();
  EXPECT_EQ(tr.cut_link_count(), 0u);
}

TEST(TransportTest, ChaosHooksDrivePartitions) {
  sim::Simulation sim;
  chaos::InjectorRegistry registry(&sim);
  ClusterTransport tr(4);
  tr.AttachChaos(&registry);
  EXPECT_EQ(registry.hook_count(chaos::FaultKind::kGroupPartition), 1u);
  EXPECT_EQ(registry.hook_count(chaos::FaultKind::kLinkLoss), 1u);

  chaos::FaultPlan plan;
  plan.Add({10 * kSecond, chaos::FaultKind::kGroupPartition, 0b0001, 0});
  plan.Add({12 * kSecond, chaos::FaultKind::kGroupHeal, 0b0001, 0});
  plan.Add({11 * kSecond, chaos::FaultKind::kLinkLoss, chaos::PackLink(2, 3),
            0});
  plan.Add({13 * kSecond, chaos::FaultKind::kLinkRestore,
            chaos::PackLink(2, 3), 0});
  registry.Arm(plan);

  sim.RunUntil(10 * kSecond + 1);
  EXPECT_TRUE(tr.partitioned());
  sim.RunUntil(11 * kSecond + 1);
  EXPECT_FALSE(tr.Reachable(2, 3));
  sim.RunUntil(13 * kSecond + 1);
  EXPECT_FALSE(tr.partitioned());
  EXPECT_TRUE(tr.Reachable(2, 3));
  // Heal and restore were logged as recoveries.
  EXPECT_EQ(registry.log().CountKind(chaos::FaultKind::kGroupHeal, true), 1u);
  EXPECT_EQ(registry.log().CountKind(chaos::FaultKind::kLinkRestore, true),
            1u);
  EXPECT_EQ(registry.log().injected_count(), 4u);
}

// ------------------------------------------------- chaos plan + log E25

TEST(FaultPlanE25Test, GeneratesPartitionAndLinkEvents) {
  chaos::FaultPlanConfig cfg;
  cfg.horizon_us = 30 * kSecond;
  cfg.group_partition_per_s = 0.5;
  cfg.num_cluster_nodes = 10;
  cfg.link_loss_per_s = 0.5;
  Rng rng(99);
  const chaos::FaultPlan plan = chaos::FaultPlan::Generate(cfg, &rng);
  const size_t parts = plan.CountKind(chaos::FaultKind::kGroupPartition);
  const size_t links = plan.CountKind(chaos::FaultKind::kLinkLoss);
  ASSERT_GT(parts, 0u);
  ASSERT_GT(links, 0u);
  // Every fault is paired with its recovery.
  EXPECT_EQ(plan.CountKind(chaos::FaultKind::kGroupHeal), parts);
  EXPECT_EQ(plan.CountKind(chaos::FaultKind::kLinkRestore), links);
  for (const chaos::FaultEvent& e : plan.events()) {
    if (e.kind == chaos::FaultKind::kGroupPartition) {
      // A seeded strict-minority group: nonempty, at most half the nodes.
      EXPECT_NE(e.target, 0u);
      EXPECT_LT(e.target, uint64_t(1) << cfg.num_cluster_nodes);
      int bits = 0;
      for (uint64_t m = e.target; m != 0; m >>= 1) bits += int(m & 1);
      EXPECT_LE(bits, int(cfg.num_cluster_nodes) / 2);
    } else if (e.kind == chaos::FaultKind::kLinkLoss) {
      EXPECT_NE(chaos::LinkFrom(e.target), chaos::LinkTo(e.target));
      EXPECT_LT(chaos::LinkFrom(e.target), cfg.num_cluster_nodes);
      EXPECT_LT(chaos::LinkTo(e.target), cfg.num_cluster_nodes);
    }
  }
  Rng rng2(99);
  EXPECT_EQ(plan, chaos::FaultPlan::Generate(cfg, &rng2));
}

TEST(FaultLogTest, RingBufferKeepsNewestAndCountsDropped) {
  chaos::FaultLog log;
  log.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    log.Record({SimTime(i), false, chaos::FaultKind::kMachineCrash,
                uint64_t(i), "m", ""});
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(log.records().front().target, 6u);  // oldest survivor
  EXPECT_EQ(log.records().back().target, 9u);
  // Shrinking drops the oldest surplus immediately.
  log.set_capacity(2);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 8u);
  EXPECT_EQ(log.records().front().target, 8u);
  // Unbounded again: nothing more is dropped.
  log.set_capacity(0);
  log.Record({99, false, chaos::FaultKind::kMachineCrash, 99, "m", ""});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 8u);
}

// ------------------------------------------------------- MembershipService

struct MembershipWorld {
  sim::Simulation sim;
  ClusterTransport transport;
  MembershipService membership;

  explicit MembershipWorld(size_t nodes, uint64_t seed = 25)
      : transport(nodes),
        membership(&sim, &transport,
                   MembershipConfig{.num_nodes = nodes, .seed = seed}) {
    membership.Start();
  }
};

TEST(MembershipTest, StableClusterSeesEveryoneAlive) {
  MembershipWorld w(5);
  w.sim.RunUntil(3 * kSecond);
  for (NodeId o = 0; o < 5; ++o) {
    EXPECT_EQ(w.membership.AliveCount(o), 5u);
    EXPECT_TRUE(w.membership.HasQuorum(o));
    for (NodeId p = 0; p < 5; ++p) {
      EXPECT_EQ(w.membership.StateOf(o, p), MemberState::kAlive);
    }
  }
  EXPECT_EQ(w.membership.stats().deaths, 0u);
  EXPECT_GT(w.membership.stats().heartbeats_sent, 0u);
}

TEST(MembershipTest, PartitionSplitsTheViewAndHealConverges) {
  MembershipWorld w(5);
  w.sim.RunUntil(2 * kSecond);
  w.transport.PartitionGroups(0b10000);  // node 4 alone
  w.sim.RunUntil(6 * kSecond);

  // Majority declares the minority dead, keeps quorum.
  for (NodeId o = 0; o < 4; ++o) {
    EXPECT_EQ(w.membership.StateOf(o, 4), MemberState::kDead);
    EXPECT_TRUE(w.membership.HasQuorum(o));
  }
  // The minority sees everyone else dead and loses quorum.
  for (NodeId p = 0; p < 4; ++p) {
    EXPECT_EQ(w.membership.StateOf(4, p), MemberState::kDead);
  }
  EXPECT_FALSE(w.membership.HasQuorum(4));
  EXPECT_GT(w.membership.stats().heartbeats_blocked, 0u);

  w.transport.Heal();
  w.sim.RunUntil(12 * kSecond);

  // Refutation resurrects both sides; nobody stays dead.
  for (NodeId o = 0; o < 5; ++o) {
    EXPECT_EQ(w.membership.AliveCount(o), 5u) << "observer " << o;
    EXPECT_TRUE(w.membership.HasQuorum(o));
  }
  EXPECT_GT(w.membership.stats().refutations, 0u);
  EXPECT_GT(w.membership.stats().rejoins, 0u);
  // Node 4 refuted its death with a fresh incarnation, visible everywhere.
  for (NodeId o = 0; o < 5; ++o) {
    EXPECT_GT(w.membership.IncarnationOf(o, 4), 0u);
  }
}

TEST(MembershipTest, TransitionListenersFireInOrder) {
  MembershipWorld w(3);
  std::vector<std::string> events;
  w.membership.AddListener([&](NodeId o, NodeId p, MemberState from,
                               MemberState to, uint64_t epoch) {
    if (o != 0) return;
    events.push_back(std::to_string(p) + ":" +
                     std::string(MemberStateName(from)) + "->" +
                     std::string(MemberStateName(to)) + "@" +
                     std::to_string(epoch));
  });
  w.sim.RunUntil(1 * kSecond);
  w.transport.PartitionGroups(0b100);  // node 2 alone
  w.sim.RunUntil(4 * kSecond);
  // Observer 0 walked node 2 to dead (possibly straight from alive: with a
  // tight min_std_dev, phi can cross both thresholds between two 50 ms
  // evaluation ticks). The final transition is the death, epoch-stamped.
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events.back().rfind("2:", 0), 0u);
  EXPECT_NE(events.back().find("->dead"), std::string::npos);
}

TEST(MembershipTest, SameSeedByteIdenticalViews) {
  auto run = [] {
    MembershipWorld w(5, 77);
    w.sim.RunUntil(2 * kSecond);
    w.transport.PartitionGroups(0b00110);
    w.sim.RunUntil(5 * kSecond);
    w.transport.Heal();
    w.sim.RunUntil(9 * kSecond);
    std::string out;
    for (NodeId o = 0; o < 5; ++o) {
      out += w.membership.ViewToString(o) + "\n";
    }
    out += std::to_string(w.membership.stats().epoch_transitions) + "/" +
           std::to_string(w.membership.stats().heartbeats_sent);
    return out;
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------- ControlPlane

struct PlaneWorld {
  sim::Simulation sim;
  ClusterTransport transport;
  MembershipService membership;
  ControlPlane majority;  // runs on node 0
  ControlPlane minority;  // runs on node 4

  explicit PlaneWorld(bool minority_guarded)
      : transport(5),
        membership(&sim, &transport, MembershipConfig{.num_nodes = 5}),
        majority(&sim, &membership, ControlPlaneConfig{.self = 0}),
        minority(&sim, &membership,
                 ControlPlaneConfig{.self = 4,
                                    .require_quorum = minority_guarded}) {
    majority.SetPeer(&minority);
    minority.SetPeer(&majority);
    membership.Start();
    majority.Start();
    minority.Start();
  }
};

constexpr uint64_t kKeyOwned4 =
    MakeOwnershipKey(OwnershipDomain::kJiffyNamespace, 1);
constexpr uint64_t kKeyOwned1 =
    MakeOwnershipKey(OwnershipDomain::kJiffyNamespace, 2);

void RegisterTestLeases(PlaneWorld* w) {
  for (ControlPlane* cp : {&w->majority, &w->minority}) {
    cp->RegisterLease("test", kKeyOwned4, 4);  // owner on the minority side
    cp->RegisterLease("test", kKeyOwned1, 1);  // owner on the majority side
  }
  w->majority.ReconcileWith(&w->minority);  // shared causal baseline
}

TEST(ControlPlaneTest, LeaseRenewalAndQuorumStepDown) {
  PlaneWorld w(/*minority_guarded=*/true);
  RegisterTestLeases(&w);
  w.majority.SetReassign("test",
                         [](uint64_t, NodeId) -> NodeId { return 0; });
  w.sim.RunUntil(2 * kSecond);
  EXPECT_GT(w.majority.stats().renewals, 0u);
  EXPECT_EQ(w.majority.stats().suppressed_renewals, 0u);

  w.transport.PartitionGroups(0b10000);
  w.sim.RunUntil(6 * kSecond);

  // Majority reassigned the minority-hosted lease; the minority stepped
  // down (suppressed renewals) once it lost quorum.
  EXPECT_EQ(w.majority.LeaseOwner(kKeyOwned4), 0u);
  EXPECT_GT(w.majority.stats().reassigned_leases, 0u);
  EXPECT_GT(w.minority.stats().suppressed_renewals, 0u);
  EXPECT_GT(w.minority.stats().suppressed_no_quorum, 0u);
}

TEST(ControlPlaneTest, GuardedPartitionReconcilesWithoutConflict) {
  PlaneWorld w(/*minority_guarded=*/true);
  RegisterTestLeases(&w);
  w.majority.SetReassign("test",
                         [](uint64_t, NodeId) -> NodeId { return 0; });
  w.sim.RunUntil(2 * kSecond);
  w.transport.PartitionGroups(0b10000);
  w.sim.RunUntil(6 * kSecond);
  w.transport.Heal();
  w.sim.RunUntil(10 * kSecond);

  EXPECT_GT(w.majority.stats().reconciliations +
                w.minority.stats().reconciliations,
            1u);  // > the setup baseline
  EXPECT_EQ(w.majority.stats().conflicts_resolved, 0u);
  EXPECT_EQ(w.minority.stats().conflicts_resolved, 0u);
  // Both replicas converged to one table and one lease map.
  EXPECT_EQ(w.majority.ownership().ToString(),
            w.minority.ownership().ToString());
  EXPECT_EQ(w.majority.LeaseOwner(kKeyOwned4),
            w.minority.LeaseOwner(kKeyOwned4));
  EXPECT_EQ(w.majority.LeaseOwner(kKeyOwned1),
            w.minority.LeaseOwner(kKeyOwned1));
}

TEST(ControlPlaneTest, NaiveMinorityCausesSplitBrainConflicts) {
  PlaneWorld w(/*minority_guarded=*/false);
  RegisterTestLeases(&w);
  w.majority.SetReassign("test",
                         [](uint64_t, NodeId) -> NodeId { return 0; });
  // The naive minority grabs dead nodes' leases for itself.
  w.minority.SetReassign("test",
                         [](uint64_t, NodeId) -> NodeId { return 4; });
  w.sim.RunUntil(2 * kSecond);
  w.transport.PartitionGroups(0b10000);
  w.sim.RunUntil(6 * kSecond);

  // During the partition both sides actively claim the same keys with
  // different owners — the split-brain double ownership.
  EXPECT_EQ(w.majority.LeaseOwner(kKeyOwned4), 0u);
  EXPECT_EQ(w.minority.LeaseOwner(kKeyOwned4), 4u);
  EXPECT_EQ(w.minority.LeaseOwner(kKeyOwned1), 4u);  // stolen

  w.transport.Heal();
  w.sim.RunUntil(10 * kSecond);

  EXPECT_GT(w.majority.stats().conflicts_resolved +
                w.minority.stats().conflicts_resolved,
            0u);
  // The merge still converges both replicas to one deterministic answer.
  EXPECT_EQ(w.majority.ownership().ToString(),
            w.minority.ownership().ToString());
  EXPECT_EQ(w.majority.LeaseOwner(kKeyOwned4),
            w.minority.LeaseOwner(kKeyOwned4));
}

TEST(ControlPlaneTest, DeadAndRejoinHandlersRun) {
  PlaneWorld w(/*minority_guarded=*/true);
  std::multiset<NodeId> deads, rejoins;
  w.majority.OnNodeDead("test", [&](NodeId dead, uint64_t) {
    deads.insert(dead);
    return RehomeAction{3, "moved"};
  });
  w.majority.OnNodeRejoin("test", [&](NodeId rejoined, uint64_t) {
    rejoins.insert(rejoined);
    return RehomeAction{1, "restored"};
  });
  w.sim.RunUntil(2 * kSecond);
  w.transport.PartitionGroups(0b10000);
  w.sim.RunUntil(6 * kSecond);
  // During the partition, exactly the cut-off node dies at the majority.
  EXPECT_EQ(deads, std::multiset<NodeId>{4});
  EXPECT_EQ(w.majority.stats().rehomed_units, 3u);
  w.transport.Heal();
  w.sim.RunUntil(10 * kSecond);
  // Node 4 rejoined. Its "everyone is dead" gossip may also walk other
  // peers through a transient rumor-death at observer 0 until they refute
  // with a fresh incarnation, and the quorum gate may swallow some of the
  // rumor-deaths — so only node 4's pair is guaranteed, and the view must
  // end fully converged.
  EXPECT_EQ(rejoins.count(4), 1u);
  EXPECT_TRUE(w.membership.HasQuorum(0));
  EXPECT_EQ(w.membership.AliveCount(0), 5u);
}

// -------------------------------------- epoch-tagged guard/breaker gauges

TEST(EpochGaugeTest, BreakerStateTaggedByMembershipEpoch) {
  uint64_t epoch = 7;
  chaos::CircuitBreaker::Config cfg;
  cfg.failure_threshold = 2;
  chaos::CircuitBreaker breaker(cfg);
  breaker.SetEpochProvider([&epoch] { return epoch; });
  obs::Registry registry;
  breaker.BindMetrics(&registry, "pool");
  EXPECT_EQ(registry.ResolveGauge("pool.breaker_epoch").value(), 7.0);
  epoch = 9;
  breaker.RecordFailure(0);
  breaker.RecordFailure(1);  // trips -> open; samples the epoch
  EXPECT_EQ(registry.ResolveGauge("pool.breaker_state").value(),
            double(int(chaos::CircuitBreaker::State::kOpen)));
  EXPECT_EQ(registry.ResolveGauge("pool.breaker_epoch").value(), 9.0);
}

TEST(EpochGaugeTest, RetryBudgetTaggedByMembershipEpoch) {
  guard::Guard g;
  uint64_t epoch = 3;
  g.SetEpochProvider([&epoch] { return epoch; });
  EXPECT_EQ(g.registry().ResolveGauge("guard.epoch").value(), 3.0);
  epoch = 5;
  g.RecordRetryDecision("pubsub", true, {}, 1000);
  EXPECT_EQ(g.registry().ResolveGauge("guard.epoch").value(), 5.0);
}

TEST(EpochGaugeTest, LiveMembershipFeedsTheProviders) {
  MembershipWorld w(3);
  guard::Guard g;
  g.SetEpochProvider([&w] { return w.membership.epoch(0); });
  chaos::CircuitBreaker breaker;
  breaker.SetEpochProvider([&w] { return w.membership.epoch(0); });
  obs::Registry registry;
  breaker.BindMetrics(&registry, "b");
  w.sim.RunUntil(1 * kSecond);
  w.transport.PartitionGroups(0b100);
  w.sim.RunUntil(4 * kSecond);
  ASSERT_GT(w.membership.epoch(0), 0u);
  g.RecordRetryDecision("faas", false, {}, w.sim.Now());
  EXPECT_EQ(g.registry().ResolveGauge("guard.epoch").value(),
            double(w.membership.epoch(0)));
}

// ------------------------------------------------- cluster integration

TEST(ClusterMembershipTest, DeadNodePartitionsItsMachines) {
  sim::Simulation sim;
  ClusterTransport transport(3);
  MembershipService membership(&sim, &transport,
                               MembershipConfig{.num_nodes = 3});
  ControlPlane cp(&sim, &membership, ControlPlaneConfig{.self = 0});
  cluster::Cluster cl(4, {4000, 16384, 0});
  cl.AttachMembership(&cp, {0, 1, 2, 2});  // machines 2,3 on node 2
  membership.Start();
  sim.RunUntil(1 * kSecond);
  EXPECT_EQ(cl.usable_machine_count(), 4u);
  transport.PartitionGroups(0b100);  // node 2 alone
  sim.RunUntil(4 * kSecond);
  EXPECT_FALSE(cl.MachineUsable(2));
  EXPECT_FALSE(cl.MachineUsable(3));
  EXPECT_EQ(cl.usable_machine_count(), 2u);
  transport.Heal();
  sim.RunUntil(8 * kSecond);
  EXPECT_EQ(cl.usable_machine_count(), 4u);
  EXPECT_GT(cp.stats().rehomes, 0u);
  EXPECT_GT(cp.stats().rejoins_handled, 0u);
}

// --------------------------------------------------- jiffy integration

TEST(JiffyMembershipTest, DeadNodeRehomesBlocksAndLeases) {
  sim::Simulation sim;
  ClusterTransport transport(3);
  MembershipService membership(&sim, &transport,
                               MembershipConfig{.num_nodes = 3});
  ControlPlane cp(&sim, &membership, ControlPlaneConfig{.self = 0});

  jiffy::JiffyConfig cfg;
  cfg.num_memory_nodes = 4;
  cfg.blocks_per_node = 16;
  cfg.block_size_bytes = 256;
  jiffy::JiffyController ctl(&sim, cfg);
  // Memory nodes 2,3 live on cluster node 1.
  ctl.AttachMembership(&cp, jiffy::JiffyNodeMap{{0, 0, 1, 1}, 2});

  ASSERT_TRUE(ctl.CreateNamespace("/job", -1).ok());
  EXPECT_GE(cp.lease_count(), 1u);
  auto* table = *ctl.CreateHashTable("/job", "kv");
  const std::string value(200, 'v');
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(table->Put("k" + std::to_string(i), value).status.ok());
  }
  const uint64_t used_before = ctl.pool().used_blocks();

  membership.Start();
  sim.RunUntil(1 * kSecond);
  transport.PartitionGroups(0b010);  // node 1 (memory nodes 2,3) alone
  sim.RunUntil(4 * kSecond);

  // Blocks moved off the dead node's memory nodes; data still readable.
  EXPECT_GT(ctl.stats().blocks_rehomed, 0u);
  EXPECT_EQ(ctl.pool().used_blocks(), used_before);
  std::string got;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(table->Get("k" + std::to_string(i), &got).status.ok());
    EXPECT_EQ(got, value);
  }
  // The namespace lease never points at the dead node while it is down.
  const NodeId owner = cp.LeaseOwner(jiffy::JiffyController::NamespaceKey("/job"));
  EXPECT_NE(owner, 1u);
  EXPECT_NE(owner, kNoNode);

  transport.Heal();
  sim.RunUntil(8 * kSecond);
  EXPECT_GT(cp.stats().rejoins_handled, 0u);
}

// -------------------------------------------------- pubsub integration

struct PulsarMembershipWorld {
  sim::Simulation sim;
  ClusterTransport transport{3};
  MembershipService membership;
  ControlPlane cp;
  pubsub::PulsarCluster pulsar;

  PulsarMembershipWorld()
      : membership(&sim, &transport, MembershipConfig{.num_nodes = 3}),
        cp(&sim, &membership, ControlPlaneConfig{.self = 0}),
        pulsar(&sim, pubsub::PulsarConfig{.num_brokers = 2,
                                          .num_bookies = 4}) {
    // Broker b on node b; bookies 0,1 on node 0, bookies 2,3 on node 1;
    // clients (and this control plane) on node 0. Node 2 keeps the
    // majority when node 1 is cut off.
    pulsar.AttachMembership(&transport, &cp,
                            pubsub::PulsarNodeMap{{0, 1}, {0, 0, 1, 1}, 0});
    membership.Start();
  }
};

TEST(PulsarMembershipTest, NoAckedMessageLostAcrossPartitionAndHeal) {
  PulsarMembershipWorld w;
  ASSERT_TRUE(w.pulsar
                  .CreateTopic("orders", {.partitions = 2,
                                          .ensemble_size = 2,
                                          .write_quorum = 2,
                                          .ack_quorum = 2})
                  .ok());
  EXPECT_GE(w.cp.lease_count(), 2u);  // one lease per partition

  std::set<std::string> delivered;
  pubsub::ConsumerId consumer = *w.pulsar.Subscribe(
      "orders", "sub", pubsub::SubscriptionType::kShared,
      [&](const pubsub::Message& m) { delivered.insert(m.payload); });

  std::set<std::string> acked;
  auto publish = [&](int i) {
    const std::string payload = "m" + std::to_string(i);
    auto id = w.pulsar.Publish("orders", payload, payload);
    if (id.ok()) {
      acked.insert(payload);
      w.pulsar.Ack(consumer, *id);  // ack as delivered (best effort)
    }
  };

  w.sim.RunUntil(1 * kSecond);
  for (int i = 0; i < 20; ++i) publish(i);
  w.sim.RunUntil(2 * kSecond);
  w.transport.PartitionGroups(0b010);  // node 1 (broker 1, bookies 2,3) cut
  w.sim.RunUntil(4 * kSecond);
  for (int i = 20; i < 40; ++i) publish(i);  // broker/bookie failover
  w.sim.RunUntil(6 * kSecond);
  w.transport.Heal();
  w.sim.RunUntil(10 * kSecond);
  w.pulsar.RedrivePending();
  w.sim.RunUntil(12 * kSecond);

  // The invariant the control plane exists to keep: every acked publish
  // was delivered, across the partition and the heal.
  EXPECT_GT(acked.size(), 20u);
  for (const std::string& payload : acked) {
    EXPECT_TRUE(delivered.count(payload)) << "lost acked message " << payload;
  }
  // No partition lease may point at the dead-side broker while it is
  // down... and after heal the ownership table is internally consistent.
  EXPECT_EQ(w.pulsar.metrics().published, acked.size());
}

TEST(PulsarMembershipTest, PartitionLeasesReassignOffTheDeadBroker) {
  PulsarMembershipWorld w;
  ASSERT_TRUE(w.pulsar
                  .CreateTopic("t", {.partitions = 4,
                                     .ensemble_size = 2,
                                     .write_quorum = 2,
                                     .ack_quorum = 2})
                  .ok());
  w.sim.RunUntil(1 * kSecond);
  w.transport.PartitionGroups(0b010);
  w.sim.RunUntil(4 * kSecond);
  // Every lease moved off node 1 (broker 1 is unreachable/dead).
  EXPECT_GT(w.cp.stats().reassigned_leases, 0u);
  // All partitions are now dispatchable by the reachable broker.
  const std::vector<size_t> load = w.pulsar.BrokerLoad();
  ASSERT_EQ(load.size(), 2u);
  EXPECT_EQ(load[0], 4u);
  EXPECT_EQ(load[1], 0u);
}

}  // namespace
}  // namespace taureau::membership
