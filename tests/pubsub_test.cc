// Unit tests for the Pulsar-like messaging substrate (§4.3): bookies,
// ledgers, brokers, subscriptions, functions, tiered storage and backlog
// trimming.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baas/blob_store.h"
#include "pubsub/bookkeeper.h"
#include "pubsub/broker.h"
#include "pubsub/functions.h"
#include "sim/simulation.h"
#include "sketch/countmin.h"

namespace taureau::pubsub {
namespace {

// ------------------------------------------------------------- BookKeeper

TEST(BookKeeperTest, LedgerAppendRead) {
  BookKeeper bk(4);
  auto ledger = bk.CreateLedger(3, 2, 2);
  ASSERT_TRUE(ledger.ok());
  auto a0 = bk.Append(*ledger, "entry-0", 0);
  auto a1 = bk.Append(*ledger, "entry-1", 0);
  ASSERT_TRUE(a0.ok());
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a0->entry_id, 0u);
  EXPECT_EQ(a1->entry_id, 1u);
  EXPECT_EQ(*bk.Read(*ledger, 0), "entry-0");
  EXPECT_EQ(*bk.Read(*ledger, 1), "entry-1");
}

TEST(BookKeeperTest, QuorumValidation) {
  BookKeeper bk(4);
  EXPECT_TRUE(bk.CreateLedger(3, 2, 0).status().IsInvalidArgument());
  EXPECT_TRUE(bk.CreateLedger(3, 4, 2).status().IsInvalidArgument());
  EXPECT_TRUE(bk.CreateLedger(2, 3, 2).status().IsInvalidArgument());
  EXPECT_TRUE(bk.CreateLedger(5, 3, 2).status().IsResourceExhausted());
}

TEST(BookKeeperTest, ClosedLedgerIsReadOnly) {
  // §4.3: "After the ledger has been closed... it can only be opened in
  // read-only mode."
  BookKeeper bk(3);
  auto ledger = bk.CreateLedger(3, 2, 2);
  ASSERT_TRUE(ledger.ok());
  ASSERT_TRUE(bk.Append(*ledger, "x", 0).ok());
  ASSERT_TRUE(bk.CloseLedger(*ledger).ok());
  EXPECT_TRUE(bk.Append(*ledger, "y", 0).status().IsFailedPrecondition());
  EXPECT_EQ(*bk.Read(*ledger, 0), "x");
}

TEST(BookKeeperTest, DeleteErasesFromAllBookies) {
  BookKeeper bk(3);
  auto ledger = bk.CreateLedger(3, 3, 2);
  ASSERT_TRUE(ledger.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bk.Append(*ledger, "e" + std::to_string(i), 0).ok());
  }
  ASSERT_TRUE(bk.DeleteLedger(*ledger).ok());
  for (size_t b = 0; b < bk.bookie_count(); ++b) {
    EXPECT_EQ(bk.bookie(BookieId(b)).entries_stored(), 0u);
  }
  EXPECT_TRUE(bk.Read(*ledger, 0).status().IsNotFound());
}

TEST(BookKeeperTest, SurvivesBookieCrashWithinQuorum) {
  BookKeeper bk(5);
  auto ledger = bk.CreateLedger(3, 3, 2);
  ASSERT_TRUE(ledger.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bk.Append(*ledger, "e" + std::to_string(i), 0).ok());
  }
  // Crash one ensemble member through the managed transition: the ensemble
  // heals, the lost replicas re-replicate, reads fall back to surviving
  // replicas, and new appends keep working.
  const auto* meta = *bk.GetLedger(*ledger);
  auto copied = bk.CrashBookie(meta->ensemble()[0], 0);
  ASSERT_TRUE(copied.ok());
  EXPECT_GT(*copied, 0u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(bk.Read(*ledger, i).ok()) << i;
  }
  EXPECT_TRUE(bk.Append(*ledger, "post-crash", 0).ok());
}

TEST(BookKeeperTest, AckQuorumGatesLatency) {
  BookKeeper bk(3);
  auto fast = bk.CreateLedger(3, 3, 1);
  auto slow = bk.CreateLedger(3, 3, 3);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  const auto f = bk.Append(*fast, std::string(10000, 'x'), 0);
  const auto s = bk.Append(*slow, std::string(10000, 'x'), 0);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(s.ok());
  // ack=1 completes at the fastest replica; ack=3 waits for all.
  EXPECT_LE(f->ack_time_us, s->ack_time_us);
}

// ----------------------------------------------------------------- Broker

struct PulsarFixture {
  sim::Simulation sim;
  PulsarCluster cluster{&sim, PulsarConfig{}};
};

TEST(PulsarTest, CreateTopicValidation) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {.partitions = 2}).ok());
  EXPECT_TRUE(f.cluster.CreateTopic("t", {}).IsAlreadyExists());
  EXPECT_TRUE(
      f.cluster.CreateTopic("empty", {.partitions = 0}).IsInvalidArgument());
  EXPECT_TRUE(f.cluster.HasTopic("t"));
  EXPECT_FALSE(f.cluster.HasTopic("u"));
}

TEST(PulsarTest, PublishToUnknownTopicFails) {
  PulsarFixture f;
  EXPECT_TRUE(f.cluster.Publish("ghost", "", "m").status().IsNotFound());
}

TEST(PulsarTest, DeliverToSubscriber) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {}).ok());
  std::vector<std::string> received;
  auto consumer = f.cluster.Subscribe(
      "t", "sub", SubscriptionType::kExclusive,
      [&](const Message& m) { received.push_back(m.payload); });
  ASSERT_TRUE(consumer.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.cluster.Publish("t", "", "m" + std::to_string(i)).ok());
  }
  f.sim.Run();
  EXPECT_EQ(received,
            (std::vector<std::string>{"m0", "m1", "m2", "m3", "m4"}));
  EXPECT_EQ(f.cluster.metrics().delivered, 5u);
}

TEST(PulsarTest, SubscriberSeesEarlierMessages) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {}).ok());
  ASSERT_TRUE(f.cluster.Publish("t", "", "early").ok());
  f.sim.Run();
  std::vector<std::string> received;
  ASSERT_TRUE(f.cluster
                  .Subscribe("t", "late-sub", SubscriptionType::kExclusive,
                             [&](const Message& m) {
                               received.push_back(m.payload);
                             })
                  .ok());
  f.sim.Run();
  EXPECT_EQ(received, (std::vector<std::string>{"early"}));
}

TEST(PulsarTest, KeyedRoutingIsStable) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {.partitions = 8}).ok());
  auto id1 = f.cluster.Publish("t", "user-42", "a");
  auto id2 = f.cluster.Publish("t", "user-42", "b");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(id1->partition, id2->partition);
}

TEST(PulsarTest, ExclusiveRejectsSecondConsumer) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {}).ok());
  ASSERT_TRUE(f.cluster
                  .Subscribe("t", "sub", SubscriptionType::kExclusive,
                             [](const Message&) {})
                  .ok());
  EXPECT_TRUE(f.cluster
                  .Subscribe("t", "sub", SubscriptionType::kExclusive,
                             [](const Message&) {})
                  .status()
                  .IsFailedPrecondition());
}

TEST(PulsarTest, SubscriptionTypeMismatchFails) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {}).ok());
  ASSERT_TRUE(f.cluster
                  .Subscribe("t", "sub", SubscriptionType::kShared,
                             [](const Message&) {})
                  .ok());
  EXPECT_TRUE(f.cluster
                  .Subscribe("t", "sub", SubscriptionType::kFailover,
                             [](const Message&) {})
                  .status()
                  .IsFailedPrecondition());
}

TEST(PulsarTest, SharedSubscriptionLoadBalances) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {}).ok());
  int c1 = 0, c2 = 0;
  ASSERT_TRUE(f.cluster
                  .Subscribe("t", "work", SubscriptionType::kShared,
                             [&](const Message&) { ++c1; })
                  .ok());
  ASSERT_TRUE(f.cluster
                  .Subscribe("t", "work", SubscriptionType::kShared,
                             [&](const Message&) { ++c2; })
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f.cluster.Publish("t", "", "m").ok());
  }
  f.sim.Run();
  EXPECT_EQ(c1 + c2, 10);
  EXPECT_GT(c1, 0);
  EXPECT_GT(c2, 0);
}

TEST(PulsarTest, TwoSubscriptionsBothGetEverything) {
  // Pub-sub fan-out: independent subscriptions each see the full stream.
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {}).ok());
  int a = 0, b = 0;
  f.cluster.Subscribe("t", "sub-a", SubscriptionType::kExclusive,
                      [&](const Message&) { ++a; });
  f.cluster.Subscribe("t", "sub-b", SubscriptionType::kExclusive,
                      [&](const Message&) { ++b; });
  for (int i = 0; i < 7; ++i) f.cluster.Publish("t", "", "m");
  f.sim.Run();
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 7);
}

TEST(PulsarTest, AckRemovesFromUnacked) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {}).ok());
  std::vector<MessageId> ids;
  auto consumer = f.cluster.Subscribe(
      "t", "sub", SubscriptionType::kExclusive,
      [&](const Message& m) { ids.push_back(m.id); });
  ASSERT_TRUE(consumer.ok());
  f.cluster.Publish("t", "", "m");
  f.sim.Run();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_TRUE(f.cluster.Ack(*consumer, ids[0]).ok());
  EXPECT_TRUE(f.cluster.Ack(*consumer, ids[0]).IsNotFound());  // double-ack
  EXPECT_EQ(f.cluster.metrics().acked, 1u);
}

TEST(PulsarTest, FailoverRedeliversUnackedOnDisconnect) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {}).ok());
  std::vector<std::string> primary_got, standby_got;
  auto primary = f.cluster.Subscribe(
      "t", "sub", SubscriptionType::kFailover,
      [&](const Message& m) { primary_got.push_back(m.payload); });
  auto standby = f.cluster.Subscribe(
      "t", "sub", SubscriptionType::kFailover,
      [&](const Message& m) { standby_got.push_back(m.payload); });
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(standby.ok());
  f.cluster.Publish("t", "", "m1");
  f.sim.Run();
  ASSERT_EQ(primary_got.size(), 1u);
  EXPECT_TRUE(standby_got.empty());
  // Primary dies without acking: the standby must get the message.
  ASSERT_TRUE(f.cluster.Disconnect(*primary).ok());
  f.sim.Run();
  ASSERT_EQ(standby_got.size(), 1u);
  EXPECT_EQ(standby_got[0], "m1");
  EXPECT_GE(f.cluster.metrics().redelivered, 1u);
}

TEST(PulsarTest, KeyAndPayloadSurviveTheLedger) {
  // The ledger entry carries key and payload byte-exact, empty or binary,
  // both on first dispatch and on failover redelivery.
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {}).ok());
  using KeyPayload = std::pair<std::string, std::string>;
  const std::vector<KeyPayload> sent = {
      {"", "no key"},
      {"no payload", ""},
      {std::string("k\0\xff", 3), std::string("\xff\0p\0", 4)},
  };
  std::vector<KeyPayload> primary_got, standby_got;
  auto primary = f.cluster.Subscribe(
      "t", "sub", SubscriptionType::kFailover, [&](const Message& m) {
        primary_got.emplace_back(m.key, m.payload);
      });
  auto standby = f.cluster.Subscribe(
      "t", "sub", SubscriptionType::kFailover, [&](const Message& m) {
        standby_got.emplace_back(m.key, m.payload);
      });
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(standby.ok());
  for (const auto& [key, payload] : sent) {
    ASSERT_TRUE(f.cluster.Publish("t", key, payload).ok());
  }
  f.sim.Run();
  EXPECT_EQ(primary_got, sent);
  EXPECT_TRUE(standby_got.empty());
  // Nothing was acked, so the standby gets every entry again, unchanged.
  ASSERT_TRUE(f.cluster.Disconnect(*primary).ok());
  f.sim.Run();
  EXPECT_EQ(standby_got, sent);
}

TEST(PulsarTest, BrokerCrashLosesNoAckedData) {
  // §4.3: brokers are stateless; durable state lives in the bookies, so a
  // broker crash must not lose messages (at-least-once delivery).
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {.partitions = 3}).ok());
  std::set<std::string> received;
  auto consumer = f.cluster.Subscribe(
      "t", "sub", SubscriptionType::kShared,
      [&](const Message& m) { received.insert(m.payload); });
  ASSERT_TRUE(consumer.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f.cluster.Publish("t", "", "pre-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(f.cluster.CrashBroker(0).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f.cluster.Publish("t", "", "post-" + std::to_string(i)).ok());
  }
  f.sim.Run();
  EXPECT_EQ(received.size(), 20u);
}

TEST(PulsarTest, BrokerLoadSpreadsAcrossPartitions) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {.partitions = 9}).ok());
  const auto load = f.cluster.BrokerLoad();
  size_t total = 0, max_load = 0;
  for (size_t l : load) {
    total += l;
    max_load = std::max(max_load, l);
  }
  EXPECT_EQ(total, 9u);
  EXPECT_EQ(max_load, 3u);  // 9 partitions over 3 brokers
}

TEST(PulsarTest, PublishLatencyRecorded) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("t", {}).ok());
  for (int i = 0; i < 100; ++i) f.cluster.Publish("t", "", "m");
  f.sim.Run();
  EXPECT_EQ(f.cluster.metrics().publish_latency_us.count(), 100u);
  EXPECT_GT(f.cluster.metrics().publish_latency_us.mean(), 0);
}

// -------------------------------------------------------- Pulsar Functions

TEST(FunctionWorkerTest, ProcessesAndPublishes) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("in", {}).ok());
  ASSERT_TRUE(f.cluster.CreateTopic("out", {}).ok());
  FunctionWorker worker(
      &f.cluster, {.name = "upper", .input_topic = "in", .output_topic = "out"},
      [](const Message& m, FunctionContext& ctx) {
        std::string up = m.payload;
        for (char& c : up) c = char(toupper(c));
        return ctx.Publish(std::move(up));
      });
  ASSERT_TRUE(worker.Deploy().ok());
  std::vector<std::string> outputs;
  f.cluster.Subscribe("out", "check", SubscriptionType::kExclusive,
                      [&](const Message& m) { outputs.push_back(m.payload); });
  f.cluster.Publish("in", "", "hello");
  f.cluster.Publish("in", "", "world");
  f.sim.Run();
  EXPECT_EQ(outputs, (std::vector<std::string>{"HELLO", "WORLD"}));
  EXPECT_EQ(worker.metrics().processed, 2u);
  EXPECT_EQ(worker.metrics().published, 2u);
}

TEST(FunctionWorkerTest, StateCounters) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("in", {}).ok());
  FunctionWorker worker(
      &f.cluster, {.name = "count", .input_topic = "in"},
      [](const Message& m, FunctionContext& ctx) {
        ctx.IncrCounter(m.payload, 1);
        return Status::OK();
      });
  ASSERT_TRUE(worker.Deploy().ok());
  for (const char* w : {"a", "b", "a", "a"}) f.cluster.Publish("in", "", w);
  f.sim.Run();
  EXPECT_EQ(worker.state().at("a"), "3");
  EXPECT_EQ(worker.state().at("b"), "1");
}

TEST(FunctionWorkerTest, CountMinSketchFunctionFigure3) {
  // The paper's Figure 3 end-to-end: a Count-Min sketch deployed as a
  // Pulsar function estimating event frequencies on a live stream.
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("events", {}).ok());
  sketch::CountMinSketch cms(20, 20, 128);
  FunctionWorker worker(
      &f.cluster, {.name = "count-min", .input_topic = "events"},
      [&cms](const Message& m, FunctionContext&) {
        cms.Add(m.payload, 1);
        return Status::OK();
      });
  ASSERT_TRUE(worker.Deploy().ok());
  std::map<std::string, int> truth;
  Rng rng(9);
  ZipfGenerator zipf(50, 1.0);
  for (int i = 0; i < 2000; ++i) {
    const std::string ev = "event-" + std::to_string(zipf.Next(&rng));
    ++truth[ev];
    f.cluster.Publish("events", "", ev);
  }
  f.sim.Run();
  EXPECT_EQ(worker.metrics().processed, 2000u);
  for (const auto& [ev, count] : truth) {
    EXPECT_GE(cms.EstimateCount(ev), uint64_t(count));
  }
}

TEST(FunctionWorkerTest, FailedMessageStaysUnacked) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("in", {}).ok());
  FunctionWorker worker(
      &f.cluster, {.name = "fail", .input_topic = "in"},
      [](const Message&, FunctionContext&) {
        return Status::Aborted("boom");
      });
  ASSERT_TRUE(worker.Deploy().ok());
  f.cluster.Publish("in", "", "x");
  f.sim.Run();
  EXPECT_EQ(worker.metrics().failed, 1u);
  EXPECT_EQ(f.cluster.metrics().acked, 0u);
}

TEST(FunctionWorkerTest, ParallelismValidation) {
  PulsarFixture f;
  ASSERT_TRUE(f.cluster.CreateTopic("in", {}).ok());
  FunctionWorker worker(&f.cluster,
                        {.name = "p0", .input_topic = "in", .parallelism = 0},
                        [](const Message&, FunctionContext&) {
                          return Status::OK();
                        });
  EXPECT_TRUE(worker.Deploy().IsInvalidArgument());
}

// -------------------------------------------------- Pulsar tiered storage

TEST(TieredStorageTest, OffloadedLedgerStillReadable) {
  pubsub::BookKeeper bk(4);
  baas::BlobStore cold;
  auto ledger = bk.CreateLedger(3, 2, 2);
  ASSERT_TRUE(ledger.ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(bk.Append(*ledger, "entry-" + std::to_string(i), 0).ok());
  }
  ASSERT_TRUE(bk.CloseLedger(*ledger).ok());
  ASSERT_TRUE(bk.OffloadLedger(*ledger, &cold).ok());
  // Bookies are free; data served from the blob store.
  for (size_t b = 0; b < bk.bookie_count(); ++b) {
    EXPECT_EQ(bk.bookie(pubsub::BookieId(b)).entries_stored(), 0u);
  }
  for (int i = 0; i < 25; ++i) {
    auto r = bk.Read(*ledger, uint64_t(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, "entry-" + std::to_string(i));
  }
  EXPECT_EQ(cold.object_count(), 25u);
}

TEST(TieredStorageTest, OpenLedgerCannotOffload) {
  pubsub::BookKeeper bk(3);
  baas::BlobStore cold;
  auto ledger = bk.CreateLedger(3, 2, 2);
  ASSERT_TRUE(ledger.ok());
  ASSERT_TRUE(bk.Append(*ledger, "x", 0).ok());
  EXPECT_TRUE(bk.OffloadLedger(*ledger, &cold).IsFailedPrecondition());
}

TEST(TieredStorageTest, DoubleOffloadRejected) {
  pubsub::BookKeeper bk(3);
  baas::BlobStore cold;
  auto ledger = bk.CreateLedger(3, 2, 2);
  ASSERT_TRUE(ledger.ok());
  ASSERT_TRUE(bk.Append(*ledger, "x", 0).ok());
  ASSERT_TRUE(bk.CloseLedger(*ledger).ok());
  ASSERT_TRUE(bk.OffloadLedger(*ledger, &cold).ok());
  EXPECT_TRUE(bk.OffloadLedger(*ledger, &cold).IsFailedPrecondition());
}

TEST(TieredStorageTest, SurvivesTotalBookieLoss) {
  // Once offloaded, even losing every bookie cannot lose the data.
  pubsub::BookKeeper bk(3);
  baas::BlobStore cold;
  auto ledger = bk.CreateLedger(3, 3, 2);
  ASSERT_TRUE(ledger.ok());
  ASSERT_TRUE(bk.Append(*ledger, "precious", 0).ok());
  ASSERT_TRUE(bk.CloseLedger(*ledger).ok());
  ASSERT_TRUE(bk.OffloadLedger(*ledger, &cold).ok());
  for (size_t b = 0; b < bk.bookie_count(); ++b) {
    bk.bookie(pubsub::BookieId(b)).Crash();
  }
  auto r = bk.Read(*ledger, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "precious");
}

// ------------------------------------------------------- Backlog trimming

struct TrimFixture {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar{&sim, pubsub::PulsarConfig{}};
  pubsub::ConsumerId consumer = 0;
  std::vector<pubsub::MessageId> delivered;

  TrimFixture() {
    EXPECT_TRUE(pulsar.CreateTopic("t", {.partitions = 1}).ok());
    auto c = pulsar.Subscribe("t", "sub", pubsub::SubscriptionType::kShared,
                              [this](const pubsub::Message& m) {
                                delivered.push_back(m.id);
                              });
    EXPECT_TRUE(c.ok());
    consumer = *c;
  }

  uint64_t BookieEntries() {
    uint64_t total = 0;
    for (size_t b = 0; b < pulsar.bookkeeper().bookie_count(); ++b) {
      total += pulsar.bookkeeper().bookie(pubsub::BookieId(b)).entries_stored();
    }
    return total;
  }
};

TEST(BacklogTrimTest, FullyAckedBacklogReclaimed) {
  TrimFixture f;
  for (int i = 0; i < 20; ++i) f.pulsar.Publish("t", "", "m");
  f.sim.Run();
  ASSERT_EQ(f.delivered.size(), 20u);
  for (const auto& id : f.delivered) {
    ASSERT_TRUE(f.pulsar.Ack(f.consumer, id).ok());
  }
  ASSERT_GT(f.BookieEntries(), 0u);
  auto trimmed = f.pulsar.TrimConsumedBacklog("t");
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, 20u);
  EXPECT_EQ(f.BookieEntries(), 0u);
}

TEST(BacklogTrimTest, UnackedMessagesRetained) {
  TrimFixture f;
  for (int i = 0; i < 10; ++i) f.pulsar.Publish("t", "", "m");
  f.sim.Run();
  ASSERT_EQ(f.delivered.size(), 10u);
  // Ack everything except the 4th message: the floor stops there.
  for (size_t i = 0; i < f.delivered.size(); ++i) {
    if (i != 3) {
      ASSERT_TRUE(f.pulsar.Ack(f.consumer, f.delivered[i]).ok());
    }
  }
  auto trimmed = f.pulsar.TrimConsumedBacklog("t");
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, 3u);  // entries 0..2 only
  // The unacked message can still be read for redelivery.
  EXPECT_TRUE(f.pulsar.bookkeeper()
                  .Read(f.delivered[3].ledger_id, f.delivered[3].entry_id)
                  .ok());
}

TEST(BacklogTrimTest, SlowestSubscriptionGovernsRetention) {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar{&sim, pubsub::PulsarConfig{}};
  ASSERT_TRUE(pulsar.CreateTopic("t", {.partitions = 1}).ok());
  std::vector<pubsub::MessageId> fast_ids;
  auto fast = pulsar.Subscribe("t", "fast", pubsub::SubscriptionType::kShared,
                               [&](const pubsub::Message& m) {
                                 fast_ids.push_back(m.id);
                               });
  ASSERT_TRUE(fast.ok());
  auto lagging = pulsar.Subscribe("t", "lagging",
                                  pubsub::SubscriptionType::kShared,
                                  [](const pubsub::Message&) {});
  ASSERT_TRUE(lagging.ok());
  for (int i = 0; i < 10; ++i) pulsar.Publish("t", "", "m");
  sim.Run();
  for (const auto& id : fast_ids) {
    ASSERT_TRUE(pulsar.Ack(*fast, id).ok());
  }
  // "lagging" acked nothing: retention must keep everything for it.
  auto trimmed = pulsar.TrimConsumedBacklog("t");
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, 0u);
}

TEST(BacklogTrimTest, NoSubscriptionsRetainsEverything) {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar{&sim, pubsub::PulsarConfig{}};
  ASSERT_TRUE(pulsar.CreateTopic("t", {}).ok());
  for (int i = 0; i < 5; ++i) pulsar.Publish("t", "", "m");
  sim.Run();
  auto trimmed = pulsar.TrimConsumedBacklog("t");
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, 0u);
  EXPECT_TRUE(pulsar.TrimConsumedBacklog("ghost").status().IsNotFound());
}

TEST(BacklogTrimTest, TrimIsIdempotent) {
  TrimFixture f;
  for (int i = 0; i < 5; ++i) f.pulsar.Publish("t", "", "m");
  f.sim.Run();
  for (const auto& id : f.delivered) (void)f.pulsar.Ack(f.consumer, id);
  EXPECT_EQ(*f.pulsar.TrimConsumedBacklog("t"), 5u);
  EXPECT_EQ(*f.pulsar.TrimConsumedBacklog("t"), 0u);
}

// ----------------------------------------------------------- Bookie depth

TEST(BookieDepthTest, ByteAccountingAndRecovery) {
  pubsub::Bookie bookie(0);
  ASSERT_TRUE(bookie.Write(1, 0, std::string(100, 'x'), 0).ok());
  ASSERT_TRUE(bookie.Write(1, 1, std::string(50, 'y'), 0).ok());
  EXPECT_EQ(bookie.bytes_stored(), 150u);
  EXPECT_EQ(bookie.entries_stored(), 2u);
  bookie.Crash();
  EXPECT_TRUE(bookie.Write(1, 2, "z", 0).status().IsUnavailable());
  EXPECT_TRUE(bookie.Read(1, 0).status().IsUnavailable());
  bookie.Recover();
  EXPECT_TRUE(bookie.Read(1, 0).ok());  // data survived the crash
  ASSERT_TRUE(bookie.Erase(1).ok());
  EXPECT_EQ(bookie.bytes_stored(), 0u);
}

TEST(BookieDepthTest, SerialDeviceQueueing) {
  pubsub::Bookie bookie(0, /*write_base_us=*/1000, /*us_per_byte=*/0);
  auto t1 = bookie.Write(1, 0, "a", /*now=*/0);
  auto t2 = bookie.Write(1, 1, "b", /*now=*/0);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t1, 1000);
  EXPECT_EQ(*t2, 2000);  // queued behind the first
}

// ------------------------------------------------------------ Pulsar depth

TEST(PulsarDepthTest, FunctionWithoutOutputTopicCannotPublish) {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar(&sim, pubsub::PulsarConfig{});
  ASSERT_TRUE(pulsar.CreateTopic("in", {}).ok());
  Status publish_status;
  pubsub::FunctionWorker fn(
      &pulsar, {.name = "sink", .input_topic = "in"},
      [&](const pubsub::Message&, pubsub::FunctionContext& ctx) {
        publish_status = ctx.Publish("out");
        return Status::OK();  // function itself still succeeds
      });
  ASSERT_TRUE(fn.Deploy().ok());
  pulsar.Publish("in", "", "x");
  sim.Run();
  EXPECT_TRUE(publish_status.IsFailedPrecondition());
}

TEST(PulsarDepthTest, RecoveredBrokerServesAgain) {
  sim::Simulation sim;
  pubsub::PulsarCluster pulsar(&sim, pubsub::PulsarConfig{});
  ASSERT_TRUE(pulsar.CreateTopic("t", {.partitions = 3}).ok());
  ASSERT_TRUE(pulsar.CrashBroker(0).ok());
  ASSERT_TRUE(pulsar.RecoverBroker(0).ok());
  int got = 0;
  pulsar.Subscribe("t", "s", pubsub::SubscriptionType::kShared,
                   [&](const pubsub::Message&) { ++got; });
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(pulsar.Publish("t", "", "m").ok());
  }
  sim.Run();
  EXPECT_EQ(got, 9);
}

TEST(PulsarDepthTest, CrashingAllBrokersFailsPublish) {
  sim::Simulation sim;
  pubsub::PulsarConfig cfg;
  cfg.num_brokers = 2;
  pubsub::PulsarCluster pulsar(&sim, cfg);
  ASSERT_TRUE(pulsar.CreateTopic("t", {}).ok());
  ASSERT_TRUE(pulsar.CrashBroker(0).ok());
  EXPECT_TRUE(pulsar.CrashBroker(1).IsUnavailable());  // last broker refuses
}

}  // namespace
}  // namespace taureau::pubsub
