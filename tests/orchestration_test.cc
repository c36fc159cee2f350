// Unit tests for orchestration (§4.2): the three properties of composition
// frameworks — black-box functions, composition-as-function, no double
// billing — plus the Map state.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "faas/platform.h"
#include "orchestration/composition.h"
#include "orchestration/orchestrator.h"
#include "sim/simulation.h"

namespace taureau::orchestration {
namespace {

struct Fixture {
  sim::Simulation sim;
  cluster::Cluster cluster{8, {32000, 65536}};
  faas::FaasPlatform platform{&sim, &cluster, faas::FaasConfig{}};
  Orchestrator orch{&sim, &platform};

  Fixture() {
    RegisterAppender("a");
    RegisterAppender("b");
    RegisterAppender("c");
  }

  /// A function that appends its own name to the payload — so dataflow
  /// order is observable in the output.
  void RegisterAppender(const std::string& name,
                        SimDuration exec = 20 * kMillisecond) {
    faas::FunctionSpec spec;
    spec.name = name;
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, exec, 0, 0};
    spec.handler = [name](const std::string& payload,
                          faas::InvocationContext&)
        -> Result<std::string> { return payload + name; };
    ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  }
};

TEST(CompositionTest, BuildersProduceExpectedShapes) {
  auto seq = Composition::Sequence(
      {Composition::Task("a"), Composition::Task("b")});
  EXPECT_EQ(seq.root()->kind, Composition::Kind::kSequence);
  EXPECT_EQ(seq.LeafCount(), 2u);
  auto par = Composition::Parallel(
      {Composition::Task("a"), seq, Composition::Named("other")});
  EXPECT_EQ(par.LeafCount(), 4u);
  auto retry = Composition::Retry(Composition::Task("a"),
                                  chaos::RetryPolicy::Immediate(3));
  EXPECT_EQ(retry.root()->retry_policy.max_attempts, 3);
}

TEST(OrchestratorTest, SequencePipesOutputs) {
  Fixture f;
  auto comp = Composition::Sequence({Composition::Task("a"),
                                     Composition::Task("b"),
                                     Composition::Task("c")});
  auto res = f.orch.RunSync(comp, ">");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(res->output, ">abc");
  EXPECT_EQ(res->function_invocations, 3u);
}

TEST(OrchestratorTest, ParallelJoinsBranches) {
  Fixture f;
  auto comp = Composition::Parallel(
      {Composition::Task("a"), Composition::Task("b")});
  auto res = f.orch.RunSync(comp, "x");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "xa\nxb");
}

TEST(OrchestratorTest, ParallelCustomAggregator) {
  Fixture f;
  auto comp = Composition::Parallel(
      {Composition::Task("a"), Composition::Task("b")},
      [](const std::vector<std::string>& outs) {
        std::string joined;
        for (const auto& o : outs) joined += "[" + o + "]";
        return joined;
      });
  auto res = f.orch.RunSync(comp, "");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "[a][b]");
}

TEST(OrchestratorTest, ParallelRunsConcurrently) {
  Fixture f;
  f.RegisterAppender("slow1", 500 * kMillisecond);
  f.RegisterAppender("slow2", 500 * kMillisecond);
  auto par = Composition::Parallel(
      {Composition::Task("slow1"), Composition::Task("slow2")});
  auto res = f.orch.RunSync(par, "");
  ASSERT_TRUE(res.ok());
  // Concurrent: makespan ~ one execution (plus cold start), not two.
  EXPECT_LT(res->Makespan(), 2 * (500 * kMillisecond));
}

TEST(OrchestratorTest, ChoiceRoutesOnPredicate) {
  Fixture f;
  auto comp = Composition::Choice(
      [](const std::string& input) { return input == "left"; },
      Composition::Task("a"), Composition::Task("b"));
  EXPECT_EQ(f.orch.RunSync(comp, "left")->output, "lefta");
  EXPECT_EQ(f.orch.RunSync(comp, "right")->output, "rightb");
}

TEST(OrchestratorTest, CompositionIsAFunction) {
  // Property 2: a registered composition is invokable and nestable.
  Fixture f;
  ASSERT_TRUE(f.orch
                  .RegisterComposition(
                      "inner", Composition::Sequence({Composition::Task("a"),
                                                      Composition::Task("b")}))
                  .ok());
  // Nest it inside another composition as a black box.
  auto outer = Composition::Sequence(
      {Composition::Named("inner"), Composition::Task("c")});
  auto res = f.orch.RunSync(outer, "");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "abc");
  EXPECT_EQ(res->function_invocations, 3u);
  // And invokable by name directly.
  ExecutionResult by_name;
  ASSERT_TRUE(f.orch.RunNamed("inner", "", [&](const ExecutionResult& r) {
    by_name = r;
  }).ok());
  f.sim.Run();
  EXPECT_EQ(by_name.output, "ab");
}

TEST(OrchestratorTest, UnknownNamedCompositionFails) {
  Fixture f;
  auto res = f.orch.RunSync(Composition::Named("ghost"), "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsNotFound());
  EXPECT_TRUE(f.orch.RunNamed("ghost", "", nullptr).IsNotFound());
}

TEST(OrchestratorTest, DuplicateRegistrationFails) {
  Fixture f;
  ASSERT_TRUE(
      f.orch.RegisterComposition("c1", Composition::Task("a")).ok());
  EXPECT_TRUE(f.orch.RegisterComposition("c1", Composition::Task("b"))
                  .IsAlreadyExists());
}

TEST(OrchestratorTest, NoDoubleBilling) {
  // Property 3: the orchestrated run charges exactly the sum of the basic
  // function invocations — verified against the platform's audit ledger.
  Fixture f;
  const Money before = f.platform.ledger().Total();
  auto comp = Composition::Sequence(
      {Composition::Task("a"),
       Composition::Parallel({Composition::Task("b"), Composition::Task("c"),
                              Composition::Task("a")}),
       Composition::Task("b")});
  auto res = f.orch.RunSync(comp, "");
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok());
  const Money ledger_delta = f.platform.ledger().Total() - before;
  // Exactly the function charges: nothing extra for the composition.
  EXPECT_EQ(res->cost, ledger_delta);
  EXPECT_EQ(res->function_invocations, 5u);
  EXPECT_EQ(f.platform.ledger().record_count(), 5u);
}

TEST(OrchestratorTest, NestedCompositionStillSingleBilled) {
  Fixture f;
  ASSERT_TRUE(f.orch
                  .RegisterComposition(
                      "inner", Composition::Parallel({Composition::Task("a"),
                                                      Composition::Task("b")}))
                  .ok());
  auto outer = Composition::Sequence(
      {Composition::Named("inner"), Composition::Named("inner")});
  const Money before = f.platform.ledger().Total();
  auto res = f.orch.RunSync(outer, "");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->cost, f.platform.ledger().Total() - before);
  EXPECT_EQ(res->function_invocations, 4u);
}

TEST(OrchestratorTest, FailurePropagates) {
  Fixture f;
  faas::FunctionSpec bad;
  bad.name = "bad";
  bad.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  bad.handler = [](const std::string&, faas::InvocationContext&)
      -> Result<std::string> { return Status::Aborted("boom"); };
  ASSERT_TRUE(f.platform.RegisterFunction(bad).ok());
  auto comp = Composition::Sequence(
      {Composition::Task("a"), Composition::Task("bad"),
       Composition::Task("c")});
  auto res = f.orch.RunSync(comp, "");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.IsAborted());
  // "c" never ran: a + bad's platform attempts only.
  EXPECT_EQ(res->function_invocations, 2u);
}

TEST(OrchestratorTest, RetryRerunsFailedSubtree) {
  Fixture f;
  int calls = 0;
  faas::FunctionSpec flaky;
  flaky.name = "flaky";
  flaky.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  flaky.handler = [&calls](const std::string& payload,
                           faas::InvocationContext&) -> Result<std::string> {
    if (++calls < 4) return Status::Aborted("not yet");
    return payload + "!";
  };
  ASSERT_TRUE(f.platform.RegisterFunction(flaky).ok());
  // Platform retries (3 attempts) fail; orchestration retry launches a
  // second invocation whose first attempt succeeds.
  auto comp = Composition::Retry(Composition::Task("flaky"),
                                 chaos::RetryPolicy::Immediate(2));
  auto res = f.orch.RunSync(comp, "x");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(res->output, "x!");
  EXPECT_EQ(calls, 4);
  // Cost still equals the ledger: the failed attempts were billed too.
  EXPECT_EQ(res->cost, f.platform.ledger().Total());
}

TEST(OrchestratorTest, EmptySequencePassesInputThrough) {
  Fixture f;
  auto res = f.orch.RunSync(Composition::Sequence({}), "untouched");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "untouched");
  EXPECT_EQ(res->cost, Money::Zero());
}

TEST(OrchestratorTest, BlackBoxProperty) {
  // Property 1: the composition references functions by name only — the
  // same composition runs against different function implementations.
  Fixture f;
  auto comp = Composition::Task("a");
  auto res1 = f.orch.RunSync(comp, "");
  EXPECT_EQ(res1->output, "a");

  // A second platform with a different implementation of "a".
  sim::Simulation sim2;
  cluster::Cluster cluster2{4, {32000, 65536}};
  faas::FaasPlatform platform2{&sim2, &cluster2, faas::FaasConfig{}};
  faas::FunctionSpec spec;
  spec.name = "a";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  spec.handler = [](const std::string&, faas::InvocationContext&)
      -> Result<std::string> { return std::string("other-impl"); };
  ASSERT_TRUE(platform2.RegisterFunction(spec).ok());
  Orchestrator orch2{&sim2, &platform2};
  auto res2 = orch2.RunSync(comp, "");
  EXPECT_EQ(res2->output, "other-impl");
}

// ------------------------------------------------ Parameterized chain sweep

class ChainDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChainDepthSweep, CostGrowsLinearlyNoOverhead) {
  // E15's property at every depth: cost(chain of n) == n * cost(single).
  const int depth = GetParam();
  Fixture f;
  std::vector<Composition> steps;
  for (int i = 0; i < depth; ++i) steps.push_back(Composition::Task("a"));
  auto res = f.orch.RunSync(Composition::Sequence(std::move(steps)), "");
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok());
  EXPECT_EQ(res->function_invocations, uint64_t(depth));
  // Each step is one attempt of the same fixed-exec function, billed at the
  // single-call price; the run's cost is the ledger's whole total.
  const faas::BillingLedger& ledger = f.platform.ledger();
  EXPECT_EQ(ledger.record_count(), uint64_t(depth));
  const Money single =
      ledger.Price(20 * kMillisecond, faas::FunctionSpec{}.demand.memory_mb);
  EXPECT_EQ(ledger.Total(), single * depth);
  EXPECT_EQ(res->cost, ledger.Total());
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainDepthSweep,
                         ::testing::Values(1, 4, 16, 64));

// ---------------------------------------------------------------- Map state

struct MapFixture {
  sim::Simulation sim;
  cluster::Cluster cluster{16, {32000, 65536}};
  faas::FaasPlatform platform{&sim, &cluster, faas::FaasConfig{}};
  orchestration::Orchestrator orch{&sim, &platform};

  MapFixture() {
    faas::FunctionSpec up;
    up.name = "upper";
    up.exec = {faas::ExecTimeModel::Kind::kFixed, 20 * kMillisecond, 0, 0};
    up.handler = [](const std::string& in, faas::InvocationContext&)
        -> Result<std::string> {
      std::string out = in;
      for (char& c : out) c = char(toupper(c));
      return out;
    };
    EXPECT_TRUE(platform.RegisterFunction(up).ok());
  }
};

TEST(MapStateTest, AppliesItemToEveryPiece) {
  MapFixture f;
  auto comp = Composition::Map(Composition::Task("upper"));
  auto res = f.orch.RunSync(comp, "alpha\nbravo\ncharlie");
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res->status.ok());
  EXPECT_EQ(res->output, "ALPHA\nBRAVO\nCHARLIE");
  EXPECT_EQ(res->function_invocations, 3u);
}

TEST(MapStateTest, RunsItemsConcurrently) {
  MapFixture f;
  faas::FunctionSpec slow;
  slow.name = "slow";
  slow.exec = {faas::ExecTimeModel::Kind::kFixed, 400 * kMillisecond, 0, 0};
  ASSERT_TRUE(f.platform.RegisterFunction(slow).ok());
  std::string input;
  for (int i = 0; i < 8; ++i) input += "item\n";
  auto res = f.orch.RunSync(Composition::Map(Composition::Task("slow")),
                            input);
  ASSERT_TRUE(res.ok());
  // Concurrent: ~1 item's time (+cold start), not 8x.
  EXPECT_LT(res->Makespan(), 3 * (400 * kMillisecond));
}

TEST(MapStateTest, EmptyInputIsNoop) {
  MapFixture f;
  auto res = f.orch.RunSync(Composition::Map(Composition::Task("upper")), "");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "");
  EXPECT_EQ(res->function_invocations, 0u);
  EXPECT_EQ(res->cost, Money::Zero());
}

TEST(MapStateTest, CustomDelimiter) {
  MapFixture f;
  auto res = f.orch.RunSync(
      Composition::Map(Composition::Task("upper"), ','), "a,b,c");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "A,B,C");
}

TEST(MapStateTest, MapOfSequencesSingleBilled) {
  MapFixture f;
  auto per_item = Composition::Sequence(
      {Composition::Task("upper"), Composition::Task("upper")});
  auto res = f.orch.RunSync(Composition::Map(per_item), "x\ny");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->function_invocations, 4u);
  EXPECT_EQ(res->cost, f.platform.ledger().Total());
}

// ----------------------------------------------------- Orchestrator depth

TEST(OrchestratorDepthTest, NullPredicateTakesElse) {
  sim::Simulation sim;
  cluster::Cluster cl(4, {32000, 65536});
  faas::FaasPlatform platform(&sim, &cl, faas::FaasConfig{});
  faas::FunctionSpec spec;
  spec.name = "tag";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, kMillisecond, 0, 0};
  spec.handler = [](const std::string& in, faas::InvocationContext&)
      -> Result<std::string> { return in + "!"; };
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  orchestration::Orchestrator orch(&sim, &platform);
  auto comp = orchestration::Composition::Choice(
      nullptr, orchestration::Composition::Task("tag"),
      orchestration::Composition::Sequence({}));
  auto res = orch.RunSync(comp, "unchanged");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->output, "unchanged");  // else branch: pass-through
}

}  // namespace
}  // namespace taureau::orchestration
