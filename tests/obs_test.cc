// Tests for the taureau::obs observability subsystem: causal tracing,
// the metrics registry, critical-path analysis, module integration
// (faas, pubsub, jiffy, orchestration, chaos), plus the determinism and
// property suites that lock the serialization contract down.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "chaos/retry_policy.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/stats.h"
#include "faas/platform.h"
#include "jiffy/controller.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "orchestration/orchestrator.h"
#include "pubsub/broker.h"
#include "sim/simulation.h"

namespace taureau::obs {
namespace {

// ----------------------------------------------------------------- Tracer

TEST(TracerTest, StartTraceCreatesRootAtNow) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  sim.ScheduleAt(500, [] {});
  sim.Run();
  const TraceContext ctx = tracer.StartTrace("req", "test");
  ASSERT_TRUE(ctx.valid());
  const Span* s = tracer.Find(ctx.span_id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->parent, 0u);
  EXPECT_EQ(s->trace, ctx.trace_id);
  EXPECT_EQ(s->start_us, 500);
  EXPECT_FALSE(s->ended());
}

TEST(TracerTest, ChildInheritsTraceAndLinksParent) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.StartTrace("root", "test");
  const TraceContext child = tracer.StartSpan("child", "test", root);
  const Span* s = tracer.Find(child.span_id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->parent, root.span_id);
  EXPECT_EQ(s->trace, root.trace_id);
  EXPECT_EQ(child.trace_id, root.trace_id);
}

TEST(TracerTest, InvalidParentStartsFreshTrace) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext a = tracer.StartSpan("a", "test", {});
  const TraceContext b = tracer.StartSpan("b", "test", {});
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(tracer.Find(a.span_id)->parent, 0u);
  // An unknown parent id degrades the same way instead of dangling.
  const TraceContext c = tracer.StartSpan("c", "test", {999, 999});
  EXPECT_EQ(tracer.Find(c.span_id)->parent, 0u);
}

TEST(TracerTest, EndSpanKeepsFirstEndAndClampsBackwardTime) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext ctx = tracer.StartTrace("req", "test");
  tracer.EndSpanAt(ctx, 100);
  tracer.EndSpanAt(ctx, 200);  // second close ignored
  EXPECT_EQ(tracer.Find(ctx.span_id)->end_us, 100);

  const TraceContext late = tracer.StartSpanAt("late", "test", {}, 50);
  tracer.EndSpanAt(late, 10);  // end before start clamps to start
  EXPECT_EQ(tracer.Find(late.span_id)->end_us, 50);
  EXPECT_EQ(tracer.Find(late.span_id)->duration_us(), 0);
}

TEST(TracerTest, SetAttrOverwritesAndIgnoresInvalidContext) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext ctx = tracer.StartTrace("req", "test");
  tracer.SetAttr(ctx, "k", "v1");
  tracer.SetAttr(ctx, "k", "v2");
  EXPECT_EQ(tracer.Find(ctx.span_id)->attrs.at("k"), "v2");
  tracer.SetAttr({}, "k", "v");  // no-op, must not crash
  EXPECT_EQ(tracer.span_count(), 1u);
}

TEST(TracerTest, EndSpanWithAttrsActsAsSetAttrsThenEndSpan) {
  // In both store modes the one-call close leaves what SetAttr calls and
  // then EndSpanAt leave, in the sink and in the store: on an open span, on
  // one already closed (retain mode still sets its attributes; stream mode
  // no longer holds it) and on an invalid context.
  struct EndCapture : SpanSink {
    std::string ended;
    void OnSpanStart(const Span&) override {}
    void OnSpanEnd(const Span& span) override { AppendSpanLine(span, &ended); }
  };
  const SpanAttrList attrs = {
      {"status", "OK"}, {"cat", "exec"}, {"status", "Late"}};
  for (const Tracer::StoreMode mode :
       {Tracer::StoreMode::kRetainAll, Tracer::StoreMode::kStream}) {
    const bool stream = mode == Tracer::StoreMode::kStream;
    for (const bool one_call : {false, true}) {
      SCOPED_TRACE(std::string(stream ? "stream" : "retain") +
                   (one_call ? " one call" : " SetAttr + EndSpanAt"));
      sim::Simulation sim;
      Tracer tracer(&sim);
      ASSERT_TRUE(tracer.SetStoreMode(mode));
      EndCapture sink;
      tracer.SetSink(&sink);
      const TraceContext root = tracer.StartSpanAt("root", "test", {}, 0);
      const TraceContext done =
          tracer.EmitSpan("done", "test", root, 1, 2, {{"cat", "queue"}});
      for (const TraceContext ctx : {done, root, TraceContext{}}) {
        if (one_call) {
          tracer.EndSpanAt(ctx, 10, attrs);
        } else {
          for (const auto& [k, v] : attrs) tracer.SetAttr(ctx, k, v);
          tracer.EndSpanAt(ctx, 10);
        }
      }
      EXPECT_EQ(sink.ended,
                "span=2 parent=1 trace=1 [1,2] test/done cat=queue\n"
                "span=1 parent=0 trace=1 [0,10] test/root cat=exec "
                "status=Late\n");
      EXPECT_EQ(tracer.ExportText(),
                stream ? ""
                       : "span=1 parent=0 trace=1 [0,10] test/root cat=exec "
                         "status=Late\n"
                         "span=2 parent=1 trace=1 [1,2] test/done cat=exec "
                         "status=Late\n");
    }
  }
}

TEST(TracerTest, EmitSpanRetrospective) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext ctx =
      tracer.EmitSpan("op", "test", {}, 10, 90, {{"cat", "exec"}, {"a", "b"}});
  const Span* s = tracer.Find(ctx.span_id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->start_us, 10);
  EXPECT_EQ(s->end_us, 90);
  EXPECT_TRUE(s->ended());
  EXPECT_EQ(s->attrs.at("cat"), "exec");
  EXPECT_EQ(s->attrs.at("a"), "b");
}

TEST(TracerTest, RootsAndChildrenInIdOrder) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext r1 = tracer.StartTrace("r1", "test");
  const TraceContext c1 = tracer.StartSpan("c1", "test", r1);
  const TraceContext r2 = tracer.StartTrace("r2", "test");
  const TraceContext c2 = tracer.StartSpan("c2", "test", r1);
  EXPECT_EQ(tracer.Roots(), (std::vector<uint64_t>{r1.span_id, r2.span_id}));
  EXPECT_EQ(tracer.ChildrenOf(r1.span_id),
            (std::vector<uint64_t>{c1.span_id, c2.span_id}));
  EXPECT_TRUE(tracer.ChildrenOf(r2.span_id).empty());
}

TEST(TracerTest, ValidateAcceptsWellFormedTree) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "test", {}, 0, 100);
  tracer.EmitSpan("child", "test", root, 10, 50);
  tracer.EmitSpan("child2", "test", root, 50, 100);
  EXPECT_TRUE(tracer.Validate().ok());
}

TEST(TracerTest, ValidateRejectsOpenSpan) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  tracer.StartTrace("open", "test");
  EXPECT_FALSE(tracer.Validate().ok());
}

TEST(TracerTest, ValidateRejectsChildEscapingParent) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "test", {}, 0, 100);
  tracer.EmitSpan("escapes", "test", root, 50, 150);
  EXPECT_FALSE(tracer.Validate().ok());
}

TEST(TracerTest, AsyncSpanMayOutliveParent) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("publish", "test", {}, 0, 100);
  tracer.EmitSpan("deliver", "test", root, 100, 400, {{kAsyncAttr, "1"}});
  EXPECT_TRUE(tracer.Validate().ok());
  // Starting before the parent is still malformed, async or not.
  const TraceContext root2 = tracer.EmitSpan("root2", "test", {}, 200, 300);
  tracer.EmitSpan("early", "test", root2, 100, 250, {{kAsyncAttr, "1"}});
  EXPECT_FALSE(tracer.Validate().ok());
}

TEST(TracerTest, ExportTextOneLinePerSpan) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "test", {}, 0, 100);
  tracer.EmitSpan("child", "test", root, 10, 50, {{"cat", "exec"}});
  const std::string text = tracer.ExportText();
  EXPECT_EQ(size_t(std::count(text.begin(), text.end(), '\n')),
            tracer.span_count());
  EXPECT_NE(text.find("root"), std::string::npos);
  EXPECT_NE(text.find("cat=exec"), std::string::npos);
}

TEST(TracerTest, ExportJsonEscapesAndContainsSpans) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  tracer.EmitSpan("quote\"name", "test", {}, 0, 10);
  const std::string json = tracer.ExportJson();
  EXPECT_NE(json.find("quote\\\"name"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

TEST(TracerTest, StreamSpanStorageReusedClean) {
  // In stream mode a closed span's storage, attribute block included, is
  // reused for the next span opened; nothing of the closed span may show.
  struct StartCapture : SpanSink {
    std::vector<Span> started;
    void OnSpanStart(const Span& span) override { started.push_back(span); }
    void OnSpanEnd(const Span&) override {}
  } sink;
  sim::Simulation sim;
  Tracer tracer(&sim);
  ASSERT_TRUE(tracer.SetStoreMode(Tracer::StoreMode::kStream));
  tracer.SetSink(&sink);
  const TraceContext root = tracer.StartTrace("root", "test");
  const TraceContext child = tracer.StartSpan("child", "test", root);
  for (const char* key : {"cat", "attempt", "status", "owner"}) {
    tracer.SetAttr(child, key, "stale");
  }
  tracer.EndSpan(child);  // at t=0, so a kept end time would read as ended
  const TraceContext next = tracer.StartTrace("next", "test");

  ASSERT_EQ(sink.started.size(), 3u);
  const Span& s = sink.started.back();
  EXPECT_EQ(s.id, next.span_id);
  EXPECT_EQ(s.parent, 0u);
  EXPECT_EQ(s.trace, next.trace_id);
  EXPECT_NE(s.trace, root.trace_id);
  EXPECT_EQ(s.name, "next");
  EXPECT_TRUE(s.attrs.empty());
  EXPECT_FALSE(s.ended());
  const Span* stored = tracer.Find(next.span_id);
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(stored->attrs.empty());
  EXPECT_EQ(tracer.Find(child.span_id), nullptr);
}

TEST(TracerTest, StreamStoreHoldsExactlyTheOpenSpansUnderChurn) {
  // Three spans stay open while 10,000 others open and close: 1,000 are
  // opened, then each step closes a random open one and opens a new one.
  // The open-span index grows to 2,048 slots and runs just under half
  // full, so probe runs are long and deletions shift runs that wrap
  // around its end. Every span is a root, so the sampling pipeline holds
  // one pending group per open span in the same kind of index.
  sim::Simulation sim;
  Observability o(&sim);
  ScaleConfig scale;
  scale.sampler.head_rate = 0;
  ASSERT_TRUE(o.EnableScale(scale));
  Tracer& tracer = o.tracer;
  const SamplingPipeline& pipeline = *o.pipeline();
  const std::vector<std::string> held_names = {"held-a", "held-b", "held-c"};
  std::vector<TraceContext> held;
  for (const std::string& name : held_names) {
    held.push_back(tracer.StartTrace(name, "test"));
    tracer.SetAttr(held.back(), "held", name);
  }
  const Span* first = tracer.Find(held[0].span_id);
  ASSERT_NE(first, nullptr);

  std::vector<TraceContext> open;
  int opened = 0;
  const auto open_one = [&] {
    open.push_back(tracer.StartTrace("churn", "test"));
    tracer.SetAttr(open.back(), "n", std::to_string(opened++));
  };
  const auto expect_exact = [&] {
    ASSERT_EQ(tracer.stored_span_count(), held.size() + open.size());
    ASSERT_EQ(pipeline.pending_span_count(), held.size() + open.size());
    for (const TraceContext& ctx : open) {
      const Span* s = tracer.Find(ctx.span_id);
      ASSERT_NE(s, nullptr) << ctx.span_id;
      ASSERT_EQ(s->id, ctx.span_id);
      // Span n of the churn has id n + 4.
      ASSERT_EQ(s->attrs.at("n"), std::to_string(ctx.span_id - 4));
    }
    for (size_t i = 0; i < held.size(); ++i) {
      const Span* s = tracer.Find(held[i].span_id);
      ASSERT_NE(s, nullptr);
      ASSERT_EQ(s->attrs.at("held"), held_names[i]);
    }
  };
  while (open.size() < 1000) open_one();
  expect_exact();

  Rng rng(17);
  std::vector<uint64_t> closed;
  for (int step = 1; opened < 10000; ++step) {
    const size_t victim = rng.NextBounded(open.size());
    const TraceContext ctx = open[victim];
    open[victim] = open.back();
    open.pop_back();
    tracer.EndSpan(ctx);
    closed.push_back(ctx.span_id);
    ASSERT_EQ(tracer.Find(ctx.span_id), nullptr) << ctx.span_id;
    ASSERT_EQ(tracer.stored_span_count(), held.size() + open.size());
    open_one();
    if (step % 97 == 0) {
      expect_exact();
      if (HasFatalFailure()) return;
    }
  }
  expect_exact();
  for (const uint64_t id : closed) ASSERT_EQ(tracer.Find(id), nullptr) << id;
  // Slots never move: the pointer taken before the churn still reads the
  // span it pointed to.
  EXPECT_EQ(tracer.Find(held[0].span_id), first);
  EXPECT_EQ(first->id, held[0].span_id);
  EXPECT_EQ(first->name, "held-a");
  EXPECT_EQ(first->attrs.at("held"), "held-a");

  for (const TraceContext& ctx : open) tracer.EndSpan(ctx);
  for (const TraceContext& ctx : held) tracer.EndSpan(ctx);
  EXPECT_EQ(tracer.stored_span_count(), 0u);
  EXPECT_EQ(pipeline.pending_span_count(), 0u);
  EXPECT_EQ(pipeline.stats().traces_finalized, 3u + uint64_t(opened));
}

TEST(TracerTest, ClearResetsSpansButAdvancesNothingElse) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  tracer.StartTrace("a", "test");
  tracer.Clear();
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_TRUE(tracer.Roots().empty());
}

// ------------------------------------------------------------- SpanAttrs

using AttrMap = std::map<std::string, std::string>;

/// Every read SpanAttrs offers agrees with `ref`: size, iteration in key
/// order, and find/count/at for each of `keys`, present or not.
void ExpectAttrsMatch(const SpanAttrs& attrs, const AttrMap& ref,
                      const std::vector<std::string>& keys) {
  ASSERT_EQ(attrs.size(), ref.size());
  ASSERT_EQ(attrs.empty(), ref.empty());
  auto want_it = ref.begin();
  for (const auto& [k, v] : attrs) {
    ASSERT_NE(want_it, ref.end());
    EXPECT_EQ(k, want_it->first);
    EXPECT_EQ(v, want_it->second) << want_it->first;
    ++want_it;
  }
  for (const std::string& k : keys) {
    ASSERT_EQ(attrs.count(k), ref.count(k)) << k;
    const auto it = attrs.find(k);
    ASSERT_EQ(it != attrs.end(), ref.count(k) == 1) << k;
    if (it != attrs.end()) {
      EXPECT_EQ(it->first, k);
      EXPECT_EQ(it->second, ref.at(k)) << k;
      EXPECT_EQ(attrs.at(k), ref.at(k)) << k;
    } else {
      EXPECT_THROW(attrs.at(k), std::out_of_range);
    }
  }
}

TEST(SpanAttrsTest, MatchesStdMap) {
  // Keys that prefix one another ("a" < "a\0" < "ab"), that share their
  // first 8 bytes ("attempts", "attempts2", "attempts\xc3\xa9"), or that
  // hold a byte >= 0x80, so only the map's unsigned lexicographic order
  // fits; more of them than the inline entry capacity.
  const std::vector<std::string> keys = {
      "a",         std::string("a\0", 2), "ab",    "attempt",
      "attempts",  "attempts2",           "attempts\xc3\xa9",
      "cat",       "owner",               "status", "zone",
      "\xc3\xa9tat"};
  ASSERT_GT(keys.size(), SpanAttrs::kInlineEntries);
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Span span;
    span.id = seed;
    span.name = "op";
    span.module = "test";
    span.end_us = 5;
    AttrMap ref;
    const int ops = int(rng.NextInt(0, 60));
    for (int i = 0; i < ops; ++i) {
      const std::string& key = keys[rng.NextBounded(keys.size())];
      // From empty to past the inline byte capacity, so overwrites both
      // grow and shrink a value and most spans spill.
      std::string value(rng.NextBounded(SpanAttrs::kInlineBytes + 25), ' ');
      for (char& c : value) c = char('a' + rng.NextBounded(26));
      span.attrs.Set(key, value);
      ref[key] = value;
      ExpectAttrsMatch(span.attrs, ref, keys);
      if (HasFatalFailure()) return;
    }

    std::string rendered;
    AppendSpanLine(span, &rendered);
    std::string want = "span=" + std::to_string(seed) +
                       " parent=0 trace=0 [0,5] test/op";
    for (const auto& [k, v] : ref) want += " " + k + "=" + v;
    EXPECT_EQ(rendered, want + "\n");

    // Copy the (usually spilled) attributes into an inline set and back,
    // each time over different contents; then move them.
    SpanAttrs other;
    other.Set("zz", "1");
    other = span.attrs;
    ExpectAttrsMatch(other, ref, keys);
    span.attrs.clear();
    span.attrs.Set("zz", "1");
    span.attrs = other;
    ExpectAttrsMatch(span.attrs, ref, keys);
    ExpectAttrsMatch(other, ref, keys);
    const SpanAttrs moved = std::move(other);
    ExpectAttrsMatch(moved, ref, keys);
  }

  // A value past 64 KiB with keys after it, so 16-bit offsets would wrap;
  // then a value set from a view of the span's own bytes, which the write
  // reallocates.
  std::string blob(70000, ' ');
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = char(i % 251);
  const std::vector<std::string> big_keys = {"a", "b", "blob", "c", "d"};
  SpanAttrs big;
  big.Set("a", "1");
  big.Set("blob", blob);
  big.Set("c", "3");
  big.Set("b", "2");
  AttrMap big_ref = {{"a", "1"}, {"b", "2"}, {"blob", blob}, {"c", "3"}};
  ExpectAttrsMatch(big, big_ref, big_keys);
  big.Set("d", big.at("blob"));
  big_ref["d"] = blob;
  ExpectAttrsMatch(big, big_ref, big_keys);
  const SpanAttrs big_copy = big;
  big.Set("blob", "short");
  big_ref["blob"] = "short";
  ExpectAttrsMatch(big, big_ref, big_keys);
  big_ref["blob"] = blob;
  ExpectAttrsMatch(big_copy, big_ref, big_keys);

  // An EmitSpan list with a repeated key keeps the last value.
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext ctx = tracer.EmitSpan(
      "op", "test", {}, 0, 1,
      {{"attempt", "0"}, {"cat", "exec"}, {"attempt", "1"}});
  const Span* s = tracer.Find(ctx.span_id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->attrs.size(), 2u);
  EXPECT_EQ(s->attrs.at("attempt"), "1");
  EXPECT_EQ(s->attrs.at("cat"), "exec");
}

// --------------------------------------------------------------- Registry

TEST(RegistryTest, CounterGaugeBasics) {
  Registry registry;
  Counter* c = registry.GetCounter("m.count");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  Gauge* g = registry.GetGauge("m.level");
  g->Set(3.0);
  g->Add(1.5);
  g->SetMax(2.0);  // below current, keeps 4.5
  EXPECT_DOUBLE_EQ(g->value(), 4.5);
  g->SetMax(10.0);
  EXPECT_DOUBLE_EQ(g->value(), 10.0);
}

TEST(RegistryTest, SameNameReturnsSameHandle) {
  Registry registry;
  EXPECT_EQ(registry.GetCounter("x"), registry.GetCounter("x"));
  EXPECT_EQ(registry.GetGauge("y"), registry.GetGauge("y"));
  EXPECT_EQ(registry.GetHistogram("z"), registry.GetHistogram("z"));
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_TRUE(registry.Has("x"));
  EXPECT_FALSE(registry.Has("w"));
}

TEST(RegistryTest, ExportTextGloballySortedByName) {
  Registry registry;
  registry.GetHistogram("b.hist")->Add(1.0);
  registry.GetCounter("c.count")->Inc();
  registry.GetGauge("a.gauge")->Set(2.0);
  const std::string text = registry.ExportText();
  const size_t pa = text.find("a.gauge");
  const size_t pb = text.find("b.hist");
  const size_t pc = text.find("c.count");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pb, std::string::npos);
  ASSERT_NE(pc, std::string::npos);
  EXPECT_LT(pa, pb);
  EXPECT_LT(pb, pc);
}

TEST(RegistryTest, ExportJsonContainsAllKinds) {
  Registry registry;
  registry.GetCounter("c")->Inc(7);
  registry.GetGauge("g")->Set(1.25);
  registry.GetHistogram("h")->Add(10.0);
  const std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"c\":7"), std::string::npos);
  EXPECT_NE(json.find("\"g\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"h\":{\"n\":1"), std::string::npos);
}

TEST(RegistryTest, MergeFromFoldsCountersGaugesHistograms) {
  Registry a, b;
  a.GetCounter("c")->Inc(2);
  b.GetCounter("c")->Inc(3);
  a.GetGauge("g")->Set(1.0);
  b.GetGauge("g")->Set(2.0);
  b.GetHistogram("h")->Add(5.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.GetCounter("c")->value(), 5u);
  EXPECT_DOUBLE_EQ(a.GetGauge("g")->value(), 3.0);  // gauges fold additively
  EXPECT_EQ(a.GetHistogram("h")->count(), 1u);
}

TEST(RegistryTest, ResetZeroesInPlaceKeepingNames) {
  Registry registry;
  registry.GetCounter("c")->Inc(7);
  registry.GetGauge("g")->Set(3.5);
  registry.GetHistogram("h")->Add(42.0);
  registry.Reset();
  // Names stay registered with zeroed values — Reset must not dangle the
  // handles modules cached.
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_TRUE(registry.Has("c"));
  EXPECT_EQ(registry.GetCounter("c")->value(), 0u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("g")->value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("h")->count(), 0u);
  EXPECT_NE(registry.ExportText().find("c 0"), std::string::npos);
}

TEST(RegistryTest, PreResetHandlesStayLiveAndRecord) {
  // Regression for the original Reset() destroying the metric objects: a
  // module records through a handle cached *before* Reset and the new
  // value must land in the same registry slot.
  Registry registry;
  Counter* c = registry.GetCounter("m.ops");
  Gauge* g = registry.GetGauge("m.level");
  Histogram* h = registry.GetHistogram("m.lat");
  c->Inc(9);
  g->Set(2.0);
  h->Add(5.0);
  registry.Reset();
  c->Inc(4);
  g->Add(1.5);
  h->Add(7.0);
  EXPECT_EQ(registry.GetCounter("m.ops"), c);  // same handle, not a clone
  EXPECT_EQ(registry.GetCounter("m.ops")->value(), 4u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("m.level")->value(), 1.5);
  EXPECT_EQ(registry.GetHistogram("m.lat")->count(), 1u);
  EXPECT_DOUBLE_EQ(registry.GetHistogram("m.lat")->max(), 7.0);
}

TEST(RegistryTest, ResolvedHandlesSurviveResetAndReadZero) {
  // The E24 fast-path contract, extending the PR 3 zero-in-place
  // guarantee: handles resolved at component construction stay valid
  // across Reset(), read zero immediately after it, and keep recording
  // into the same slot — with no re-resolution.
  Registry registry;
  CounterHandle c = registry.ResolveCounter("m.ops");
  GaugeHandle g = registry.ResolveGauge("m.level");
  HistogramHandle h = registry.ResolveHistogram("m.lat");
  c.Inc(9);
  g.Set(2.0);
  h.Observe(5.0);
  registry.Reset();
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.Inc(4);
  g.Add(1.5);
  h.Observe(7.0);
  // Handle and string paths hit the same slab slot.
  EXPECT_EQ(registry.GetCounter("m.ops")->value(), 4u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("m.level")->value(), 1.5);
  EXPECT_EQ(registry.GetHistogram("m.lat")->count(), 1u);
  // Resolving again after Reset yields the same slot, not a clone.
  registry.ResolveCounter("m.ops").Inc();
  EXPECT_EQ(c.value(), 5u);
}

TEST(RegistryTest, DefaultHandlesAreSafeNoOps) {
  CounterHandle c;
  GaugeHandle g;
  HistogramHandle h;
  c.Inc();
  g.Set(3.0);
  h.Observe(1.0);
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
}

TEST(RegistryTest, HandlesStayValidAsSlabGrows) {
  // Slab storage must never relocate live slots: resolve one handle, then
  // register enough metrics to force repeated slab growth, and record
  // through the original handle.
  Registry registry;
  CounterHandle first = registry.ResolveCounter("first");
  for (int i = 0; i < 2000; ++i) {
    registry.ResolveCounter("c" + std::to_string(i)).Inc();
  }
  first.Inc(3);
  EXPECT_EQ(registry.GetCounter("first")->value(), 3u);
  EXPECT_EQ(registry.size(), 2001u);
}

// ------------------------------------------------- Histogram properties

TEST(HistogramPropertyTest, BucketsMonotoneAndCountsConserved) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    Histogram h(1e9);
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
      h.Add(rng.NextExponential(1.0 / 5000.0));
    }
    EXPECT_EQ(h.count(), uint64_t(n)) << "seed " << seed;
    const auto buckets = h.NonzeroBuckets();
    ASSERT_FALSE(buckets.empty());
    uint64_t total = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(buckets[i - 1].first, buckets[i].first)
            << "bucket order, seed " << seed;
      }
      EXPECT_GT(buckets[i].second, 0u);
      total += buckets[i].second;
    }
    EXPECT_EQ(total, h.count()) << "conservation, seed " << seed;
  }
}

TEST(HistogramPropertyTest, MergeEqualsInsertAll) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    Histogram a(1e9), b(1e9), all(1e9);
    for (int i = 0; i < 1500; ++i) {
      const double v = rng.NextPareto(10.0, 1.2);
      all.Add(v);
      (i % 2 ? a : b).Add(v);
    }
    a.Merge(b);
    EXPECT_EQ(a.count(), all.count());
    // Sums are accumulated in different orders; allow for rounding.
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9 * all.mean());
    EXPECT_EQ(a.ToString(), all.ToString()) << "seed " << seed;
    for (double q : {0.1, 0.5, 0.9, 0.99}) {
      EXPECT_DOUBLE_EQ(a.Quantile(q), all.Quantile(q)) << "q=" << q;
    }
    EXPECT_EQ(a.NonzeroBuckets(), all.NonzeroBuckets());
  }
}

TEST(HistogramPropertyTest, QuantilesMonotoneAndBounded) {
  Rng rng(21);
  Histogram h(1e9);
  for (int i = 0; i < 1000; ++i) h.Add(rng.NextDouble(1.0, 1e6));
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, prev - 1e-9) << "q=" << q;
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, h.max() + 1e-9);
    prev = v;
  }
  EXPECT_NEAR(h.Quantile(1.0), h.max(), 0.01 * h.max());
}

TEST(QuantileOracleTest, ExactQuantileMatchesSortedNearestRank) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    Rng rng(seed);
    std::vector<double> values;
    const int n = int(rng.NextInt(1, 500));
    for (int i = 0; i < n; ++i) values.push_back(rng.NextDouble(0.0, 1e4));
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      const size_t rank = size_t(std::ceil(q * double(n)));
      const double want = sorted[rank == 0 ? 0 : rank - 1];
      EXPECT_DOUBLE_EQ(ExactQuantile(values, q), want)
          << "seed " << seed << " q " << q;
    }
  }
  EXPECT_DOUBLE_EQ(ExactQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({42.0}, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({1.0, 2.0}, 1.5), 2.0);  // q clamped
}

TEST(QuantileOracleTest, HistogramQuantileTracksExactWithinBucketError) {
  Rng rng(41);
  Histogram h(1e9);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.NextLogNormal(8.0, 1.5);
    h.Add(v);
    values.push_back(v);
  }
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = ExactQuantile(values, q);
    // The histogram is log-bucketed with ~1.5% relative precision.
    EXPECT_NEAR(h.Quantile(q), exact, 0.03 * exact) << "q=" << q;
  }
}

// -------------------------------------------- Span-tree property tests

TEST(SpanTreePropertyTest, RandomNestedTreesValidate) {
  for (uint64_t seed : {51u, 52u, 53u}) {
    sim::Simulation sim;
    Tracer tracer(&sim);
    Rng rng(seed);
    struct Window {
      TraceContext ctx;
      SimTime start, end;
    };
    std::vector<Window> open;
    const TraceContext root = tracer.EmitSpan("root", "prop", {}, 0, 100000);
    open.push_back({root, 0, 100000});
    for (int i = 0; i < 200; ++i) {
      const Window& parent = open[size_t(rng.NextBounded(open.size()))];
      const SimTime s = rng.NextInt(parent.start, parent.end);
      const SimTime e = rng.NextInt(s, parent.end);
      const TraceContext c = tracer.EmitSpan("n" + std::to_string(i), "prop",
                                             parent.ctx, s, e);
      open.push_back({c, s, e});
    }
    EXPECT_TRUE(tracer.Validate().ok()) << "seed " << seed;
    for (const auto& w : open) {
      EXPECT_EQ(tracer.Find(w.ctx.span_id)->trace, root.trace_id);
    }
  }
}

TEST(SpanTreePropertyTest, CriticalPathSumsExactlyOnRandomTrees) {
  const char* cats[] = {"queue", "cold", "exec", "shuffle", "retry"};
  for (uint64_t seed : {61u, 62u, 63u, 64u}) {
    sim::Simulation sim;
    Tracer tracer(&sim);
    Rng rng(seed);
    const SimTime total = rng.NextInt(1, 50000);
    const TraceContext root = tracer.EmitSpan("root", "prop", {}, 0, total);
    std::vector<std::pair<TraceContext, std::pair<SimTime, SimTime>>> nodes = {
        {root, {0, total}}};
    for (int i = 0; i < 100; ++i) {
      const auto& [pctx, w] = nodes[size_t(rng.NextBounded(nodes.size()))];
      const SimTime s = rng.NextInt(w.first, w.second);
      const SimTime e = rng.NextInt(s, w.second);
      SpanAttrList attrs;
      if (rng.NextBool(0.7)) attrs.Add(kCategoryAttr, cats[rng.NextBounded(5)]);
      const TraceContext c = tracer.EmitSpan("n", "prop", pctx, s, e, attrs);
      nodes.push_back({c, {s, e}});
    }
    const auto breakdown = AnalyzeCriticalPath(tracer, root.span_id);
    ASSERT_TRUE(breakdown.ok()) << "seed " << seed;
    EXPECT_EQ(breakdown->Sum(), breakdown->total_us) << "seed " << seed;
    EXPECT_EQ(breakdown->total_us, total);
  }
}

// ---------------------------------------------------------- CriticalPath

TEST(CriticalPathTest, UnknownRootIsNotFound) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  EXPECT_TRUE(AnalyzeCriticalPath(tracer, 7).status().IsNotFound());
}

TEST(CriticalPathTest, NonRootAndOpenRootsAreRejected) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "t", {}, 0, 10);
  const TraceContext child = tracer.EmitSpan("c", "t", root, 0, 5);
  EXPECT_TRUE(
      AnalyzeCriticalPath(tracer, child.span_id).status().IsFailedPrecondition());
  const TraceContext open = tracer.StartTrace("open", "t");
  EXPECT_TRUE(
      AnalyzeCriticalPath(tracer, open.span_id).status().IsFailedPrecondition());
}

TEST(CriticalPathTest, UncoveredRootIsAllOther) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "t", {}, 100, 300);
  const auto b = AnalyzeCriticalPath(tracer, root.span_id);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->total_us, 200);
  EXPECT_EQ(b->Get(Category::kOther), 200);
  EXPECT_EQ(b->Sum(), 200);
}

TEST(CriticalPathTest, SequentialCategoriesPartitionExactly) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "t", {}, 0, 100);
  tracer.EmitSpan("q", "t", root, 0, 20, {{kCategoryAttr, "queue"}});
  tracer.EmitSpan("c", "t", root, 20, 60, {{kCategoryAttr, "cold"}});
  tracer.EmitSpan("e", "t", root, 60, 100, {{kCategoryAttr, "exec"}});
  const auto b = AnalyzeCriticalPath(tracer, root.span_id);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->Get(Category::kQueue), 20);
  EXPECT_EQ(b->Get(Category::kColdStart), 40);
  EXPECT_EQ(b->Get(Category::kExec), 40);
  EXPECT_EQ(b->Get(Category::kOther), 0);
  EXPECT_EQ(b->Sum(), b->total_us);
  EXPECT_DOUBLE_EQ(b->Fraction(Category::kColdStart), 0.4);
}

TEST(CriticalPathTest, DeepestCategorizedSpanWins) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "t", {}, 0, 100);
  const TraceContext outer =
      tracer.EmitSpan("outer", "t", root, 0, 100, {{kCategoryAttr, "queue"}});
  tracer.EmitSpan("inner", "t", outer, 30, 70, {{kCategoryAttr, "exec"}});
  const auto b = AnalyzeCriticalPath(tracer, root.span_id);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->Get(Category::kExec), 40);   // inner overrides where it covers
  EXPECT_EQ(b->Get(Category::kQueue), 60);  // outer charges the remainder
  EXPECT_EQ(b->Sum(), 100);
}

TEST(CriticalPathTest, EqualDepthTieChargesSmallerSpanId) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "t", {}, 0, 100);
  // Retry-wait emitted before the next attempt's queue span (smaller id):
  // overlap [30,50] must charge to retry, the rest of [30,55] to queue.
  tracer.EmitSpan("retry-wait", "t", root, 30, 50, {{kCategoryAttr, "retry"}});
  tracer.EmitSpan("queue", "t", root, 30, 55, {{kCategoryAttr, "queue"}});
  const auto b = AnalyzeCriticalPath(tracer, root.span_id);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->Get(Category::kRetry), 20);
  EXPECT_EQ(b->Get(Category::kQueue), 5);
  EXPECT_EQ(b->Get(Category::kOther), 75);
  EXPECT_EQ(b->Sum(), 100);
}

TEST(CriticalPathTest, GapsBetweenSpansChargeOther) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "t", {}, 0, 100);
  tracer.EmitSpan("a", "t", root, 10, 30, {{kCategoryAttr, "exec"}});
  tracer.EmitSpan("b", "t", root, 70, 90, {{kCategoryAttr, "exec"}});
  const auto b = AnalyzeCriticalPath(tracer, root.span_id);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->Get(Category::kExec), 40);
  EXPECT_EQ(b->Get(Category::kOther), 60);
}

TEST(CriticalPathTest, AsyncDescendantsClipToRootWindow) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "t", {}, 0, 100);
  tracer.EmitSpan("tail", "t", root, 80, 300,
                  {{kCategoryAttr, "shuffle"}, {kAsyncAttr, "1"}});
  const auto b = AnalyzeCriticalPath(tracer, root.span_id);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->Get(Category::kShuffle), 20);  // only [80,100] inside the root
  EXPECT_EQ(b->Sum(), 100);
}

TEST(CriticalPathTest, ZeroLengthRootYieldsEmptyBreakdown) {
  sim::Simulation sim;
  Tracer tracer(&sim);
  const TraceContext root = tracer.EmitSpan("root", "t", {}, 50, 50);
  const auto b = AnalyzeCriticalPath(tracer, root.span_id);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->total_us, 0);
  EXPECT_EQ(b->Sum(), 0);
}

TEST(CriticalPathTest, CategoryNamesRoundTrip) {
  for (size_t i = 0; i < kCategoryCount; ++i) {
    const Category c = Category(i);
    const auto parsed = ParseCategory(CategoryName(c));
    ASSERT_TRUE(parsed.has_value()) << CategoryName(c);
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(ParseCategory("bogus").has_value());
  const Breakdown b;
  EXPECT_FALSE(b.ToString().empty());
}

// ------------------------------------------------------ FaaS integration

struct FaasWorld {
  sim::Simulation sim;
  Observability o{&sim};
  cluster::Cluster cluster{4, {32000, 65536}};
  std::unique_ptr<faas::FaasPlatform> platform;

  explicit FaasWorld(faas::FaasConfig cfg = {}) {
    platform = std::make_unique<faas::FaasPlatform>(&sim, &cluster, cfg);
    platform->AttachObservability(&o);
    faas::FunctionSpec spec;
    spec.name = "serve";
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
    spec.init_us = 30 * kMillisecond;
    platform->RegisterFunction(spec);
  }
};

TEST(FaasObsTest, ColdInvokeEmitsCategorizedSpanTree) {
  FaasWorld w;
  auto res = w.platform->InvokeSync("serve", "x");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(w.o.tracer.Validate().ok());
  const auto roots = w.o.tracer.Roots();
  ASSERT_EQ(roots.size(), 1u);
  const Span* root = w.o.tracer.Find(roots[0]);
  EXPECT_EQ(root->name, "invoke:serve");
  EXPECT_EQ(root->module, "faas");
  EXPECT_EQ(root->attrs.at("cold"), "1");
  EXPECT_EQ(root->attrs.at("attempts"), "1");
  EXPECT_EQ(root->attrs.at("status"), "OK");
  // queue + cold-start + exec children, categorized.
  std::vector<std::string> names;
  for (uint64_t id : w.o.tracer.ChildrenOf(roots[0])) {
    names.push_back(w.o.tracer.Find(id)->name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"queue", "cold-start", "exec"}));
  const auto b = AnalyzeCriticalPath(w.o.tracer, roots[0]);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->total_us, res->EndToEnd());
  EXPECT_EQ(b->Sum(), b->total_us);
  EXPECT_EQ(b->Get(Category::kColdStart), res->startup_us);
  EXPECT_EQ(b->Get(Category::kExec), res->exec_us);
}

TEST(FaasObsTest, WarmInvokeHasNoColdSpan) {
  FaasWorld w;
  ASSERT_TRUE(w.platform->InvokeSync("serve", "x").ok());
  auto res = w.platform->InvokeSync("serve", "y");
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->cold_start);
  const auto roots = w.o.tracer.Roots();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(w.o.tracer.Find(roots[1])->attrs.at("cold"), "0");
  for (uint64_t id : w.o.tracer.ChildrenOf(roots[1])) {
    EXPECT_NE(w.o.tracer.Find(id)->name, "cold-start");
  }
  const auto b = AnalyzeCriticalPath(w.o.tracer, roots[1]);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->Get(Category::kColdStart), 0);
  EXPECT_EQ(b->Sum(), b->total_us);
}

TEST(FaasObsTest, RetriedInvokeEmitsRetryWaitAndPerAttemptSpans) {
  faas::FaasConfig cfg;
  cfg.retry = chaos::RetryPolicy::ExponentialJitter(3, 20 * kMillisecond, 0.0);
  FaasWorld w(cfg);
  int calls = 0;
  faas::FunctionSpec flaky;
  flaky.name = "flaky";
  flaky.exec = {faas::ExecTimeModel::Kind::kFixed, 5 * kMillisecond, 0, 0};
  flaky.handler = [&calls](const std::string&,
                           faas::InvocationContext&) -> Result<std::string> {
    if (++calls < 3) return Status::Aborted("transient");
    return std::string("ok");
  };
  w.platform->RegisterFunction(flaky);
  auto res = w.platform->InvokeSync("flaky", "x");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_EQ(res->attempts, 3);
  EXPECT_TRUE(w.o.tracer.Validate().ok());

  const auto roots = w.o.tracer.Roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(w.o.tracer.Find(roots[0])->attrs.at("attempts"), "3");
  int retry_waits = 0, execs = 0;
  for (uint64_t id : w.o.tracer.ChildrenOf(roots[0])) {
    const Span* s = w.o.tracer.Find(id);
    if (s->name == "retry-wait") ++retry_waits;
    if (s->name == "exec") ++execs;
  }
  EXPECT_EQ(retry_waits, 2);
  EXPECT_EQ(execs, 3);
  const auto b = AnalyzeCriticalPath(w.o.tracer, roots[0]);
  ASSERT_TRUE(b.ok());
  EXPECT_GE(b->Get(Category::kRetry), 2 * 20 * kMillisecond);
  EXPECT_EQ(b->Sum(), b->total_us);
}

TEST(FaasObsTest, MetricsLiveInRegistryAndViewMatches) {
  FaasWorld w;
  ASSERT_TRUE(w.platform->InvokeSync("serve", "x").ok());
  ASSERT_TRUE(w.platform->InvokeSync("serve", "y").ok());
  EXPECT_EQ(w.o.registry.GetCounter("faas.invocations")->value(), 2u);
  EXPECT_EQ(w.o.registry.GetCounter("faas.cold_starts")->value(), 1u);
  EXPECT_EQ(w.o.registry.GetCounter("faas.warm_starts")->value(), 1u);
  const auto& m = w.platform->metrics();
  EXPECT_EQ(m.invocations, 2u);
  EXPECT_EQ(m.cold_starts, 1u);
  EXPECT_EQ(m.warm_starts, 1u);
  EXPECT_EQ(m.completions, 2u);
  EXPECT_EQ(m.e2e_latency_us.count(), 2u);
  const std::string text = w.o.registry.ExportText();
  EXPECT_NE(text.find("faas.invocations 2"), std::string::npos);
}

TEST(FaasObsTest, AttachAfterTrafficFoldsExistingValues) {
  sim::Simulation sim;
  cluster::Cluster cluster(4, {32000, 65536});
  faas::FaasPlatform platform(&sim, &cluster, {});
  faas::FunctionSpec spec;
  spec.name = "serve";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
  platform.RegisterFunction(spec);
  ASSERT_TRUE(platform.InvokeSync("serve", "x").ok());
  EXPECT_EQ(platform.metrics().invocations, 1u);

  Observability o(&sim);
  platform.AttachObservability(&o);  // re-homes, folding the 1 invocation in
  EXPECT_EQ(o.registry.GetCounter("faas.invocations")->value(), 1u);
  ASSERT_TRUE(platform.InvokeSync("serve", "y").ok());
  EXPECT_EQ(platform.metrics().invocations, 2u);
  EXPECT_EQ(o.registry.GetCounter("faas.invocations")->value(), 2u);
  // Re-attaching the same observability is a no-op, not a double-fold.
  platform.AttachObservability(&o);
  EXPECT_EQ(o.registry.GetCounter("faas.invocations")->value(), 2u);
}

// ---------------------------------------------------- Pubsub integration

TEST(PubsubObsTest, PublishAndDeliverSpansAreCausallyLinked) {
  sim::Simulation sim;
  Observability o(&sim);
  pubsub::PulsarCluster pulsar(&sim, {});
  pulsar.AttachObservability(&o);
  ASSERT_TRUE(pulsar.CreateTopic("t", {}).ok());
  int delivered = 0;
  pulsar.Subscribe("t", "sub", pubsub::SubscriptionType::kShared,
                   [&delivered](const pubsub::Message&) { ++delivered; });
  ASSERT_TRUE(pulsar.Publish("t", "", "hello").ok());
  sim.Run();
  ASSERT_EQ(delivered, 1);
  EXPECT_TRUE(o.tracer.Validate().ok());

  const Span* publish = nullptr;
  const Span* deliver = nullptr;
  for (const Span& s : o.tracer.spans()) {
    if (s.name == "publish:t") publish = &s;
    if (s.name == "deliver") deliver = &s;
  }
  ASSERT_NE(publish, nullptr);
  ASSERT_NE(deliver, nullptr);
  EXPECT_EQ(deliver->parent, publish->id);
  EXPECT_EQ(deliver->trace, publish->trace);
  EXPECT_EQ(deliver->attrs.at(kAsyncAttr), "1");
  EXPECT_EQ(deliver->attrs.at("sub"), "sub");
  EXPECT_GE(deliver->start_us, publish->start_us);
  EXPECT_EQ(o.registry.GetCounter("pubsub.published")->value(), 1u);
  EXPECT_EQ(o.registry.GetCounter("pubsub.delivered")->value(), 1u);
}

TEST(PubsubObsTest, RedeliveryAfterDisconnectIsMarked) {
  sim::Simulation sim;
  Observability o(&sim);
  pubsub::PulsarCluster pulsar(&sim, {});
  pulsar.AttachObservability(&o);
  ASSERT_TRUE(pulsar.CreateTopic("t", {}).ok());
  auto c1 = pulsar.Subscribe("t", "sub", pubsub::SubscriptionType::kShared,
                             [](const pubsub::Message&) {});
  ASSERT_TRUE(c1.ok());
  int second_consumer = 0;
  pulsar.Subscribe("t", "sub", pubsub::SubscriptionType::kShared,
                   [&second_consumer](const pubsub::Message&) {
                     ++second_consumer;
                   });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pulsar.Publish("t", "", "m" + std::to_string(i)).ok());
  }
  sim.Run();
  // Consumer 1 leaves without acking: its messages redeliver to consumer 2.
  ASSERT_TRUE(pulsar.Disconnect(*c1).ok());
  sim.Run();
  EXPECT_GT(pulsar.metrics().redelivered, 0u);
  int redelivery_spans = 0;
  for (const Span& s : o.tracer.spans()) {
    if (s.name == "deliver" && s.attrs.count("redelivery")) ++redelivery_spans;
  }
  EXPECT_EQ(uint64_t(redelivery_spans), pulsar.metrics().redelivered);
  EXPECT_EQ(o.registry.GetCounter("pubsub.redelivered")->value(),
            pulsar.metrics().redelivered);
}

TEST(PubsubObsTest, MetricsViewMatchesRegistry) {
  sim::Simulation sim;
  Observability o(&sim);
  pubsub::PulsarCluster pulsar(&sim, {});
  pulsar.AttachObservability(&o);
  ASSERT_TRUE(pulsar.CreateTopic("t", {}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pulsar.Publish("t", "k", "payload").ok());
  }
  sim.Run();
  const auto& m = pulsar.metrics();
  EXPECT_EQ(m.published, 3u);
  EXPECT_EQ(m.publish_latency_us.count(), 3u);
  EXPECT_EQ(o.registry.GetHistogram("pubsub.publish_latency_us")->count(), 3u);
}

// ----------------------------------------------------- Jiffy integration

TEST(JiffyObsTest, OpsEmitShuffleSpansAndMetrics) {
  sim::Simulation sim;
  Observability o(&sim);
  jiffy::JiffyConfig cfg;
  cfg.num_memory_nodes = 2;
  cfg.blocks_per_node = 64;
  cfg.block_size_bytes = 1024;
  jiffy::JiffyController ctl(&sim, cfg);
  ctl.AttachObservability(&o);
  ASSERT_TRUE(ctl.CreateNamespace("/job", -1).ok());
  auto* table = *ctl.CreateHashTable("/job", "kv");

  const TraceContext root = o.tracer.StartTrace("req", "test");
  ASSERT_TRUE(table->Put("k", "value", root).status.ok());
  std::string got;
  ASSERT_TRUE(table->Get("k", &got, root).status.ok());
  EXPECT_TRUE(table->Get("missing", &got, root).status.IsNotFound());
  o.tracer.EndSpan(root);

  EXPECT_EQ(o.registry.GetCounter("jiffy.ops")->value(), 3u);
  EXPECT_EQ(o.registry.GetHistogram("jiffy.op_latency_us")->count(), 3u);
  int shuffle_spans = 0, not_found = 0;
  for (const Span& s : o.tracer.spans()) {
    if (s.module != "jiffy") continue;
    ++shuffle_spans;
    EXPECT_EQ(s.parent, root.span_id);
    EXPECT_EQ(s.attrs.at(kCategoryAttr), "shuffle");
    EXPECT_EQ(s.attrs.at(kAsyncAttr), "1");
    if (s.attrs.at("status") == "NotFound") ++not_found;
  }
  EXPECT_EQ(shuffle_spans, 3);
  EXPECT_EQ(not_found, 1);
  EXPECT_TRUE(o.tracer.Validate().ok());
}

TEST(JiffyObsTest, PoolGaugeStaysLevelAcrossAttach) {
  sim::Simulation sim;
  jiffy::JiffyConfig cfg;
  cfg.num_memory_nodes = 2;
  cfg.blocks_per_node = 64;
  cfg.block_size_bytes = 256;
  jiffy::JiffyController ctl(&sim, cfg);
  ASSERT_TRUE(ctl.CreateNamespace("/job", -1).ok());
  auto* table = *ctl.CreateHashTable("/job", "kv");
  const std::string value(600, 'v');
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(table->Put("k" + std::to_string(i), value).status.ok());
  }
  const uint64_t used = ctl.pool().used_blocks();
  ASSERT_GT(used, 0u);

  // Attaching re-homes the pool metrics; the used-blocks gauge is a level
  // and must equal the pool's live count, not a doubled merge artifact.
  Observability o(&sim);
  ctl.AttachObservability(&o);
  EXPECT_DOUBLE_EQ(o.registry.GetGauge("jiffy.pool.used_blocks")->value(),
                   double(used));
  EXPECT_EQ(ctl.pool().stats().used_blocks, used);
  EXPECT_EQ(uint64_t(
                o.registry.GetGauge("jiffy.pool.total_blocks")->value()),
            ctl.pool().capacity_blocks());
}

// --------------------------------------------- Orchestration integration

struct OrchWorld {
  sim::Simulation sim;
  Observability o{&sim};
  cluster::Cluster cluster{8, {32000, 65536}};
  faas::FaasPlatform platform{&sim, &cluster, {}};
  orchestration::Orchestrator orch{&sim, &platform};
  int side_effects = 0;

  OrchWorld() {
    platform.AttachObservability(&o);
    orch.AttachObservability(&o);
    faas::FunctionSpec spec;
    spec.name = "step";
    spec.exec = {faas::ExecTimeModel::Kind::kFixed, 10 * kMillisecond, 0, 0};
    spec.handler = [this](const std::string& payload,
                          faas::InvocationContext&) -> Result<std::string> {
      ++side_effects;
      return "out:" + payload;
    };
    platform.RegisterFunction(spec);
  }
};

TEST(OrchObsTest, RunEmitsRootStepAndInvokeSpans) {
  OrchWorld w;
  const auto comp = orchestration::Composition::Sequence(
      {orchestration::Composition::Task("step"),
       orchestration::Composition::Task("step")});
  auto res = w.orch.RunKeyedSync("run-1", comp, "in");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_TRUE(w.o.tracer.Validate().ok());

  const auto roots = w.o.tracer.Roots();
  ASSERT_EQ(roots.size(), 1u);
  const Span* root = w.o.tracer.Find(roots[0]);
  EXPECT_EQ(root->name, "run:run-1");
  EXPECT_EQ(root->module, "orchestration");
  EXPECT_EQ(root->attrs.at("status"), "OK");
  EXPECT_EQ(root->attrs.at("invocations"), "2");

  const auto steps = w.o.tracer.ChildrenOf(roots[0]);
  ASSERT_EQ(steps.size(), 2u);
  for (uint64_t step : steps) {
    EXPECT_EQ(w.o.tracer.Find(step)->name, "step:step");
    const auto invokes = w.o.tracer.ChildrenOf(step);
    ASSERT_EQ(invokes.size(), 1u);
    EXPECT_EQ(w.o.tracer.Find(invokes[0])->name, "invoke:step");
    EXPECT_EQ(w.o.tracer.Find(invokes[0])->module, "faas");
  }
  // End-to-end attribution covers the whole run makespan.
  const auto b = AnalyzeCriticalPath(w.o.tracer, roots[0]);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->total_us, res->Makespan());
  EXPECT_EQ(b->Sum(), b->total_us);
  EXPECT_GT(b->Get(Category::kExec), 0);
}

TEST(OrchObsTest, DedupedReplayGetsZeroLengthMarkedStepSpan) {
  OrchWorld w;
  const auto comp = orchestration::Composition::Task("step");
  ASSERT_TRUE(w.orch.RunKeyedSync("run-1", comp, "in").ok());
  ASSERT_TRUE(w.orch.RunKeyedSync("run-1", comp, "in").ok());  // replayed
  EXPECT_EQ(w.side_effects, 1);

  int deduped = 0;
  for (const Span& s : w.o.tracer.spans()) {
    if (s.name == "step:step" && s.attrs.count("deduped")) {
      ++deduped;
      EXPECT_EQ(s.duration_us(), 0);
      EXPECT_TRUE(w.o.tracer.ChildrenOf(s.id).empty());  // no invocation
    }
  }
  EXPECT_EQ(deduped, 1);
}

TEST(OrchObsTest, CompositionRetryEmitsRetryWaitSpans) {
  OrchWorld w;
  int calls = 0;
  faas::FunctionSpec flaky;
  flaky.name = "flaky";
  flaky.exec = {faas::ExecTimeModel::Kind::kFixed, 5 * kMillisecond, 0, 0};
  flaky.handler = [&calls](const std::string&,
                           faas::InvocationContext&) -> Result<std::string> {
    // The platform's own retry budget is 3 attempts; fail a whole
    // orchestration attempt before letting the second one succeed.
    if (++calls <= 3) return Status::Aborted("no");
    return std::string("done");
  };
  w.platform.RegisterFunction(flaky);
  const auto comp = orchestration::Composition::Retry(
      orchestration::Composition::Task("flaky"),
      chaos::RetryPolicy::ExponentialJitter(2, 50 * kMillisecond, 0.0));
  auto res = w.orch.RunSync(comp, "in");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  int retry_waits = 0;
  for (const Span& s : w.o.tracer.spans()) {
    if (s.module == "orchestration" && s.name == "retry-wait") {
      ++retry_waits;
      EXPECT_EQ(s.duration_us(), 50 * kMillisecond);
      EXPECT_EQ(s.attrs.at(kCategoryAttr), "retry");
    }
  }
  EXPECT_EQ(retry_waits, 1);
  EXPECT_TRUE(w.o.tracer.Validate().ok());
}

// ----------------------------------------------------- Chaos integration

TEST(ChaosObsTest, InjectEmitsFaultSpanAndCounters) {
  sim::Simulation sim;
  Observability o(&sim);
  chaos::InjectorRegistry registry(&sim);
  registry.AttachObservability(&o);
  registry.RegisterHook("test", chaos::FaultKind::kContainerKill,
                        [](const chaos::FaultEvent&) {});
  registry.Inject({0, chaos::FaultKind::kContainerKill, 7, 3});
  registry.RecordRecovery("test", chaos::FaultKind::kContainerKill, 7, "ok");

  EXPECT_EQ(registry.injected(), 1u);
  EXPECT_EQ(registry.recovered(), 1u);
  EXPECT_EQ(o.registry.GetCounter("chaos.injected")->value(), 1u);
  EXPECT_EQ(o.registry.GetCounter("chaos.recovered")->value(), 1u);

  int fault_spans = 0;
  for (const Span& s : o.tracer.spans()) {
    if (s.module != "chaos") continue;
    ++fault_spans;
    EXPECT_EQ(s.name, "fault:container-kill");
    EXPECT_EQ(s.duration_us(), 0);
    EXPECT_EQ(s.attrs.at("target"), "7");
    EXPECT_EQ(s.attrs.at("param"), "3");
  }
  EXPECT_EQ(fault_spans, 1);
}

TEST(ChaosObsTest, CountersFoldAcrossAttach) {
  sim::Simulation sim;
  chaos::InjectorRegistry registry(&sim);
  registry.Inject({0, chaos::FaultKind::kNetworkDelay, 0, 0});
  EXPECT_EQ(registry.injected(), 1u);
  Observability o(&sim);
  registry.AttachObservability(&o);
  EXPECT_EQ(registry.injected(), 1u);  // preserved through the re-home
  registry.Inject({0, chaos::FaultKind::kNetworkDelay, 0, 0});
  EXPECT_EQ(o.registry.GetCounter("chaos.injected")->value(), 2u);
}

// ------------------------------------------------------- Determinism

/// A compact multi-module world under one Observability; the full export
/// (trace + metrics) must be a pure function of (seed, plan_seed).
std::string RunDeterministicWorld(uint64_t seed, uint64_t plan_seed) {
  sim::Simulation sim;
  Observability o(&sim);
  chaos::InjectorRegistry registry(&sim);
  cluster::Cluster cluster(4, {32000, 65536});
  faas::FaasConfig fcfg;
  fcfg.seed = seed;
  fcfg.retry = chaos::RetryPolicy::ExponentialJitter(3, 5 * kMillisecond, 0.2);
  faas::FaasPlatform platform(&sim, &cluster, fcfg);
  jiffy::JiffyConfig jcfg;
  jcfg.num_memory_nodes = 2;
  jcfg.blocks_per_node = 64;
  jcfg.block_size_bytes = 1024;
  jiffy::JiffyController jiffy_ctl(&sim, jcfg);
  orchestration::Orchestrator orch(&sim, &platform);

  platform.AttachObservability(&o);
  jiffy_ctl.AttachObservability(&o);
  orch.AttachObservability(&o);
  registry.AttachObservability(&o);
  cluster.AttachChaos(&registry);
  platform.AttachChaos(&registry);
  jiffy_ctl.AttachChaos(&registry);

  faas::FunctionSpec spec;
  spec.name = "work";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 15 * kMillisecond, 0, 0};
  spec.init_us = 40 * kMillisecond;
  platform.RegisterFunction(spec);

  jiffy_ctl.CreateNamespace("/run", -1);
  auto* table = *jiffy_ctl.CreateHashTable("/run", "state");

  chaos::FaultPlanConfig plan_cfg;
  plan_cfg.horizon_us = 5 * kSecond;
  plan_cfg.num_machines = 4;
  plan_cfg.container_kill_per_s = 2.0;
  plan_cfg.memory_node_fail_per_s = 0.3;
  plan_cfg.num_memory_nodes = 2;
  Rng plan_rng(plan_seed);
  registry.Arm(chaos::FaultPlan::Generate(plan_cfg, &plan_rng));

  const auto comp = orchestration::Composition::Sequence(
      {orchestration::Composition::Task("work"),
       orchestration::Composition::Task("work")});
  for (int i = 0; i < 20; ++i) {
    sim.ScheduleAt(i * 200 * kMillisecond, [&, i] {
      platform.Invoke("work", "r" + std::to_string(i), nullptr);
      table->Put("k" + std::to_string(i), "v",
                 o.tracer.EmitSpan("tick", "test", {}, sim.Now(), sim.Now()));
    });
  }
  orch.RunKeyed("run-" + std::to_string(seed), comp, "in", nullptr);
  sim.Run();
  return o.ExportAll();
}

TEST(ObsDeterminismTest, SameSeedByteIdenticalExport) {
  const std::string a = RunDeterministicWorld(99, 7);
  const std::string b = RunDeterministicWorld(99, 7);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical trace + metrics
}

TEST(ObsDeterminismTest, DifferentSeedsDiverge) {
  const std::string a = RunDeterministicWorld(99, 7);
  EXPECT_NE(a, RunDeterministicWorld(100, 7));  // different module seed
  EXPECT_NE(a, RunDeterministicWorld(99, 8));   // different fault plan
}

TEST(ObsDeterminismTest, ExportAllCoversEveryAttachedModule) {
  const std::string a = RunDeterministicWorld(99, 7);
  EXPECT_NE(a.find("== trace =="), std::string::npos);
  EXPECT_NE(a.find("== metrics =="), std::string::npos);
  for (const char* needle :
       {"faas.invocations", "jiffy.ops", "jiffy.pool.used_blocks",
        "chaos.injected", "invoke:work", "run:run-99", "fault:"}) {
    EXPECT_NE(a.find(needle), std::string::npos) << needle;
  }
}

TEST(ObsDeterminismTest, EveryTracedRequestSumsToEndToEnd) {
  // The acceptance invariant: attribution sums to the root duration on
  // every traced request of a fault-heavy multi-module run.
  sim::Simulation sim;
  Observability o(&sim);
  chaos::InjectorRegistry registry(&sim);
  cluster::Cluster cluster(4, {32000, 65536});
  faas::FaasConfig fcfg;
  fcfg.retry = chaos::RetryPolicy::ExponentialJitter(4, 5 * kMillisecond, 0.2);
  faas::FaasPlatform platform(&sim, &cluster, fcfg);
  platform.AttachObservability(&o);
  cluster.AttachChaos(&registry);
  platform.AttachChaos(&registry);
  faas::FunctionSpec spec;
  spec.name = "work";
  spec.exec = {faas::ExecTimeModel::Kind::kFixed, 20 * kMillisecond, 0, 0};
  spec.init_us = 50 * kMillisecond;
  platform.RegisterFunction(spec);
  chaos::FaultPlanConfig plan_cfg;
  plan_cfg.horizon_us = 10 * kSecond;
  plan_cfg.num_machines = 4;
  plan_cfg.machine_crash_per_s = 0.2;
  plan_cfg.machine_restart_after_us = 1 * kSecond;
  plan_cfg.container_kill_per_s = 3.0;
  Rng plan_rng(5);
  registry.Arm(chaos::FaultPlan::Generate(plan_cfg, &plan_rng));
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(i * 100 * kMillisecond, [&platform, i] {
      platform.Invoke("work", "r" + std::to_string(i), nullptr);
    });
  }
  sim.Run();

  size_t analyzed = 0;
  for (uint64_t root : o.tracer.Roots()) {
    const Span* s = o.tracer.Find(root);
    ASSERT_TRUE(s->ended()) << "root " << root;
    const auto b = AnalyzeCriticalPath(o.tracer, root);
    ASSERT_TRUE(b.ok()) << "root " << root;
    EXPECT_EQ(b->Sum(), b->total_us) << "root " << root;
    EXPECT_EQ(b->total_us, s->duration_us()) << "root " << root;
    ++analyzed;
  }
  EXPECT_EQ(analyzed, 100u);
  EXPECT_TRUE(o.tracer.Validate().ok());
  EXPECT_GT(o.registry.GetCounter("faas.killed_containers")->value(), 0u);
}

// --------------------------------------------------------- Observability

TEST(ObservabilityTest, ExportAllConcatenatesTraceAndMetrics) {
  sim::Simulation sim;
  Observability o(&sim);
  o.tracer.EmitSpan("root", "test", {}, 0, 10);
  o.registry.GetCounter("test.count")->Inc(3);
  const std::string all = o.ExportAll();
  const size_t trace_pos = all.find("== trace ==");
  const size_t metrics_pos = all.find("== metrics ==");
  ASSERT_NE(trace_pos, std::string::npos);
  ASSERT_NE(metrics_pos, std::string::npos);
  EXPECT_LT(trace_pos, metrics_pos);
  EXPECT_NE(all.find("test.count 3"), std::string::npos);
}

}  // namespace
}  // namespace taureau::obs
