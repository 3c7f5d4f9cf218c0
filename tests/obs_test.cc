// Unit tests for src/obs/: histogram bucket math and percentiles,
// concurrent recording, span nesting/attribution, exporter goldens, and
// the runtime kill switch. All tests share the process-wide registry, so
// they use unique metric names and compare deltas where needed; any test
// that flips a global switch restores the default before returning.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "catalog/database.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "optimizer/statistics.h"
#include "robustness/resilience.h"

namespace aimai {
namespace {

using obs::Histogram;
using obs::MetricsSnapshot;
using obs::Registry;
using obs::ScopedSpan;
using obs::TraceEvent;

TEST(HistogramTest, CountAndSumAreExact) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_EQ(h.sum(), 500500);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
}

TEST(HistogramTest, EmptyReadsAsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Values below the linear cut get unit-width buckets: percentiles of a
  // point mass are exact, not approximations.
  for (int64_t v = 0; v < Histogram::kLinearCut; ++v) {
    Histogram h;
    h.Record(v);
    EXPECT_DOUBLE_EQ(h.Percentile(0.5), static_cast<double>(v)) << v;
  }
}

TEST(HistogramTest, BucketInvariants) {
  int prev = -1;
  for (int64_t v = 0; v <= 1 << 20; v = v < 64 ? v + 1 : v + v / 17) {
    const int idx = Histogram::BucketIndex(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, Histogram::kNumBuckets);
    ASSERT_GE(idx, prev) << "bucket index must be monotone in the value";
    prev = idx;
    const int64_t low = Histogram::BucketLow(idx);
    const int64_t high = Histogram::BucketHigh(idx);
    ASSERT_LE(low, v);
    ASSERT_GE(high, v);
    if (v >= Histogram::kLinearCut) {
      // Log-scale region: relative bucket width is at most 1/kSub.
      ASSERT_LE(high - low + 1, low / (Histogram::kSub - 1) + 1)
          << "bucket too wide at " << v;
    }
  }
}

TEST(HistogramTest, LargeValuesKeepInvariants) {
  for (int shift = 20; shift <= 62; ++shift) {
    const int64_t v = int64_t{1} << shift;
    for (int64_t probe : {v - 1, v, v + 1, v + v / 3}) {
      const int idx = Histogram::BucketIndex(probe);
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, Histogram::kNumBuckets);
      ASSERT_LE(Histogram::BucketLow(idx), probe);
      ASSERT_GE(Histogram::BucketHigh(idx), probe);
    }
  }
}

TEST(HistogramTest, PercentilesWithinTolerance) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  // Bucket width in this range is <= 12.5%, so the midpoint estimate is
  // well within 15% of the true order statistic.
  EXPECT_NEAR(h.Percentile(0.50), 500.0, 75.0);
  EXPECT_NEAR(h.Percentile(0.90), 900.0, 135.0);
  EXPECT_NEAR(h.Percentile(0.99), 990.0, 148.0);
  EXPECT_NEAR(h.Percentile(0.0), 1.0, 1.0);
  EXPECT_GE(h.Percentile(1.0), 900.0);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
}

TEST(HistogramTest, ConcurrentRecordsSumExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(1 + (i + t) % 100);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), int64_t{kThreads} * kPerThread);
  // Every recorded value is in [1, 100]; the sum must reflect all of them.
  EXPECT_GE(h.sum(), h.count());
  EXPECT_LE(h.sum(), h.count() * 100);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  obs::Counter* c = Registry().GetCounter("obstest.concurrent_counter");
  const int64_t before = c->value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value() - before, int64_t{kThreads} * kPerThread);
}

TEST(RegistryTest, SameNameSameHandle) {
  EXPECT_EQ(Registry().GetCounter("obstest.handle"),
            Registry().GetCounter("obstest.handle"));
  EXPECT_EQ(Registry().GetHistogram("obstest.handle.ns"),
            Registry().GetHistogram("obstest.handle.ns"));
  EXPECT_EQ(Registry().GetGauge("obstest.gauge"),
            Registry().GetGauge("obstest.gauge"));
}

TEST(RegistryTest, SnapshotIsSortedByName) {
  Registry().GetCounter("obstest.zz");
  Registry().GetCounter("obstest.aa");
  const MetricsSnapshot snap = Registry().Snapshot();
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
  for (size_t i = 1; i < snap.histograms.size(); ++i) {
    EXPECT_LT(snap.histograms[i - 1].first, snap.histograms[i].first);
  }
}

TEST(SpanTest, RecordsIntoHistogramAndNests) {
  obs::SetTraceEnabled(true);
  obs::Tracer().Clear();
  obs::Histogram* outer_h = Registry().GetHistogram("obstest.outer.ns");
  obs::Histogram* inner_h = Registry().GetHistogram("obstest.inner.ns");
  const int64_t outer_before = outer_h->count();
  const int64_t inner_before = inner_h->count();

  EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
  {
    ScopedSpan outer("obstest.outer", outer_h);
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
    {
      ScopedSpan inner("obstest.inner", inner_h);
      EXPECT_EQ(ScopedSpan::CurrentDepth(), 2);
    }
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 1);
  }
  EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);

  EXPECT_EQ(outer_h->count(), outer_before + 1);
  EXPECT_EQ(inner_h->count(), inner_before + 1);

  // The inner span completes (and is appended) first; depths attribute the
  // parent/child relationship, and the child interval nests in the parent.
  const std::vector<TraceEvent> events = obs::Tracer().Events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "obstest.inner");
  EXPECT_STREQ(outer.name, "obstest.outer");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);

  obs::SetTraceEnabled(false);
  obs::Tracer().Clear();
}

// The macro tests assert recording behavior, which -DAIMAI_OBS_DISABLE=ON
// compiles out by design; the direct-API tests above still run there.
#if !defined(AIMAI_OBS_DISABLED)

TEST(SpanTest, MacroRegistersLatencyHistogram) {
  obs::Histogram* h = Registry().GetHistogram("obstest.macro_span.ns");
  const int64_t before = h->count();
  {
    AIMAI_SPAN("obstest.macro_span");
  }
  EXPECT_EQ(h->count(), before + 1);
}

// Column statistics are built lazily inside what-if optimization; their
// span and counter record the catalog's cache misses only, like
// `index.build`.
TEST(StatisticsObsTest, HistogramBuildSpanCountsOnlyCacheMisses) {
  Database db("stats_db");
  auto table = std::make_unique<Table>("t");
  Column* a = table->AddColumn("a", DataType::kInt64);
  Column* b = table->AddColumn("b", DataType::kDouble);
  for (int i = 0; i < 100; ++i) {
    a->AppendInt(i % 7);
    b->AppendDouble(i * 0.5);
  }
  table->SealRows();
  db.AddTable(std::move(table));
  StatisticsCatalog stats(&db);
  obs::Counter* builds = Registry().GetCounter("stats.histogram_builds");
  Histogram* span = Registry().GetHistogram("stats.histogram_build.ns");
  const int64_t builds0 = builds->value();
  const int64_t spans0 = span->count();
  const auto& first = stats.ColumnHistogram(0, 0);
  EXPECT_EQ(&stats.ColumnHistogram(0, 0), &first);
  EXPECT_EQ(stats.DistinctCount(0, 0), 7);
  EXPECT_EQ(builds->value() - builds0, 1);
  EXPECT_EQ(span->count() - spans0, 1);
  EXPECT_EQ(stats.DistinctCount(0, 1), 100);
  EXPECT_EQ(builds->value() - builds0, 2);
  EXPECT_EQ(span->count() - spans0, 2);
}

#endif  // !AIMAI_OBS_DISABLED

TEST(TraceCollectorTest, BoundedWithDropCount) {
  obs::TraceCollector collector;
  collector.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    collector.Append({"e", i, 1, 1, 0});
  }
  EXPECT_EQ(collector.size(), 2u);
  EXPECT_EQ(collector.dropped(), 3);
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.dropped(), 0);
}

#if !defined(AIMAI_OBS_DISABLED)

TEST(KillSwitchTest, DisabledMacrosRecordNothing) {
  obs::SetEnabled(false);
  auto touch = [] {
    AIMAI_COUNTER_INC("obstest.kill_counter");
    AIMAI_HIST_RECORD("obstest.kill_hist", 7);
    AIMAI_SPAN("obstest.kill_span");
  };
  touch();
  // The counter/histogram statics only resolve on an enabled execution, so
  // nothing with these names has any samples yet.
  EXPECT_EQ(Registry().GetCounter("obstest.kill_counter")->value(), 0);
  EXPECT_EQ(Registry().GetHistogram("obstest.kill_hist")->count(), 0);
  EXPECT_EQ(Registry().GetHistogram("obstest.kill_span.ns")->count(), 0);

  obs::SetEnabled(true);
  touch();
  EXPECT_EQ(Registry().GetCounter("obstest.kill_counter")->value(), 1);
  EXPECT_EQ(Registry().GetHistogram("obstest.kill_hist")->count(), 1);
  EXPECT_EQ(Registry().GetHistogram("obstest.kill_span.ns")->count(), 1);
}

#endif  // !AIMAI_OBS_DISABLED

TEST(KillSwitchTest, DisabledSpansSkipTraceAndDepth) {
  obs::SetEnabled(false);
  obs::SetTraceEnabled(true);
  obs::Tracer().Clear();
  {
    ScopedSpan span("obstest.kill_span2");
    EXPECT_EQ(ScopedSpan::CurrentDepth(), 0);
  }
  EXPECT_EQ(obs::Tracer().size(), 0u);
  obs::SetTraceEnabled(false);
  obs::SetEnabled(true);
}

TEST(ExportTest, JsonSnapshotGolden) {
  MetricsSnapshot snap;
  snap.counters = {{"a.calls", 3}, {"b.hits", 0}};
  snap.gauges = {{"g.backoff_ms", 1.5}};
  obs::HistogramStats hs;
  hs.count = 2;
  hs.sum = 30;
  hs.min = 10;
  hs.max = 20;
  hs.p50 = 10.0;
  hs.p90 = 20.0;
  hs.p99 = 20.0;
  snap.histograms = {{"s.ns", hs}};
  EXPECT_EQ(obs::JsonSnapshot(snap),
            "{\"counters\":{\"a.calls\":3,\"b.hits\":0},"
            "\"gauges\":{\"g.backoff_ms\":1.5},"
            "\"histograms\":{\"s.ns\":{\"count\":2,\"sum\":30,\"min\":10,"
            "\"max\":20,\"p50\":10.0,\"p90\":20.0,\"p99\":20.0}}}");
}

TEST(ExportTest, ChromeTraceGolden) {
  std::vector<TraceEvent> events;
  events.push_back({"tuner.measure", 2000, 1500, 1, 0});
  events.push_back({"whatif.optimize", 2500, 500, 1, 1});
  EXPECT_EQ(
      obs::ChromeTraceJson(events, /*dropped=*/1),
      "{\"traceEvents\":["
      "{\"name\":\"tuner.measure\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":2.000,\"dur\":1.500,\"args\":{\"depth\":0}},"
      "{\"name\":\"whatif.optimize\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":2.500,\"dur\":0.500,\"args\":{\"depth\":1}}"
      "],\"displayTimeUnit\":\"ms\",\"droppedEvents\":1}");
}

TEST(ExportTest, TextSnapshotHasSections) {
  MetricsSnapshot snap;
  snap.counters = {{"a.calls", 3}};
  obs::HistogramStats hs;
  hs.count = 1;
  hs.sum = 1000000;
  snap.histograms = {{"s.ns", hs}};
  const std::string text = obs::TextSnapshot(snap);
  EXPECT_NE(text.find("== metrics =="), std::string::npos);
  EXPECT_NE(text.find("a.calls"), std::string::npos);
  EXPECT_NE(text.find("s.ns"), std::string::npos);
}

TEST(ExportTest, JsonEscapesControlAndQuotes) {
  MetricsSnapshot snap;
  snap.counters = {{"we\"ird\nname", 1}};
  EXPECT_NE(obs::JsonSnapshot(snap).find("we\\\"ird\\nname"),
            std::string::npos);
}

TEST(ResilienceShimTest, PublishDeltaToDoesNotDoubleCount) {
  obs::Counter* c = Registry().GetCounter("resilience.what_if_timeouts");
  obs::Gauge* g = Registry().GetGauge("resilience.total_backoff_ms");
  const int64_t c0 = c->value();
  const double g0 = g->value();

  ResilienceStats rs;
  rs.what_if_timeouts = 3;
  rs.total_backoff_ms = 10.0;
  rs.PublishDeltaTo(&Registry());
  EXPECT_EQ(c->value() - c0, 3);
  EXPECT_DOUBLE_EQ(g->value() - g0, 10.0);

  // Publishing again with no new events must be a no-op.
  rs.PublishDeltaTo(&Registry());
  EXPECT_EQ(c->value() - c0, 3);
  EXPECT_DOUBLE_EQ(g->value() - g0, 10.0);

  rs.what_if_timeouts = 5;
  rs.total_backoff_ms = 12.5;
  rs.PublishDeltaTo(&Registry());
  EXPECT_EQ(c->value() - c0, 5);
  EXPECT_DOUBLE_EQ(g->value() - g0, 12.5);
}

}  // namespace
}  // namespace aimai
