// Unit tests for the metrics substrate: counters, the HostCounters
// {name, field} table and its registry-backed block, histograms (quantiles on
// known distributions), scoped timers, registries, snapshot merging, the
// JSON emitter, and what the disabled mode does and does not gate.

#include "src/common/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/stats.h"

namespace millipage {
namespace {

// Metrics are a process-global switch; every test leaves them enabled.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMetricsEnabled(true); }
  void TearDown() override { SetMetricsEnabled(true); }
};

TEST_F(MetricsTest, CounterCountsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, HostCounterTableDrivesArithmeticAndReadOut) {
  // Every row has a distinct registry name (one row per field is checked
  // when CounterBlock compiles).
  std::set<std::string> names;
  for (const CounterField<HostCounters>& f : HostCounters::kFields) {
    EXPECT_TRUE(names.insert(f.name).second) << f.name;
  }

  // += and - touch every field, each independently of the others.
  HostCounters a;
  HostCounters b;
  uint64_t i = 1;
  for (const CounterField<HostCounters>& f : HostCounters::kFields) {
    a.*f.field = 100 * i;
    b.*f.field = i++;
  }
  HostCounters sum = a;
  sum += b;
  const HostCounters diff = a - b;
  i = 1;
  for (const CounterField<HostCounters>& f : HostCounters::kFields) {
    EXPECT_EQ(sum.*f.field, 101 * i) << f.name;
    EXPECT_EQ(diff.*f.field, 99 * i) << f.name;
    ++i;
  }

  // The block registers one counter per row; Read() returns each one in its
  // own field.
  MetricsRegistry reg;
  CounterBlock<HostCounters> block(reg);
  i = 1;
  for (const CounterField<HostCounters>& f : HostCounters::kFields) {
    block[f.field].Inc(i++);
  }
  const HostCounters read = block.Read();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.size(), names.size());
  i = 1;
  for (const CounterField<HostCounters>& f : HostCounters::kFields) {
    EXPECT_EQ(read.*f.field, i) << f.name;
    EXPECT_EQ(snap.counters.at(f.name), i) << f.name;
    ++i;
  }
}

TEST_F(MetricsTest, HistogramStatsOnKnownDistribution) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 500500u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  // Power-of-two buckets: a quantile answer is the bucket's upper bound, so
  // it may overshoot the exact order statistic by at most 2x (and never
  // undershoot it).
  const uint64_t p50 = s.Quantile(0.5);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 1000u);
  const uint64_t p99 = s.Quantile(0.99);
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 1000u);  // capped at the observed max
  EXPECT_EQ(s.Quantile(1.0), 1000u);
  EXPECT_LE(s.Quantile(0.0), 2u);
}

TEST_F(MetricsTest, HistogramQuantileOnPointMass) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(4096);
  }
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.Quantile(0.5), 4096u);
  EXPECT_EQ(s.Quantile(0.99), 4096u);
  EXPECT_EQ(s.min, 4096u);
  EXPECT_EQ(s.max, 4096u);
}

TEST_F(MetricsTest, HistogramSnapshotMerge) {
  Histogram a;
  Histogram b;
  a.Record(10);
  a.Record(20);
  b.Record(5);
  b.Record(40000);
  HistogramSnapshot s = a.Snapshot();
  s.Merge(b.Snapshot());
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 40035u);
  EXPECT_EQ(s.min, 5u);
  EXPECT_EQ(s.max, 40000u);
  // Merging an empty snapshot changes nothing (empty min must not poison).
  s.Merge(HistogramSnapshot{});
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.min, 5u);
}

TEST_F(MetricsTest, ScopedTimerRecordsElapsed) {
  Histogram h;
  {
    ScopedTimer t(&h);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sink = sink + i;
    }
  }
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GT(s.sum, 0u);
}

TEST_F(MetricsTest, DisabledModeCountsButTimesNothing) {
  // The switch gates what pays for a clock read or a bucket walk: counters
  // keep counting, histograms and scoped timers stay inert.
  Counter c;
  Histogram h;
  SetMetricsEnabled(false);
  c.Inc();
  c.Inc(100);
  h.Record(42);
  { ScopedTimer t(&h); }
  SetMetricsEnabled(true);
  EXPECT_EQ(c.value(), 101u);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.Quantile(0.99), 0u);
}

TEST_F(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("x.count");
  Counter* c2 = reg.GetCounter("x.count");
  EXPECT_EQ(c1, c2);
  Histogram* h1 = reg.GetHistogram("x.lat_ns");
  EXPECT_EQ(h1, reg.GetHistogram("x.lat_ns"));
  c1->Inc(3);
  h1->Record(100);
  const MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.counters.at("x.count"), 3u);
  EXPECT_EQ(s.histograms.at("x.lat_ns").count, 1u);
  reg.Reset();
  EXPECT_EQ(c1->value(), 0u);  // pointer still valid, value zeroed
  EXPECT_EQ(reg.Snapshot().counters.at("x.count"), 0u);
}

TEST_F(MetricsTest, ConcurrentUpdatesAreNotLost) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  Histogram* h = reg.GetHistogram("h");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Inc();
        h->Record(64);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->Snapshot().count, uint64_t{kThreads} * kPerThread);
}

TEST_F(MetricsTest, SnapshotMergeAcrossRegistries) {
  // The cluster-level aggregation path: one registry per node, merged into
  // one flat snapshot.
  MetricsRegistry node_a;
  MetricsRegistry node_b;
  node_a.GetCounter("dsm.faults")->Inc(2);
  node_b.GetCounter("dsm.faults")->Inc(5);
  node_b.GetCounter("dsm.retries")->Inc(1);
  node_a.GetHistogram("dsm.lat_ns")->Record(100);
  node_b.GetHistogram("dsm.lat_ns")->Record(1000);
  MetricsSnapshot total = node_a.Snapshot();
  total.Merge(node_b.Snapshot());
  EXPECT_EQ(total.counters.at("dsm.faults"), 7u);
  EXPECT_EQ(total.counters.at("dsm.retries"), 1u);
  EXPECT_EQ(total.histograms.at("dsm.lat_ns").count, 2u);
  EXPECT_EQ(total.histograms.at("dsm.lat_ns").min, 100u);
  EXPECT_EQ(total.histograms.at("dsm.lat_ns").max, 1000u);
}

TEST_F(MetricsTest, DumpJsonShape) {
  MetricsRegistry reg;
  reg.GetCounter("a.count")->Inc(3);
  reg.GetHistogram("a.lat_ns")->Record(250);
  const std::string json = reg.Snapshot().DumpJson();
  EXPECT_EQ(json.find("{\"counters\":{"), 0u);
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"a.lat_ns\":{\"count\":1,\"sum\":250"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
  // Balanced braces (cheap well-formedness check; CI parses it for real).
  int depth = 0;
  for (char ch : json) {
    depth += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(MetricsTest, EmptySnapshotDumpsValidJson) {
  EXPECT_EQ(MetricsSnapshot{}.DumpJson(), "{\"counters\":{},\"histograms\":{}}");
}

}  // namespace
}  // namespace millipage
