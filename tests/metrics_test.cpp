// MetricsRegistry / tracing unit tests: striped counters under thread
// storms, atomic-histogram percentiles against a sorted oracle, snapshots
// taken while writers are live, the snapshot wire round-trip, and the
// slowest-trace ring's eviction order.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace volap {
namespace {

TEST(Metrics, CounterExactUnderConcurrentIncrements) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  // Same name resolves to the same handle; a fresh name starts at zero.
  EXPECT_EQ(reg.counter("test.hits").value(), kThreads * kPerThread);
  EXPECT_EQ(reg.counter("test.other").value(), 0u);
}

TEST(Metrics, CounterBulkIncrement) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.items");
  c.inc(10);
  c.inc();
  c.inc(989);
  EXPECT_EQ(c.value(), 1000u);
}

TEST(Metrics, HistogramPercentilesMatchSortedOracle) {
  MetricsRegistry reg;
  AtomicHistogram& h = reg.histogram("test.lat_ns");
  // A long-tailed synthetic latency population, like real RPC latencies.
  Rng rng(42);
  std::vector<std::uint64_t> oracle;
  for (int i = 0; i < 20'000; ++i) {
    std::uint64_t v = 1'000 + rng.below(100'000);   // 1-101 us body
    if (rng.below(100) < 5) v += rng.below(10'000'000);  // 5% tail to 10ms
    oracle.push_back(v);
    h.record(v);
  }
  std::sort(oracle.begin(), oracle.end());
  const HistogramStats s = h.stats();
  EXPECT_EQ(s.count, oracle.size());
  EXPECT_EQ(s.min, oracle.front());
  EXPECT_EQ(s.max, oracle.back());
  // Quantiles report the bucket upper bound; with 16 sub-buckets per octave
  // the relative error is <= ~4.5% plus one bucket of rounding. Check each
  // against the exact order statistic with a 10% band.
  const auto at = [&](double q) {
    return oracle[static_cast<std::size_t>(
        q * static_cast<double>(oracle.size() - 1))];
  };
  const std::pair<double, std::uint64_t> checks[] = {
      {0.50, s.p50}, {0.95, s.p95}, {0.99, s.p99}};
  for (const auto& [q, got] : checks) {
    const double exact = static_cast<double>(at(q));
    EXPECT_GE(static_cast<double>(got), exact * 0.90) << "q=" << q;
    EXPECT_LE(static_cast<double>(got), exact * 1.12) << "q=" << q;
  }
  // materialize() copies the buckets and the exact sum, min and max, and
  // both views use one quantile rule.
  const LatencyHistogram plain = h.materialize();
  EXPECT_EQ(plain.count(), s.count);
  std::uint64_t sum = 0;
  for (std::uint64_t v : oracle) sum += v;
  EXPECT_EQ(s.sum, sum);
  EXPECT_DOUBLE_EQ(plain.meanNanos(), static_cast<double>(sum) /
                                          static_cast<double>(oracle.size()));
  EXPECT_EQ(plain.minNanos(), s.min);
  EXPECT_EQ(plain.maxNanos(), s.max);
  EXPECT_EQ(plain.quantileNanos(0.50), s.p50);
  EXPECT_EQ(plain.quantileNanos(0.95), s.p95);
  EXPECT_EQ(plain.quantileNanos(0.99), s.p99);

  // Eleven samples, one per bucket: the 95th percentile is the 11th
  // sample (ceil(0.95 * 11) = 11), in both views.
  AtomicHistogram& small = reg.histogram("test.small_ns");
  for (std::uint64_t v = 1; v <= 11; ++v) small.record(v);
  EXPECT_EQ(small.stats().p95, 11u);
  EXPECT_EQ(small.materialize().quantileNanos(0.95), 11u);
}

TEST(Metrics, SnapshotUnderLoadIsMonotoneAndCatchesUp) {
  MetricsRegistry reg;
  Counter& c = reg.counter("load.ops");
  AtomicHistogram& h = reg.histogram("load.lat_ns");
  reg.gaugeFn("load.level", [] { return std::int64_t{7}; });
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(1'000 + (i & 1023));
      }
    });
  // Snapshot while the writers hammer: each snapshot must be internally
  // sane and counter reads must never go backwards.
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot s = reg.snapshot();
    const std::uint64_t* ops = s.findCounter("load.ops");
    ASSERT_NE(ops, nullptr);
    EXPECT_GE(*ops, last);
    last = *ops;
    const std::int64_t* level = s.findGauge("load.level");
    ASSERT_NE(level, nullptr);
    EXPECT_EQ(*level, 7);
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot fin = reg.snapshot();
  EXPECT_EQ(*fin.findCounter("load.ops"), kThreads * kPerThread);
  EXPECT_EQ(fin.findHistogram("load.lat_ns")->count, kThreads * kPerThread);
}

TEST(Metrics, SnapshotWireRoundTrip) {
  MetricsRegistry reg;
  reg.counter("a.ops").inc(123);
  reg.gauge("a.depth").set(-5);
  reg.histogram("a.lat_ns").record(5'000);
  reg.histogram("a.lat_ns").record(9'000'000);
  const MetricsSnapshot before = reg.snapshot();

  ByteWriter w;
  before.serialize(w);
  ByteReader r(w.data());
  const MetricsSnapshot after = MetricsSnapshot::deserialize(r);

  ASSERT_NE(after.findCounter("a.ops"), nullptr);
  EXPECT_EQ(*after.findCounter("a.ops"), 123u);
  ASSERT_NE(after.findGauge("a.depth"), nullptr);
  EXPECT_EQ(*after.findGauge("a.depth"), -5);
  const HistogramStats* hs = after.findHistogram("a.lat_ns");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2u);
  EXPECT_EQ(hs->min, 5'000u);
  EXPECT_EQ(hs->max, 9'000'000u);

  // Renderings mention every name (the CI guard greps these).
  const std::string text = after.toText();
  EXPECT_NE(text.find("a.ops 123"), std::string::npos);
  const std::string json = after.toJson();
  EXPECT_NE(json.find("\"a.depth\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"a.lat_ns\""), std::string::npos);
}

TEST(Trace, RingKeepsSlowestAndEvictsFastest) {
  TraceRing ring(3);
  const auto mk = [](std::uint64_t id, std::uint64_t spanNanos) {
    Trace t;
    t.id = id;
    t.hops.push_back({static_cast<std::uint16_t>(TraceStage::kClientSend),
                      1'000});
    t.hops.push_back({static_cast<std::uint16_t>(TraceStage::kServerAck),
                      1'000 + spanNanos});
    return t;
  };
  ring.offer(mk(1, 100));
  ring.offer(mk(2, 900));
  ring.offer(mk(3, 500));
  ring.offer(mk(4, 50));    // faster than everything resident: dropped
  ring.offer(mk(5, 700));   // evicts trace 1 (span 100)
  const std::vector<Trace> slow = ring.slowest();
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_EQ(slow[0].id, 2u);  // 900
  EXPECT_EQ(slow[1].id, 5u);  // 700
  EXPECT_EQ(slow[2].id, 3u);  // 500
}

TEST(Trace, HopAccessorsAndWireRoundTrip) {
  Trace t;
  t.id = 77;
  t.hops.push_back({static_cast<std::uint16_t>(TraceStage::kClientSend), 10});
  t.hops.push_back({static_cast<std::uint16_t>(TraceStage::kServerRecv), 40});
  t.hops.push_back({static_cast<std::uint16_t>(TraceStage::kServerAck), 100});
  EXPECT_EQ(t.at(TraceStage::kClientSend), 10u);
  EXPECT_EQ(t.at(TraceStage::kWorkerWal), 0u);  // absent stage
  EXPECT_EQ(t.totalNanos(), 90u);

  ByteWriter w;
  t.serialize(w);
  ByteReader r(w.data());
  const Trace back = Trace::deserialize(r);
  EXPECT_EQ(back.id, 77u);
  ASSERT_EQ(back.hops.size(), 3u);
  EXPECT_EQ(back.at(TraceStage::kServerRecv), 40u);
  EXPECT_NE(back.toString().find("trace 77"), std::string::npos);
}

}  // namespace
}  // namespace volap
