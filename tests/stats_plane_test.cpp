// The scrapeable stats plane, end to end: a live cluster answers kStats
// from every server, worker, and the manager; required metric names are
// present (the same contract the CI leg enforces); traced inserts leave
// per-hop timestamps in stage order; and the freshness-lag histogram fills
// from echoed worker hops.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/stats.hpp"
#include "olap/data_gen.hpp"
#include "olap/query_gen.hpp"
#include "volap/volap.hpp"

namespace volap {
namespace {

/// Mixed insert/query workload with every request traced.
void runWorkload(VolapCluster& cluster, int inserts, int queries) {
  auto client = cluster.makeClient("stats-load", 0, 64);
  client->setTraceSampling(1);
  DataGenerator gen(cluster.schema(), 11);
  for (int i = 0; i < inserts; ++i) client->insertAsync(gen.next());
  client->drain();
  QueryGenerator qgen(cluster.schema(), 12);
  const PointSet sample = gen.generate(500);
  for (int i = 0; i < queries; ++i) {
    const QueryReply r = client->query(qgen.random(sample));
    EXPECT_FALSE(r.partial);
  }
}

TEST(StatsPlane, EveryNodeAnswersWithRequiredMetrics) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts;
  opts.servers = 2;
  opts.workers = 3;
  VolapCluster cluster(schema, opts);
  runWorkload(cluster, 2'000, 20);

  const auto endpoints = cluster.statsEndpoints();
  ASSERT_EQ(endpoints.size(), 2u + 3u + 1u);
  const auto replies = scrapeStats(cluster.fabric(), endpoints);
  ASSERT_EQ(replies.size(), endpoints.size())
      << "some node never answered kStats";

  std::map<std::string, MetricsSnapshot> byNode;
  for (const auto& r : replies) byNode[r.node] = r.snapshot;

  std::uint64_t routed = 0, applied = 0;
  for (unsigned s = 0; s < 2; ++s) {
    const auto it = byNode.find(serverEndpoint(s));
    ASSERT_NE(it, byNode.end());
    const auto missing = missingMetrics(it->second, requiredServerMetrics());
    EXPECT_TRUE(missing.empty())
        << "server " << s << " missing " << missing.size()
        << " metrics, first: " << (missing.empty() ? "" : missing[0]);
    routed += *it->second.findCounter("server.inserts_routed");
  }
  for (unsigned w = 0; w < 3; ++w) {
    const auto it = byNode.find(workerEndpoint(static_cast<WorkerId>(w)));
    ASSERT_NE(it, byNode.end());
    const auto missing = missingMetrics(it->second, requiredWorkerMetrics());
    EXPECT_TRUE(missing.empty())
        << "worker " << w << " missing " << missing.size()
        << " metrics, first: " << (missing.empty() ? "" : missing[0]);
    applied += *it->second.findCounter("worker.inserts_applied");
  }
  // The scraped counters describe the workload that actually ran.
  EXPECT_EQ(routed, 2'000u);
  EXPECT_EQ(applied, 2'000u);

  // The manager answers too (its own counter family).
  const auto mg = byNode.find(managerEndpoint());
  ASSERT_NE(mg, byNode.end());
  EXPECT_NE(mg->second.findCounter("manager.splits"), nullptr);
  EXPECT_NE(mg->second.findGauge("manager.ops_in_flight"), nullptr);

  // The scan counters move after a low-coverage query: one dimension
  // pinned to the leaf value of the workload's first item, so the query
  // matches little and its shard must scan a leaf to answer.
  std::vector<std::string> workers;
  for (unsigned w = 0; w < 3; ++w)
    workers.push_back(workerEndpoint(static_cast<WorkerId>(w)));
  struct ScanTotals {
    std::int64_t leaves = 0, items = 0, summaryAnswers = 0;
  };
  auto scanTotals = [&] {
    ScanTotals t;
    const auto rs = scrapeStats(cluster.fabric(), workers);
    EXPECT_EQ(rs.size(), workers.size());
    for (const auto& r : rs) {
      t.leaves += *r.snapshot.findGauge("worker.scan.leaves");
      t.items += *r.snapshot.findGauge("worker.scan.items");
      t.summaryAnswers +=
          *r.snapshot.findGauge("worker.scan.summary_answers");
    }
    return t;
  };
  const auto before = scanTotals();
  DataGenerator gen(schema, 11);  // runWorkload's stream
  const PointRef first = gen.next();
  QueryBox low(schema);
  low.constrainAncestor(schema, 0, first.coords[0], schema.dim(0).depth());
  auto client = cluster.makeClient("scan-probe", 0);
  const QueryReply r = client->query(low);
  ASSERT_FALSE(r.partial);
  EXPECT_GE(r.agg.count, 1u);
  EXPECT_LT(r.agg.count, 2'000u);
  const auto after = scanTotals();
  EXPECT_GT(after.leaves, before.leaves) << "worker.scan.leaves did not move";
  EXPECT_GT(after.items, before.items) << "worker.scan.items did not move";

  // A slice of one dimension at its top level is answered from the shards'
  // top-level summaries: the summary gauge grows and no item is tested.
  QueryBox slice(schema);
  slice.constrainAncestor(schema, 0, first.coords[0], 1);
  const QueryReply rs = client->query(slice);
  ASSERT_FALSE(rs.partial);
  EXPECT_GE(rs.agg.count, 1u);
  const auto sliced = scanTotals();
  EXPECT_GT(sliced.summaryAnswers, after.summaryAnswers)
      << "worker.scan.summary_answers did not move";
  EXPECT_EQ(sliced.items, after.items) << "a top-level slice tested items";
}

TEST(StatsPlane, FreshnessLagAndStageHistogramsFill) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts;
  opts.servers = 1;
  opts.workers = 2;
  VolapCluster cluster(schema, opts);
  runWorkload(cluster, 1'000, 10);

  const auto replies =
      scrapeStats(cluster.fabric(), {serverEndpoint(0)});
  ASSERT_EQ(replies.size(), 1u);
  const MetricsSnapshot& s = replies[0].snapshot;

  // Freshness lag (insert-ack to query-visible, measured as worker-applied
  // minus client-send) must have samples and a nonzero tail.
  const HistogramStats* lag = s.findHistogram("ingest.freshness_lag_ns");
  ASSERT_NE(lag, nullptr);
  EXPECT_GT(lag->count, 0u);
  EXPECT_GT(lag->p99, 0u);

  // End-to-end ingest span covers the freshness lag by construction.
  const HistogramStats* total = s.findHistogram("trace.ingest.total_ns");
  ASSERT_NE(total, nullptr);
  EXPECT_GT(total->count, 0u);
  EXPECT_GE(total->p99, lag->p99);

  // Query-side stage histograms fill from the traced queries.
  const HistogramStats* qtotal = s.findHistogram("trace.query.total_ns");
  ASSERT_NE(qtotal, nullptr);
  EXPECT_GT(qtotal->count, 0u);
  EXPECT_GT(*s.findCounter("server.queries_routed"), 0u);
}

TEST(StatsPlane, TracedInsertHopsAreOrderedAndComplete) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts;
  opts.servers = 1;
  opts.workers = 2;
  VolapCluster cluster(schema, opts);
  runWorkload(cluster, 500, 5);

  // The server's slow-trace ring holds completed traces with the full hop
  // chain. Find an ingest trace (it ends at kServerAck) and check stamps.
  const std::vector<Trace> slow = cluster.server(0).traceRing().slowest();
  ASSERT_FALSE(slow.empty());
  bool sawIngest = false;
  for (const Trace& t : slow) {
    ASSERT_NE(t.id, 0u);
    // Hops are appended as the request travels, so timestamps from the
    // process-wide steady clock must be non-decreasing in append order.
    for (std::size_t i = 1; i < t.hops.size(); ++i)
      EXPECT_GE(t.hops[i].nanos, t.hops[i - 1].nanos)
          << t.toString();
    if (t.at(TraceStage::kServerAck) == 0) continue;  // query trace
    sawIngest = true;
    EXPECT_GT(t.at(TraceStage::kClientSend), 0u) << t.toString();
    EXPECT_GT(t.at(TraceStage::kServerRecv), 0u) << t.toString();
    EXPECT_GT(t.at(TraceStage::kWorkerRecv), 0u) << t.toString();
    EXPECT_GT(t.at(TraceStage::kWorkerApplied), 0u) << t.toString();
    // Stage causality: applied at the worker before acked at the server,
    // received at the server before applied at the worker.
    EXPECT_LE(t.at(TraceStage::kServerRecv),
              t.at(TraceStage::kWorkerApplied)) << t.toString();
    EXPECT_LE(t.at(TraceStage::kWorkerApplied),
              t.at(TraceStage::kServerAck)) << t.toString();
  }
  EXPECT_TRUE(sawIngest);
}

TEST(StatsPlane, ScrapeToleratesDeadNodes) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts;
  opts.servers = 1;
  opts.workers = 2;
  VolapCluster cluster(schema, opts);
  runWorkload(cluster, 200, 2);
  cluster.crashWorker(1);

  const auto replies = scrapeStats(cluster.fabric(), cluster.statsEndpoints(),
                                   std::chrono::milliseconds(500));
  // The crashed worker is simply absent; everyone else still answers.
  ASSERT_EQ(replies.size(), cluster.statsEndpoints().size() - 1);
  for (const auto& r : replies)
    EXPECT_NE(r.node, workerEndpoint(static_cast<WorkerId>(1)));
}

}  // namespace
}  // namespace volap
