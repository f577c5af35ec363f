// Chaos tests for the fault-tolerance layer: run the full cluster while the
// fabric drops and delays messages (globally via FaultPlan phases, or on
// targeted links via FaultRules) and assert the end-to-end guarantees —
// every acked insert stays queryable, retried requests are never double
// counted, queries degrade to partial replies instead of hanging, the
// manager's leases reclaim lost balancing operations, and every pending-map
// gauge returns to zero once the network heals.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "cluster/stats.hpp"
#include "common/clock.hpp"
#include "net/fault.hpp"
#include "olap/data_gen.hpp"
#include "volap/volap.hpp"

namespace volap {
namespace {

using namespace std::chrono_literals;

/// Small cluster with tight retry budgets so loss is both exercised and
/// recovered from quickly. Budgets keep the tiering invariant: worker
/// transfer <= server scatter < client, so degradation happens server-side
/// before a client gives up on the whole request.
ClusterOptions chaosOptions() {
  ClusterOptions opts;
  opts.servers = 2;
  opts.workers = 3;
  opts.initialShardsPerWorker = 2;
  opts.worker.threads = 2;
  opts.worker.statsIntervalNanos = 50'000'000;  // 50ms
  opts.server.syncIntervalNanos = 100'000'000;  // 100ms
  opts.manager.periodNanos = 100'000'000;       // 100ms
  opts.manager.enabled = false;
  opts.manager.replicationFactor = 1;  // chain failover: failover_test
  opts.clientRetry = {40'000'000, 400'000'000, 10'000'000, 1.6, 12};
  opts.server.workerRetry = {25'000'000, 250'000'000, 5'000'000, 1.6, 6};
  opts.worker.transferRetry = {25'000'000, 250'000'000, 5'000'000, 1.6, 6};
  opts.net.seed = 1234;
  return opts;
}

/// On-failure diagnostics: the fabric registry's injected-fault counters
/// (chaos.* from FaultPlan, net.sent/net.dropped) plus every node's scraped
/// metrics — a red chaos assertion prints what the fault plan actually did
/// next to the cluster's own view of the run. Streamed into EXPECTs, so it
/// only evaluates (and scrapes) when an assertion fails.
std::string faultSummary(VolapCluster& cluster) {
  std::string out =
      "\n--- fabric ---\n" + cluster.fabric().metrics().snapshot().toText();
  for (const auto& r : scrapeStats(cluster.fabric(),
                                   cluster.statsEndpoints(), 500ms))
    out += "--- " + r.node + " ---\n" + r.snapshot.toText();
  return out;
}

/// Wait until `pred` holds or the deadline passes; returns pred().
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 5000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

TEST(Chaos, ConvergesAfterLossyPhases) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = chaosOptions();
  opts.manager.enabled = true;
  opts.manager.minImbalanceItems = 500;
  opts.net.latencyMeanNanos = 100'000;  // 0.1ms per hop
  opts.net.latencyJitterNanos = 200'000;
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 21);

  // Healthy -> lossy -> storm -> healing while a pipelined insert stream
  // runs, a worker joins mid-run (so migrations happen under loss), and
  // periodic full-coverage queries ride along.
  FaultPlan plan(cluster.fabric(),
                 {{100ms, 0.05}, {150ms, 0.12}, {100ms, 0.03}});
  plan.start();
  std::uint64_t queriesIssued = 0;
  for (int i = 0; i < 2000; ++i) {
    client->insertAsync(gen.next());
    if (i == 1000) cluster.addWorker();
    if (i % 250 == 249) {
      (void)client->query(QueryBox(schema));
      ++queriesIssued;
    }
  }
  client->drain();
  plan.stop();  // heal
  EXPECT_EQ(client->outstanding(), 0u);

  // The injected faults surface through the fabric's registry: the plan
  // accounts each phase it ran, and the lossy phases must actually have
  // eaten messages.
  {
    const MetricsSnapshot net = cluster.fabric().metrics().snapshot();
    EXPECT_EQ(*net.findCounter("chaos.phases_run"), 3u);
    EXPECT_EQ(*net.findCounter("chaos.lossy_phases"), 3u);
    EXPECT_EQ(*net.findCounter("chaos.crashes_fired"), 0u);
    EXPECT_GT(*net.findCounter("net.dropped"), 0u) << faultSummary(cluster);
    EXPECT_GT(*net.findCounter("net.sent"), *net.findCounter("net.dropped"));
  }

  // Forced degradation: sever every worker->server reply; queries must
  // still complete, flagged partial, instead of hanging.
  cluster.fabric().addFaultRule({"worker/", "server/", 1.0});
  for (int i = 0; i < 3; ++i) {
    const QueryReply r = client->query(QueryBox(schema));
    EXPECT_TRUE(r.partial);
    EXPECT_GT(r.unreachableShards, 0u);
    ++queriesIssued;
  }
  cluster.fabric().clearFaultRules();

  // Every sync query got an answer (some partial), none expired.
  EXPECT_EQ(client->queriesAnswered() + client->queriesExpired(),
            queriesIssued);
  EXPECT_GE(client->partialReplies(), 3u);

  // Acked ⇒ queryable: once healed, a full-coverage query must cover at
  // least every acked insert (an expired insert may still have landed, so
  // the count can exceed acked but never the issue total).
  const std::uint64_t acked = client->insertsAcked();
  EXPECT_EQ(acked + client->insertsExpired(), 2000u);
  EXPECT_TRUE(eventually(
      [&] {
        const QueryReply r = client->query(QueryBox(schema));
        return !r.partial && r.agg.count >= acked &&
               r.agg.count == cluster.totalItems();
      },
      10000ms))
      << faultSummary(cluster);
  EXPECT_LE(client->query(QueryBox(schema)).agg.count, 2000u);

  // Leak detector: every pending map and retry queue drains, and the
  // balancer holds no stuck operations.
  EXPECT_TRUE(eventually(
      [&] {
        for (unsigned s = 0; s < cluster.serverCount(); ++s) {
          const Server::Stats st = cluster.server(s).stats();
          if (st.pendingCoalesced != 0 || st.pendingQueries != 0 ||
              st.pendingBulks != 0 || st.retryEntries != 0)
            return false;
        }
        for (unsigned w = 0; w < cluster.workerCount(); ++w)
          if (cluster.worker(w).retryEntries() != 0) return false;
        return cluster.manager().opsInFlight() == 0;
      },
      15000ms))
      << faultSummary(cluster);
}

TEST(Chaos, QueryDegradesToPartialWhenAllWorkerRepliesDrop) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = chaosOptions();
  opts.server.workerRetry = {30'000'000, 300'000'000, 5'000'000, 1.6, 4};
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 24);
  for (int i = 0; i < 300; ++i) client->insertAsync(gen.next());
  client->drain();
  ASSERT_EQ(client->insertsAcked(), 300u);

  cluster.fabric().addFaultRule({"worker/", "server/", 1.0});
  const auto t0 = std::chrono::steady_clock::now();
  const QueryReply r = client->query(QueryBox(schema));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(r.partial);
  EXPECT_GT(r.unreachableShards, 0u);
  EXPECT_EQ(r.agg.count, 0u);
  // The server's scatter budget is 30+48+77+123ms (+jitter) ~ 300ms; the
  // degraded reply must arrive well before the client's own budget runs
  // out — bounded latency, not an open-ended hang.
  EXPECT_LT(elapsed, 2000ms);
  EXPECT_EQ(client->queriesAnswered(), 1u);
  EXPECT_EQ(client->queriesExpired(), 0u);
  EXPECT_GE(cluster.server(0).stats().partialQueries, 1u);

  // Healing restores exact answers on the same session.
  cluster.fabric().clearFaultRules();
  const QueryReply healed = client->query(QueryBox(schema));
  EXPECT_FALSE(healed.partial);
  EXPECT_EQ(healed.agg.count, 300u);
  EXPECT_TRUE(eventually([&] {
    const Server::Stats st = cluster.server(0).stats();
    return st.pendingQueries == 0 && st.retryEntries == 0;
  }));
}

TEST(Chaos, RetriedInsertsAreNotDoubleCounted) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = chaosOptions();
  opts.clientRetry = {20'000'000, 200'000'000, 5'000'000, 1.6, 16};
  opts.server.workerRetry = {15'000'000, 150'000'000, 5'000'000, 1.6, 8};
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("chaos-client", 0);
  DataGenerator gen(schema, 23);
  // Heavy loss on the request path (client->server) and on both halves of
  // the server<->worker hop, so every dedup layer gets exercised: server
  // replay of completed acks, worker replay of applied inserts.
  cluster.fabric().addFaultRule({"chaos-client", "server/", 0.4});
  cluster.fabric().addFaultRule({"server/", "worker/", 0.3});
  cluster.fabric().addFaultRule({"worker/", "server/", 0.3});
  double sum = 0;
  for (int i = 0; i < 400; ++i) {
    const PointRef p = gen.next();
    sum += p.measure;
    client->insert(p);
  }
  EXPECT_EQ(client->insertsAcked(), 400u);
  EXPECT_EQ(client->insertsExpired(), 0u);
  EXPECT_GT(client->retriesSent(), 0u);
  cluster.fabric().clearFaultRules();

  // Exactly-once apply despite at-least-once delivery: exact count and sum.
  const QueryReply r = client->query(QueryBox(schema));
  EXPECT_EQ(r.agg.count, 400u) << faultSummary(cluster);
  EXPECT_NEAR(r.agg.sum, sum, 1e-6 * (1.0 + std::abs(sum)));
  EXPECT_EQ(cluster.totalItems(), 400u);

  std::uint64_t redelivered = 0;
  for (unsigned w = 0; w < cluster.workerCount(); ++w)
    redelivered += cluster.worker(w).redelivered();
  const Server::Stats st = cluster.server(0).stats();
  EXPECT_GT(redelivered + st.repliesReplayed + st.dupRequests, 0u)
      << "this much loss must have triggered at least one dedup";
}

TEST(Chaos, ManagerLeaseReclaimsLostOperations) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = chaosOptions();
  opts.workers = 2;
  opts.initialShardsPerWorker = 3;
  opts.manager.enabled = true;
  opts.manager.periodNanos = 50'000'000;
  opts.manager.minImbalanceItems = 300;
  opts.manager.opLeaseNanos = 250'000'000;  // 250ms lease
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 22);
  for (int i = 0; i < 3000; ++i) client->insertAsync(gen.next());
  client->drain();

  // The balancer may already have moved shards during the slow ingest
  // (sanitizer builds stretch it across many periods), so quiesce it and
  // let any straggler complete or time out before snapshotting the count.
  cluster.manager().setEnabled(false);
  ASSERT_TRUE(eventually(
      [&] { return cluster.manager().opsInFlight() == 0; }, 5000ms));
  const std::uint64_t movesBefore = cluster.manager().migrationsDone();

  // Sever every manager->worker command, then create an imbalance the
  // balancer wants to fix: its operations vanish in flight, so only the
  // lease sweep keeps opsInFlight from wedging at the concurrency cap.
  cluster.fabric().addFaultRule({managerEndpoint(), "worker/", 1.0});
  const WorkerId fresh = cluster.addWorker();
  cluster.manager().setEnabled(true);
  EXPECT_TRUE(eventually(
      [&] { return cluster.manager().opsTimedOut() >= 2; }, 10000ms));
  EXPECT_EQ(cluster.manager().migrationsDone(), movesBefore);
  // Pause the balancer: with no re-issue, the lease sweep alone must drain
  // every written-off operation back to zero in flight.
  cluster.manager().setEnabled(false);
  EXPECT_TRUE(eventually(
      [&] { return cluster.manager().opsInFlight() == 0; }, 5000ms));

  // Heal and resume: a later analysis re-issues the move and it completes.
  cluster.fabric().clearFaultRules();
  cluster.manager().setEnabled(true);
  EXPECT_TRUE(eventually(
      [&] { return cluster.worker(fresh).itemsHeld() > 0; }, 15000ms))
      << "balancer never recovered after healing" << faultSummary(cluster);
  EXPECT_TRUE(eventually([&] {
    return client->query(QueryBox(schema)).agg.count == 3000u;
  }));
  EXPECT_EQ(cluster.totalItems(), 3000u);
}

TEST(Chaos, DeadWorkerIsNotChosenAsMigrationTarget) {
  const Schema schema = Schema::tpcds();
  Fabric fabric;
  KeeperServer keeper(fabric);
  KeeperClient zk(fabric, "setup");
  zk.create("/volap", {});
  zk.create(shardsPath(), {});
  zk.create(workersPath(), {});
  zk.create(alivesPath(), {});

  // Hand-built image: worker 1 is heavy; workers 2 and 3 are empty, but
  // worker 2's liveness heartbeat is a minute stale (crashed), worker 3's
  // is fresh.
  const auto writeWorker = [&](WorkerId id, std::uint64_t items) {
    WorkerStats s;
    s.id = id;
    s.totalItems = items;
    s.shardCount = 1;
    ByteWriter w;
    s.serialize(w);
    zk.create(workerPath(id), w.take());
  };
  writeWorker(1, 10'000);
  writeWorker(2, 0);
  writeWorker(3, 0);
  const auto writeBeat = [&](WorkerId id, std::uint64_t at) {
    ByteWriter w;
    w.u64(at);
    zk.create(alivePath(id), w.take());
  };
  const std::uint64_t now = nowNanos();
  writeBeat(1, now);
  writeBeat(2, now - 60'000'000'000ull);
  writeBeat(3, now);

  ShardInfo info;
  info.id = 7;
  info.worker = 1;
  info.count = 1'000;
  ByteWriter w;
  info.serialize(w);
  zk.create(shardPath(7), w.take());

  // Capture the command stream in place of a real worker.
  auto heavyBox = fabric.bind(workerEndpoint(1));

  ManagerConfig cfg;
  cfg.periodNanos = 30'000'000;
  cfg.minImbalanceItems = 100;
  cfg.replicationFactor = 1;  // no chain repair: only the move's step
  DurableLog durable;
  Manager manager(fabric, schema, cfg, /*firstShardId=*/100, durable);

  // A move starts by appending its target to the shard's chain.
  auto cmd = heavyBox->recvFor(5000ms);
  ASSERT_TRUE(cmd.has_value());
  ASSERT_EQ(cmd->type, static_cast<std::uint16_t>(Op::kReplReconfig));
  const ReplReconfig req = ReplReconfig::decode(cmd->payload);
  EXPECT_EQ(req.shard, 7u);
  ASSERT_FALSE(req.chain.empty());
  EXPECT_EQ(req.chain.back(), 3u) << "stale-heartbeat worker chosen as target";
  manager.stop();
}

}  // namespace
}  // namespace volap
