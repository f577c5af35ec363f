// End-to-end tests of the full distributed system: routing correctness
// against an oracle, multi-server synchronization through the keeper,
// splits and migrations under live load, elastic scale-up, and failure
// injection (network latency). These exercise exactly the machinery behind
// the paper's Figs. 6-10.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/clock.hpp"
#include "olap/data_gen.hpp"
#include "olap/query_gen.hpp"
#include "tree/array_shard.hpp"
#include "volap/volap.hpp"

namespace volap {
namespace {

using namespace std::chrono_literals;

ClusterOptions fastOptions() {
  ClusterOptions opts;
  opts.servers = 2;
  opts.workers = 3;
  opts.initialShardsPerWorker = 2;
  opts.worker.threads = 2;
  opts.worker.statsIntervalNanos = 50'000'000;   // 50ms
  opts.server.syncIntervalNanos = 100'000'000;   // 100ms
  opts.manager.periodNanos = 100'000'000;        // 100ms
  opts.manager.maxShardItems = 100'000;          // no splits unless asked
  opts.manager.enabled = false;                  // most tests: manual control
  opts.manager.replicationFactor = 1;            // chains: failover_test
  return opts;
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

TEST(Cluster, InsertThenQuerySameServer) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, fastOptions());
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 1);
  double sum = 0;
  for (int i = 0; i < 500; ++i) {
    const PointRef p = gen.next();
    sum += p.measure;
    client->insert(p);
  }
  const QueryReply r = client->query(QueryBox(schema));
  EXPECT_EQ(r.agg.count, 500u);
  EXPECT_NEAR(r.agg.sum, sum, 1e-6 * sum);
  EXPECT_GT(r.workersAsked, 0u);
}

TEST(Cluster, ResultsMatchOracleAcrossCoverages) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, fastOptions());
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 2);
  QueryGenerator qgen(schema, 3);
  ArrayShard oracle(schema);

  const PointSet items = gen.generate(2000);
  for (std::size_t i = 0; i < items.size(); ++i) {
    client->insert(items.at(i));
    oracle.insert(items.at(i));
  }
  for (int i = 0; i < 50; ++i) {
    const QueryBox q = qgen.random(items);
    const QueryReply got = client->query(q);
    const Aggregate want = oracle.query(q);
    ASSERT_EQ(got.agg.count, want.count) << q.describe(schema);
    ASSERT_NEAR(got.agg.sum, want.sum, 1e-6 * (1.0 + std::abs(want.sum)));
  }
}

TEST(Cluster, PipelinedInsertsAllLand) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, fastOptions());
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 4);
  for (int i = 0; i < 3000; ++i) client->insertAsync(gen.next());
  client->drain();
  EXPECT_EQ(client->insertsAcked(), 3000u);
  EXPECT_EQ(client->query(QueryBox(schema)).agg.count, 3000u);
  EXPECT_EQ(cluster.totalItems(), 3000u);
}

TEST(Cluster, BulkLoadIngestsEverything) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, fastOptions());
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 5);
  const PointSet items = gen.generate(5000);
  EXPECT_EQ(client->bulkLoad(items), 5000u);
  EXPECT_EQ(client->query(QueryBox(schema)).agg.count, 5000u);
}

TEST(Cluster, CrossServerFreshnessWithinSyncInterval) {
  // Insert through server 0, query through server 1: after one sync
  // interval the second session must see everything (paper SIV-F observed
  // consistency "always under 3 seconds" at the default rate; we run a
  // 100ms rate to keep the test fast).
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, fastOptions());
  auto writer = cluster.makeClient("w", 0);
  auto reader = cluster.makeClient("r", 1);
  DataGenerator gen(schema, 6);
  for (int i = 0; i < 1000; ++i) writer->insertAsync(gen.next());
  writer->drain();
  EXPECT_TRUE(eventually([&] {
    return reader->query(QueryBox(schema)).agg.count == 1000u;
  })) << "reader stuck at "
      << reader->query(QueryBox(schema)).agg.count;
}

TEST(Cluster, TwoWritersConvergeOnBothServers) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, fastOptions());
  auto a = cluster.makeClient("a", 0);
  auto b = cluster.makeClient("b", 1);
  DataGenerator genA(schema, 7), genB(schema, 8);
  for (int i = 0; i < 800; ++i) {
    a->insertAsync(genA.next());
    b->insertAsync(genB.next());
  }
  a->drain();
  b->drain();
  EXPECT_TRUE(eventually([&] {
    return a->query(QueryBox(schema)).agg.count == 1600u &&
           b->query(QueryBox(schema)).agg.count == 1600u;
  }));
}

TEST(Cluster, ManagerSplitsOversizedShards) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = fastOptions();
  opts.workers = 2;
  opts.initialShardsPerWorker = 1;
  opts.manager.enabled = true;
  opts.manager.maxShardItems = 1000;  // force splits
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 9);
  for (int i = 0; i < 6000; ++i) client->insertAsync(gen.next());
  client->drain();
  EXPECT_TRUE(eventually([&] { return cluster.manager().splitsDone() >= 2; },
                         10000ms));
  // No data lost across splits.
  EXPECT_TRUE(eventually([&] {
    return client->query(QueryBox(schema)).agg.count == 6000u;
  }));
  EXPECT_EQ(cluster.totalItems(), 6000u);
}

TEST(Cluster, QueriesStayCorrectDuringSplitStorm) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = fastOptions();
  opts.manager.enabled = true;
  opts.manager.maxShardItems = 500;
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 10);
  std::uint64_t inserted = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 250; ++i) {
      client->insertAsync(gen.next());
      ++inserted;
    }
    client->drain();
    // Full-coverage count must always equal what this session has acked
    // (single-writer: reads-own-writes through the same server).
    const QueryReply r = client->query(QueryBox(schema));
    ASSERT_EQ(r.agg.count, inserted) << "round " << round;
  }
  // The manager ticks at 100ms; give it time to react to the load, then
  // confirm counts survived the splits.
  EXPECT_TRUE(eventually([&] { return cluster.manager().splitsDone() > 0; },
                         10000ms));
  EXPECT_TRUE(eventually([&] {
    return client->query(QueryBox(schema)).agg.count == inserted;
  }));
}

TEST(Cluster, ElasticScaleUpMovesDataToNewWorker) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = fastOptions();
  opts.workers = 2;
  opts.manager.enabled = true;
  opts.manager.maxShardItems = 2000;
  opts.manager.minImbalanceItems = 500;
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 11);
  for (int i = 0; i < 8000; ++i) client->insertAsync(gen.next());
  client->drain();

  const WorkerId fresh = cluster.addWorker();
  EXPECT_TRUE(eventually(
      [&] { return cluster.worker(fresh).itemsHeld() > 0; }, 15000ms))
      << "balancer never moved data to the new worker";
  // The shard transfer lands before the manager's completion message; wait
  // for the counter rather than racing it.
  EXPECT_TRUE(eventually(
      [&] { return cluster.manager().migrationsDone() > 0; }, 5000ms));
  // Nothing lost in flight.
  EXPECT_TRUE(eventually([&] {
    return client->query(QueryBox(schema)).agg.count == 8000u;
  }));
  EXPECT_EQ(cluster.totalItems(), 8000u);
}

TEST(Cluster, InsertsDuringMigrationAreNotLost) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = fastOptions();
  opts.workers = 2;
  opts.manager.enabled = true;
  opts.manager.maxShardItems = 100'000;
  opts.manager.minImbalanceItems = 200;
  opts.manager.periodNanos = 50'000'000;
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 12);
  // Continuous insert stream while the balancer shuffles shards between the
  // loaded worker and the fresh one.
  for (int i = 0; i < 3000; ++i) client->insertAsync(gen.next());
  client->drain();
  cluster.addWorker();
  std::uint64_t inserted = 3000;
  for (int round = 0; round < 15; ++round) {
    for (int i = 0; i < 200; ++i) {
      client->insertAsync(gen.next());
      ++inserted;
    }
    client->drain();
    std::this_thread::sleep_for(30ms);
  }
  EXPECT_TRUE(eventually([&] {
    return client->query(QueryBox(schema)).agg.count == inserted;
  })) << "count " << client->query(QueryBox(schema)).agg.count << " vs "
      << inserted;
  EXPECT_EQ(cluster.totalItems(), inserted);
}

TEST(Cluster, SurvivesNetworkLatency) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = fastOptions();
  opts.net.latencyMeanNanos = 200'000;  // 0.2ms per hop
  opts.net.latencyJitterNanos = 300'000;
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0, /*maxOutstanding=*/128);
  DataGenerator gen(schema, 13);
  for (int i = 0; i < 1000; ++i) client->insertAsync(gen.next());
  client->drain();
  EXPECT_EQ(client->query(QueryBox(schema)).agg.count, 1000u);
}

TEST(Cluster, ServerStatsTrackRoutingActivity) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, fastOptions());
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 14);
  for (int i = 0; i < 300; ++i) client->insert(gen.next());
  (void)client->query(QueryBox(schema));
  const Server::Stats s = cluster.server(0).stats();
  EXPECT_EQ(s.insertsRouted, 300u);
  EXPECT_GE(s.queriesRouted, 1u);
  EXPECT_GT(s.boxExpansions, 0u);
  EXPECT_LE(s.boxExpansions, s.insertsRouted);
}

TEST(Cluster, MalformedClientRequestsAreDropped) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, fastOptions());
  auto client = cluster.makeClient("c0", 0, 128);
  DataGenerator gen(schema, 16);
  const int kN = 500;
  for (int i = 0; i < kN; ++i) client->insertAsync(gen.next());
  client->drain();

  // Requests whose dimension count is not the 8-dimension schema's, and
  // one payload that does not parse at all, straight onto the wire.
  const Schema narrow = Schema::synthetic(2);
  const Point point{{1, 2}, 1.0};
  PointSet points(2);
  points.push(point.ref());
  ByteWriter box, ins, bulk;
  QueryBox(narrow).serialize(box);
  writePoint(ins, point.ref());
  points.serialize(bulk);
  auto raw = cluster.fabric().bind("client/raw");
  const std::string server = serverEndpoint(0);
  cluster.fabric().send(server,
                        makeMessage(Op::kQuery, 1, "client/raw", box.take()));
  cluster.fabric().send(server,
                        makeMessage(Op::kInsert, 2, "client/raw", ins.take()));
  cluster.fabric().send(server,
                        makeMessage(Op::kBulk, 3, "client/raw", bulk.take()));
  cluster.fabric().send(server, makeMessage(Op::kQuery, 4, "client/raw",
                                            Blob{0x05, 0x01}));
  const auto malformed = [&] {
    const MetricsSnapshot snap = cluster.server(0).metrics().snapshot();
    const std::uint64_t* n = snap.findCounter("server.malformed_requests");
    return n == nullptr ? 0 : *n;
  };
  EXPECT_TRUE(eventually([&] { return malformed() == 4; }));
  // Dropped, not answered.
  EXPECT_FALSE(raw->recvFor(50ms).has_value());

  // The server still answers a valid query exactly.
  const QueryReply r = client->query(QueryBox(schema));
  EXPECT_FALSE(r.partial);
  EXPECT_EQ(r.agg.count, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(malformed(), 4u);
}

TEST(Cluster, LatencyHistogramspopulate) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, fastOptions());
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 15);
  for (int i = 0; i < 100; ++i) client->insert(gen.next());
  for (int i = 0; i < 10; ++i) (void)client->query(QueryBox(schema));
  EXPECT_EQ(client->insertLatency().count(), 100u);
  EXPECT_EQ(client->queryLatency().count(), 10u);
  EXPECT_GT(client->insertLatency().meanNanos(), 0.0);
  EXPECT_GE(client->queryLatency().quantileNanos(0.99),
            client->queryLatency().quantileNanos(0.50));
}

}  // namespace
}  // namespace volap

namespace volap {
namespace {

TEST(Cluster, ManyServerThreadsShareTheImageSafely) {
  // SIII-C: "Servers use many threads, all using the same index in
  // parallel". Hammer one server from several sessions concurrently while
  // splits run; totals must be exact.
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = fastOptions();
  opts.server.threads = 4;
  opts.manager.enabled = true;
  opts.manager.maxShardItems = 800;
  VolapCluster cluster(schema, opts);

  constexpr int kSessions = 3;
  constexpr int kPerSession = 1200;
  std::vector<std::thread> sessions;
  for (int c = 0; c < kSessions; ++c) {
    sessions.emplace_back([&, c] {
      auto client =
          cluster.makeClient("mt" + std::to_string(c), 0, /*window=*/64);
      DataGenerator gen(schema, 900 + static_cast<std::uint64_t>(c));
      QueryGenerator qgen(schema, 950 + static_cast<std::uint64_t>(c));
      const PointSet anchors = gen.generate(30);
      for (int i = 0; i < kPerSession; ++i) {
        client->insertAsync(gen.next());
        if (i % 50 == 0) client->queryAsync(qgen.random(anchors));
      }
      client->drain();
      EXPECT_EQ(client->insertsAcked(), kPerSession);
    });
  }
  for (auto& t : sessions) t.join();
  auto verifier = cluster.makeClient("verify", 0);
  EXPECT_TRUE(eventually([&] {
    return verifier->query(QueryBox(schema)).agg.count ==
           static_cast<std::uint64_t>(kSessions) * kPerSession;
  }));
  for (unsigned w = 0; w < cluster.workerCount(); ++w)
    EXPECT_EQ(cluster.worker(w).itemsDropped(), 0u);
}

TEST(Cluster, ManagerLeaseExpiryIgnoresLateAndDuplicateDones) {
  // Hand-built image: worker 1 is heavy but is only a fake mailbox that
  // swallows commands, worker 3 is an empty live target. The balancer's
  // move can therefore never complete — its lease must expire, and an ack
  // that straggles in (or arrives twice) after the write-off must be
  // ignored rather than double counted or pushed below zero in flight.
  const Schema schema = Schema::tpcds();
  Fabric fabric;
  DurableLog durable;
  KeeperServer keeper(fabric);
  KeeperClient zk(fabric, "setup");
  zk.create("/volap", {});
  zk.create(shardsPath(), {});
  zk.create(workersPath(), {});
  zk.create(alivesPath(), {});
  const auto writeWorker = [&](WorkerId id, std::uint64_t items) {
    WorkerStats s;
    s.id = id;
    s.totalItems = items;
    s.shardCount = 1;
    ByteWriter w;
    s.serialize(w);
    zk.create(workerPath(id), w.take());
    ByteWriter hb;
    hb.u64(nowNanos());
    zk.create(alivePath(id), hb.take());
  };
  writeWorker(1, 10'000);
  writeWorker(3, 0);
  ShardInfo info;
  info.id = 7;
  info.worker = 1;
  info.count = 1'000;
  ByteWriter w;
  info.serialize(w);
  zk.create(shardPath(7), w.take());

  auto heavyBox = fabric.bind(workerEndpoint(1));

  ManagerConfig cfg;
  cfg.periodNanos = 30'000'000;
  cfg.minImbalanceItems = 100;
  cfg.opLeaseNanos = 200'000'000;  // 200ms lease
  cfg.replicationFactor = 1;       // no chain repair: only the move's step
  Manager manager(fabric, schema, cfg, /*firstShardId=*/100, durable);

  // Step 1 of the move: append the target to the shard's chain.
  auto cmd = heavyBox->recvFor(5000ms);
  ASSERT_TRUE(cmd.has_value());
  ASSERT_EQ(cmd->type, static_cast<std::uint16_t>(Op::kReplReconfig));
  const ReplReconfig order = ReplReconfig::decode(cmd->payload);
  EXPECT_EQ(order.shard, 7u);
  EXPECT_EQ(order.chain, (std::vector<WorkerId>{1, 3}));
  const std::uint64_t corr = cmd->corr;
  EXPECT_GE(manager.opsInFlight(), 1u);

  // Pause the balancer: only the lease sweep may drain the in-flight op.
  manager.setEnabled(false);
  ASSERT_TRUE(eventually([&] { return manager.opsTimedOut() >= 1; }));
  ASSERT_TRUE(eventually([&] { return manager.opsInFlight() == 0; }));
  const std::uint64_t timedOut = manager.opsTimedOut();

  // The "worker" reports the chain seeded twice, after the write-off.
  RecoverDone done;
  done.ok = true;
  done.info.id = 7;
  done.info.worker = 1;
  done.info.replicas = {3};
  for (int i = 0; i < 2; ++i)
    fabric.send(managerEndpoint(),
                makeMessage(Op::kReplReconfigAck, corr, workerEndpoint(1),
                            done.encode()));
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(manager.migrationsDone(), 0u);
  EXPECT_EQ(manager.opsInFlight(), 0u);
  EXPECT_EQ(manager.opsTimedOut(), timedOut);
  manager.stop();
}

TEST(Cluster, ChasedChildTheImageCannotPlaceMakesTheAnswerPartial) {
  // A standalone server whose image holds one shard, owned by a fake
  // worker. The worker reports a split child the image does not know; the
  // server cannot ask anyone for it, so the answer must say it is partial.
  const Schema schema = Schema::tpcds();
  Fabric fabric;
  KeeperServer keeper(fabric);
  KeeperClient zk(fabric, "setup");
  zk.create("/volap", {});
  zk.create(shardsPath(), {});
  zk.create(serversPath(), {});
  DataGenerator gen(schema, 3);
  ShardInfo info;
  info.id = 7;
  info.worker = 5;
  info.count = 1;
  info.box = MdsKey::forPoint(schema, gen.next());
  ByteWriter w;
  info.serialize(w);
  zk.create(shardPath(7), w.take());
  auto fakeWorker = fabric.bind(workerEndpoint(5));
  auto client = fabric.bind("client/chase");
  Server server(fabric, schema, 0);

  ByteWriter box;
  QueryBox(schema).serialize(box);
  fabric.send(serverEndpoint(0),
              makeMessage(Op::kQuery, 1, "client/chase", box.take()));
  const auto chunk = fakeWorker->recvFor(5000ms);
  ASSERT_TRUE(chunk.has_value());
  ASSERT_EQ(chunk->type, static_cast<std::uint16_t>(Op::kWQuery));
  WQueryReply part;
  part.agg.add(1.0);
  part.searchedShards = 1;
  part.moved = {99};  // a child no image entry names
  fabric.send(serverEndpoint(0), makeMessage(Op::kWQueryReply, chunk->corr,
                                             workerEndpoint(5),
                                             part.encode()));
  const auto reply = client->recvFor(5000ms);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, static_cast<std::uint16_t>(Op::kQueryReply));
  const QueryReply r = QueryReply::decode(reply->payload);
  EXPECT_EQ(r.agg.count, 1u);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.unreachableShards, 1u);
  server.stop();
}

}  // namespace
}  // namespace volap
