// Crash-recovery tests: hard-kill a worker holding live shards mid-ingest
// (endpoints unbound, threads stopped, memory gone) and assert the
// durability pipeline end to end — every acked insert survives via
// checkpoint + WAL replay onto surviving workers, queries degrade to
// partial during the dead window instead of hanging, and a fenced zombie
// can neither ack new writes nor sneak late acks past a server that has
// already seen the shard's newer epoch.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "net/fault.hpp"
#include "olap/data_gen.hpp"
#include "volap/volap.hpp"

namespace volap {
namespace {

using namespace std::chrono_literals;

/// Small cluster tuned so a crash is detected and repaired in well under a
/// second: fast heartbeats and checkpoints, a tight server scatter budget
/// (so a query inside the dead window deterministically degrades before
/// recovery can finish), and a client budget generous enough to ride out
/// the whole repair (~3.4s of retries vs ~0.6s of outage).
ClusterOptions recoveryOptions() {
  ClusterOptions opts;
  opts.servers = 2;
  opts.workers = 4;
  opts.initialShardsPerWorker = 2;
  opts.worker.threads = 2;
  opts.worker.statsIntervalNanos = 40'000'000;       // 40ms heartbeats
  opts.worker.checkpointIntervalNanos = 60'000'000;  // 60ms checkpoints
  opts.server.syncIntervalNanos = 100'000'000;
  opts.manager.periodNanos = 50'000'000;
  opts.manager.enabled = false;  // isolate recovery from balancing
  opts.manager.replicationFactor = 1;  // cold-replay path (no chains)
  opts.manager.aliveTimeoutNanos = 250'000'000;
  opts.manager.deadGraceNanos = 150'000'000;
  opts.clientRetry = {40'000'000, 400'000'000, 10'000'000, 1.6, 12};
  opts.server.workerRetry = {15'000'000, 150'000'000, 5'000'000, 1.6, 4};
  opts.worker.transferRetry = {25'000'000, 250'000'000, 5'000'000, 1.6, 6};
  opts.net.seed = 4321;
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

/// Shards the keeper image currently maps to `worker`.
std::vector<ShardId> shardsOf(VolapCluster& cluster, WorkerId worker) {
  KeeperClient zk(cluster.fabric(), "test-observer");
  std::vector<ShardId> out;
  const auto kids = zk.children(shardsPath());
  if (!kids) return out;
  for (const auto& name : *kids) {
    const auto got = zk.get(shardsPath() + "/" + name);
    if (!got) continue;
    ByteReader r(got->data);
    const ShardInfo info = ShardInfo::deserialize(r);
    if (info.worker == worker) out.push_back(info.id);
  }
  return out;
}

TEST(Recovery, CrashedWorkerShardsAreRehostedWithNoAckedLoss) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, recoveryOptions());
  // Uncrashed control fed the identical stream: the recovered cluster must
  // end up answer-equivalent to a cluster that never crashed.
  VolapCluster control(schema, recoveryOptions());
  auto client = cluster.makeClient("c0", 0);
  auto ctl = control.makeClient("c0", 0);
  DataGenerator gen(schema, 77);
  DataGenerator ctlGen(schema, 77);
  const int kN = 1200;
  for (int i = 0; i < kN / 2; ++i) {
    client->insert(gen.next());
    ctl->insert(ctlGen.next());
  }
  const std::vector<ShardId> victims = shardsOf(cluster, 1);
  ASSERT_EQ(victims.size(), 2u);
  ASSERT_TRUE(eventually(
      [&] { return cluster.worker(1).checkpointsTaken() >= victims.size(); }));

  // Kill worker 1 for real — endpoints unbound mid-conversation, threads
  // stopped, shards gone — while a pipelined burst is still in flight.
  FaultPlan plan(cluster.fabric(),
                 {{30ms, 0.0},
                  {1ms, 0.0, FaultAction::kCrash, workerEndpoint(1),
                   [&] { cluster.crashWorker(1); }}});
  for (int i = 0; i < 100; ++i) {
    client->insertAsync(gen.next());
    ctl->insertAsync(ctlGen.next());
  }
  plan.start();
  ASSERT_TRUE(
      eventually([&] { return cluster.worker(1).shardCount() == 0; }, 2000ms));

  // Inside the dead window (detection needs a stale heartbeat + grace, so
  // recovery cannot have finished yet) a full-coverage query must degrade
  // to a partial answer within the scatter budget, not hang.
  const QueryReply during = client->query(QueryBox(schema));
  EXPECT_TRUE(during.partial);
  EXPECT_GT(during.unreachableShards, 0u);

  // Keep ingesting straight through the repair.
  for (int i = kN / 2 + 100; i < kN; ++i) {
    client->insertAsync(gen.next());
    ctl->insertAsync(ctlGen.next());
  }
  client->drain();
  ctl->drain();
  plan.stop();
  EXPECT_EQ(client->insertsAcked(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(client->insertsExpired(), 0u);

  // Every victim shard gets re-hosted on a survivor from checkpoint + WAL.
  EXPECT_TRUE(eventually(
      [&] { return cluster.manager().recoveriesDone() >= victims.size(); },
      10000ms));
  for (const ShardId s : victims) {
    EXPECT_GE(cluster.durable().epochOf(s), 1u) << "shard " << s;
  }

  // Zero lost acked inserts, zero duplicates: the recovered cluster answers
  // a full-coverage query exactly like the control that never crashed.
  ASSERT_TRUE(eventually(
      [&] {
        const QueryReply r = client->query(QueryBox(schema));
        return !r.partial && r.agg.count == static_cast<std::uint64_t>(kN);
      },
      10000ms));
  const QueryReply after = client->query(QueryBox(schema));
  const QueryReply want = ctl->query(QueryBox(schema));
  ASSERT_FALSE(after.partial);
  ASSERT_FALSE(want.partial);
  EXPECT_EQ(after.agg.count, want.agg.count);
  EXPECT_NEAR(after.agg.sum, want.agg.sum,
              1e-6 * (1.0 + std::abs(want.agg.sum)));
  EXPECT_EQ(cluster.totalItems(), static_cast<std::uint64_t>(kN));

  // The dead worker's znodes are retired once nothing maps to it.
  KeeperClient zk(cluster.fabric(), "post-observer");
  EXPECT_TRUE(eventually([&] { return !zk.exists(workerPath(1)); }, 5000ms));
  EXPECT_TRUE(shardsOf(cluster, 1).empty());
}

TEST(Recovery, FencedZombieCannotAckAndLateAcksAreRejected) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, recoveryOptions());
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 91);
  const int kBefore = 400;
  const int kDuring = 400;
  for (int i = 0; i < kBefore; ++i) client->insert(gen.next());
  const std::vector<ShardId> zshards = shardsOf(cluster, 2);
  ASSERT_EQ(zshards.size(), 2u);
  ASSERT_TRUE(eventually(
      [&] { return cluster.worker(2).checkpointsTaken() >= zshards.size(); }));

  // Zombie scenario: worker 2 keeps running but can reach neither the
  // keeper (heartbeats stop arriving) nor any server (its acks vanish).
  // The manager must declare it dead and re-host its shards with a bumped
  // epoch while the process is still alive.
  cluster.fabric().addFaultRule({workerEndpoint(2), "keeper", 1.0});
  cluster.fabric().addFaultRule({workerEndpoint(2), "server/", 1.0});
  for (int i = 0; i < kDuring; ++i) client->insertAsync(gen.next());
  client->drain();
  EXPECT_EQ(client->insertsAcked(),
            static_cast<std::uint64_t>(kBefore + kDuring));
  EXPECT_EQ(client->insertsExpired(), 0u);
  ASSERT_TRUE(eventually(
      [&] { return cluster.manager().recoveriesDone() >= zshards.size(); },
      10000ms));

  // Heal the links. The zombie's next stats push discovers the newer epoch
  // in the keeper image and sheds the fenced slots instead of clobbering
  // the new owners' state.
  cluster.fabric().clearFaultRules();
  EXPECT_TRUE(eventually(
      [&] { return cluster.worker(2).shardCount() == 0; }, 5000ms));
  EXPECT_GE(cluster.worker(2).fencedShards() + cluster.worker(2).fencedOps(),
            zshards.size());

  // A write sent straight to the zombie for a shard it was fenced out of
  // must die silently: no ack (the sender's retry finds the live owner),
  // and the refusal is counted.
  auto probe = cluster.fabric().bind("probe-box");
  ShardBatch ins;
  ins.shard = zshards[0];
  ins.items = PointSet(schema.dims());
  ins.items.push(gen.next());
  cluster.fabric().send(
      workerEndpoint(2),
      makeMessage(Op::kWBulk, /*corr=*/999'001, "probe-box", ins.encode()));
  const auto ack = probe->recvFor(300ms);
  EXPECT_FALSE(ack.has_value());
  EXPECT_TRUE(eventually([&] { return cluster.worker(2).fencedOps() >= 1; }));

  // A late bulk ack carrying the zombie's old epoch must be rejected by
  // any server whose image already knows the shard's newer epoch.
  EXPECT_TRUE(eventually(
      [&] {
        WBulkAck forged;
        forged.applied = 1;
        forged.stamps = {{zshards[0], 0}};
        cluster.fabric().send(serverEndpoint(0),
                              makeMessage(Op::kWBulkAck, /*corr=*/999'002,
                                          workerEndpoint(2), forged.encode()));
        return cluster.server(0).stats().staleEpochAcks >= 1;
      },
      5000ms));

  // Exactly-once despite the chaos: exact count proves no acked insert was
  // lost AND no WAL replay or retransmission was double-applied.
  ASSERT_TRUE(eventually(
      [&] {
        const QueryReply r = client->query(QueryBox(schema));
        return !r.partial &&
               r.agg.count == static_cast<std::uint64_t>(kBefore + kDuring);
      },
      10000ms));
  EXPECT_EQ(cluster.totalItems(),
            static_cast<std::uint64_t>(kBefore + kDuring));
}

}  // namespace
}  // namespace volap
