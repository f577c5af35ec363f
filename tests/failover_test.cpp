// Chain-replication failover tests (src/repl/repl.hpp): every shard is
// mirrored onto a chain of R workers; client acks wait for the chain tail,
// so when the primary is hard-killed mid-stream the manager can PROMOTE a
// caught-up replica in place (no checkpoint + WAL shipping) without losing
// a single acked insert — even with message loss forcing retransmissions
// to race the promotion. Killing a chain tail instead must trigger a chain
// repair (a fresh member recruited in the background) while the primary
// keeps serving. Queries go to shard owners only. A chain is published
// only once its members hold their seeds, so lost seeds never make a query
// partial. Moving a shard is a chain handover (append the target, fence,
// shed, promote); killing the old owner in the middle of one must lose
// nothing. Balancing (splits and moves) on chained shards keeps every
// answer exact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/stats.hpp"
#include "common/clock.hpp"
#include "net/fault.hpp"
#include "olap/data_gen.hpp"
#include "olap/query_gen.hpp"
#include "tree/array_shard.hpp"
#include "volap/volap.hpp"

namespace volap {
namespace {

using namespace std::chrono_literals;

/// Recovery-test timings plus chains: R = 2, fast heartbeats/checkpoints,
/// balancing off (the recovery supervisor — and with it chain creation and
/// repair — runs regardless), and client budgets generous enough to ride
/// out a promotion under message loss.
ClusterOptions failoverOptions() {
  ClusterOptions opts;
  opts.servers = 2;
  opts.workers = 4;
  opts.initialShardsPerWorker = 2;
  opts.worker.threads = 2;
  opts.worker.statsIntervalNanos = 40'000'000;       // 40ms heartbeats
  opts.worker.checkpointIntervalNanos = 60'000'000;  // 60ms checkpoints
  opts.server.syncIntervalNanos = 100'000'000;
  opts.manager.periodNanos = 50'000'000;
  opts.manager.enabled = false;  // no balancing; chains still form
  opts.manager.replicationFactor = 2;
  // Failure detection: wide enough that a worker busy seeding chains under
  // a 70/30 stream does not get spuriously declared dead, tight enough to
  // keep promotion MTTR well under a second.
  opts.manager.aliveTimeoutNanos = 350'000'000;
  opts.manager.deadGraceNanos = 250'000'000;
  // A reconfig lost to a dying worker must not park that shard's chain
  // repair for the default 10s lease; 3s still clears every transfer
  // retry budget above (max ~1.3s) with margin.
  opts.manager.opLeaseNanos = 3'000'000'000;
  opts.clientRetry = {40'000'000, 400'000'000, 10'000'000, 1.6, 12};
  opts.server.workerRetry = {15'000'000, 150'000'000, 5'000'000, 1.6, 4};
  opts.worker.transferRetry = {25'000'000, 250'000'000, 5'000'000, 1.6, 6};
  opts.net.seed = 5150;
  return opts;
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 5000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// The keeper image's current shard table.
std::vector<ShardInfo> imageShards(VolapCluster& cluster) {
  KeeperClient zk(cluster.fabric(), "chain-observer");
  std::vector<ShardInfo> out;
  const auto kids = zk.children(shardsPath());
  if (!kids) return out;
  for (const auto& name : *kids) {
    const auto got = zk.get(shardsPath() + "/" + name);
    if (!got) continue;
    ByteReader r(got->data);
    out.push_back(ShardInfo::deserialize(r));
  }
  return out;
}

/// True once every shard in the image has a published replica chain.
bool allChained(VolapCluster& cluster, std::size_t expectShards) {
  const auto shards = imageShards(cluster);
  if (shards.size() < expectShards) return false;
  for (const auto& s : shards)
    if (s.replicas.empty()) return false;
  return true;
}

/// One client per server.
std::vector<std::unique_ptr<Client>> clientPerServer(VolapCluster& cluster) {
  std::vector<std::unique_ptr<Client>> out;
  for (unsigned s = 0; s < cluster.serverCount(); ++s)
    out.push_back(
        cluster.makeClient("c" + std::to_string(s), static_cast<int>(s)));
  return out;
}

/// A skewed insert stream (like the benchmark's data, so every coverage
/// band has queries) spread round-robin over one client per server, with
/// every point also kept in an ArrayShard oracle.
struct OracleStream {
  OracleStream(VolapCluster& cluster, const Schema& schema,
               std::uint64_t seed)
      : schema(schema),
        seed(seed),
        clients(clientPerServer(cluster)),
        gen(schema, seed, skewed()),
        oracle(schema),
        inserted(schema.dims()) {}

  static DataGenOptions skewed() {
    DataGenOptions o;
    o.zipfSkew = 1.1;
    return o;
  }
  Client& next() { return *clients[op++ % clients.size()]; }
  void insert() {
    const PointRef p = gen.next();
    oracle.insert(p);
    inserted.push(p);
    next().insertAsync(p);
  }
  /// A pipelined 70/30 mix: 7 inserts, 3 whole-database queries.
  void mix() {
    for (int i = 0; i < 10; ++i) {
      if (i < 7) {
        insert();
      } else {
        next().queryAsync(QueryBox(schema));
      }
    }
  }
  void drain() {
    for (auto& c : clients) c->drain();
  }
  /// Every insert acked once, none expired.
  void expectAllAcked() {
    std::uint64_t acked = 0;
    for (auto& c : clients) {
      EXPECT_EQ(c->insertsExpired(), 0u);
      acked += c->insertsAcked();
    }
    EXPECT_EQ(acked, inserted.size());
  }
  /// The whole database and one query per coverage band, through every
  /// server. A chunk that races a late repair may come back partial
  /// (honest) and is retried; a complete answer must be exact.
  void expectExactAnswers() {
    QueryGenerator qgen(schema, seed);
    std::vector<QueryBox> checks{QueryBox(schema)};
    for (const auto& band : qgen.generateBands(inserted, 1)) {
      ASSERT_FALSE(band.empty());
      checks.push_back(band.front().box);
    }
    for (const QueryBox& q : checks) {
      const Aggregate want = oracle.query(q);
      for (auto& c : clients) {
        QueryReply got;
        EXPECT_TRUE(eventually([&] {
          got = c->query(q);
          return !got.partial;
        })) << q.describe(schema);
        EXPECT_EQ(got.agg.count, want.count) << q.describe(schema);
        EXPECT_NEAR(got.agg.sum, want.sum,
                    1e-6 * (1.0 + std::abs(want.sum)))
            << q.describe(schema);
      }
    }
  }

  const Schema& schema;
  const std::uint64_t seed;
  std::vector<std::unique_ptr<Client>> clients;
  DataGenerator gen;
  ArrayShard oracle;
  PointSet inserted;
  std::uint64_t op = 0;
};

/// Waits until the manager is quiet: nothing in flight, `settled` holds,
/// and no control-plane action for a full second (which also covers the
/// servers' sync interval).
::testing::AssertionResult managerQuiet(VolapCluster& cluster,
                                        const std::function<bool()>& settled,
                                        std::chrono::milliseconds deadline) {
  Manager& mgr = cluster.manager();
  const auto actions = [&] {
    return std::vector<std::uint64_t>{
        mgr.promotionsDone(), mgr.recoveriesDone(), mgr.chainRepairsDone(),
        mgr.migrationsDone(), mgr.splitsDone(),     mgr.opsTimedOut()};
  };
  std::vector<std::uint64_t> seen;
  auto stableSince = std::chrono::steady_clock::now();
  const bool quiet = eventually(
      [&] {
        const auto now = std::chrono::steady_clock::now();
        if (actions() != seen) {
          seen = actions();
          stableSince = now;
        }
        if (mgr.opsInFlight() != 0 || !settled()) {
          stableSince = now;
          return false;
        }
        return now - stableSince >= 1s;
      },
      deadline);
  if (quiet) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "manager not quiet: promotions=" << seen[0]
         << " recoveries=" << seen[1] << " repairs=" << seen[2]
         << " migrations=" << seen[3] << " splits=" << seen[4]
         << " timedOut=" << seen[5] << " inFlight=" << mgr.opsInFlight();
}

TEST(ChainRecruitment, SpreadsReplicasAcrossWorkers) {
  // 4 workers x 2 shards at R = 2: 8 replicas. Recruiting by chain
  // memberships gives each worker about 8 / 4 of them; recruiting every
  // chain of a supervision pass onto the worker that was lightest when
  // the pass began piles most of them onto one worker.
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, failoverOptions());
  ASSERT_TRUE(eventually([&] { return allChained(cluster, 8); }, 10000ms));
  auto replicas = [&] {
    std::vector<std::size_t> out;
    for (unsigned w = 0; w < cluster.workerCount(); ++w)
      out.push_back(cluster.worker(w).replicaShardCount());
    return out;
  };
  ASSERT_TRUE(eventually([&] {
    std::size_t total = 0;
    for (std::size_t n : replicas()) total += n;
    return total == 8;
  }));
  const std::vector<std::size_t> got = replicas();
  for (unsigned w = 0; w < got.size(); ++w)
    EXPECT_LE(got[w], 8u / 4u + 1u) << "worker " << w << " holds "
                                    << got[w] << " replicas";
}

TEST(Failover, PrimaryKillUnderMessageLossLosesNoAckedInsert) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, failoverOptions());
  // Control cluster fed the identical stream, never crashed: the promoted
  // cluster must end up answer-equivalent.
  VolapCluster control(schema, failoverOptions());
  auto client = cluster.makeClient("c0", 0);
  auto ctl = control.makeClient("c0", 0);
  DataGenerator gen(schema, 1066);
  DataGenerator ctlGen(schema, 1066);
  const int kN = 1600;
  for (int i = 0; i < kN / 4; ++i) {
    client->insert(gen.next());
    ctl->insert(ctlGen.next());
  }
  // Wait for the supervisor to build (and seed) every chain, then push a
  // warm phase through the chained shards: with every shard chained these
  // inserts must forward, so the replicas hold real data before the kill.
  ASSERT_TRUE(eventually([&] { return allChained(cluster, 8); }, 10000ms));
  const int kWarm = 100;
  for (int i = 0; i < kWarm; ++i) {
    client->insert(gen.next());
    ctl->insert(ctlGen.next());
  }
  std::uint64_t chainedBefore = 0;
  for (unsigned w = 0; w < cluster.workerCount(); ++w)
    chainedBefore += cluster.worker(w).replAppendsForwarded();
  ASSERT_GT(chainedBefore, 0u);

  // Message loss on both data legs AND between chain members: forwards,
  // chain acks, and client acks all drop, so retransmissions are racing
  // the promotion when the primary dies.
  cluster.fabric().addFaultRule({"server/", "worker/", 0.15});
  cluster.fabric().addFaultRule({"worker/", "server/", 0.15});
  cluster.fabric().addFaultRule({"worker/", "worker/", 0.15});

  // Pipelined 70/30-style stream with the kill landing mid-flight.
  FaultPlan plan(cluster.fabric(),
                 {{40ms, 0.0},
                  {1ms, 0.0, FaultAction::kCrash, workerEndpoint(1),
                   [&] { cluster.crashWorker(1); }}});
  for (int i = 0; i < 200; ++i) {
    client->insertAsync(gen.next());
    ctl->insertAsync(ctlGen.next());
    if (i % 10 == 9) client->queryAsync(QueryBox(schema));
  }
  plan.start();
  ASSERT_TRUE(
      eventually([&] { return cluster.worker(1).shardCount() == 0; }, 2000ms));

  // Keep streaming straight through detection + promotion.
  for (int i = kN / 4 + kWarm + 200; i < kN; ++i) {
    client->insertAsync(gen.next());
    ctl->insertAsync(ctlGen.next());
  }
  client->drain();
  ctl->drain();
  plan.stop();
  cluster.fabric().clearFaultRules();
  EXPECT_EQ(client->insertsAcked(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(client->insertsExpired(), 0u);

  // The victim's shards come back by PROMOTION (a caught-up chain member
  // claims them in place), not only by cold replay.
  ASSERT_TRUE(eventually(
      [&] { return cluster.manager().promotionsDone() >= 1; }, 10000ms));

  // Exactly-once end to end: every acked insert present exactly once, so
  // the recovered cluster answers like the control that never crashed.
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
}

TEST(Failover, TailKillRepairsChainWithExactResults) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = failoverOptions();
  opts.workers = 3;
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 2077);
  const int kBefore = 600;
  const int kDuring = 600;
  for (int i = 0; i < kBefore; ++i) client->insert(gen.next());
  ASSERT_TRUE(eventually([&] { return allChained(cluster, 6); }, 10000ms));

  // Pick a victim that is the TAIL of some other primary's chain (with
  // R = 2 every replica is a tail). Its own primaries will promote; the
  // chains it served as tail must be rebuilt with a fresh member.
  WorkerId victim = kNoWorker;
  for (const auto& s : imageShards(cluster)) {
    if (!s.replicas.empty()) {
      victim = s.replicas[0];
      break;
    }
  }
  ASSERT_NE(victim, kNoWorker);

  cluster.fabric().addFaultRule({"server/", "worker/", 0.1});
  cluster.fabric().addFaultRule({"worker/", "server/", 0.1});
  FaultPlan plan(cluster.fabric(),
                 {{30ms, 0.0},
                  {1ms, 0.0, FaultAction::kCrash, workerEndpoint(victim),
                   [&] { cluster.worker(victim).crash(); }}});
  for (int i = 0; i < kDuring; ++i) {
    client->insertAsync(gen.next());
    if (i == 150) plan.start();
    if (i % 10 == 9) client->queryAsync(QueryBox(schema));
  }
  client->drain();
  plan.stop();
  cluster.fabric().clearFaultRules();
  EXPECT_EQ(client->insertsAcked(),
            static_cast<std::uint64_t>(kBefore + kDuring));
  EXPECT_EQ(client->insertsExpired(), 0u);

  // Dead tails are replaced: the supervisor re-issues reconfigs until
  // every chain is healthy again on live distinct workers.
  ASSERT_TRUE(eventually(
      [&] { return cluster.manager().chainRepairsDone() >= 1; }, 10000ms));
  const auto imageHealed = [&] {
    const auto shards = imageShards(cluster);
    if (shards.size() < 6) return false;
    for (const auto& s : shards) {
      if (s.worker == victim) return false;
      if (s.replicas.empty()) return false;
      for (WorkerId rep : s.replicas)
        if (rep == victim) return false;
    }
    return true;
  };
  if (!eventually(imageHealed, 15000ms)) {
    std::string dump;
    for (const auto& s : imageShards(cluster)) {
      dump += "shard " + std::to_string(s.id) + " @w" +
              std::to_string(s.worker) + " reps[";
      for (WorkerId rep : s.replicas) dump += std::to_string(rep) + " ";
      dump += "] epoch " + std::to_string(s.epoch) + "\n";
    }
    FAIL() << "image not healed (victim w" << victim << "):\n"
           << dump << "manager: promotions="
           << cluster.manager().promotionsDone()
           << " repairs=" << cluster.manager().chainRepairsDone()
           << " recoveries=" << cluster.manager().recoveriesDone()
           << " timedOut=" << cluster.manager().opsTimedOut()
           << " inFlight=" << cluster.manager().opsInFlight();
  }

  // Exactly-once again: the repaired + promoted cluster holds every acked
  // insert exactly once.
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

TEST(Failover, LostSeedsNeverMakeQueriesPartial) {
  // Every worker->worker message — kReplSeed included — is lost from the
  // moment the manager orders the first chains until ~300 ms after a seed
  // was seen retransmitted. A member whose seed has not landed holds
  // nothing and would answer not-mine, so no server may route a read to
  // it: no query comes back partial.
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, failoverOptions());
  cluster.fabric().addFaultRule({"worker/", "worker/", 1.0});
  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned s = 0; s < cluster.serverCount(); ++s)
    clients.push_back(cluster.makeClient("c" + std::to_string(s),
                                         static_cast<int>(s)));
  DataGenerator gen(schema, 4242);
  const int kN = 400;
  for (int i = 0; i < kN; ++i) clients[0]->insertAsync(gen.next());
  const auto seedRetries = [&] {
    std::uint64_t n = 0;
    for (unsigned w = 0; w < cluster.workerCount(); ++w)
      n += cluster.worker(w).retriesSent();
    return n;
  };
  ASSERT_TRUE(eventually([&] { return seedRetries() > 0; }));
  const auto healAt = std::chrono::steady_clock::now() + 300ms;
  const auto giveUp = std::chrono::steady_clock::now() + 15s;
  bool healed = false;
  int queries = 0;
  while (std::chrono::steady_clock::now() < giveUp) {
    if (!healed && std::chrono::steady_clock::now() >= healAt) {
      cluster.fabric().clearFaultRules();
      healed = true;
    }
    for (auto& c : clients) {
      const QueryReply r = c->query(QueryBox(schema));
      ++queries;
      ASSERT_FALSE(r.partial) << "query " << queries << " came back partial ("
                              << r.unreachableShards << " shards unreachable)";
    }
    if (healed && allChained(cluster, 8)) break;
  }
  ASSERT_TRUE(healed);
  EXPECT_TRUE(allChained(cluster, 8));
  clients[0]->drain();
  EXPECT_EQ(clients[0]->insertsAcked(), static_cast<std::uint64_t>(kN));
  for (auto& c : clients) {
    const QueryReply r = c->query(QueryBox(schema));
    EXPECT_FALSE(r.partial);
    EXPECT_EQ(r.agg.count, static_cast<std::uint64_t>(kN));
  }
}

TEST(Failover, OwnerKilledMidHandoverLosesNothing) {
  // A shard moves as a chain handover: append the target to the chain,
  // fence, the owner sheds the shard, promote the target. Kill the owner
  // right after the fence — before the promotion, while a pipelined 70/30
  // stream runs through both servers under message loss. The dead-owner
  // path must take over, and once the manager is quiet every server must
  // answer the whole database and one query per coverage band exactly.
  constexpr std::uint64_t kSeed = 9091;
  SCOPED_TRACE("seed " + std::to_string(kSeed));
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = failoverOptions();
  opts.net.seed = kSeed;
  // Four shards per worker keep every shard small enough to move without
  // a split, and one balancing op at a time makes the first op a move.
  opts.initialShardsPerWorker = 4;
  opts.manager.maxConcurrentOps = 1;
  opts.manager.minImbalanceItems = 100;
  // Every hop takes 1 ms, so the owner dies while the manager's release
  // (step 4) is still in flight toward it: the kill lands between the
  // fence and the promotion, never after the owner shed the shard.
  opts.net.latencyMeanNanos = 1'000'000;
  // Slower hops stretch detection and promotion (keeper round trips
  // included), so the clients' budget must outlast both even under a
  // sanitizer: ~10 s instead of ~3.5 s.
  opts.clientRetry.maxAttempts = 30;
  VolapCluster cluster(schema, opts);
  OracleStream stream(cluster, schema, kSeed);
  for (int i = 0; i < 2000; ++i) stream.insert();
  stream.drain();
  ASSERT_TRUE(eventually([&] { return allChained(cluster, 16); }, 10000ms));

  // The durable epoch of every shard: a move's fence is the first bump
  // (no worker is dead, so nothing else fences). The watcher kills the
  // owner the moment it sees it.
  std::map<ShardId, std::pair<WorkerId, std::uint64_t>> owners;
  for (const ShardInfo& s : imageShards(cluster))
    owners[s.id] = {s.worker, cluster.durable().epochOf(s.id)};
  std::atomic<WorkerId> victim{kNoWorker};
  std::atomic<bool> stop{false};
  std::thread watcher([&] {
    while (!stop.load()) {
      for (const auto& [id, owner] : owners) {
        if (cluster.durable().epochOf(id) > owner.second) {
          victim.store(owner.first);
          cluster.crashWorker(owner.first);
          cluster.manager().setEnabled(false);  // this move is the only one
          return;
        }
      }
      std::this_thread::sleep_for(20us);
    }
  });

  cluster.fabric().addFaultRule({"server/", "worker/", 0.1});
  cluster.fabric().addFaultRule({"worker/", "server/", 0.1});
  cluster.fabric().addFaultRule({"worker/", "worker/", 0.1});
  // An empty worker joins; the balancer starts moving shards onto it.
  cluster.addWorker();
  cluster.manager().setEnabled(true);
  const auto streamEnd = std::chrono::steady_clock::now() + 20s;
  int afterKill = 0;
  while (afterKill < 600 && std::chrono::steady_clock::now() < streamEnd) {
    stream.mix();
    if (victim.load() != kNoWorker) afterKill += 10;
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true);
  watcher.join();
  ASSERT_NE(victim.load(), kNoWorker) << "no move reached its fence";
  stream.drain();
  cluster.fabric().clearFaultRules();
  EXPECT_EQ(cluster.manager().splitsDone(), 0u);
  // The handover never reached its commit point: the dead-owner path
  // promoted a surviving chain member instead.
  EXPECT_EQ(cluster.manager().migrationsDone(), 0u);
  stream.expectAllAcked();

  // Quiet, with no shard left on the dead owner and every chain rebuilt.
  ASSERT_TRUE(managerQuiet(
      cluster,
      [&] {
        if (!allChained(cluster, 16)) return false;
        for (const ShardInfo& s : imageShards(cluster))
          if (s.worker == victim.load()) return false;
        return true;
      },
      20000ms))
      << "victim w" << victim.load();
  stream.expectExactAnswers();
}

TEST(Failover, BalancingChainedShardsKeepsAnswersExact) {
  // Balancing on chained shards: a low split threshold makes the preload
  // split every initial shard (and balancing may move the halves) while
  // each shard has a replication chain. Once the manager is quiet, a
  // pipelined 70/30 stream runs through both servers; then every server
  // must answer the whole database and one query per coverage band
  // exactly. A shard counted twice (say, a split child reached both
  // through its parent's mapping and on its own) over-counts.
  constexpr std::uint64_t kSeed = 4807;
  SCOPED_TRACE("seed " + std::to_string(kSeed));
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = failoverOptions();
  opts.net.seed = kSeed;
  opts.manager.enabled = true;
  opts.manager.maxShardItems = 400;
  VolapCluster cluster(schema, opts);
  OracleStream stream(cluster, schema, kSeed);
  for (int i = 0; i < 4000; ++i) stream.insert();
  stream.drain();
  const auto settled = [&] { return allChained(cluster, 8); };
  ASSERT_TRUE(managerQuiet(cluster, settled, 30000ms));
  ASSERT_GT(cluster.manager().splitsDone(), 0u);

  for (int i = 0; i < 100; ++i) {
    stream.mix();
    std::this_thread::sleep_for(1ms);
  }
  stream.drain();
  stream.expectAllAcked();
  ASSERT_TRUE(managerQuiet(cluster, settled, 30000ms));
  stream.expectExactAnswers();
}

TEST(Failover, ManagerStatsExposeReplicationContract) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, failoverOptions());
  auto client = cluster.makeClient("c0", 0);
  DataGenerator gen(schema, 11);
  for (int i = 0; i < 200; ++i) client->insertAsync(gen.next());
  client->drain();

  const auto replies = scrapeStats(cluster.fabric(), {managerEndpoint()});
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].node, managerEndpoint());
  const auto missing =
      missingMetrics(replies[0].snapshot, requiredManagerMetrics());
  EXPECT_TRUE(missing.empty())
      << "manager missing required metric: " << missing.front();
}

}  // namespace
}  // namespace volap
