// Ingest hot-path tests: server-side coalescing (batches form behind the
// one batch a lane keeps in flight, and a parked batch releases its lane),
// exactly-once delivery when coalesced batches are retransmitted,
// group-commit WAL equivalence with per-record appends, the
// Hilbert-presorted batch apply, and crash recovery of coalesced inserts —
// "acked implies durable and queryable" must be unchanged by the pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/wal.hpp"
#include "olap/data_gen.hpp"
#include "olap/query_gen.hpp"
#include "tree/shard.hpp"
#include "volap/volap.hpp"

namespace volap {
namespace {

using namespace std::chrono_literals;

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

/// Small cluster with short worker-facing retry budgets, so a severed ack
/// parks a coalesced batch within a few hundred milliseconds.
ClusterOptions coalesceOptions() {
  ClusterOptions opts;
  opts.servers = 1;
  opts.workers = 2;
  opts.initialShardsPerWorker = 1;
  opts.worker.threads = 2;
  opts.worker.statsIntervalNanos = 50'000'000;
  opts.server.syncIntervalNanos = 100'000'000;
  opts.manager.enabled = false;
  opts.manager.replicationFactor = 1;
  opts.clientRetry = {60'000'000, 500'000'000, 10'000'000, 1.6, 12};
  opts.server.workerRetry = {25'000'000, 250'000'000, 5'000'000, 1.6, 6};
  opts.net.seed = 99;
  return opts;
}

std::uint64_t serverCoalescedItems(VolapCluster& c) {
  std::uint64_t n = 0;
  for (unsigned s = 0; s < c.serverCount(); ++s)
    n += c.server(s).stats().coalescedItems;
  return n;
}

bool coalesceGaugesDrained(VolapCluster& c) {
  for (unsigned s = 0; s < c.serverCount(); ++s) {
    const Server::Stats st = c.server(s).stats();
    if (st.pendingCoalesced != 0 || st.coalesceBuffered != 0 ||
        st.retryEntries != 0)
      return false;
  }
  return true;
}

TEST(IngestCoalesce, BatchesFormBehindAnInFlightBatch) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, coalesceOptions());
  auto client = cluster.makeClient("c0", 0, 128);
  DataGenerator gen(schema, 7);

  // With every ack severed, each lane's first batch stays in flight, so
  // the inserts behind it must wait in the lane buffer.
  cluster.fabric().addFaultRule({"worker/", "server/", 1.0});
  const int kN = 64;
  for (int i = 0; i < kN; ++i) client->insertAsync(gen.next());
  EXPECT_TRUE(eventually(
      [&] { return cluster.server(0).stats().coalesceBuffered > 0; }));
  cluster.fabric().clearFaultRules();
  client->drain();

  EXPECT_EQ(client->insertsAcked(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(client->insertsExpired(), 0u);
  const Server::Stats st = cluster.server(0).stats();
  // Every insert rode a coalesced batch, and the buffered ones shared them.
  EXPECT_EQ(st.coalescedItems, static_cast<std::uint64_t>(kN));
  EXPECT_LT(st.coalescedBatches, static_cast<std::uint64_t>(kN));
  EXPECT_TRUE(eventually([&] { return cluster.totalItems() == kN; }));
  EXPECT_TRUE(eventually([&] { return coalesceGaugesDrained(cluster); }));
}

TEST(IngestCoalesce, ParkedBatchReleasesItsLane) {
  const Schema schema = Schema::tpcds();
  VolapCluster cluster(schema, coalesceOptions());
  auto client = cluster.makeClient("c0", 0, 128);
  DataGenerator gen(schema, 8);

  // Acks severed until a batch's worker retry budget is spent: the server
  // parks that batch, and no ack will ever release its lane.
  cluster.fabric().addFaultRule({"worker/", "server/", 1.0});
  const int kN = 64;
  for (int i = 0; i < kN; ++i) client->insertAsync(gen.next());
  EXPECT_TRUE(eventually(
      [&] { return cluster.server(0).stats().coalesceBuffered > 0; }));
  EXPECT_TRUE(eventually(
      [&] { return cluster.server(0).stats().insertsDropped > 0; }));
  // Parking released the lane, and the release itself sent the buffer.
  EXPECT_TRUE(eventually(
      [&] { return cluster.server(0).stats().coalesceBuffered == 0; }));
  cluster.fabric().clearFaultRules();
  client->drain();

  EXPECT_EQ(client->insertsAcked(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(client->insertsExpired(), 0u);
  EXPECT_TRUE(eventually([&] { return cluster.totalItems() == kN; }));
  EXPECT_EQ(cluster.totalItems(), static_cast<std::uint64_t>(kN));
  EXPECT_TRUE(eventually([&] { return coalesceGaugesDrained(cluster); }));
}

TEST(IngestCoalesce, ExactlyOnceUnderAckLossAndRetransmission) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = coalesceOptions();
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0, 256);
  DataGenerator gen(schema, 9);

  // Sever every worker -> server ack: batches apply on the worker, the
  // acks die, and the server retransmits the SAME kWBulk corr. The worker
  // must serve every retransmission from its replay cache, never
  // re-applying the batch.
  cluster.fabric().addFaultRule({"worker/", "server/", 1.0});
  const int kN = 300;
  for (int i = 0; i < kN; ++i) client->insertAsync(gen.next());
  std::this_thread::sleep_for(150ms);
  cluster.fabric().clearFaultRules();
  client->drain();

  EXPECT_TRUE(eventually([&] { return cluster.totalItems() == kN; }));
  std::uint64_t redelivered = 0;
  for (unsigned w = 0; w < cluster.workerCount(); ++w)
    redelivered += cluster.worker(w).redelivered();
  EXPECT_GT(redelivered, 0u) << "ack loss should force retransmissions";
  // No item may be applied twice even though whole batches were redelivered.
  EXPECT_EQ(cluster.totalItems(), static_cast<std::uint64_t>(kN));
  EXPECT_TRUE(eventually([&] { return coalesceGaugesDrained(cluster); }));
}

TEST(IngestCoalesce, GroupCommitMatchesPerRecordAppend) {
  // The WAL a group commit leaves behind must be indistinguishable from
  // per-record appends: same records, same order, same fence snapshot.
  const std::uint64_t kShard = 7, kEpoch = 3;
  DurableLog one, grouped;
  std::vector<WalRecord> recs;
  for (int i = 0; i < 16; ++i) {
    WalRecord rec;
    rec.from = "server/" + std::to_string(i % 3);
    rec.corr = 1000 + static_cast<std::uint64_t>(i);
    rec.ackOp = 42;
    rec.ackPayload = {static_cast<std::uint8_t>(i)};
    rec.items = {static_cast<std::uint8_t>(i), 0xAB};
    recs.push_back(rec);
  }
  for (const auto& rec : recs) ASSERT_TRUE(one.append(kShard, kEpoch, rec));
  ASSERT_TRUE(
      grouped.appendGroup(kShard, kEpoch, std::vector<WalRecord>(recs)));

  EXPECT_EQ(one.walEntries(kShard), grouped.walEntries(kShard));
  const auto a = one.fence(kShard);
  const auto b = grouped.fence(kShard);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->epoch, b->epoch);
  ASSERT_EQ(a->wal.size(), b->wal.size());
  for (std::size_t i = 0; i < a->wal.size(); ++i) {
    EXPECT_EQ(a->wal[i].from, b->wal[i].from);
    EXPECT_EQ(a->wal[i].corr, b->wal[i].corr);
    EXPECT_EQ(a->wal[i].ackOp, b->wal[i].ackOp);
    EXPECT_EQ(a->wal[i].ackPayload, b->wal[i].ackPayload);
    EXPECT_EQ(a->wal[i].items, b->wal[i].items);
  }
  // After a fence, neither path may land another record unacked-silently.
  EXPECT_FALSE(one.append(kShard, kEpoch, recs[0]));
  EXPECT_FALSE(
      grouped.appendGroup(kShard, kEpoch, std::vector<WalRecord>(recs)));
}

TEST(IngestCoalesce, BulkInsertMatchesPointInsertOracle) {
  // Hilbert-presorted batch apply must be answer-equivalent to one-at-a-time
  // inserts, including when the tree already holds data.
  const Schema schema = Schema::tpcds();
  DataGenerator gen(schema, 31);
  const PointSet seed = gen.generate(500);
  const PointSet batch = gen.generate(2'000);

  auto bulk = makeShard(ShardKind::kHilbertPdcMds, schema);
  auto oracle = makeShard(ShardKind::kArray, schema);
  for (std::size_t i = 0; i < seed.size(); ++i) {
    bulk->insert(seed.at(i));
    oracle->insert(seed.at(i));
  }
  bulk->bulkInsert(batch);  // presorted live-tree path (tree is non-empty)
  oracle->bulkInsert(batch);

  ASSERT_EQ(bulk->size(), oracle->size());
  QueryGenerator qgen(schema, 5);
  for (int q = 0; q < 50; ++q) {
    const QueryBox box = qgen.random(seed);
    const Aggregate got = bulk->query(box);
    const Aggregate want = oracle->query(box);
    EXPECT_EQ(got.count, want.count);
    // Summation order differs between the tree and the flat oracle.
    EXPECT_NEAR(got.sum, want.sum, 1e-9 * std::max(1.0, std::abs(want.sum)));
  }
}

TEST(IngestCoalesce, AckedCoalescedInsertsSurviveWorkerCrash) {
  const Schema schema = Schema::tpcds();
  ClusterOptions opts = coalesceOptions();
  opts.workers = 3;
  opts.worker.statsIntervalNanos = 40'000'000;
  opts.worker.checkpointIntervalNanos = 60'000'000;
  opts.manager.aliveTimeoutNanos = 250'000'000;
  opts.manager.deadGraceNanos = 150'000'000;
  opts.manager.periodNanos = 50'000'000;
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("c0", 0, 128);
  DataGenerator gen(schema, 13);

  const int kN = 600;
  for (int i = 0; i < kN; ++i) client->insertAsync(gen.next());
  client->drain();
  ASSERT_EQ(client->insertsAcked(), static_cast<std::uint64_t>(kN));

  cluster.crashWorker(0);
  // Every acked insert was group-committed to the WAL before its kWBulkAck
  // left the worker, so recovery must restore all of them.
  EXPECT_TRUE(eventually(
      [&] {
        const QueryReply r = client->query(QueryBox(schema));
        return !r.partial && r.agg.count == static_cast<std::uint64_t>(kN);
      },
      10000ms));
}

}  // namespace
}  // namespace volap
