// Protocol-level tests for the worker node: drive a Worker directly over
// the fabric with raw messages and verify the SIII-E machinery — shard
// creation, insert/query routing, the split mapping table, the two-phase
// migration with forwarding stubs, and the insertion-queue overlay.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "cluster/worker.hpp"
#include "keeper/keeper.hpp"
#include "olap/data_gen.hpp"

namespace volap {
namespace {

using namespace std::chrono_literals;

class WorkerTest : public ::testing::Test {
 protected:
  WorkerTest()
      : schema_(Schema::tpcds()),
        keeper_(fabric_),
        gen_(schema_, 1),
        me_(fabric_.bind("test")) {
    KeeperClient zk(fabric_, "setup");
    zk.create("/volap", {});
    zk.create(shardsPath(), {});
    zk.create(workersPath(), {});
  }

  Message send(const std::string& to, Op op, Blob payload,
               std::uint64_t corr = 1) {
    fabric_.send(to, makeMessage(op, corr, "test", std::move(payload)));
    auto reply = me_->recvFor(5000ms);
    EXPECT_TRUE(reply.has_value()) << "no reply to op " << static_cast<int>(op);
    return reply.value_or(Message{});
  }

  void sendNoReply(const std::string& to, Op op, Blob payload,
                   std::uint64_t corr = 1) {
    fabric_.send(to, makeMessage(op, corr, "test", std::move(payload)));
  }

  void createShard(Worker& w, ShardId id) {
    CreateShard req{id, ShardKind::kHilbertPdcMds};
    const Message ack = send(workerEndpoint(w.id()), Op::kCreateShard,
                             req.encode(), id);
    EXPECT_EQ(ack.type, static_cast<std::uint16_t>(Op::kCreateShardAck));
  }

  /// A one-item kWBulk batch: what a server's coalescing lane sends for a
  /// lone client insert.
  ShardBatch oneItem(ShardId shard) {
    ShardBatch req;
    req.shard = shard;
    req.items = PointSet(schema_.dims());
    req.items.push(gen_.next());
    return req;
  }

  std::uint64_t insertN(Worker& w, ShardId shard, int n) {
    // Monotone across calls: workers deduplicate redelivered (from, corr)
    // pairs, so reusing a corr would silently no-op the insert.
    std::uint64_t& corr = nextCorr_;
    for (int i = 0; i < n; ++i) {
      const Message ack = send(workerEndpoint(w.id()), Op::kWBulk,
                               oneItem(shard).encode(), corr++);
      EXPECT_EQ(ack.type, static_cast<std::uint16_t>(Op::kWBulkAck));
    }
    return corr;
  }

  WQueryReply queryShards(Worker& w, std::vector<ShardId> ids) {
    WQuery req;
    req.shards = std::move(ids);
    req.box = QueryBox(schema_);
    const Message reply =
        send(workerEndpoint(w.id()), Op::kWQuery, req.encode(), 77);
    EXPECT_EQ(reply.type, static_cast<std::uint16_t>(Op::kWQueryReply));
    return WQueryReply::decode(reply.payload);
  }

  Fabric fabric_;
  Schema schema_;
  KeeperServer keeper_;
  DataGenerator gen_;
  std::shared_ptr<Mailbox> me_;
  std::uint64_t nextCorr_ = 1000;
};

TEST_F(WorkerTest, CreateInsertQuery) {
  Worker w(fabric_, schema_, 0);
  createShard(w, 1);
  insertN(w, 1, 50);
  const WQueryReply r = queryShards(w, {1});
  EXPECT_EQ(r.agg.count, 50u);
  EXPECT_EQ(r.searchedShards, 1u);
  EXPECT_TRUE(r.moved.empty());
  EXPECT_EQ(w.itemsHeld(), 50u);
  EXPECT_EQ(w.shardCount(), 1u);
}

TEST_F(WorkerTest, UnknownShardStillAcksInserts) {
  Worker w(fabric_, schema_, 0);
  const Message ack = send(workerEndpoint(0), Op::kWBulk,
                           oneItem(/*never created*/ 999).encode(), 5);
  EXPECT_EQ(ack.type, static_cast<std::uint16_t>(Op::kWBulkAck));
  // Acked with nothing applied and no fencing stamp to check.
  const WBulkAck info = WBulkAck::decode(ack.payload);
  EXPECT_EQ(info.applied, 0u);
  EXPECT_TRUE(info.stamps.empty());
  EXPECT_EQ(w.itemsHeld(), 0u);
}

TEST_F(WorkerTest, RedeliveredRequestsAreDeduplicated) {
  Worker w(fabric_, schema_, 0);
  createShard(w, 1);
  // The same insert retransmitted with one corr: applied once, acked every
  // time (the replay cache answers the duplicates).
  const Blob one = oneItem(1).encode();
  for (int i = 0; i < 3; ++i) {
    const Message ack = send(workerEndpoint(0), Op::kWBulk, one, 500);
    EXPECT_EQ(ack.type, static_cast<std::uint16_t>(Op::kWBulkAck));
    const WBulkAck info = WBulkAck::decode(ack.payload);
    EXPECT_EQ(info.applied, 1u);
    ASSERT_EQ(info.stamps.size(), 1u);
    EXPECT_EQ(info.stamps[0].first, 1u);
  }
  EXPECT_EQ(w.itemsHeld(), 1u);
  EXPECT_GE(w.redelivered(), 2u);
  // Same for a bulk batch: the replayed ack reports the original count.
  ShardBatch batch;
  batch.shard = 1;
  batch.items = gen_.generate(40);
  for (int i = 0; i < 2; ++i) {
    const Message ack =
        send(workerEndpoint(0), Op::kWBulk, batch.encode(), 501);
    EXPECT_EQ(ack.type, static_cast<std::uint16_t>(Op::kWBulkAck));
    ByteReader r(ack.payload);
    EXPECT_EQ(r.varint(), 40u);
  }
  EXPECT_EQ(w.itemsHeld(), 41u);
}

TEST_F(WorkerTest, SplitCreatesMappingAndPreservesData) {
  Worker w(fabric_, schema_, 0);
  createShard(w, 1);
  insertN(w, 1, 400);

  SplitShard split{1, 2};
  const Message done =
      send(workerEndpoint(0), Op::kSplitShard, split.encode(), 9);
  EXPECT_EQ(done.type, static_cast<std::uint16_t>(Op::kSplitDone));
  const SplitDone sd = SplitDone::decode(done.payload);
  ASSERT_TRUE(sd.ok);
  EXPECT_EQ(sd.left.id, 1u);
  EXPECT_EQ(sd.right.id, 2u);
  EXPECT_EQ(sd.left.count + sd.right.count, 400u);
  EXPECT_GT(sd.left.count, 0u);
  EXPECT_GT(sd.right.count, 0u);

  // A query that only names the OLD id must still see everything (the
  // mapping table routes to both halves).
  EXPECT_EQ(queryShards(w, {1}).agg.count, 400u);
  // Naming both ids must not double count (worker dedups).
  EXPECT_EQ(queryShards(w, {1, 2}).agg.count, 400u);
  // Inserts to the old id land on the correct half via the hyperplane.
  insertN(w, 1, 50);
  EXPECT_EQ(queryShards(w, {1}).agg.count, 450u);
}

TEST_F(WorkerTest, SplitOfUnknownOrBusyShardFailsCleanly) {
  Worker w(fabric_, schema_, 0);
  SplitShard split{42, 43};
  const Message done =
      send(workerEndpoint(0), Op::kSplitShard, split.encode(), 9);
  EXPECT_FALSE(SplitDone::decode(done.payload).ok);
}

TEST_F(WorkerTest, MigrationMovesDataAndLeavesForwardingStub) {
  Worker src(fabric_, schema_, 0);
  Worker dst(fabric_, schema_, 1);
  createShard(src, 1);
  insertN(src, 1, 200);

  MigrateShard mig{1, 1};
  const Message done =
      send(workerEndpoint(0), Op::kMigrateShard, mig.encode(), 11);
  EXPECT_EQ(done.type, static_cast<std::uint16_t>(Op::kMigrateDone));
  const MigrateDone md = MigrateDone::decode(done.payload);
  ASSERT_TRUE(md.ok);
  EXPECT_EQ(md.dest, 1u);
  EXPECT_EQ(dst.itemsHeld(), 200u);
  EXPECT_EQ(src.itemsHeld(), 0u);

  // Queries to the source get redirected, not silently emptied.
  const WQueryReply r = queryShards(src, {1});
  EXPECT_EQ(r.agg.count, 0u);
  ASSERT_EQ(r.moved.size(), 1u);
  EXPECT_EQ(r.moved[0].first, 1u);
  EXPECT_EQ(r.moved[0].second, 1u);
  // The destination serves the data.
  EXPECT_EQ(queryShards(dst, {1}).agg.count, 200u);

  // Inserts sent to the stale location are acked by the stub and forwarded
  // to dest under the stub's own retry budget (at-least-once), so they land
  // there shortly after the ack.
  insertN(src, 1, 10);
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (dst.itemsHeld() < 210u && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  EXPECT_EQ(dst.itemsHeld(), 210u);
}

TEST_F(WorkerTest, MigratedSplitShardKeepsMappingAtDestination) {
  Worker src(fabric_, schema_, 0);
  Worker dst(fabric_, schema_, 1);
  createShard(src, 1);
  insertN(src, 1, 300);
  // Split 1 -> {1, 2}, then migrate the LEFT half (id 1) away.
  SplitShard split{1, 2};
  const SplitDone sd = SplitDone::decode(
      send(workerEndpoint(0), Op::kSplitShard, split.encode(), 13).payload);
  ASSERT_TRUE(sd.ok);
  MigrateShard mig{1, 1};
  ASSERT_TRUE(MigrateDone::decode(
                  send(workerEndpoint(0), Op::kMigrateShard, mig.encode(), 14)
                      .payload)
                  .ok);
  // Destination serves id 1 and reports the mapping's right child as
  // unlocatable-by-me (kNoWorker) so the caller resolves it via the image.
  const WQueryReply r = queryShards(dst, {1});
  EXPECT_EQ(r.agg.count, sd.left.count);
  ASSERT_EQ(r.moved.size(), 1u);
  EXPECT_EQ(r.moved[0].first, 2u);
  EXPECT_EQ(r.moved[0].second, kNoWorker);
  // The right half still lives on the source.
  EXPECT_EQ(queryShards(src, {2}).agg.count, sd.right.count);
}

TEST_F(WorkerTest, BulkLoadSplitsAcrossMapping) {
  Worker w(fabric_, schema_, 0);
  createShard(w, 1);
  insertN(w, 1, 200);
  SplitShard split{1, 2};
  ASSERT_TRUE(SplitDone::decode(
                  send(workerEndpoint(0), Op::kSplitShard, split.encode(), 15)
                      .payload)
                  .ok);
  // Bulk addressed to the old id: items must be partitioned by the
  // hyperplane between the halves.
  ShardBatch batch;
  batch.shard = 1;
  batch.items = gen_.generate(100);
  const Message ack =
      send(workerEndpoint(0), Op::kWBulk, batch.encode(), 16);
  EXPECT_EQ(ack.type, static_cast<std::uint16_t>(Op::kWBulkAck));
  ByteReader r(ack.payload);
  EXPECT_EQ(r.varint(), 100u);
  EXPECT_EQ(queryShards(w, {1}).agg.count, 300u);
}

TEST_F(WorkerTest, StatsReachKeeper) {
  WorkerConfig cfg;
  cfg.statsIntervalNanos = 30'000'000;  // 30ms
  Worker w(fabric_, schema_, 0, cfg);
  createShard(w, 1);
  KeeperClient zk(fabric_, "checker");
  ByteWriter wr;
  ShardInfo info;
  info.id = 1;
  info.worker = 0;
  info.serialize(wr);
  zk.create(shardPath(1), wr.take());
  insertN(w, 1, 120);
  // Within a few stats periods the worker must publish its load and the
  // shard count to the keeper.
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  bool ok = false;
  while (std::chrono::steady_clock::now() < deadline && !ok) {
    auto got = zk.get(workerPath(0));
    if (got.has_value()) {
      ByteReader rd(got->data);
      const WorkerStats stats = WorkerStats::deserialize(rd);
      auto shardz = zk.get(shardPath(1));
      ByteReader rd2(shardz->data);
      const ShardInfo si = ShardInfo::deserialize(rd2);
      ok = stats.totalItems == 120 && stats.shardCount == 1 &&
           si.count == 120 && si.box.valid();
    }
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace volap
