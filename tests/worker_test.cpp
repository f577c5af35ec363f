// Protocol-level tests for the worker node: drive a Worker directly over
// the fabric with raw messages and verify the SIII-E machinery — shard
// creation, insert/query routing, the split mapping table and the
// insertion-queue overlay — plus a move run as the manager runs it: a
// chain handover (reconfig -> seed -> fence -> release -> promote), the
// one takeover command from either source (a chain mirror or shipped
// durable state), the chain mirrors (one answers when asked, and one no
// chain feeds any more is dropped), the chain's acks and retransmissions
// (only the current tail's ack releases a client ack; the primary is the
// one retransmitter), and truncated payloads.
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

  /// Have `chain[0]` run `chain` for `shard`. The ack waits until every
  /// member installed its seed, so it names them all.
  void runChain(ShardId shard, const std::vector<WorkerId>& chain) {
    const Message ack =
        send(workerEndpoint(chain[0]), Op::kReplReconfig,
             ReplReconfig{shard, chain}.encode(), nextCorr_++);
    ASSERT_EQ(ack.type, static_cast<std::uint16_t>(Op::kReplReconfigAck));
    const RecoverDone done = RecoverDone::decode(ack.payload);
    ASSERT_TRUE(done.ok);
    EXPECT_EQ(done.info.replicas,
              std::vector<WorkerId>(chain.begin() + 1, chain.end()));
  }

  /// Steps 1-2 of a move: append `dst` to the chain of `shard` at `src`.
  void chainTo(ShardId shard, WorkerId src, WorkerId dst) {
    runChain(shard, {src, dst});
  }

  /// Send the takeover command to `dst` and return its kRecoverDone.
  RecoverDone takeOver(WorkerId dst, const RecoverShard& req) {
    const Message reply = send(workerEndpoint(dst), Op::kRecoverShard,
                               req.encode(), nextCorr_++);
    EXPECT_EQ(reply.type, static_cast<std::uint16_t>(Op::kRecoverDone));
    return RecoverDone::decode(reply.payload);
  }

  /// A mirror-source takeover (a promotion) of `shard` under `epoch`.
  static RecoverShard fromMirror(ShardId shard, std::uint64_t epoch) {
    RecoverShard req;
    req.shard = shard;
    req.epoch = epoch;
    req.fromMirror = true;
    return req;
  }

  /// A durable-source takeover of the shard `snap` is the fence of.
  static RecoverShard fromDurable(ShardId shard, DurableSnapshot snap) {
    RecoverShard req;
    req.shard = shard;
    req.epoch = snap.epoch;
    req.checkpoint = std::move(snap.checkpoint);
    req.wal = std::move(snap.wal);
    req.applied = std::move(snap.applied);
    return req;
  }

  /// Steps 3-5: fence, have `src` shed the shard, promote `dst`. Returns
  /// the epoch `dst` now holds the shard under.
  std::uint64_t handOver(ShardId shard, WorkerId src, WorkerId dst) {
    const auto snap = durable_.fence(shard);
    EXPECT_TRUE(snap.has_value());
    if (!snap) return 0;
    const Message released =
        send(workerEndpoint(src), Op::kReplReconfig,
             ReplReconfig{shard, {dst}}.encode(), nextCorr_++);
    EXPECT_EQ(released.type,
              static_cast<std::uint16_t>(Op::kReplReconfigAck));
    EXPECT_TRUE(RecoverDone::decode(released.payload).ok);
    EXPECT_TRUE(takeOver(dst, fromMirror(shard, snap->epoch)).ok);
    return snap->epoch;
  }

  /// Write the keeper image entry of `shard`.
  void writeImage(ShardId shard, WorkerId owner, std::uint64_t epoch) {
    ShardInfo info;
    info.id = shard;
    info.worker = owner;
    info.epoch = epoch;
    ByteWriter w;
    info.serialize(w);
    KeeperClient zk(fabric_, "image-writer");
    if (!zk.set(shardPath(shard), w.data()).has_value())
      zk.create(shardPath(shard), w.take());
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
  DurableLog durable_;
  KeeperServer keeper_;
  DataGenerator gen_;
  std::shared_ptr<Mailbox> me_;
  std::uint64_t nextCorr_ = 1000;
};

TEST_F(WorkerTest, CreateInsertQuery) {
  Worker w(fabric_, schema_, 0, durable_);
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
  Worker w(fabric_, schema_, 0, durable_);
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
  Worker w(fabric_, schema_, 0, durable_);
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
  Worker w(fabric_, schema_, 0, durable_);
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
  Worker w(fabric_, schema_, 0, durable_);
  SplitShard split{42, 43};
  const Message done =
      send(workerEndpoint(0), Op::kSplitShard, split.encode(), 9);
  EXPECT_FALSE(SplitDone::decode(done.payload).ok);
}

TEST_F(WorkerTest, MoveHandsShardToSeededReplica) {
  Worker src(fabric_, schema_, 0, durable_);
  Worker dst(fabric_, schema_, 1, durable_);
  createShard(src, 1);
  insertN(src, 1, 200);

  chainTo(1, 0, 1);
  EXPECT_EQ(dst.replicaShardCount(), 1u);
  // Inserts while the chain runs reach the new member before their acks.
  insertN(src, 1, 20);
  const std::uint64_t epoch = handOver(1, 0, 1);
  EXPECT_EQ(dst.itemsHeld(), 220u);
  EXPECT_EQ(dst.replicaShardCount(), 0u);
  EXPECT_EQ(src.itemsHeld(), 0u);
  EXPECT_EQ(src.shardCount(), 0u);

  // The old owner answers not-mine — an honest partial, never a silently
  // empty answer — and the new owner serves the data.
  const WQueryReply r = queryShards(src, {1});
  EXPECT_EQ(r.agg.count, 0u);
  EXPECT_TRUE(r.moved.empty());
  EXPECT_EQ(r.notMine, std::vector<ShardId>{1});
  EXPECT_EQ(queryShards(dst, {1}).agg.count, 220u);

  // An insert sent to the old owner is dropped unacked; the sender's
  // retransmission, routed to the new owner, is applied there once and
  // acked under the new epoch.
  const Blob late = oneItem(1).encode();
  const std::uint64_t fencedBefore = src.fencedOps();
  sendNoReply(workerEndpoint(0), Op::kWBulk, late, 9001);
  EXPECT_FALSE(me_->recvFor(300ms).has_value());
  EXPECT_GT(src.fencedOps(), fencedBefore);
  const Message ack = send(workerEndpoint(1), Op::kWBulk, late, 9001);
  ASSERT_EQ(ack.type, static_cast<std::uint16_t>(Op::kWBulkAck));
  const WBulkAck info = WBulkAck::decode(ack.payload);
  EXPECT_EQ(info.applied, 1u);
  ASSERT_EQ(info.stamps.size(), 1u);
  EXPECT_EQ(info.stamps[0].second, epoch);
  EXPECT_EQ(dst.itemsHeld(), 221u);
}

TEST_F(WorkerTest, ColdTakeoverDropsTheTargetsMirror) {
  // Cold recovery picks the lightest live worker, which may be a chain
  // member whose promotion lost the race: the installed slot replaces its
  // mirror, which would otherwise be a whole stale copy nothing drops.
  Worker src(fabric_, schema_, 0, durable_);
  Worker dst(fabric_, schema_, 1, durable_);
  createShard(src, 1);
  insertN(src, 1, 80);
  chainTo(1, 0, 1);
  insertN(src, 1, 20);
  ASSERT_EQ(dst.replicaShardCount(), 1u);
  auto snap = durable_.fence(1);
  ASSERT_TRUE(snap.has_value());
  const RecoverDone done = takeOver(1, fromDurable(1, std::move(*snap)));
  ASSERT_TRUE(done.ok);
  EXPECT_EQ(done.info.count, 100u);
  EXPECT_EQ(queryShards(dst, {1}).agg.count, 100u);
  EXPECT_EQ(dst.itemsHeld(), 100u);
  EXPECT_EQ(dst.replicaShardCount(), 0u);
  EXPECT_EQ(dst.shardsRecovered(), 1u);
}

TEST_F(WorkerTest, RepeatedTakeoverReReportsAndChangesNothing) {
  // A lost Done makes the manager resend the same takeover: the worker
  // re-reports the slot it installed, from either source.
  Worker src(fabric_, schema_, 0, durable_);
  Worker mirror(fabric_, schema_, 1, durable_);
  Worker cold(fabric_, schema_, 2, durable_);
  createShard(src, 1);
  createShard(src, 2);
  insertN(src, 1, 60);
  insertN(src, 2, 40);
  chainTo(1, 0, 1);

  const auto snap1 = durable_.fence(1);
  ASSERT_TRUE(snap1.has_value());
  const RecoverShard promote = fromMirror(1, snap1->epoch);
  auto snap2 = durable_.fence(2);
  ASSERT_TRUE(snap2.has_value());
  const RecoverShard rehost = fromDurable(2, std::move(*snap2));
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const RecoverDone p = takeOver(1, promote);
    ASSERT_TRUE(p.ok);
    EXPECT_EQ(p.info.epoch, snap1->epoch);
    EXPECT_EQ(p.info.count, 60u);
    const RecoverDone c = takeOver(2, rehost);
    ASSERT_TRUE(c.ok);
    EXPECT_EQ(c.info.epoch, rehost.epoch);
    EXPECT_EQ(c.info.count, 40u);
    EXPECT_EQ(mirror.itemsHeld(), 60u);
    EXPECT_EQ(mirror.shardCount(), 1u);
    EXPECT_EQ(mirror.replicaShardCount(), 0u);
    EXPECT_EQ(cold.itemsHeld(), 40u);
    EXPECT_EQ(cold.shardCount(), 1u);
  }
  // Only the rebuild from durable state counts as a recovered shard.
  EXPECT_EQ(mirror.shardsRecovered(), 0u);
  EXPECT_EQ(cold.shardsRecovered(), 1u);
}

TEST_F(WorkerTest, MirrorTakeoverWithoutAMirrorFails) {
  Worker src(fabric_, schema_, 0, durable_);
  Worker other(fabric_, schema_, 1, durable_);
  createShard(src, 1);
  insertN(src, 1, 10);
  const auto snap = durable_.fence(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_FALSE(takeOver(1, fromMirror(1, snap->epoch)).ok);
  EXPECT_EQ(other.shardCount(), 0u);
  EXPECT_EQ(other.itemsHeld(), 0u);
}

TEST_F(WorkerTest, MirrorAnswersWhenAsked) {
  // A server addresses a shard to a chain member between the image naming
  // it owner and its promotion landing: the mirror answers in full.
  Worker src(fabric_, schema_, 0, durable_);
  Worker dst(fabric_, schema_, 1, durable_);
  createShard(src, 1);
  insertN(src, 1, 100);
  chainTo(1, 0, 1);
  insertN(src, 1, 20);
  const WQueryReply r = queryShards(dst, {1});
  EXPECT_EQ(r.agg.count, 120u);
  EXPECT_EQ(r.searchedShards, 1u);
  EXPECT_TRUE(r.notMine.empty());
  EXPECT_TRUE(r.moved.empty());
}

TEST_F(WorkerTest, DropsMirrorNoChainFeeds) {
  // The owner never pushes stats here, so only this test writes the image.
  WorkerConfig quiet;
  quiet.statsIntervalNanos = 3'600'000'000'000;
  WorkerConfig fast;
  fast.checkpointIntervalNanos = 20'000'000;  // 20ms checkpoint ticks
  Worker src(fabric_, schema_, 0, durable_, quiet);
  Worker dst(fabric_, schema_, 1, durable_, fast);
  createShard(src, 1);
  insertN(src, 1, 30);
  chainTo(1, 0, 1);
  ASSERT_EQ(dst.replicaShardCount(), 1u);
  const std::uint64_t epoch = durable_.epochOf(1);

  // An image entry at the mirror's epoch keeps it, even one that does not
  // name this worker.
  writeImage(1, 0, epoch);
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(dst.replicaShardCount(), 1u);

  // The shard moved on to another owner under a newer epoch without this
  // worker: no chain feeds the mirror any more.
  writeImage(1, 2, epoch + 1);
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (dst.replicaShardCount() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(10ms);
  EXPECT_EQ(dst.replicaShardCount(), 0u);
}

TEST_F(WorkerTest, MigratedSplitShardKeepsMappingAtDestination) {
  Worker src(fabric_, schema_, 0, durable_);
  Worker dst(fabric_, schema_, 1, durable_);
  createShard(src, 1);
  insertN(src, 1, 300);
  // Split 1 -> {1, 2}, then move the LEFT half (id 1) away. Its mapping
  // entry travels in the seed's checkpoint.
  SplitShard split{1, 2};
  const SplitDone sd = SplitDone::decode(
      send(workerEndpoint(0), Op::kSplitShard, split.encode(), 13).payload);
  ASSERT_TRUE(sd.ok);
  chainTo(1, 0, 1);
  handOver(1, 0, 1);
  // Destination serves id 1 and reports the mapping's right child as
  // moved, so the caller locates it via its image.
  const WQueryReply r = queryShards(dst, {1});
  EXPECT_EQ(r.agg.count, sd.left.count);
  EXPECT_EQ(r.moved, std::vector<ShardId>{2});
  // The right half still lives on the source.
  EXPECT_EQ(queryShards(src, {2}).agg.count, sd.right.count);
}

TEST_F(WorkerTest, BatchThatFollowedAMappingIsNotReappliedAfterAMove) {
  Worker src(fabric_, schema_, 0, durable_);
  Worker dst(fabric_, schema_, 1, durable_);
  createShard(src, 1);
  insertN(src, 1, 300);
  ASSERT_TRUE(SplitDone::decode(send(workerEndpoint(0), Op::kSplitShard,
                                     SplitShard{1, 2}.encode(), 13)
                                    .payload)
                  .ok);
  // A one-item batch addressed to shard 1 that the mapping hands whole to
  // shard 2.
  Blob batch;
  std::uint64_t corr = 0;
  for (int i = 0; i < 100 && corr == 0; ++i) {
    const std::uint64_t before = queryShards(src, {2}).agg.count;
    const Blob b = oneItem(1).encode();
    const std::uint64_t c = nextCorr_++;
    ASSERT_EQ(send(workerEndpoint(0), Op::kWBulk, b, c).type,
              static_cast<std::uint16_t>(Op::kWBulkAck));
    if (queryShards(src, {2}).agg.count > before) {
      batch = b;
      corr = c;
    }
  }
  ASSERT_NE(corr, 0u);
  chainTo(1, 0, 1);
  handOver(1, 0, 1);
  // Its retransmission reaches shard 1's new owner, which must know it.
  const std::uint64_t held = dst.itemsHeld();
  const Message ack = send(workerEndpoint(1), Op::kWBulk, batch, corr);
  EXPECT_EQ(ack.type, static_cast<std::uint16_t>(Op::kWBulkAck));
  EXPECT_EQ(dst.itemsHeld(), held);
}

TEST_F(WorkerTest, BulkLoadSplitsAcrossMapping) {
  Worker w(fabric_, schema_, 0, durable_);
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

TEST_F(WorkerTest, TruncatedPayloadsAreDroppedAndTheWorkerKeepsServing) {
  Worker w(fabric_, schema_, 0, durable_);
  const auto cut = [](Blob b) {
    b.resize(b.size() / 2);
    return b;
  };
  ShardBatch batch;
  batch.shard = 1;
  batch.items = gen_.generate(4);
  sendNoReply(workerEndpoint(0), Op::kWBulk, cut(batch.encode()), 1);
  sendNoReply(workerEndpoint(0), Op::kCreateShard,
              cut(CreateShard{1, ShardKind::kHilbertPdcMds}.encode()), 2);
  sendNoReply(workerEndpoint(0), Op::kSplitShard,
              cut(SplitShard{1, 2}.encode()), 3);
  EXPECT_FALSE(me_->recvFor(300ms).has_value());
  createShard(w, 1);
  insertN(w, 1, 5);
  EXPECT_EQ(queryShards(w, {1}).agg.count, 5u);
}

TEST_F(WorkerTest, OnlyTheTailsAckReleasesAClientAck) {
  // Chain [P, T, X]: T was the tail of the shard's earlier chain [P, T].
  // A late append of that chain makes T take itself for the tail; its ack
  // must not release an entry that the current tail X has not confirmed.
  Worker p(fabric_, schema_, 0, durable_);
  Worker t(fabric_, schema_, 1, durable_);
  auto x = fabric_.bind(workerEndpoint(2));  // a fake tail
  createShard(p, 1);
  insertN(p, 1, 10);
  sendNoReply(workerEndpoint(0), Op::kReplReconfig,
              ReplReconfig{1, {0, 1, 2}}.encode(), nextCorr_++);
  auto seed = x->recvFor(5000ms);
  ASSERT_TRUE(seed.has_value());
  ASSERT_EQ(seed->type, static_cast<std::uint16_t>(Op::kReplSeed));
  const ReplSeed seeded = ReplSeed::decode(seed->payload);
  fabric_.send(workerEndpoint(0),
               makeMessage(Op::kReplSeedAck, seed->corr, workerEndpoint(2),
                           ReplSeedAck{1, seeded.startIndex}.encode()));
  const auto reconfigured = me_->recvFor(5000ms);
  ASSERT_TRUE(reconfigured.has_value());
  ASSERT_EQ(reconfigured->type,
            static_cast<std::uint16_t>(Op::kReplReconfigAck));

  sendNoReply(workerEndpoint(0), Op::kWBulk, oneItem(1).encode(),
              nextCorr_++);
  auto fwd = x->recvFor(5000ms);
  ASSERT_TRUE(fwd.has_value());
  ASSERT_EQ(fwd->type, static_cast<std::uint16_t>(Op::kReplAppend));
  const ReplAppend app = ReplAppend::decode(fwd->payload);
  EXPECT_EQ(app.chain, (std::vector<WorkerId>{0, 1, 2}));

  ReplAppend late = app;
  late.chain = {0, 1};
  fabric_.send(workerEndpoint(1),
               makeMessage(Op::kReplAppend, fwd->corr, workerEndpoint(0),
                           late.encode()));
  EXPECT_FALSE(me_->recvFor(300ms).has_value())
      << "a client ack was released before the tail confirmed";

  fabric_.send(workerEndpoint(0),
               makeMessage(Op::kReplAck, fwd->corr, workerEndpoint(2),
                           ReplAck{1, app.epoch, app.logIndex}.encode()));
  const auto ack = me_->recvFor(5000ms);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, static_cast<std::uint16_t>(Op::kWBulkAck));
}

TEST_F(WorkerTest, PrimaryRetransmissionReachesTheTailPastALostHop) {
  // Members keep no window: when T -> X loses an append, the primary's
  // resend to T is passed on to X, and X's ack releases the client ack.
  Worker p(fabric_, schema_, 0, durable_);
  Worker t(fabric_, schema_, 1, durable_);
  Worker x(fabric_, schema_, 2, durable_);
  createShard(p, 1);
  insertN(p, 1, 10);
  runChain(1, {0, 1, 2});

  fabric_.addFaultRule({workerEndpoint(1), workerEndpoint(2), 1.0});
  sendNoReply(workerEndpoint(0), Op::kWBulk, oneItem(1).encode(),
              nextCorr_++);
  // Keep the hop cut until the primary has resent at least once.
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (p.retriesSent() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(10ms);
  ASSERT_GT(p.retriesSent(), 0u);
  EXPECT_FALSE(me_->recvFor(50ms).has_value());
  fabric_.clearFaultRules();
  const auto ack = me_->recvFor(5000ms);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, static_cast<std::uint16_t>(Op::kWBulkAck));
  EXPECT_EQ(t.retriesSent(), 0u);
  EXPECT_EQ(queryShards(x, {1}).agg.count, 11u);
}

TEST_F(WorkerTest, StatsReachKeeper) {
  WorkerConfig cfg;
  cfg.statsIntervalNanos = 30'000'000;  // 30ms
  Worker w(fabric_, schema_, 0, durable_, cfg);
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
