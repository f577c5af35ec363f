#include "cluster/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cluster/stats.hpp"
#include "common/clock.hpp"
#include "tree/shard_tree.hpp"

namespace volap {

namespace {

/// Wait until no insert is in flight on the slot. New inserts cannot start
/// while the caller prevents them (busy flag or slotsMu_). Inserts finish
/// in microseconds normally, so spin briefly first; if one stalls (page
/// fault, scheduler preemption, fault injection), back off through yield
/// into exponentially growing sleeps (capped ~1 ms) instead of burning a
/// core on a bare yield loop.
void drainInserts(const std::atomic<std::uint32_t>& active) {
  unsigned spins = 0;
  while (active.load(std::memory_order_acquire) != 0) {
    ++spins;
    if (spins <= 64) continue;  // hot spin: the common, microsecond case
    if (spins <= 128) {
      std::this_thread::yield();
      continue;
    }
    const unsigned shift = std::min(spins - 129, 10u);  // 1 us .. ~1 ms
    std::this_thread::sleep_for(std::chrono::microseconds(1u << shift));
  }
}

/// Append a trace stamp to a worker-side hop list (echoed on the ack).
void stamp(std::vector<TraceHop>& hops, TraceStage s, std::uint64_t nanos) {
  hops.push_back({static_cast<std::uint16_t>(s), nanos});
}

/// How many applied-record dedup identities a replica retains for
/// promotion-time replay seeding. Mirrors DurableLog::kAppliedCap: the
/// window in which a sender's retransmission of an already-applied request
/// is answered from cache instead of re-applied.
constexpr std::size_t kReplLogCap = 8192;

/// dropChainLocked's `successors` when every former member is notified.
const std::vector<WorkerId> kNoSuccessors;

/// WAL record for a batch of applied points. The stored ack lets the
/// recovery target re-seed its replay cache so the sender's retransmissions
/// are answered, not re-applied.
WalRecord makeWalRecord(const Message& m, Op ackOp, const Blob& ackPayload,
                        const PointSet& items) {
  WalRecord rec;
  rec.from = m.from;
  rec.corr = m.corr;
  rec.ackOp = static_cast<std::uint16_t>(ackOp);
  rec.ackPayload = ackPayload;
  ByteWriter w;
  items.serialize(w);
  rec.items = w.take();
  return rec;
}

/// A shard rebuilt from a TransferShard checkpoint blob: its tree and its
/// mapping-table entry M_j.
struct Restored {
  std::shared_ptr<Shard> tree;
  std::vector<std::pair<Hyperplane, ShardId>> splits;
};

/// Decode a checkpoint blob (a takeover's durable state, or a chain seed).
/// An empty blob is a shard that never checkpointed: a fresh tree of the
/// default kind. Throws DeserializeError on a corrupt blob.
Restored restoreCheckpoint(const Schema& schema, const Blob& blob) {
  if (blob.empty()) return {makeShard(ShardKind::kHilbertPdcMds, schema), {}};
  TransferShard ckpt = TransferShard::decode(blob);
  return {deserializeShard(schema, ckpt.blob), std::move(ckpt.splits)};
}

}  // namespace

Worker::Worker(Fabric& fabric, const Schema& schema, WorkerId id,
               DurableLog& durable, WorkerConfig cfg)
    : fabric_(fabric),
      schema_(schema),
      id_(id),
      cfg_(cfg),
      durable_(durable),
      groupCommit_(durable),
      inbox_(fabric.bind(workerEndpoint(id))),
      zk_(fabric, workerEndpoint(id)),
      replRng_(0x7265706cull ^ id),
      inserts_(metrics_.counter("worker.inserts_applied")),
      queries_(metrics_.counter("worker.queries_served")),
      dropped_(metrics_.counter("worker.items_dropped")),
      rejectedBatches_(metrics_.counter("worker.batches_rejected")),
      redelivered_(metrics_.counter("worker.redelivered")),
      retriesSent_(metrics_.counter("worker.retries_sent")),
      fencedOps_(metrics_.counter("worker.fenced_ops")),
      fencedShards_(metrics_.counter("worker.fenced_shards")),
      recovered_(metrics_.counter("worker.shards_recovered")),
      checkpoints_(metrics_.counter("worker.checkpoints")),
      replForwarded_(metrics_.counter("repl.appends_forwarded")),
      replApplied_(metrics_.counter("repl.appends_applied")),
      replAbandoned_(metrics_.counter("repl.appends_abandoned")),
      replSeeded_(metrics_.counter("repl.seeds")),
      replLagNs_(metrics_.histogram("repl.lag_ns")),
      walAppendNs_(metrics_.histogram("worker.wal_append_ns")),
      batchApplyNs_(metrics_.histogram("worker.batch_apply_ns")),
      queryScanNs_(metrics_.histogram("worker.query_scan_ns")),
      pool_(cfg.threads) {
  // Pull gauges, evaluated only when the registry is scraped. Registered
  // before the serve thread starts, so registration never races the data
  // path (the registry mutex is only ever taken here and at snapshot()).
  metrics_.gaugeFn("worker.items_held", [this] {
    return static_cast<std::int64_t>(itemsHeld());
  });
  metrics_.gaugeFn("worker.scan.leaves", [this] {
    return static_cast<std::int64_t>(leavesScanned());
  });
  metrics_.gaugeFn("worker.scan.items", [this] {
    return static_cast<std::int64_t>(itemsTested());
  });
  metrics_.gaugeFn("worker.scan.summary_answers", [this] {
    return static_cast<std::int64_t>(summaryAnswers());
  });
  metrics_.gaugeFn("worker.shards", [this] {
    return static_cast<std::int64_t>(shardCount());
  });
  metrics_.gaugeFn("worker.retry_entries", [this] {
    return static_cast<std::int64_t>(retryEntries());
  });
  metrics_.gaugeFn("worker.group_commit_groups", [this] {
    return static_cast<std::int64_t>(groupCommitGroups());
  });
  metrics_.gaugeFn("worker.group_commit_records", [this] {
    return static_cast<std::int64_t>(groupCommitRecords());
  });
  metrics_.gaugeFn("repl.lag_entries", [this] {
    // Un-acked chain entries across every primary-side window: how far the
    // slowest chain trails the primary, in appends.
    std::lock_guard lock(replMu_);
    std::int64_t n = 0;
    for (const auto& [shard, cs] : chains_)
      n += static_cast<std::int64_t>(cs.window.size());
    for (const auto& [shard, rs] : replicaShards_)
      n += static_cast<std::int64_t>(rs.out.size());
    return n;
  });
  metrics_.gaugeFn("repl.replica_shards", [this] {
    return static_cast<std::int64_t>(replicaShardCount());
  });
  thread_ = std::thread([this] { serve(); });
}

Worker::~Worker() { stop(); }

void Worker::stop() {
  inbox_->close();
  if (thread_.joinable()) thread_.join();
}

void Worker::crash() {
  if (crashed_.exchange(true)) return;
  // Tear the node off the network first — its inbox and keeper-reply
  // mailbox close, so the serve loop exits and every blocked keeper RPC
  // fails fast. Messages already in flight toward it die undelivered.
  fabric_.crash(workerEndpoint(id_));
  if (thread_.joinable()) thread_.join();
  // Process memory is gone. The DurableLog (the "disk") is all that
  // survives; pool tasks still running hold shared_ptr copies and finish
  // against orphaned shards, their acks going nowhere a live node listens.
  {
    std::lock_guard lock(slotsMu_);
    slots_.clear();
  }
  {
    std::lock_guard lock(replMu_);
    chains_.clear();
    replicaShards_.clear();
    pendingSeeds_.clear();
    heldAcks_.clear();  // never acked: the promoted owner re-answers retries
    chainsActive_.store(0, std::memory_order_release);
  }
}

std::uint64_t Worker::itemsHeld() const {
  std::lock_guard lock(slotsMu_);
  std::uint64_t total = 0;
  for (const auto& [id, slot] : slots_) {
    if (slot.shard) total += slot.shard->size();
    if (slot.queue) total += slot.queue->size();
  }
  return total;
}

std::size_t Worker::shardCount() const {
  std::lock_guard lock(slotsMu_);
  return slots_.size();
}

template <typename Count>
std::uint64_t Worker::sumOverShards(Count count) const {
  std::uint64_t total = 0;
  {
    std::lock_guard lock(slotsMu_);
    for (const auto& [id, slot] : slots_)
      if (slot.shard) total += count(*slot.shard);
  }
  std::lock_guard lock(replMu_);
  for (const auto& [id, rs] : replicaShards_)
    if (rs.shard) total += count(*rs.shard);
  return total;
}

std::uint64_t Worker::leavesScanned() const {
  return sumOverShards([](const Shard& s) { return s.leavesScanned(); });
}

std::uint64_t Worker::itemsTested() const {
  return sumOverShards([](const Shard& s) { return s.itemsTested(); });
}

std::uint64_t Worker::summaryAnswers() const {
  return sumOverShards([](const Shard& s) { return s.summaryAnswers(); });
}

std::size_t Worker::retryEntries() const {
  std::lock_guard lock(replMu_);
  return pendingSeeds_.size();
}

std::size_t Worker::replicaShardCount() const {
  std::lock_guard lock(replMu_);
  return replicaShards_.size();
}

Worker::Slot* Worker::findSlot(ShardId id) {
  auto it = slots_.find(id);
  return it == slots_.end() ? nullptr : &it->second;
}

void Worker::serve() {
  std::uint64_t nextStats = nowNanos() + cfg_.statsIntervalNanos;
  std::uint64_t nextCheckpoint = nowNanos() + cfg_.checkpointIntervalNanos;
  while (true) {
    std::uint64_t now = nowNanos();
    if (now >= nextStats) {
      pushStats();
      nextStats = now + cfg_.statsIntervalNanos;
    }
    if (now >= nextCheckpoint) {
      checkpointShards();
      dropUnfedMirrors();
      nextCheckpoint = now + cfg_.checkpointIntervalNanos;
    }
    const std::uint64_t replDue = sweepReplication();
    std::uint64_t wake = std::min(nextStats, nextCheckpoint);
    if (replDue != 0) wake = std::min(wake, replDue);
    now = nowNanos();
    auto m = inbox_->recvFor(
        std::chrono::nanoseconds(wake > now ? wake - now : 1));
    if (!m) {
      if (inbox_->closed()) return;
      continue;
    }
    switch (static_cast<Op>(m->type)) {
      case Op::kWQuery: {
        auto msg = std::make_shared<Message>(std::move(*m));
        pool_.submit([this, msg] { handleQuery(*msg); });
        break;
      }
      case Op::kWBulk: {
        auto msg = std::make_shared<Message>(std::move(*m));
        pool_.submit([this, msg] { handleBulk(*msg); });
        break;
      }
      case Op::kCreateShard:
        handleCreateShard(*m);
        break;
      case Op::kSplitShard: {
        auto msg = std::make_shared<Message>(std::move(*m));
        pool_.submit([this, msg] { handleSplitShard(*msg); });
        break;
      }
      case Op::kRecoverShard: {
        auto msg = std::make_shared<Message>(std::move(*m));
        pool_.submit([this, msg] { handleRecoverShard(*msg); });
        break;
      }
      case Op::kReplAppend:
      case Op::kReplSeed:
      case Op::kReplReconfig: {
        auto msg = std::make_shared<Message>(std::move(*m));
        const Op op = static_cast<Op>(msg->type);
        pool_.submit([this, msg, op] {
          switch (op) {
            case Op::kReplAppend: handleReplAppend(*msg); break;
            case Op::kReplSeed: handleReplSeed(*msg); break;
            default: handleReplReconfig(*msg); break;
          }
        });
        break;
      }
      case Op::kReplAck:
        handleReplAck(*m);
        break;
      case Op::kReplSeedAck:
        handleReplSeedAck(*m);
        break;
      case Op::kStats:
        handleStats(*m);
        break;
      default:
        break;  // keeper watch events etc.: workers ignore them
    }
  }
}

void Worker::handleStats(const Message& m) {
  // Workers keep no trace ring: a worker sees single hops, not whole
  // spans, so the slowest-trace view lives on the servers.
  StatsReply reply;
  reply.node = workerEndpoint(id_);
  reply.snapshot = metrics_.snapshot();
  fabric_.send(m.from, makeMessage(Op::kStatsReply, m.corr,
                                   workerEndpoint(id_), reply.encode()));
}

// ---- redelivery dedup -------------------------------------------------------

bool Worker::beginRequest(const Message& m) {
  Op replayOp = Op::kWBulkAck;
  Blob replayPayload;
  {
    std::lock_guard lock(dedupMu_);
    if (const auto* ack = replay_.find(m.from, m.corr)) {
      replayOp = static_cast<Op>(ack->op);
      replayPayload = ack->payload;
    } else if (!inFlightMsgs_.insert(msgKey(m)).second) {
      // A twin of this request is mid-apply on another pool thread; drop
      // this copy — the sender's next retry hits the replay cache.
      redelivered_.inc();
      return false;
    } else {
      return true;
    }
  }
  redelivered_.inc();
  fabric_.send(m.from, makeMessage(replayOp, m.corr, workerEndpoint(id_),
                                   std::move(replayPayload)));
  return false;
}

void Worker::completeRequest(const Message& m, Op ackOp, Blob ackPayload,
                             std::vector<TraceHop> hops) {
  {
    std::lock_guard lock(dedupMu_);
    inFlightMsgs_.erase(msgKey(m));
    replay_.remember(m.from, m.corr, static_cast<std::uint16_t>(ackOp),
                     ackPayload);
  }
  Message ack = makeMessage(ackOp, m.corr, workerEndpoint(id_),
                            std::move(ackPayload));
  if (m.traced()) {
    // Echo the request's hop chain plus this worker's stamps, so the
    // server assembles the full trace from the ack alone.
    ack.traceId = m.traceId;
    ack.hops = m.hops;
    ack.hops.insert(ack.hops.end(), hops.begin(), hops.end());
  }
  fabric_.send(m.from, std::move(ack));
}

void Worker::abandonRequest(const Message& m) {
  std::lock_guard lock(dedupMu_);
  inFlightMsgs_.erase(msgKey(m));
}

template <typename Records>
void Worker::seedReplayCache(ShardId shard, std::uint64_t epoch,
                             const Records& recs) {
  std::lock_guard lock(dedupMu_);
  for (const auto& rec : recs) {
    if (rec.corr == 0) continue;
    Blob payload = rec.ackPayload;
    if (rec.ackOp == static_cast<std::uint16_t>(Op::kWBulkAck)) {
      // Re-stamp with the epoch this worker now holds the shard under. The
      // logged stamps name the previous owner's epoch, which a server that
      // already sees the new one rejects as a zombie ack — on every
      // retransmission, since each is answered from this cache.
      try {
        WBulkAck ack = WBulkAck::decode(payload);
        ack.stamps = {{shard, epoch}};
        payload = ack.encode();
      } catch (const DeserializeError&) {
        // Unreadable payload: replay it unchanged.
      }
    }
    replay_.remember(rec.from, rec.corr, rec.ackOp, std::move(payload));
  }
}

// ---- data path --------------------------------------------------------------

namespace {

/// Reject items whose coordinates fall outside the schema's domain
/// (protocol-level garbage must never reach a shard tree).
bool pointInDomain(const Schema& schema, PointRef p) {
  if (p.dims() != schema.dims()) return false;
  for (unsigned j = 0; j < schema.dims(); ++j) {
    if (p.coords[j] >= schema.dim(j).extent()) return false;
  }
  return true;
}

}  // namespace

void Worker::handleQuery(const Message& m) {
  const std::uint64_t recvNanos = nowNanos();
  WQuery req;
  try {
    req = WQuery::decode(m.payload);
  } catch (const DeserializeError&) {
    return;
  }
  // A box of the wrong dimension count would read past the shard keys.
  if (req.box.dims() != schema_.dims()) return;
  std::vector<std::shared_ptr<Shard>> targets;
  WQueryReply reply;
  // (shard, asked for by the server) pairs that no live slot claims.
  std::vector<std::pair<ShardId, bool>> unresolved;
  {
    std::lock_guard lock(slotsMu_);
    std::unordered_set<const Shard*> seen;
    std::unordered_set<ShardId> visited;
    for (ShardId id : req.shards) {
      std::vector<ShardId> pending{id};
      for (int hops = 0; !pending.empty() && hops < 256; ++hops) {
        const ShardId cur = pending.back();
        pending.pop_back();
        if (!visited.insert(cur).second) continue;
        Slot* slot = findSlot(cur);
        if (slot == nullptr) {
          // Might be mirrored here — resolved below, outside slotsMu_
          // (lock order: slotsMu_ before replMu_, never nested the other
          // way on this path). A shard the server asked for counts as
          // asked for even when a mapping reached it first.
          unresolved.emplace_back(
              cur, std::find(req.shards.begin(), req.shards.end(), cur) !=
                       req.shards.end());
          continue;
        }
        if (slot->shard && seen.insert(slot->shard.get()).second)
          targets.push_back(slot->shard);
        if (slot->queue && seen.insert(slot->queue.get()).second)
          targets.push_back(slot->queue);
        for (const auto& [plane, rightId] : slot->splits)
          pending.push_back(rightId);  // query every half; trees prune
      }
    }
  }
  if (!unresolved.empty()) {
    std::lock_guard lock(replMu_);
    for (const auto& [sid, isRoot] : unresolved) {
      if (!isRoot) {
        // A split-right child we do not own (a mirror of it here does not
        // count: its owner answers for it): tell the server to locate it
        // via its image / the keeper.
        reply.moved.emplace_back(sid, kNoWorker);
        continue;
      }
      auto it = replicaShards_.find(sid);
      if (it != replicaShards_.end() && it->second.shard) {
        // A server addresses a shard to a mirror only between the image
        // naming this worker owner and its takeover landing. Acks are
        // tail-gated and the image lists only seeded members, so the
        // mirror holds every acked insert: answer from it.
        targets.push_back(it->second.shard);
      } else {
        // A shard the server thinks we host but we do not (never did, or
        // we were fenced out of it or handed it over). Reporting it as
        // not-mine makes the server count it unreachable — a visible
        // partial result — and refresh its image, instead of silently
        // merging zero.
        reply.notMine.push_back(sid);
      }
    }
  }
  // Fan the shard list across the worker's pool and merge the partial
  // aggregates afterwards: per-shard queries are read-only and
  // independent, so a k-thread worker answers a k-shard query in roughly
  // one shard's time. parallelFor is caller-helping, so running inside a
  // pool task cannot deadlock even when every pool thread is busy. The
  // partial-reply semantics (moved/unreachable shards reported via
  // reply.moved/notMine) were resolved above and are untouched by the
  // fan-out.
  // On a single hardware thread the fan-out is pure overhead (helper-task
  // enqueues and wakeups with no one to run them in parallel), so fall
  // back to the serial merge there.
  static const bool multicore = std::thread::hardware_concurrency() > 1;
  if (targets.size() > 1 && pool_.size() > 1 && multicore) {
    std::vector<Aggregate> partials(targets.size());
    pool_.parallelFor(targets.size(), [&](std::size_t i) {
      partials[i] = targets[i]->query(req.box);
    });
    for (const Aggregate& a : partials) reply.agg.merge(a);
  } else {
    for (const auto& shard : targets) reply.agg.merge(shard->query(req.box));
  }
  reply.searchedShards += static_cast<std::uint32_t>(targets.size());
  queries_.inc();
  const std::uint64_t scannedNanos = nowNanos();
  queryScanNs_.record(scannedNanos - recvNanos);
  // Queries are read-only and their replies idempotent to merge exactly
  // because the server dedups by chunk corr — no replay cache needed.
  Message out = makeMessage(Op::kWQueryReply, m.corr, workerEndpoint(id_),
                            reply.encode());
  if (m.traced()) {
    out.traceId = m.traceId;
    out.hops = m.hops;
    stamp(out.hops, TraceStage::kWorkerRecv, recvNanos);
    stamp(out.hops, TraceStage::kWorkerScanned, scannedNanos);
  }
  fabric_.send(m.from, std::move(out));
}

void Worker::handleBulk(const Message& m) {
  if (!beginRequest(m)) return;
  std::vector<TraceHop> hops;
  if (m.traced()) stamp(hops, TraceStage::kWorkerRecv, nowNanos());
  ShardBatch batch = ShardBatch::decode(m.payload);
  if (batch.items.dims() != schema_.dims()) {
    abandonRequest(m);
    return;
  }
  bool poisoned = false;
  for (std::size_t i = 0; i < batch.items.size() && !poisoned; ++i)
    poisoned = !pointInDomain(schema_, batch.items.at(i));
  if (poisoned) {
    // Poisoned batch: reject wholesale, never ack. Counted once, outside
    // the scan — the items once, the batch once.
    dropped_.inc(batch.items.size());
    rejectedBatches_.inc();
    abandonRequest(m);
    return;
  }
  // Resolve the slot, partitioning recursively along split mappings.
  struct Target {
    std::shared_ptr<Shard> shard;
    std::shared_ptr<std::atomic<std::uint32_t>> active;
    ShardId id = 0;
    std::uint64_t epoch = 0;
    PointSet items;
  };
  std::vector<Target> targets;
  std::vector<std::pair<ShardId, PointSet>> work;
  work.emplace_back(batch.shard, std::move(batch.items));
  bool fencedUnknown = false;
  {
    std::lock_guard lock(slotsMu_);
    while (!work.empty()) {
      auto [id, items] = std::move(work.back());
      work.pop_back();
      Slot* slot = findSlot(id);
      if (slot == nullptr) {
        if (durable_.knows(id)) {
          // A shard the durable store knows but this worker does not host:
          // we were fenced out of it, handed it over, or never owned it
          // while someone else does. Acking would claim items that were
          // never applied — bail out below, unacked; the sender's retry
          // re-resolves toward the live owner.
          fencedUnknown = true;
          break;
        }
        dropped_.inc(items.size());
        continue;
      }
      if (!slot->splits.empty()) {
        // Partition along the mapping chain: each item follows the FIRST
        // plane it matches, in split order.
        PointSet stay(schema_.dims());
        std::map<ShardId, PointSet> redirect;
        for (std::size_t i = 0; i < items.size(); ++i) {
          const PointRef p = items.at(i);
          ShardId dest = 0;
          for (const auto& [plane, rightId] : slot->splits) {
            if (p.coords[plane.dim] >= plane.cut) {
              dest = rightId;
              break;
            }
          }
          if (dest == 0) {
            stay.push(p);
          } else {
            auto [it, fresh] =
                redirect.try_emplace(dest, PointSet(schema_.dims()));
            it->second.push(p);
          }
        }
        for (auto& [dest, batchItems] : redirect) {
          if (findSlot(dest) != nullptr || dest == id) {
            work.emplace_back(dest, std::move(batchItems));
          } else {
            // Unknown child (lives on another worker): keep the items in
            // the local parent — its image box covers them.
            for (std::size_t i = 0; i < batchItems.size(); ++i)
              stay.push(batchItems.at(i));
          }
        }
        // The addressed shard keeps a record, empty if every item followed
        // the mapping: its log must carry the request's identity, or a
        // retransmission reaching a later owner of that shard (a move, a
        // promotion) would apply the batch a second time.
        if (stay.size() == 0 && id != batch.shard) continue;
        items = std::move(stay);
      }
      Target t;
      t.shard = slot->busy ? slot->queue : slot->shard;
      t.active = slot->activeInserts;
      t.id = id;
      t.epoch = slot->epoch;
      t.items = std::move(items);
      t.active->fetch_add(1, std::memory_order_acq_rel);
      targets.push_back(std::move(t));
    }
  }
  if (fencedUnknown) {
    // Drop the whole batch unacked and silent: the sender's retry
    // re-resolves every member against fresh placement.
    for (const auto& t : targets)
      t.active->fetch_sub(1, std::memory_order_acq_rel);
    fencedOps_.inc();
    abandonRequest(m);
    return;
  }
  std::uint64_t toApply = 0;
  for (const auto& t : targets) toApply += t.items.size();
  // The ack names every slot that absorbed items and that slot's fencing
  // epoch, so servers can reject a fenced zombie's late acks.
  WBulkAck ack{toApply, {}};
  for (const auto& t : targets) ack.stamps.emplace_back(t.id, t.epoch);
  const Blob ackPayload = ack.encode();
  const bool chained = chainsActive_.load(std::memory_order_acquire) != 0;
  std::vector<WalRecord> replRecs;  // parallel to targets when `chained`
  if (!targets.empty()) {
    // Write-ahead of both the apply and the ack, while every target's
    // in-flight count is held (so a concurrent checkpoint cannot truncate
    // between our append and apply). Commits ride the group-commit lane:
    // concurrent batches to the same shard fold into one WAL lock
    // acquisition. If ANY target is fenced, roll back the appends that did
    // land and drop the whole batch unacked: the sender's retry
    // re-partitions against fresh placement.
    bool fenced = false;
    const std::uint64_t walStart = nowNanos();
    for (const auto& t : targets) {
      WalRecord rec = makeWalRecord(m, Op::kWBulkAck, ackPayload, t.items);
      if (chained) replRecs.push_back(rec);
      if (!groupCommit_.commit(t.id, t.epoch, std::move(rec))) {
        fenced = true;
        break;
      }
    }
    const std::uint64_t walDone = nowNanos();
    walAppendNs_.record(walDone - walStart);
    if (!fenced && m.traced()) stamp(hops, TraceStage::kWorkerWal, walDone);
    if (fenced) {
      for (const auto& t : targets) {
        durable_.rollback(t.id, m.from, m.corr);
        t.active->fetch_sub(1, std::memory_order_acq_rel);
      }
      fencedOps_.inc();
      abandonRequest(m);
      for (const auto& t : targets) fenceSlot(t.id);
      return;
    }
  }
  std::uint64_t applied = 0;
  const std::uint64_t applyStart = nowNanos();
  for (auto& t : targets) {
    // Hilbert-presorted batch apply: sibling points share descent paths and
    // the bounds/size bookkeeping is amortized over the batch.
    t.shard->bulkInsert(t.items);
    applied += t.items.size();
  }
  const std::uint64_t applyDone = nowNanos();
  if (!targets.empty()) batchApplyNs_.record(applyDone - applyStart);
  inserts_.inc(applied);
  if (m.traced()) stamp(hops, TraceStage::kWorkerApplied, applyDone);
  bool deferred = false;
  if (chained && replRecs.size() == targets.size()) {
    auto d = std::make_shared<DeferredAck>();
    d->from = m.from;
    d->corr = m.corr;
    d->ackOp = static_cast<std::uint16_t>(Op::kWBulkAck);
    d->payload = ackPayload;
    if (m.traced()) {
      d->traceId = m.traceId;
      d->hops = m.hops;
      d->hops.insert(d->hops.end(), hops.begin(), hops.end());
    }
    // Forward while every target's in-flight ticket is still held: a
    // reconfig snapshot drains tickets under slotsMu_, so a record must not
    // be covered by both the snapshot and the chain, nor missed by both.
    for (std::size_t i = 0; i < targets.size(); ++i)
      deferred |= replicateRecord(targets[i].id, targets[i].epoch,
                                  std::move(replRecs[i]), d,
                                  m.traced() ? &d->hops : nullptr);
  }
  for (const auto& t : targets)
    t.active->fetch_sub(1, std::memory_order_acq_rel);
  if (deferred) return;  // the tail's acks release the client ack
  completeRequest(m, Op::kWBulkAck, ackPayload, std::move(hops));
}

// ---- control path -----------------------------------------------------------

void Worker::handleCreateShard(const Message& m) {
  const CreateShard req = CreateShard::decode(m.payload);
  {
    std::lock_guard lock(slotsMu_);
    if (slots_.count(req.shard) == 0) {
      Slot slot;
      slot.shard = makeShard(req.kind, schema_);
      slot.epoch = durable_.epochOf(req.shard);
      const ShardId id = req.shard;
      auto [it, fresh] = slots_.emplace(id, std::move(slot));
      // Durable birth certificate: without it, a worker that crashes
      // before the first checkpoint would leave nothing to recover the
      // shard's kind (and existence) from.
      checkpointSlotLocked(id, it->second);
    }
  }
  fabric_.send(m.from, makeMessage(Op::kCreateShardAck, m.corr,
                                   workerEndpoint(id_), {}));
}

void Worker::handleSplitShard(const Message& m) {
  const SplitShard req = SplitShard::decode(m.payload);
  auto fail = [&] {
    SplitDone done;
    done.ok = false;
    fabric_.send(m.from, makeMessage(Op::kSplitDone, m.corr,
                                     workerEndpoint(id_), done.encode()));
  };

  std::shared_ptr<Shard> shard;
  std::shared_ptr<std::atomic<std::uint32_t>> active;
  {
    std::lock_guard lock(slotsMu_);
    Slot* slot = findSlot(req.shard);
    if (slot == nullptr || slot->busy || !slot->shard) {
      fail();
      return;
    }
    slot->busy = true;
    slot->queue = makeShard(slot->shard->kind(), schema_);
    shard = slot->shard;
    active = slot->activeInserts;
  }
  drainInserts(*active);

  // SplitQuery + Split (SIII-E) over a consistent snapshot; queries keep
  // running against the original shard + insertion queue throughout.
  PointSet all(schema_.dims());
  all.reserve(shard->size());
  shard->collect(all);
  const Hyperplane h = ShardTree<MdsKey>::balancedHyperplane(schema_, all);
  PointSet leftItems(schema_.dims()), rightItems(schema_.dims());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const PointRef p = all.at(i);
    (p.coords[h.dim] < h.cut ? leftItems : rightItems).push(p);
  }
  if (leftItems.size() == 0 || rightItems.size() == 0) {
    // Degenerate data (all items identical in every dimension): abort.
    std::lock_guard lock(slotsMu_);
    Slot* slot = findSlot(req.shard);
    if (slot != nullptr && slot->busy) {
      drainInserts(*slot->activeInserts);
      PointSet queued(schema_.dims());
      slot->queue->collect(queued);
      slot->shard->bulkLoad(queued);
      slot->queue.reset();
      slot->busy = false;
    }
    fail();
    return;
  }
  auto left = makeShard(shard->kind(), schema_);
  left->bulkLoad(leftItems);
  std::shared_ptr<Shard> right = makeShard(shard->kind(), schema_);
  right->bulkLoad(rightItems);

  SplitDone done;
  {
    std::lock_guard lock(slotsMu_);
    Slot* slot = findSlot(req.shard);
    if (slot == nullptr || !slot->busy) {
      // The slot vanished mid-split (crashed state cleared, or fenced).
      fail();
      return;
    }
    drainInserts(*slot->activeInserts);
    PointSet queued(schema_.dims());
    slot->queue->collect(queued);
    for (std::size_t i = 0; i < queued.size(); ++i) {
      const PointRef p = queued.at(i);
      (p.coords[h.dim] < h.cut ? *left : *right).insert(p);
    }
    slot->shard = std::move(left);
    slot->queue.reset();
    slot->busy = false;
    slot->splits.emplace_back(h, req.newShard);

    Slot rightSlot;
    rightSlot.shard = right;
    rightSlot.epoch = slot->epoch;  // the child inherits the fence epoch
    auto [rit, fresh] = slots_.emplace(req.newShard, std::move(rightSlot));

    done.ok = true;
    done.left = {req.shard, id_, slot->shard->size(), slot->epoch,
                 slot->shard->boundingMds()};
    done.right = {req.newShard, id_, right->size(), rit->second.epoch,
                  right->boundingMds()};

    // Re-checkpoint both halves atomically with the commit (inserts are
    // blocked by slotsMu_, so WAL coverage is exact): a crash after the
    // split must restore the halves, not resurrect the pre-split parent
    // whose WAL was already truncated.
    checkpointSlotLocked(req.shard, *slot);
    checkpointSlotLocked(req.newShard, rit->second);
  }
  // The split invalidated any replication chain for the parent: its
  // replicas mirror the pre-split tree. Drop the chain (releasing any
  // tail-gated acks — the records are locally durable) and let the
  // manager's repair scan rebuild chains for both halves.
  dropChain(req.shard);
  fabric_.send(m.from, makeMessage(Op::kSplitDone, m.corr,
                                   workerEndpoint(id_), done.encode()));
}

// ---- takeover ---------------------------------------------------------------

void Worker::handleRecoverShard(const Message& m) {
  RecoverDone done;
  auto report = [&] {
    fabric_.send(m.from, makeMessage(Op::kRecoverDone, m.corr,
                                     workerEndpoint(id_), done.encode()));
  };
  RecoverShard req;
  try {
    req = RecoverShard::decode(m.payload);
  } catch (const DeserializeError&) {
    report();  // ok = false
    return;
  }
  {
    std::lock_guard lock(slotsMu_);
    Slot* existing = findSlot(req.shard);
    if (existing != nullptr && existing->shard &&
        existing->epoch >= req.epoch) {
      // Duplicate takeover (our Done was lost): re-report the live slot.
      done.ok = true;
      done.info = {req.shard, id_,
                   existing->shard->size() +
                       (existing->queue ? existing->queue->size() : 0),
                   existing->epoch, existing->shard->boundingMds()};
      report();
      return;
    }
  }
  // Build the tree outside the slot lock, and seed the replay cache with
  // the logged acks, so a retransmission of an already-applied request is
  // re-acked under the new epoch instead of applied twice.
  Restored restored;
  if (req.fromMirror) {
    ReplicaShard rs;
    {
      std::lock_guard lock(replMu_);
      auto it = replicaShards_.find(req.shard);
      if (it == replicaShards_.end() || !it->second.shard) {
        report();  // ok = false: the supervisor falls back to cold recovery
        return;
      }
      rs = std::move(it->second);
      replicaShards_.erase(it);
    }
    // Stashed gaps and relay windows die here: nothing in them was ever
    // client-acked (the tail never confirmed past rs.lastApplied before the
    // primary died), so the senders' retransmissions re-apply them against
    // the new slot — exactly once, via the replay cache.
    seedReplayCache(req.shard, req.epoch, rs.log);
    restored = {std::move(rs.shard), std::move(rs.splits)};
  } else {
    // Checkpoint first, then the WAL tail in append order (the supervisor
    // fenced the store before snapshotting, so nothing can have been
    // appended after this state was read).
    try {
      restored = restoreCheckpoint(schema_, req.checkpoint);
      for (const auto& rec : req.wal) {
        ByteReader r(rec.items);
        restored.tree->bulkLoad(PointSet::deserialize(r));
      }
    } catch (const DeserializeError&) {
      report();  // ok = false: corrupt durable state; supervisor gives up
      return;
    }
    // Both the applied index (requests older checkpoints folded away) and
    // the WAL tail.
    seedReplayCache(req.shard, req.epoch, req.applied);
    seedReplayCache(req.shard, req.epoch, req.wal);
  }
  {
    std::lock_guard lock(slotsMu_);
    Slot slot;
    slot.shard = std::move(restored.tree);
    slot.splits = std::move(restored.splits);
    slot.epoch = req.epoch;
    // The takeover checkpoint claims WAL ownership under the new epoch.
    // Failure means the supervisor re-fenced (it gave up on us and moved
    // on): report failure so no stale Done wins over the newer takeover.
    if (!checkpointSlotLocked(req.shard, slot)) {
      fencedOps_.inc();
      report();  // ok = false
      return;
    }
    done.info = {req.shard, id_, slot.shard->size(), req.epoch,
                 slot.shard->boundingMds()};
    slots_[req.shard] = std::move(slot);
    // A mirror of a shard this worker now hosts is stale: no chain feeds
    // it, and the unfed-mirror sweep spares shards the image says we own.
    std::lock_guard rlock(replMu_);
    replicaShards_.erase(req.shard);
  }
  done.ok = true;
  if (!req.fromMirror) recovered_.inc();
  report();
}

bool Worker::checkpointSlotLocked(ShardId id, const Slot& slot) {
  TransferShard ckpt;
  ckpt.shard = id;
  ckpt.epoch = slot.epoch;
  ckpt.blob = slot.shard->serializeShard();
  ckpt.splits = slot.splits;
  if (!durable_.saveCheckpoint(id, slot.epoch, id_, ckpt.encode()))
    return false;
  checkpoints_.inc();
  return true;
}

void Worker::checkpointShards() {
  std::vector<ShardId> ids;
  {
    std::lock_guard lock(slotsMu_);
    for (const auto& [id, slot] : slots_)
      if (!slot.busy && slot.shard) ids.push_back(id);
  }
  std::vector<ShardId> shed;
  for (ShardId id : ids) {
    std::lock_guard lock(slotsMu_);
    Slot* slot = findSlot(id);
    if (slot == nullptr || slot->busy || !slot->shard) continue;
    // With slotsMu_ held and in-flight inserts drained, the shard contents
    // equal exactly the checkpoint's WAL coverage: appends happen while
    // holding an activeInserts ticket acquired under slotsMu_.
    drainInserts(*slot->activeInserts);
    if (!checkpointSlotLocked(id, *slot)) shed.push_back(id);
  }
  for (ShardId id : shed) fenceSlot(id);
}

void Worker::dropUnfedMirrors() {
  std::vector<std::pair<ShardId, std::uint64_t>> mirrors;  // shard, epoch
  {
    std::lock_guard lock(replMu_);
    for (const auto& [id, rs] : replicaShards_)
      mirrors.emplace_back(id, rs.epoch);
  }
  for (const auto& [id, epoch] : mirrors) {
    const auto cur = zk_.get(shardPath(id));
    if (!cur.has_value()) continue;
    ShardInfo info;
    try {
      ByteReader r(cur->data);
      info = ShardInfo::deserialize(r);
    } catch (const DeserializeError&) {
      continue;
    }
    if (info.epoch <= epoch || info.worker == id_ ||
        std::find(info.replicas.begin(), info.replicas.end(), id_) !=
            info.replicas.end())
      continue;
    std::lock_guard lock(replMu_);
    auto it = replicaShards_.find(id);
    // A seed under the image's epoch may have landed since the read.
    if (it != replicaShards_.end() && it->second.epoch < info.epoch)
      replicaShards_.erase(it);
  }
}

bool Worker::fenceSlot(ShardId id, const std::vector<WorkerId>* successors) {
  {
    std::lock_guard lock(slotsMu_);
    auto it = slots_.find(id);
    if (it == slots_.end()) return true;
    // A busy slot belongs to a split, whose own appends fail; an unfenced
    // one is still ours.
    if (it->second.busy || durable_.epochOf(id) <= it->second.epoch)
      return false;
    // Every insert holding a ticket has forwarded its record (its ack is
    // parked on the chain, cancelled below) or failed its append; none is
    // left to ack after the chain is gone.
    drainInserts(*it->second.activeInserts);
    slots_.erase(it);
  }
  fencedShards_.inc();
  std::vector<std::shared_ptr<DeferredAck>> none;
  std::lock_guard lock(replMu_);
  dropChainLocked(id, none, /*fenced=*/true, successors);
  return true;
}

// ---- replication ------------------------------------------------------------
//
// Chain-replicated WALs (see src/repl/repl.hpp). Lock order on these
// paths: slotsMu_ -> replMu_ -> dedupMu_, never the reverse.
// fabric_.send only enqueues, so sending under replMu_ is safe; keeper
// calls (zk_) are RPCs and are never made under replMu_.

void Worker::completeDeferred(const std::shared_ptr<DeferredAck>& d) {
  {
    std::lock_guard lock(dedupMu_);
    inFlightMsgs_.erase(d->from + '#' + std::to_string(d->corr));
    replay_.remember(d->from, d->corr, d->ackOp, d->payload);
  }
  Message ack = makeMessage(static_cast<Op>(d->ackOp), d->corr,
                            workerEndpoint(id_), std::move(d->payload));
  if (d->traceId != 0) {
    ack.traceId = d->traceId;
    ack.hops = std::move(d->hops);
  }
  fabric_.send(d->from, std::move(ack));
}

bool Worker::replicateRecord(ShardId shard, std::uint64_t epoch,
                             WalRecord rec,
                             const std::shared_ptr<DeferredAck>& ack,
                             std::vector<TraceHop>* hops) {
  if (chainsActive_.load(std::memory_order_acquire) == 0) return false;
  std::string dest;
  Message out;
  {
    std::lock_guard lock(replMu_);
    auto it = chains_.find(shard);
    if (it == chains_.end()) return false;
    ChainState& cs = it->second;
    if (cs.chain.size() < 2 || cs.epoch != epoch) return false;
    const std::uint64_t now = nowNanos();
    const std::uint64_t idx = cs.nextIndex++;
    ReplAppend app;
    app.shard = shard;
    app.epoch = epoch;
    app.logIndex = idx;
    app.sendNanos = now;
    app.chain = cs.chain;
    app.records.push_back(std::move(rec));
    ReplOutEntry e;
    e.payload = SharedBlob(app.encode());
    e.corr = nextCorr_.fetch_add(1);
    e.attempts = 1;
    e.sendNanos = now;
    e.dueNanos = now + retryDelayNanos(cfg_.transferRetry, 1, replRng_);
    if (ack != nullptr) {
      e.clientAcks.push_back(ack);
      ++ack->remaining;
    }
    dest = workerEndpoint(cs.chain[1]);
    out = makeMessage(Op::kReplAppend, e.corr, workerEndpoint(id_),
                      e.payload);
    if (hops != nullptr && ack != nullptr && ack->traceId != 0) {
      stamp(*hops, TraceStage::kReplForward, now);
      e.traceId = ack->traceId;
      e.hops = *hops;
      out.traceId = ack->traceId;
      out.hops = *hops;
    }
    cs.window.emplace(idx, std::move(e));
    replForwarded_.inc();
  }
  fabric_.send(dest, std::move(out));
  return true;
}

void Worker::handleReplAppend(const Message& m) {
  ReplAppend app;
  try {
    app = ReplAppend::decode(m.payload);
  } catch (const DeserializeError&) {
    return;
  }
  std::size_t pos = app.chain.size();
  for (std::size_t i = 0; i < app.chain.size(); ++i)
    if (app.chain[i] == id_) {
      pos = i;
      break;
    }
  if (pos == app.chain.size() || pos == 0) return;  // stale membership
  {
    // A zombie old primary may keep forwarding after this worker was
    // promoted: a live slot for the shard outranks any replica role.
    std::lock_guard lock(slotsMu_);
    Slot* slot = findSlot(app.shard);
    if (slot != nullptr && slot->shard) {
      fencedOps_.inc();
      return;
    }
  }
  const ShardId shardId = app.shard;
  const std::uint64_t arrivedIdx = app.logIndex;
  const bool tail = pos + 1 == app.chain.size();
  struct Send {
    std::string dest;
    Message msg;
  };
  std::vector<Send> sends;
  {
    std::lock_guard lock(replMu_);
    auto it = replicaShards_.find(shardId);
    if (it == replicaShards_.end()) return;  // unseeded; primary retries
    ReplicaShard& rs = it->second;
    if (app.epoch != rs.epoch) {
      // Lower epoch: a fenced chain's zombie stream — drop silently (no
      // ack, so its window exhausts). Higher: wait for the fresh seed.
      if (app.epoch < rs.epoch) fencedOps_.inc();
      return;
    }
    if (arrivedIdx <= rs.lastApplied) {
      // Duplicate (retransmission; our ack or relay was lost). Re-ack
      // cumulatively — but an intermediate only up to what the tail
      // confirmed, or the entry would count as chain-durable early.
      const std::uint64_t ackedThrough =
          tail ? rs.lastApplied
               : (rs.out.empty() ? rs.lastApplied
                                 : rs.out.begin()->first - 1);
      if (arrivedIdx <= ackedThrough)
        sends.push_back(
            {m.from,
             makeMessage(Op::kReplAck, m.corr, workerEndpoint(id_),
                         ReplAck{shardId, rs.epoch, ackedThrough}.encode())});
    } else {
      rs.chain = app.chain;  // membership travels with every append
      rs.stash.emplace(arrivedIdx, std::move(app));
      const std::uint64_t now = nowNanos();
      bool advanced = false;
      while (true) {
        auto sit = rs.stash.find(rs.lastApplied + 1);
        if (sit == rs.stash.end()) break;
        ReplAppend cur = std::move(sit->second);
        rs.stash.erase(sit);
        const std::uint64_t idx = cur.logIndex;
        const bool immediate = idx == arrivedIdx;
        // Forward bytes are fixed BEFORE the apply clears record items:
        // the immediate entry reuses the wire blob verbatim, drained
        // stash entries re-encode.
        SharedBlob fwdBytes;
        if (!tail)
          fwdBytes = immediate ? m.payload : SharedBlob(cur.encode());
        for (auto& rec : cur.records) {
          try {
            ByteReader rr(rec.items);
            PointSet items = PointSet::deserialize(rr);
            if (rs.shard) rs.shard->bulkInsert(items);
          } catch (const DeserializeError&) {
            dropped_.inc();  // poisoned record body; keep the dedup id
          }
          rec.items.clear();
          rs.log.push_back(std::move(rec));
        }
        while (rs.log.size() > kReplLogCap) rs.log.pop_front();
        rs.lastApplied = idx;
        advanced = true;
        replLagNs_.record(now >= cur.sendNanos ? now - cur.sendNanos : 0);
        replApplied_.inc();
        if (!tail) {
          ReplOutEntry e;
          e.payload = fwdBytes;
          e.corr = nextCorr_.fetch_add(1);
          e.attempts = 1;
          e.sendNanos = cur.sendNanos;
          e.dueNanos =
              now + retryDelayNanos(cfg_.transferRetry, 1, replRng_);
          e.ackTo = m.from;
          e.ackCorr = m.corr;
          Message fwd = makeMessage(Op::kReplAppend, e.corr,
                                    workerEndpoint(id_), fwdBytes);
          if (immediate && m.traced()) {
            fwd.traceId = m.traceId;
            fwd.hops = m.hops;
            stamp(fwd.hops, TraceStage::kReplApplied, now);
            e.traceId = m.traceId;
          }
          sends.push_back(
              {workerEndpoint(cur.chain[pos + 1]), std::move(fwd)});
          rs.out.emplace(idx, std::move(e));
        }
      }
      if (tail && advanced) {
        Message ackMsg =
            makeMessage(Op::kReplAck, m.corr, workerEndpoint(id_),
                        ReplAck{shardId, rs.epoch, rs.lastApplied}.encode());
        if (m.traced()) {
          ackMsg.traceId = m.traceId;
          ackMsg.hops = m.hops;
          stamp(ackMsg.hops, TraceStage::kReplApplied, now);
        }
        sends.push_back({m.from, std::move(ackMsg)});
      }
    }
  }
  for (auto& s : sends) fabric_.send(s.dest, std::move(s.msg));
}

void Worker::handleReplAck(const Message& m) {
  ReplAck ack;
  try {
    ack = ReplAck::decode(m.payload);
  } catch (const DeserializeError&) {
    return;
  }
  std::vector<std::shared_ptr<DeferredAck>> done;
  std::string relayTo;
  Message relay;
  {
    std::lock_guard lock(replMu_);
    auto cit = chains_.find(ack.shard);
    if (cit != chains_.end() && cit->second.epoch == ack.epoch) {
      // Primary: the tail confirmed everything at or below logIndex — the
      // entries are on every chain member, release their client acks.
      ChainState& cs = cit->second;
      const std::uint64_t now = nowNanos();
      for (auto it = cs.window.begin();
           it != cs.window.end() && it->first <= ack.logIndex;
           it = cs.window.erase(it)) {
        ReplOutEntry& e = it->second;
        for (auto& d : e.clientAcks) {
          if (m.traced() && e.traceId == m.traceId && e.traceId != 0) {
            d->hops = m.hops;
            stamp(d->hops, TraceStage::kReplTailAck, now);
          }
          if (d->remaining > 0 && --d->remaining == 0) done.push_back(d);
        }
      }
    } else {
      auto rit = replicaShards_.find(ack.shard);
      if (rit != replicaShards_.end() && rit->second.epoch == ack.epoch) {
        // Intermediate: fold the confirmed prefix out of our own window
        // and relay ONE cumulative ack upstream.
        ReplicaShard& rs = rit->second;
        bool any = false;
        std::string upstream;
        std::uint64_t upCorr = 0;
        for (auto it = rs.out.begin();
             it != rs.out.end() && it->first <= ack.logIndex;
             it = rs.out.erase(it)) {
          any = true;
          upstream = it->second.ackTo;
          upCorr = it->second.ackCorr;
        }
        if (any && !upstream.empty()) {
          relayTo = upstream;
          relay = makeMessage(
              Op::kReplAck, upCorr, workerEndpoint(id_),
              ReplAck{ack.shard, ack.epoch, ack.logIndex}.encode());
          if (m.traced()) {
            relay.traceId = m.traceId;
            relay.hops = m.hops;
          }
        }
      }
    }
  }
  for (auto& d : done) completeDeferred(d);
  if (!relayTo.empty()) fabric_.send(relayTo, std::move(relay));
}

std::uint64_t Worker::sweepReplication() {
  struct Resend {
    std::string dest;
    Message msg;
  };
  std::vector<Resend> resend;
  std::vector<std::pair<ShardId, std::uint64_t>> toDrop;  // shard, epoch
  std::vector<ShardId> failedSeeds;
  std::vector<std::vector<std::shared_ptr<DeferredAck>>> dropReleases;
  std::vector<HeldRelease> dueHeld;
  std::uint64_t nextDue = 0;
  const std::uint64_t now = nowNanos();
  auto fold = [&nextDue](std::uint64_t due) {
    if (due != 0) nextDue = nextDue == 0 ? due : std::min(nextDue, due);
  };
  {
    std::lock_guard lock(replMu_);
    if (chains_.empty() && replicaShards_.empty() && heldAcks_.empty())
      return 0;
    for (auto& [shard, cs] : chains_) {
      if (cs.chain.size() < 2) continue;
      bool exhausted = false;
      for (auto& [idx, e] : cs.window) {
        if (e.dueNanos > now) {
          fold(e.dueNanos);
          continue;
        }
        if (e.attempts >= cfg_.transferRetry.maxAttempts) {
          // The successor stopped acking for a full budget: tear the
          // chain down rather than run it wedged (the manager's repair
          // scan rebuilds one with live members).
          exhausted = true;
          break;
        }
        ++e.attempts;
        e.dueNanos =
            now + retryDelayNanos(cfg_.transferRetry, e.attempts, replRng_);
        fold(e.dueNanos);
        resend.push_back(
            {workerEndpoint(cs.chain[1]),
             makeMessage(Op::kReplAppend, e.corr, workerEndpoint(id_),
                         e.payload)});
        retriesSent_.inc();
      }
      if (exhausted) toDrop.emplace_back(shard, cs.epoch);
    }
    for (auto& [shard, rs] : replicaShards_) {
      if (rs.out.empty()) continue;
      std::size_t pos = rs.chain.size();
      for (std::size_t i = 0; i < rs.chain.size(); ++i)
        if (rs.chain[i] == id_) {
          pos = i;
          break;
        }
      const bool haveSucc =
          pos != rs.chain.size() && pos + 1 < rs.chain.size();
      for (auto it = rs.out.begin(); it != rs.out.end();) {
        ReplOutEntry& e = it->second;
        if (e.dueNanos > now) {
          fold(e.dueNanos);
          ++it;
          continue;
        }
        if (!haveSucc || e.attempts >= cfg_.transferRetry.maxAttempts) {
          // Applied locally, successor unreachable: give up on the relay.
          // The un-acked client ack lives on the primary, whose own
          // window exhausts independently.
          it = rs.out.erase(it);
          continue;
        }
        ++e.attempts;
        e.dueNanos =
            now + retryDelayNanos(cfg_.transferRetry, e.attempts, replRng_);
        fold(e.dueNanos);
        resend.push_back(
            {workerEndpoint(rs.chain[pos + 1]),
             makeMessage(Op::kReplAppend, e.corr, workerEndpoint(id_),
                         e.payload)});
        retriesSent_.inc();
        ++it;
      }
    }
    for (auto& [corr, ps] : pendingSeeds_) {
      if (ps.dueNanos > now) {
        fold(ps.dueNanos);
        continue;
      }
      if (ps.attempts >= cfg_.transferRetry.maxAttempts) {
        failedSeeds.push_back(ps.shard);
        continue;
      }
      ++ps.attempts;
      ps.dueNanos =
          now + retryDelayNanos(cfg_.transferRetry, ps.attempts, replRng_);
      fold(ps.dueNanos);
      resend.push_back(
          {workerEndpoint(ps.member),
           makeMessage(Op::kReplSeed, corr, workerEndpoint(id_), ps.payload)});
      retriesSent_.inc();
    }
    for (auto& [shard, epoch] : toDrop) {
      dropReleases.emplace_back();
      dropChainLocked(shard, dropReleases.back(), /*fenced=*/false,
                      &kNoSuccessors);
    }
    for (auto it = heldAcks_.begin(); it != heldAcks_.end();) {
      if (it->dueNanos <= now) {
        dueHeld.push_back(std::move(*it));
        it = heldAcks_.erase(it);
      } else {
        fold(it->dueNanos);
        ++it;
      }
    }
  }
  for (auto& r : resend) fabric_.send(r.dest, std::move(r.msg));
  for (std::size_t i = 0; i < toDrop.size(); ++i)
    releaseChainAcks(toDrop[i].first, toDrop[i].second,
                     std::move(dropReleases[i]));
  for (auto& h : dueHeld)
    releaseChainAcks(h.shard, h.epoch, std::move(h.acks));
  // The recruit never confirmed its seed: tear the chain down rather than
  // run it silently under-replicated (the manager re-recruits).
  for (ShardId shard : failedSeeds) dropChain(shard);
  return nextDue;
}

void Worker::reportChainLocked(ChainState& cs, bool torn) {
  if (cs.reportCorr == 0) return;
  RecoverDone done;
  done.ok = true;
  done.info = std::move(cs.reportInfo);
  if (!torn) done.info.replicas.assign(cs.chain.begin() + 1, cs.chain.end());
  fabric_.send(cs.reportTo, makeMessage(Op::kReplReconfigAck, cs.reportCorr,
                                        workerEndpoint(id_), done.encode()));
  cs.reportCorr = 0;
}

void Worker::dropChainLocked(
    ShardId shard, std::vector<std::shared_ptr<DeferredAck>>& release,
    bool fenced, const std::vector<WorkerId>* successors) {
  // Cancel a parked ack: remaining 0 keeps any other tail from sending
  // it, and a retransmission is processed afresh (and refused: no slot).
  auto cancel = [this](DeferredAck& d) {
    d.remaining = 0;
    std::lock_guard dlock(dedupMu_);  // replMu_ -> dedupMu_ is in order
    inFlightMsgs_.erase(d.from + '#' + std::to_string(d.corr));
  };
  if (fenced) {
    std::erase_if(heldAcks_, [&](HeldRelease& h) {
      if (h.shard != shard) return false;
      for (auto& d : h.acks) cancel(*d);
      return true;
    });
  }
  auto it = chains_.find(shard);
  if (it == chains_.end()) return;
  ChainState& cs = it->second;
  for (auto& [idx, e] : cs.window) {
    for (auto& d : e.clientAcks) {
      if (d->remaining == 0) continue;
      if (fenced)
        cancel(*d);
      else if (--d->remaining == 0)
        release.push_back(d);
    }
  }
  if (!cs.window.empty()) replAbandoned_.inc(cs.window.size());
  if (!fenced) reportChainLocked(cs, /*torn=*/true);
  // Fire-and-forget membership notices: former members drop their mirror
  // state (a lost notice is repaired by the next append/reconfig).
  for (std::size_t i = 1; successors != nullptr && i < cs.chain.size(); ++i)
    if (std::find(successors->begin(), successors->end(), cs.chain[i]) ==
        successors->end())
      fabric_.send(workerEndpoint(cs.chain[i]),
                   makeMessage(Op::kReplReconfig, 0, workerEndpoint(id_),
                               ReplReconfig{shard, {id_}}.encode()));
  std::erase_if(pendingSeeds_, [shard](const auto& entry) {
    return entry.second.shard == shard;
  });
  chains_.erase(it);
  chainsActive_.fetch_sub(1, std::memory_order_acq_rel);
}

void Worker::dropChain(ShardId shard) {
  std::vector<std::shared_ptr<DeferredAck>> release;
  std::uint64_t epoch = 0;
  {
    std::lock_guard lock(replMu_);
    auto it = chains_.find(shard);
    if (it == chains_.end()) return;
    epoch = it->second.epoch;
    dropChainLocked(shard, release, /*fenced=*/false, &kNoSuccessors);
  }
  releaseChainAcks(shard, epoch, std::move(release));
}

bool Worker::clearChainInImage(ShardId shard, std::uint64_t epoch) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    auto cur = zk_.get(shardPath(shard));
    if (!cur.has_value()) return true;  // nothing anyone could promote from
    ShardInfo stored;
    try {
      ByteReader r(cur->data);
      stored = ShardInfo::deserialize(r);
    } catch (const DeserializeError&) {
      return false;
    }
    if (stored.replicas.empty()) return true;  // no promotion candidates
    if (stored.epoch > epoch || stored.worker != id_) {
      // The image moved past this chain (promotion or re-hosting already
      // committed). Releasing is NOT provably safe — hold until the new
      // state settles (the next sweep re-evaluates).
      return false;
    }
    stored.replicas.clear();
    ByteWriter out;
    stored.serialize(out);
    if (zk_.set(shardPath(shard), out.take(), cur->version).has_value())
      return true;
  }
  return false;  // persistent CAS contention: retry later
}

void Worker::releaseChainAcks(ShardId shard, std::uint64_t epoch,
                              std::vector<std::shared_ptr<DeferredAck>> acks) {
  if (acks.empty()) return;
  if (clearChainInImage(shard, epoch)) {
    for (auto& d : acks) completeDeferred(d);
    return;
  }
  std::lock_guard lock(replMu_);
  heldAcks_.push_back(
      {shard, epoch, std::move(acks),
       nowNanos() + retryDelayNanos(cfg_.transferRetry, 1, replRng_)});
}

void Worker::handleReplSeed(const Message& m) {
  ReplSeed seed;
  try {
    seed = ReplSeed::decode(m.payload);
  } catch (const DeserializeError&) {
    return;
  }
  {
    std::lock_guard lock(slotsMu_);
    Slot* slot = findSlot(seed.shard);
    if (slot != nullptr && slot->shard)
      return;  // we host this shard live; refusing to also mirror it
  }
  Restored restored;
  try {
    restored = restoreCheckpoint(schema_, seed.checkpoint);
  } catch (const DeserializeError&) {
    return;  // corrupt seed; the primary's retransmission re-sends it
  }
  // CRC-framed dedup tail: a torn or corrupted tail truncates to the
  // intact prefix (the data itself rides the checkpoint; this only narrows
  // the replay-dedup window).
  WalSegmentOpen seg = openWalSegment(seed.segment);
  {
    std::lock_guard lock(replMu_);
    auto it = replicaShards_.find(seed.shard);
    const bool dup = it != replicaShards_.end() &&
                     it->second.epoch == seed.epoch &&
                     it->second.lastApplied >= seed.startIndex;
    if (!dup) {
      if (it != replicaShards_.end() && it->second.epoch > seed.epoch) {
        fencedOps_.inc();  // stale seed from a fenced chain: never ack
        return;
      }
      ReplicaShard rs;
      rs.shard = std::move(restored.tree);
      rs.chain = seed.chain;
      rs.epoch = seed.epoch;
      rs.lastApplied = seed.startIndex;
      rs.splits = std::move(restored.splits);
      for (auto& rec : seg.records) {
        rec.items.clear();  // identity only; the data is in the checkpoint
        rs.log.push_back(std::move(rec));
      }
      while (rs.log.size() > kReplLogCap) rs.log.pop_front();
      replicaShards_[seed.shard] = std::move(rs);
      replSeeded_.inc();
    }
  }
  fabric_.send(m.from,
               makeMessage(Op::kReplSeedAck, m.corr, workerEndpoint(id_),
                           ReplSeedAck{seed.shard, seed.startIndex}.encode()));
}

void Worker::handleReplSeedAck(const Message& m) {
  std::lock_guard lock(replMu_);
  auto it = pendingSeeds_.find(m.corr);
  if (it == pendingSeeds_.end()) return;  // duplicate ack
  auto cit = chains_.find(it->second.shard);
  if (cit != chains_.end()) {
    ChainState& cs = cit->second;
    cs.seeded.insert(it->second.member);
    if (cs.seeded.size() + 1 == cs.chain.size())
      reportChainLocked(cs, /*torn=*/false);
  }
  pendingSeeds_.erase(it);
}

void Worker::handleReplReconfig(const Message& m) {
  ReplReconfig req;
  try {
    req = ReplReconfig::decode(m.payload);
  } catch (const DeserializeError&) {
    return;
  }
  const bool fromManager = m.corr != 0;
  if (req.chain.empty() || req.chain[0] != id_) {
    if (std::find(req.chain.begin(), req.chain.end(), id_) ==
        req.chain.end()) {
      // Removed from the chain: drop the mirror. (Members keep their
      // state — fresh membership arrives with every append.)
      std::lock_guard lock(replMu_);
      replicaShards_.erase(req.shard);
    }
    // A handover names the shard's next owner: shed our slot if the store
    // fenced it, and ack once we host nothing of the shard.
    const bool released = fenceSlot(req.shard, &req.chain);
    if (!fromManager) return;
    RecoverDone done;
    done.ok = released;
    done.info.id = req.shard;
    fabric_.send(m.from, makeMessage(Op::kReplReconfigAck, m.corr,
                                     workerEndpoint(id_), done.encode()));
    return;
  }
  bool haveSlot = false;
  bool hadOld = false;
  std::uint64_t oldEpoch = 0;
  std::vector<std::shared_ptr<DeferredAck>> release;
  SharedBlob seedPayload;
  std::vector<std::pair<WorkerId, std::uint64_t>> seeds;  // member, corr
  {
    std::lock_guard lock(slotsMu_);
    Slot* slot = findSlot(req.shard);
    if (slot != nullptr && !slot->busy && slot->shard) {
      haveSlot = true;
      const std::uint64_t epoch = slot->epoch;
      ChainState order;
      order.chain = req.chain;
      order.epoch = epoch;
      if (fromManager) {
        order.reportTo = m.from;
        order.reportCorr = m.corr;
        order.reportInfo = {req.shard, id_, slot->shard->size(), epoch,
                            slot->shard->boundingMds(), {}};
      }
      {
        std::lock_guard rlock(replMu_);
        auto old = chains_.find(req.shard);
        if (old != chains_.end() && old->second.chain == req.chain &&
            old->second.epoch == epoch) {
          // A retransmitted order for the chain we already run: keep its
          // seeds going and ack once they have all landed.
          ChainState& cs = old->second;
          cs.reportTo = std::move(order.reportTo);
          cs.reportCorr = order.reportCorr;
          cs.reportInfo = std::move(order.reportInfo);
          if (cs.seeded.size() + 1 == cs.chain.size())
            reportChainLocked(cs, /*torn=*/false);
          return;
        }
      }
      // Drain in-flight inserts (without replMu_: an insert holding a
      // ticket may be waiting for it in replicateRecord): every applied
      // record either completed its replicateRecord (entry in the OLD
      // chain, data in this snapshot) or never saw a chain — the snapshot
      // plus appends past startIndex on the new chain is exactly-once by
      // construction.
      drainInserts(*slot->activeInserts);
      // Log indices continue above every index an earlier chain of this
      // shard used (each append also drew a corr), so a member kept from
      // the old chain takes the new seed and drops the old chain's late
      // appends as duplicates.
      const std::uint64_t startIndex = nextCorr_.fetch_add(1);
      if (req.chain.size() >= 2) {
        TransferShard snap;
        snap.shard = req.shard;
        snap.epoch = epoch;
        snap.blob = slot->shard->serializeShard();
        snap.splits = slot->splits;
        std::vector<WalRecord> tail = durable_.dedupTail(req.shard);
        for (auto& rec : tail) rec.items.clear();
        seedPayload = SharedBlob(ReplSeed{req.shard, epoch, startIndex,
                                          req.chain, snap.encode(),
                                          encodeWalSegment(tail)}
                                     .encode());
      }
      std::lock_guard rlock(replMu_);
      auto old = chains_.find(req.shard);
      if (old != chains_.end()) {
        hadOld = true;
        oldEpoch = old->second.epoch;
        dropChainLocked(req.shard, release, /*fenced=*/false, &req.chain);
      }
      if (req.chain.size() < 2) {
        reportChainLocked(order, /*torn=*/false);  // unreplicated: no seeds
      } else {
        order.nextIndex = startIndex + 1;
        const std::uint64_t due =
            nowNanos() + retryDelayNanos(cfg_.transferRetry, 1, replRng_);
        for (std::size_t i = 1; i < req.chain.size(); ++i) {
          const std::uint64_t corr = nextCorr_.fetch_add(1);
          pendingSeeds_[corr] = {req.shard, req.chain[i], seedPayload, 1, due};
          seeds.emplace_back(req.chain[i], corr);
        }
        chains_.emplace(req.shard, std::move(order));
        chainsActive_.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  }
  if (hadOld) releaseChainAcks(req.shard, oldEpoch, std::move(release));
  if (!haveSlot) {
    if (!fromManager) return;
    fabric_.send(m.from, makeMessage(Op::kReplReconfigAck, m.corr,
                                     workerEndpoint(id_),
                                     RecoverDone{}.encode()));  // ok = false
    return;
  }
  for (const auto& [member, corr] : seeds)
    fabric_.send(workerEndpoint(member),
                 makeMessage(Op::kReplSeed, corr, workerEndpoint(id_),
                             seedPayload));
}

// ---- statistics -------------------------------------------------------------

void Worker::pushStats() {
  WorkerStats stats;
  stats.id = id_;
  std::vector<std::pair<ShardId, ShardInfo>> shardInfos;
  {
    std::lock_guard lock(slotsMu_);
    for (const auto& [id, slot] : slots_) {
      if (!slot.shard) continue;
      const std::uint64_t n =
          slot.shard->size() + (slot.queue ? slot.queue->size() : 0);
      stats.totalItems += n;
      stats.shardCount++;
      stats.memoryBytes += slot.shard->memoryUse();
      ShardInfo info;
      info.id = id;
      info.worker = id_;
      info.count = n;
      info.epoch = slot.epoch;
      info.box = slot.shard->boundingMds();
      shardInfos.emplace_back(id, std::move(info));
    }
  }
  // The hosting primary is authoritative for chain membership: it
  // publishes the seeded successors, in chain order (empty =
  // unreplicated). A member still waiting for its seed holds nothing, so
  // it is no promotion candidate.
  const auto seededReplicas = [this](ShardId id) {
    std::vector<WorkerId> out;
    std::lock_guard lock(replMu_);
    auto it = chains_.find(id);
    if (it != chains_.end())
      for (WorkerId w : it->second.chain)
        if (it->second.seeded.count(w) != 0) out.push_back(w);
    return out;
  };
  ByteWriter w;
  stats.serialize(w);
  if (!zk_.set(workerPath(id_), w.data()).has_value())
    zk_.create(workerPath(id_), w.take());

  // Liveness heartbeat: the manager skips workers whose heartbeat is stale
  // when picking migration targets.
  ByteWriter hb;
  hb.u64(nowNanos());
  if (!zk_.set(alivePath(id_), hb.data()).has_value())
    zk_.create(alivePath(id_), hb.take());

  // CAS-merge per-shard count/box into the system image (SIII-B: workers
  // update shard statistics periodically for the manager).
  std::vector<ShardId> fenced;
  for (auto& [id, info] : shardInfos) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      auto cur = zk_.get(shardPath(id));
      // Read the chain after the get: a teardown whose image gate
      // (clearChainInImage) cleared the replicas since then makes the CAS
      // below fail, and the retry reads the dropped chain. A push read
      // earlier would put back members the gate cleared — members that
      // lack acks the gate released.
      info.replicas = seededReplicas(id);
      if (!cur.has_value()) {
        // The registration (e.g. a SplitDone) got lost before it reached
        // the keeper: this worker owns the shard, so it repairs the image.
        ByteWriter out;
        info.serialize(out);
        if (zk_.create(shardPath(id), out.take()).has_value()) break;
        continue;
      }
      ByteReader r(cur->data);
      ShardInfo stored = ShardInfo::deserialize(r);
      if (stored.epoch > info.epoch) {
        // The image moved past us: this shard was fenced and re-hosted
        // while we (a zombie, from the supervisor's viewpoint) kept
        // serving. Shed the slot; do NOT write stats over the new owner's.
        fenced.push_back(id);
        break;
      }
      // The owning worker's count is authoritative; the box only grows.
      // So is its chain view: replicas reflect what this primary actually
      // forwards to, not what the manager last requested.
      stored.mergeFrom(schema_, info, /*takeLocation=*/false,
                       /*takeCount=*/true);
      stored.replicas = info.replicas;
      ByteWriter out;
      stored.serialize(out);
      if (zk_.set(shardPath(id), out.take(), cur->version).has_value())
        break;
    }
  }
  for (ShardId id : fenced) fenceSlot(id);
}

}  // namespace volap
