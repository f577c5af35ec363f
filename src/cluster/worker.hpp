// Worker node (paper SIII-A/E): stores shards, executes insert / aggregate
// query streams on a small thread pool, publishes shard statistics to the
// keeper, and carries out the manager's split plans using the mapping-table
// + insertion-queue scheme of SIII-E, so queries are never interrupted
// while a shard is being split. A shard moves as a chain handover instead
// (the manager appends the target to the shard's replication chain, fences,
// then promotes it; see Manager), so no transfer protocol lives here.
//
// Fault tolerance: the server retransmits lost requests with the same
// correlation id, so workers deduplicate by (sender, corr) — apply once,
// re-ack from a bounded replay cache. Chain seeds carry their own retry
// budget. Each worker also heartbeats a liveness znode so the manager can
// avoid dead move targets.
//
// Durability & fencing: every applied insert is appended to the shard's WAL
// in the cluster's DurableLog *before* its ack goes out, and each shard is
// periodically checkpointed (TransferShard format) with WAL truncation —
// so a crashed worker's shards can be restored elsewhere with zero lost
// acknowledged inserts. Slots carry a fencing epoch: once the manager seals
// the durable store (epoch bump: recovery or a move's handover), this
// worker's appends fail, it stops acking, and it sheds the fenced slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "cluster/protocol.hpp"
#include "cluster/types.hpp"
#include "common/group_commit.hpp"
#include "common/metrics.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/wal.hpp"
#include "keeper/keeper.hpp"
#include "net/fabric.hpp"
#include "repl/repl.hpp"
#include "tree/shard.hpp"

namespace volap {

struct WorkerConfig {
  unsigned threads = 2;  // shard-operation pool ("k parallel threads")
  std::uint64_t statsIntervalNanos = 500'000'000;  // stats push cadence
  /// Checkpoint cadence: each interval, every idle shard is serialized into
  /// the durable store and its WAL truncated. Bounds both recovery-payload
  /// size and WAL memory.
  std::uint64_t checkpointIntervalNanos = 1'000'000'000;
  /// Retry budget for worker-to-worker traffic (chain seeds and appends).
  RetryPolicy transferRetry{100'000'000, 1'000'000'000, 10'000'000, 1.6, 6};
};

class Worker {
 public:
  Worker(Fabric& fabric, const Schema& schema, WorkerId id,
         DurableLog& durable, WorkerConfig cfg = WorkerConfig());
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void stop();

  /// Simulate a process crash: every endpoint this worker owns is unbound
  /// (messages in flight toward it die), the serve loop stops, and all
  /// in-memory state — shards included — is discarded. Only the DurableLog
  /// survives, exactly like a disk. Idempotent.
  void crash();

  WorkerId id() const { return id_; }

  /// Aggregate counters for diagnostics and benches. All are views over
  /// the worker's metrics registry (same numbers a kStats scrape returns).
  std::uint64_t insertsApplied() const { return inserts_.value(); }
  std::uint64_t queriesServed() const { return queries_.value(); }
  /// Items addressed to a shard this worker has never heard of — always 0
  /// in a healthy cluster; tests assert on it.
  std::uint64_t itemsDropped() const { return dropped_.value(); }
  /// Whole batches refused because they carried out-of-domain points.
  std::uint64_t batchesRejected() const { return rejectedBatches_.value(); }
  std::uint64_t itemsHeld() const;
  std::size_t shardCount() const;
  /// Leaves scanned and items tested by queries, and queries answered from
  /// top-level summaries, summed over the shards (primary and replica)
  /// this worker holds now.
  std::uint64_t leavesScanned() const;
  std::uint64_t itemsTested() const;
  std::uint64_t summaryAnswers() const;

  // Fault-tolerance counters.
  std::uint64_t redelivered() const { return redelivered_.value(); }
  std::uint64_t retriesSent() const { return retriesSent_.value(); }
  /// Chain seeds still waiting for their ack (each rides a retry budget).
  std::size_t retryEntries() const;

  // Durability / recovery counters.
  /// Requests refused because the durable store was sealed under this
  /// worker (a fenced zombie cannot ack).
  std::uint64_t fencedOps() const { return fencedOps_.value(); }
  /// Slots shed after discovering a newer epoch (fenced out).
  std::uint64_t fencedShards() const { return fencedShards_.value(); }
  /// Shards rebuilt onto this worker from durable state (cold takeovers;
  /// a takeover from a chain mirror does not count).
  std::uint64_t shardsRecovered() const { return recovered_.value(); }
  std::uint64_t checkpointsTaken() const { return checkpoints_.value(); }

  // Replication counters.
  /// Appends this primary forwarded down a chain.
  std::uint64_t replAppendsForwarded() const {
    return replForwarded_.value();
  }
  /// Appends this worker applied as a chain replica.
  std::uint64_t replAppendsApplied() const { return replApplied_.value(); }
  /// Chains torn down because the successor stopped acking.
  std::uint64_t replAppendsAbandoned() const {
    return replAbandoned_.value();
  }
  /// Replica states installed from a kReplSeed.
  std::uint64_t replSeeds() const { return replSeeded_.value(); }
  /// Shards this worker currently mirrors as a replica.
  std::size_t replicaShardCount() const;

  /// This worker's metrics registry (scraped via kStats).
  MetricsRegistry& metrics() { return metrics_; }
  /// Group-commit batching diagnostics: appendGroup calls / records they
  /// carried. records/groups > 1 means WAL lock acquisitions were folded.
  std::uint64_t groupCommitGroups() const { return groupCommit_.groups(); }
  std::uint64_t groupCommitRecords() const { return groupCommit_.records(); }

 private:
  /// One shard's slot, including the in-flight split overlay of SIII-E:
  /// while `busy`, new items land in `queue` and queries consult shard +
  /// queue; `splits` is the mapping-table entry M_j.
  struct Slot {
    std::shared_ptr<Shard> shard;
    std::shared_ptr<Shard> queue;  // only while busy
    bool busy = false;
    /// Fencing epoch this slot is hosted under. WAL appends carry it; the
    /// manager bumps the durable epoch past it on takeover or handover.
    std::uint64_t epoch = 0;
    /// Mapping-table entry M_j (SIII-E), in split order: each split of
    /// this shard appended (hyperplane, right-child id). Resolution tests
    /// the planes in order; a shard split k times has k entries.
    std::vector<std::pair<Hyperplane, ShardId>> splits;
    /// Inserts in flight against shard/queue; split commits, snapshots and
    /// fencing wait for this to drain (see worker.cpp).
    std::shared_ptr<std::atomic<std::uint32_t>> activeInserts =
        std::make_shared<std::atomic<std::uint32_t>>(0);
  };

  /// Sum of `count(shard)` over every shard held, primary and replica.
  template <typename Count>
  std::uint64_t sumOverShards(Count count) const;

  void serve();
  void handleStats(const Message& m);
  void handleQuery(const Message& m);
  void handleBulk(const Message& m);
  void handleCreateShard(const Message& m);
  void handleSplitShard(const Message& m);
  /// The one takeover command (kRecoverShard): install a fenced shard
  /// under the new epoch from this worker's chain mirror or from shipped
  /// durable state, and answer kRecoverDone.
  void handleRecoverShard(const Message& m);
  void pushStats();

  // ---- replication (chain state under replMu_; lock order: slotsMu_ may
  // be held when taking replMu_, never the reverse) ----
  /// Primary side: if `shard` has an active chain, assign the record a log
  /// index, forward it to the first successor, and park the client ack
  /// until the tail confirms. Returns true when the ack was deferred (the
  /// caller must NOT completeRequest; the in-flight marker stays so
  /// retransmissions keep deduping). `ack`'s remaining count is incremented
  /// per deferred target by this call.
  bool replicateRecord(ShardId shard, std::uint64_t epoch, WalRecord rec,
                       const std::shared_ptr<DeferredAck>& ack,
                       std::vector<TraceHop>* hops);
  void handleReplAppend(const Message& m);
  void handleReplAck(const Message& m);
  void handleReplSeed(const Message& m);
  void handleReplSeedAck(const Message& m);
  void handleReplReconfig(const Message& m);
  /// Retransmit overdue chain appends and seeds; tear down chains whose
  /// successor exhausted the budget, or a recruit its seed's (the whole
  /// chain goes — a partial one would under-replicate silently). Returns
  /// the earliest due time (0 if none).
  std::uint64_t sweepReplication();
  /// Tear down the primary-side chain for `shard`. Caller holds replMu_.
  /// Former members absent from `*successors` get a drop notice (nullptr:
  /// nobody is notified). Unfenced: every parked client ack is appended to
  /// `release` (safe: entries are locally applied and WAL-durable) for
  /// sending outside the lock through the image gate, and a pending
  /// manager reconfig is acked with no replicas. Fenced (the durable store
  /// moved past the chain): parked acks are cancelled, never sent — the
  /// shard's next owner answers their retransmissions.
  void dropChainLocked(ShardId shard,
                       std::vector<std::shared_ptr<DeferredAck>>& release,
                       bool fenced, const std::vector<WorkerId>* successors);
  /// Convenience wrapper for an unfenced drop: lock replMu_, drop (every
  /// member notified), then run the gated release.
  void dropChain(ShardId shard);
  /// Gated release of acks parked on a torn-down chain. Releasing an ack
  /// whose entry never reached the tail is only safe once no one can
  /// promote a stale chain member: the gate CAS-clears `replicas` in the
  /// keeper image first (the manager's promotion path CAS-bumps the same
  /// znode, so exactly one of the two wins). If the gate cannot conclude
  /// yet, the acks are parked in heldAcks_ and retried by
  /// sweepReplication.
  void releaseChainAcks(ShardId shard, std::uint64_t epoch,
                        std::vector<std::shared_ptr<DeferredAck>> acks);
  /// The gate itself: true when it is now safe to release (image entry
  /// absent, replicas already empty, epoch moved past `epoch` — servers
  /// reject stale-epoch insert acks — or our CAS cleared the replicas).
  bool clearChainInImage(ShardId shard, std::uint64_t epoch);
  /// Ack the manager's kReplReconfig for `cs` (if one is pending) with the
  /// chain's replicas, or with none when `torn` — the chain was dropped
  /// before every member was seeded. Caller holds replMu_.
  void reportChainLocked(ChainState& cs, bool torn);
  /// Complete a deferred client ack whose last tail confirmation arrived:
  /// clears the in-flight marker, seeds the replay cache, sends the ack.
  void completeDeferred(const std::shared_ptr<DeferredAck>& d);

  /// Serialize every idle slot into the durable store, truncating its WAL.
  /// Holds slotsMu_ and drains in-flight inserts per slot so the checkpoint
  /// covers exactly the records it truncates.
  void checkpointShards();
  /// Checkpoint one slot. Caller holds slotsMu_ with the slot's inserts
  /// drained (or otherwise quiesced). Returns false if fenced.
  bool checkpointSlotLocked(ShardId id, const Slot& slot);
  /// Drop every mirror no chain feeds any more: its shard's image entry
  /// is at a higher epoch and names this worker neither owner nor
  /// replica. Each such mirror is a whole shard of memory that no drop
  /// notice reaches (e.g. a move's target after another member was
  /// promoted). Runs on the checkpoint tick; keeper reads happen outside
  /// replMu_.
  void dropUnfedMirrors();
  /// Shed the slot for `id` if the durable store fenced it (its epoch is
  /// above the slot's): wait out the slot's in-flight inserts, drop it,
  /// then drop its chain fenced — no parked ack is ever sent. Only a
  /// handover names the `successors` (see dropChainLocked); fencing found
  /// on our own notifies nobody, since a notice to the member a promotion
  /// is about to claim would erase its mirror. Skips busy slots: the split
  /// in flight fails its own appends. Returns true when this worker no
  /// longer hosts `id`.
  bool fenceSlot(ShardId id,
                 const std::vector<WorkerId>* successors = nullptr);

  /// Redelivery dedup: true if this (sender, corr) is new and the caller
  /// should process it; false if it was replayed from cache or is still
  /// being processed by another thread (drop — the sender retries).
  bool beginRequest(const Message& m);
  /// Remember the ack for future redeliveries, then send it to m.from.
  /// For traced requests, `hops` are the worker-side stamps appended after
  /// the request's own hops; the ack echoes the full chain so the server
  /// can assemble the trace. (Replayed acks drop the trace — a trace
  /// follows the first successful attempt only.)
  void completeRequest(const Message& m, Op ackOp, Blob ackPayload,
                       std::vector<TraceHop> hops = {});
  /// Intentionally unacked: forget the in-flight marker so a
  /// retransmission is processed again.
  void abandonRequest(const Message& m);
  /// Seed the replay cache from logged requests of a shard this worker now
  /// holds under `epoch` (a takeover), so
  /// a retransmission of an already-applied request is re-acked, never
  /// re-applied. Bulk acks are re-stamped with `epoch`. `Records` is any
  /// container of WalRecord (a WAL vector, a replica's log deque).
  template <typename Records>
  void seedReplayCache(ShardId shard, std::uint64_t epoch,
                       const Records& recs);

  /// The slot hosted under exactly this shard id, or nullptr. It does not
  /// follow the mapping table: callers resolve split children themselves.
  /// Caller holds slotsMu_.
  Slot* findSlot(ShardId id);

  static std::string msgKey(const Message& m) {
    return m.from + '#' + std::to_string(m.corr);
  }

  Fabric& fabric_;
  const Schema& schema_;
  const WorkerId id_;
  const WorkerConfig cfg_;
  DurableLog& durable_;
  /// Group commit over durable_: concurrent same-shard WAL appends fold
  /// into one lock acquisition (see common/group_commit.hpp).
  GroupCommit groupCommit_;
  std::shared_ptr<Mailbox> inbox_;
  KeeperClient zk_;
  mutable std::mutex slotsMu_;
  std::map<ShardId, Slot> slots_;

  /// Chain replication state. Primary-side chains for hosted shards, the
  /// replica copies this worker mirrors for other primaries, and seeds in
  /// flight (corr -> which member a kReplSeed is catching up, with its
  /// retransmission state).
  mutable std::mutex replMu_;
  std::map<ShardId, ChainState> chains_;
  std::map<ShardId, ReplicaShard> replicaShards_;
  struct PendingSeed {
    ShardId shard = 0;
    WorkerId member = kNoWorker;
    SharedBlob payload;  // the encoded ReplSeed, shared by every member
    unsigned attempts = 1;
    std::uint64_t dueNanos = 0;
  };
  std::unordered_map<std::uint64_t, PendingSeed> pendingSeeds_;
  /// Parked ack releases whose image gate has not concluded yet (see
  /// releaseChainAcks). Swept alongside the retransmit windows.
  struct HeldRelease {
    ShardId shard = 0;
    std::uint64_t epoch = 0;
    std::vector<std::shared_ptr<DeferredAck>> acks;
    std::uint64_t dueNanos = 0;
  };
  std::vector<HeldRelease> heldAcks_;
  /// Number of live primary-side chains. Lets the ingest hot path skip the
  /// replication branch (and the extra WalRecord copy it needs) entirely
  /// when nothing on this worker is replicated — the R=1 configuration
  /// costs one relaxed atomic load per request.
  std::atomic<std::uint32_t> chainsActive_{0};
  Rng replRng_;  // guarded by replMu_ (retry jitter for chain traffic)

  std::mutex dedupMu_;
  DedupCache replay_;
  std::unordered_set<std::string> inFlightMsgs_;

  std::atomic<std::uint64_t> nextCorr_{1};

  // One registry backs every observable number on this worker; the legacy
  // accessors and the kStats scrape read the same handles. Created in the
  // constructor init list — the data path never touches the registry mutex.
  MetricsRegistry metrics_;
  Counter& inserts_;
  Counter& queries_;
  Counter& dropped_;
  Counter& rejectedBatches_;
  Counter& redelivered_;
  Counter& retriesSent_;
  Counter& fencedOps_;
  Counter& fencedShards_;
  Counter& recovered_;
  Counter& checkpoints_;
  Counter& replForwarded_;
  Counter& replApplied_;
  Counter& replAbandoned_;
  Counter& replSeeded_;
  AtomicHistogram& replLagNs_;
  /// Stage timings, recorded per request/batch (not per item, so the
  /// ingest hot path pays clock reads only at batch granularity).
  AtomicHistogram& walAppendNs_;
  AtomicHistogram& batchApplyNs_;
  AtomicHistogram& queryScanNs_;
  std::atomic<bool> crashed_{false};

  // Declared after every piece of state its tasks touch: the pool drains
  // and joins before slots_/counters are destroyed.
  ThreadPool pool_;
  std::thread thread_;
};

}  // namespace volap
