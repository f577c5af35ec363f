// Server node (paper SIII-A/B/C): terminates client sessions, routes
// inserts to the least-overlap shard and scatters queries to every relevant
// worker via its local image, then gathers partial aggregates. The local
// image is synchronized with the global image in the keeper at a
// configurable rate (default 3 s, SIII-B) — pushing locally-grown bounding
// boxes with CAS-merges and applying remote changes via one-shot watches.
//
// Fault tolerance: client requests are deduplicated by (client, corr) —
// retransmissions of an in-flight request are dropped, retransmissions of a
// completed one are answered from a bounded replay cache, so client-side
// retries are exactly-once. Worker-facing requests carry their own
// retry/backoff budget; a query whose budget runs out for some shards
// completes anyway with `partial` set (graceful degradation), while an
// insert whose budget runs out is dropped unacked so the client's retry
// drives end-to-end recovery.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "cluster/local_image.hpp"
#include "cluster/protocol.hpp"
#include "common/metrics.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/rwspin.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "keeper/keeper.hpp"
#include "net/fabric.hpp"

namespace volap {

struct ServerConfig {
  /// Keeper synchronization cadence; the paper's "configurable freshness".
  std::uint64_t syncIntervalNanos = 3'000'000'000;
  unsigned imageFanout = 8;
  /// Request-processing threads sharing the local image (SIII-C: "servers
  /// use many threads, all using the same index in parallel"). The event
  /// loop additionally owns keeper synchronization.
  unsigned threads = 2;
  /// Retry budget for worker-facing requests. Deliberately tighter than the
  /// default client budget so a query degrades to a partial reply before
  /// the client gives up on the whole request.
  RetryPolicy workerRetry{100'000'000, 1'000'000'000, 10'000'000, 1.6, 5};
};

class Server {
 public:
  Server(Fabric& fabric, const Schema& schema, ServerId id,
         ServerConfig cfg = ServerConfig());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void stop();

  ServerId id() const { return id_; }

  struct Stats {
    std::uint64_t insertsRouted = 0;
    std::uint64_t queriesRouted = 0;
    std::uint64_t boxExpansions = 0;  // inserts that grew a routing box
    std::uint64_t syncPushes = 0;     // dirty boxes pushed to the keeper
    std::uint64_t watchEvents = 0;
    std::uint64_t chases = 0;  // re-routed after a shard moved
    // Fault tolerance.
    std::uint64_t workerRetries = 0;    // worker-facing retransmissions
    std::uint64_t insertsDropped = 0;   // insert retry budget exhausted
    std::uint64_t partialQueries = 0;   // replied with partial == true
    std::uint64_t repliesReplayed = 0;  // client retries answered from cache
    std::uint64_t dupRequests = 0;      // client retries dropped (in flight)
    std::uint64_t staleEpochAcks = 0;   // zombie-owner acks rejected
    // Ingest hot path.
    std::uint64_t snapshotHits = 0;     // inserts routed via the snapshot
    std::uint64_t snapshotMisses = 0;   // fell back to exclusive routing
    std::uint64_t coalescedBatches = 0;  // kWBulk batches the coalescer sent
    std::uint64_t coalescedItems = 0;    // client inserts riding them
    // Gauges: all must return to 0 once traffic drains (leak detector).
    std::size_t pendingQueries = 0;
    std::size_t pendingBulks = 0;
    std::size_t retryEntries = 0;
    std::size_t pendingCoalesced = 0;   // coalesced batches awaiting ack
    std::size_t coalesceBuffered = 0;   // items waiting in lane buffers
  };
  Stats stats() const;

  std::size_t knownShards() const {
    return knownShards_.load(std::memory_order_relaxed);
  }

  /// This server's metrics registry (scraped via kStats; tests and the
  /// example driver may also read it in-process).
  MetricsRegistry& metrics() { return metrics_; }
  /// The N slowest completed traces this server assembled.
  const TraceRing& traceRing() const { return traceRing_; }

 private:
  /// The client request behind one coalesced insert: who to ack.
  struct PendingInsert {
    std::string clientEp;
    std::uint64_t clientCorr = 0;
  };
  /// Gather state for one client query, shared by its scatter chunks. Each
  /// chunk (one worker) has its own correlation id, registered before the
  /// send, so a duplicate or late reply simply misses the map — no counter
  /// races.
  struct PendingQuery {
    std::string clientEp;
    std::uint64_t clientCorr = 0;
    QueryBox box;
    unsigned remaining = 0;  // chunks not yet answered or expired
    Aggregate agg;
    std::uint32_t searched = 0;
    std::uint32_t workersAsked = 0;
    std::uint32_t unreachable = 0;  // shards whose chunk exhausted retries
    std::unordered_set<ShardId> queried;
    /// Sampled tracing: hops accumulate here (client, server, echoed worker
    /// scan hops from the chunk that carried the trace); id 0 == untraced.
    Trace trace;
  };
  struct PendingBulk {
    std::string clientEp;
    std::uint64_t clientCorr = 0;
    unsigned remaining = 0;
    std::uint64_t applied = 0;
  };
  /// Retransmission state for one worker-facing request, keyed by the same
  /// corr as its pending entry. The sweep retransmits overdue entries with
  /// the same corr (workers deduplicate) and expires exhausted ones. The
  /// payload is a shared immutable blob — the wire send and every
  /// retransmission read the same allocation instead of copying it.
  struct WireRetry {
    std::string dest;
    Op op = Op::kWBulk;
    SharedBlob payload;
    unsigned attempts = 1;
    std::uint64_t dueNanos = 0;
    std::uint32_t shards = 0;  // query chunks: for unreachable accounting
    /// For kWBulk: the routed shard. Retransmissions re-resolve
    /// the destination through the image, so a request outlives its
    /// original worker — after a crash recovery the SAME request (same
    /// corr) lands on the new owner, whose WAL-seeded dedup recognizes it.
    ShardId shard = 0;
  };

  // --- lock-light insert routing --------------------------------------------
  /// Immutable flattened view of the image's leaves. Insert routing reads
  /// it with no image lock at all (RCU-style: grab the shared_ptr under a
  /// tiny mutex, then route against a snapshot that can never change);
  /// every image mutation rebuilds it under the exclusive image lock.
  /// Correctness: any leaf whose box contains the point is a valid insert
  /// target (queries route by intersection), and boxes only grow — a stale
  /// snapshot can only under-match, falling back to the exclusive path.
  /// Bulk acks check their fencing stamps against it too, so the ack path
  /// never takes imageLock_ either.
  struct RouteSnapshot {
    struct Leaf {
      MdsKey box;
      double volume = 0;
      ShardId shard = 0;
      WorkerId worker = kNoWorker;
      std::uint64_t epoch = 0;  // the image's fencing epoch for the shard
    };
    std::vector<Leaf> leaves;

    std::uint64_t epochOf(ShardId id) const {
      for (const auto& leaf : leaves)
        if (leaf.shard == id) return leaf.epoch;
      return 0;
    }
  };

  // --- ingest coalescing ------------------------------------------------------
  /// One lane per target shard. Every client insert is folded into a kWBulk
  /// batch: one wire message, one correlation id, one retry entry and one
  /// WAL commit per batch instead of per item. A lane keeps at most one
  /// batch in flight: an idle lane sends an arriving item at once, a busy
  /// one buffers it, and the in-flight batch's kWBulkAck (or its parking
  /// once its retry budget is spent) sends the whole buffer as the next
  /// batch. The batch size thus adapts to the worker round trip.
  struct Lane {
    PointSet buf;                        // buffered points, insertion order
    std::vector<PendingInsert> members;  // parallel: who to ack per point
    /// Coalesced batches awaiting ack: 0 or 1, except that a resumed
    /// parked batch (recovery) may ride beside a new one.
    unsigned inFlight = 0;
    /// Traced members parked in the buffer (each ends with kLaneEnqueue).
    /// On flush every one records lane dwell; the first rides the kWBulk
    /// so its remaining hops are stamped worker-side.
    std::vector<Trace> traces;
  };
  /// Pending state for one coalesced batch: every member is acked when the
  /// single kWBulkAck lands.
  struct PendingCoalesced {
    std::vector<PendingInsert> members;
    ShardId shard = 0;
    std::size_t items = 0;
  };
  /// A coalesced batch whose worker retry budget was exhausted, parked for
  /// resume-by-retransmission: when ANY member's client retransmits, the
  /// whole batch is re-issued with the SAME corr and payload (the worker's
  /// dedup must recognize an attempt that landed with only its ack lost;
  /// re-routing under a fresh corr would apply it twice).
  struct DroppedBatch {
    std::string dest;
    SharedBlob payload;
    ShardId shard = 0;
    std::vector<PendingInsert> members;
    std::size_t items = 0;
  };

  void serve();
  void dispatch(const Message& m);
  void bootstrapImage();
  void handleStats(const Message& m);
  /// Finish a traced ingest request: append kServerAck, record the
  /// per-stage histograms (route, lane dwell, WAL, apply, total) and the
  /// freshness lag, and offer the trace to the slow ring.
  void recordIngestTrace(Trace t);
  void handleInsert(const Message& m);
  void handleQuery(const Message& m);
  void handleBulk(const Message& m);
  void handleWorkerQueryReply(const Message& m);
  void handleWorkerBulkAck(const Message& m);
  void handleWatchEvent(const Message& m);
  void refreshShard(ShardId id);
  void refreshShardList();
  void syncPush();
  /// Ask the event loop (it owns zk_) to re-read shard `id` from the
  /// keeper, so the next query routes to its real owner.
  void refreshLater(ShardId id);
  /// Query a split child a worker reported `moved` at the owner in this
  /// server's image; one the image cannot place counts unreachable.
  /// Caller holds pendingMu_.
  void chase(const std::shared_ptr<PendingQuery>& q, ShardId id);
  void finishQuery(PendingQuery& q);
  void finishBulk(PendingBulk& b);
  /// Decode a client payload (a Point, QueryBox or PointSet) with `read`.
  /// One that does not parse, or whose dimension count is not the
  /// schema's, is malformed: counted and nullopt, and the caller drops the
  /// request before it registers anything.
  template <typename T>
  std::optional<T> readClientPayload(const Message& m,
                                     T (*read)(ByteReader&));
  /// True if the request is a duplicate (replayed or dropped) and the
  /// caller must not process it.
  bool dedupClientRequest(const Message& m);
  /// True if `m` retransmits a member of a dropped coalesced batch; the
  /// whole batch was re-issued (same corr/payload) with a fresh budget.
  bool resumeDroppedBatch(const Message& m);

  // --- lock-light routing / coalescing ---------------------------------------
  /// Rebuild the routing snapshot from the image. Caller holds imageLock_
  /// exclusively (every image mutation site calls this before unlocking).
  void rebuildSnapshotLocked();
  std::shared_ptr<const RouteSnapshot> currentSnapshot() const;
  /// Route p via the snapshot: smallest-volume containing leaf, or nullptr
  /// on a miss (the caller falls back to the exclusive image path).
  static const RouteSnapshot::Leaf* snapshotRoute(const RouteSnapshot& snap,
                                                  PointRef p);
  /// Buffer one client insert into its shard's lane, then flush the lane.
  /// `trace` (id 0 == untraced) is parked with the lane and completed when
  /// the batch acks.
  void coalesceInsert(const Message& m, const Point& p, ShardId shard,
                      Trace trace);
  /// Send one lane's buffer as a kWBulk batch; a no-op while the lane has a
  /// batch in flight or nothing buffered. Never called with coalesceMu_ or
  /// pendingMu_ held.
  void flushLane(ShardId shard);
  /// A lane's batch was acked or parked: count it out of flight, then
  /// flush the lane.
  void releaseLane(ShardId shard);
  /// Complete a client request: clears the in-flight marker, remembers the
  /// reply for future retransmissions, and sends it.
  void replyToClient(const std::string& ep, std::uint64_t corr, Op op,
                     Blob payload);
  /// Retransmit overdue worker-facing requests; expire exhausted ones.
  /// Recomputes nextRetryDueNanos_ from the surviving entries. A parked
  /// coalesced batch releases its lane, which then flushes its buffer.
  void sweepRetries();
  /// Record a newly registered retry deadline. Caller holds pendingMu_
  /// (every site that mutates retries_ does), so a plain min-store is
  /// race-free; the event loop reads the atomic without the lock.
  void noteRetryDue(std::uint64_t due) {
    if (due < nextRetryDueNanos_.load(std::memory_order_relaxed))
      nextRetryDueNanos_.store(due, std::memory_order_relaxed);
  }

  static std::string clientKey(const std::string& ep, std::uint64_t corr) {
    return ep + '#' + std::to_string(corr);
  }

  Fabric& fabric_;
  const Schema& schema_;
  const ServerId id_;
  const ServerConfig cfg_;
  std::shared_ptr<Mailbox> inbox_;
  KeeperClient zk_;  // event-loop thread only

  // The shared local image (SIII-C): request threads route under a shared
  // lock for queries and an exclusive lock for inserts that miss the
  // routing snapshot (those expand boxes); synchronization applies remote
  // changes exclusively. The hot insert path routes against snapshot_
  // without touching imageLock_ at all.
  mutable RwSpinLock imageLock_;
  LocalImage image_;
  mutable std::mutex snapMu_;  // guards only the shared_ptr swap/copy
  std::shared_ptr<const RouteSnapshot> snapshot_;

  // Coalescing lanes, keyed by target shard (a shard has one worker at a
  // time, so (worker, shard) lanes degenerate to per-shard lanes). Guarded
  // by coalesceMu_; NEVER held together with pendingMu_ (flush extracts
  // under coalesceMu_, releases, then registers under pendingMu_).
  mutable std::mutex coalesceMu_;
  std::map<ShardId, Lane> lanes_;

  mutable std::mutex pendingMu_;
  /// Earliest dueNanos across retries_ (lower bound; ~0 when empty). The
  /// event loop polls this instead of scanning the whole retry map under
  /// pendingMu_ on every message — the scan now runs only when a deadline
  /// has actually arrived.
  std::atomic<std::uint64_t> nextRetryDueNanos_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> nextCorr_{1};
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingQuery>>
      pendingQueries_;
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingBulk>>
      pendingBulks_;
  std::unordered_map<std::uint64_t, WireRetry> retries_;
  std::unordered_map<std::uint64_t, PendingCoalesced> pendingCoalesced_;
  std::unordered_set<std::string> inFlightClient_;  // (client,corr) pending
  DedupCache replay_;  // completed replies for client retransmissions
  std::unordered_map<std::uint64_t, DroppedBatch> droppedBatches_;  // by corr
  std::unordered_map<std::string, std::uint64_t> droppedBatchIndex_;
  std::deque<std::uint64_t> droppedBatchOrder_;  // FIFO eviction
  Rng rng_;            // guarded by pendingMu_

  // One registry backs every observable number on this server; the legacy
  // Stats struct and the kStats scrape both read from it. Handles are
  // created once, in the constructor init list, so the data path never
  // touches the registry mutex — and gauge callbacks (registered there
  // too) may take pendingMu_/coalesceMu_ at snapshot time without risking
  // inversion.
  MetricsRegistry metrics_;
  Counter& insertsRouted_;
  Counter& queriesRouted_;
  Counter& boxExpansions_;
  Counter& syncPushes_;
  Counter& watchEvents_;
  Counter& chases_;
  Counter& workerRetries_;
  Counter& insertsDropped_;
  Counter& partialQueries_;
  Counter& repliesReplayed_;
  Counter& dupRequests_;
  Counter& staleEpochAcks_;
  Counter& malformedRequests_;
  Counter& snapshotHits_;
  Counter& snapshotMisses_;
  Counter& coalescedBatches_;
  Counter& coalescedItems_;
  // Per-stage trace histograms + freshness lag (see recordIngestTrace).
  AtomicHistogram& ingestRouteNs_;
  AtomicHistogram& ingestLaneDwellNs_;
  AtomicHistogram& ingestWalNs_;
  AtomicHistogram& ingestApplyNs_;
  AtomicHistogram& ingestTotalNs_;
  AtomicHistogram& freshnessLagNs_;
  AtomicHistogram& queryScanNs_;
  AtomicHistogram& queryTotalNs_;
  // The forward→tail-ack leg of traced chained inserts.
  AtomicHistogram& ingestReplNs_;
  TraceRing traceRing_;
  std::atomic<std::size_t> knownShards_{0};

  // Declared after every piece of state its tasks touch: the pool drains
  // and joins before the pending maps and counters are destroyed.
  ThreadPool pool_;
  std::thread thread_;
};

}  // namespace volap
