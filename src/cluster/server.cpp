#include "cluster/server.hpp"

#include <cstdlib>
#include <optional>
#include <vector>

#include "cluster/stats.hpp"
#include "common/clock.hpp"

namespace volap {

Server::Server(Fabric& fabric, const Schema& schema, ServerId id,
               ServerConfig cfg)
    : fabric_(fabric),
      schema_(schema),
      id_(id),
      cfg_(cfg),
      inbox_(fabric.bind(serverEndpoint(id))),
      zk_(fabric, serverEndpoint(id), serverEndpoint(id)),
      image_(schema, cfg.imageFanout),
      rng_(0x73727672ull ^ id),
      insertsRouted_(metrics_.counter("server.inserts_routed")),
      queriesRouted_(metrics_.counter("server.queries_routed")),
      boxExpansions_(metrics_.counter("server.box_expansions")),
      syncPushes_(metrics_.counter("server.sync_pushes")),
      watchEvents_(metrics_.counter("server.watch_events")),
      chases_(metrics_.counter("server.chases")),
      workerRetries_(metrics_.counter("server.worker_retries")),
      insertsDropped_(metrics_.counter("server.inserts_dropped")),
      partialQueries_(metrics_.counter("server.partial_queries")),
      repliesReplayed_(metrics_.counter("server.replies_replayed")),
      dupRequests_(metrics_.counter("server.dup_requests")),
      staleEpochAcks_(metrics_.counter("server.stale_epoch_acks")),
      malformedRequests_(metrics_.counter("server.malformed_requests")),
      snapshotHits_(metrics_.counter("server.snapshot_hits")),
      snapshotMisses_(metrics_.counter("server.snapshot_misses")),
      coalescedBatches_(metrics_.counter("server.coalesce.batches")),
      coalescedItems_(metrics_.counter("server.coalesce.items")),
      ingestRouteNs_(metrics_.histogram("trace.ingest.route_ns")),
      ingestLaneDwellNs_(metrics_.histogram("trace.ingest.lane_dwell_ns")),
      ingestWalNs_(metrics_.histogram("trace.ingest.wal_ns")),
      ingestApplyNs_(metrics_.histogram("trace.ingest.apply_ns")),
      ingestTotalNs_(metrics_.histogram("trace.ingest.total_ns")),
      freshnessLagNs_(metrics_.histogram("ingest.freshness_lag_ns")),
      queryScanNs_(metrics_.histogram("trace.query.scan_ns")),
      queryTotalNs_(metrics_.histogram("trace.query.total_ns")),
      ingestReplNs_(metrics_.histogram("trace.ingest.repl_ns")),
      pool_(cfg.threads) {
  // Pull gauges: evaluated only at snapshot/scrape time, under the same
  // locks stats() takes. Registered before the serve thread starts, so no
  // registration ever races the data path.
  metrics_.gaugeFn("server.pending_queries", [this] {
    std::lock_guard lock(pendingMu_);
    return static_cast<std::int64_t>(pendingQueries_.size());
  });
  metrics_.gaugeFn("server.pending_bulks", [this] {
    std::lock_guard lock(pendingMu_);
    return static_cast<std::int64_t>(pendingBulks_.size());
  });
  metrics_.gaugeFn("server.retry_entries", [this] {
    std::lock_guard lock(pendingMu_);
    return static_cast<std::int64_t>(retries_.size());
  });
  metrics_.gaugeFn("server.pending_coalesced", [this] {
    std::lock_guard lock(pendingMu_);
    return static_cast<std::int64_t>(pendingCoalesced_.size());
  });
  metrics_.gaugeFn("server.coalesce.buffered", [this] {
    std::lock_guard lock(coalesceMu_);
    std::int64_t n = 0;
    for (const auto& [shard, lane] : lanes_) n += lane.buf.size();
    return n;
  });
  metrics_.gaugeFn("server.known_shards", [this] {
    return static_cast<std::int64_t>(
        knownShards_.load(std::memory_order_relaxed));
  });
  thread_ = std::thread([this] { serve(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  inbox_->close();
  if (thread_.joinable()) thread_.join();
}

Server::Stats Server::stats() const {
  // The struct is a registry view: every number here is a Counter handle's
  // value (tests and benches keep their field access; the kStats scrape
  // reads the same counters by name).
  Stats s;
  s.insertsRouted = insertsRouted_.value();
  s.queriesRouted = queriesRouted_.value();
  s.boxExpansions = boxExpansions_.value();
  s.syncPushes = syncPushes_.value();
  s.watchEvents = watchEvents_.value();
  s.chases = chases_.value();
  s.workerRetries = workerRetries_.value();
  s.insertsDropped = insertsDropped_.value();
  s.partialQueries = partialQueries_.value();
  s.repliesReplayed = repliesReplayed_.value();
  s.dupRequests = dupRequests_.value();
  s.staleEpochAcks = staleEpochAcks_.value();
  s.snapshotHits = snapshotHits_.value();
  s.snapshotMisses = snapshotMisses_.value();
  s.coalescedBatches = coalescedBatches_.value();
  s.coalescedItems = coalescedItems_.value();
  {
    std::lock_guard lock(pendingMu_);
    s.pendingQueries = pendingQueries_.size();
    s.pendingBulks = pendingBulks_.size();
    s.retryEntries = retries_.size();
    s.pendingCoalesced = pendingCoalesced_.size();
  }
  {
    std::lock_guard lock(coalesceMu_);
    for (const auto& [shard, lane] : lanes_) s.coalesceBuffered += lane.buf.size();
  }
  return s;
}

void Server::serve() {
  bootstrapImage();
  std::uint64_t nextSync = nowNanos() + cfg_.syncIntervalNanos;
  while (true) {
    std::uint64_t now = nowNanos();
    if (now >= nextSync) {
      syncPush();
      // Re-pull the shard list on the same cadence: a lost watch event (the
      // fabric may drop them) would otherwise blind this server forever.
      refreshShardList();
      nextSync = now + cfg_.syncIntervalNanos;
    }
    // Retry sweep only when the earliest registered deadline has arrived —
    // the common case (nothing due) costs one atomic load instead of a
    // full retries_ scan under pendingMu_ per message.
    if (now >= nextRetryDueNanos_.load(std::memory_order_relaxed))
      sweepRetries();
    // Only keeper sync and retry deadlines need a timer. Lanes have none:
    // an insert, an ack or a parked batch's release is what flushes one.
    const std::uint64_t wake =
        std::min(nextSync, nextRetryDueNanos_.load(std::memory_order_relaxed));
    now = nowNanos();
    auto m = inbox_->recvFor(
        std::chrono::nanoseconds(wake > now ? wake - now : 1));
    if (!m) {
      if (inbox_->closed()) return;
      continue;
    }
    // Keeper synchronization stays on this thread (it owns zk_); light
    // data-path ops (routing an insert, scattering a query, bookkeeping an
    // ack) run inline on the event loop — a pool handoff costs more than
    // the handler itself and serializes on the same locks anyway. Only
    // kBulk goes to the pool: routing a multi-thousand-item chunk would
    // stall the loop, and with it every lane's ack-clocked flush.
    if (m->type == static_cast<std::uint16_t>(KeeperOp::kWatchEvent)) {
      handleWatchEvent(*m);
      continue;
    }
    if (static_cast<Op>(m->type) == Op::kBulk) {
      auto msg = std::make_shared<Message>(std::move(*m));
      pool_.submit([this, msg] { dispatch(*msg); });
      continue;
    }
    dispatch(*m);
  }
}

void Server::dispatch(const Message& m) {
  switch (static_cast<Op>(m.type)) {
    case Op::kInsert: handleInsert(m); break;
    case Op::kQuery: handleQuery(m); break;
    case Op::kBulk: handleBulk(m); break;
    case Op::kWQueryReply: handleWorkerQueryReply(m); break;
    case Op::kWBulkAck: handleWorkerBulkAck(m); break;
    case Op::kStats: handleStats(m); break;
    default: break;
  }
}

// ---- stats plane / tracing --------------------------------------------------

void Server::handleStats(const Message& m) {
  StatsReply reply;
  reply.node = serverEndpoint(id_);
  reply.snapshot = metrics_.snapshot();
  reply.slowTraces = traceRing_.slowest();
  fabric_.send(m.from, makeMessage(Op::kStatsReply, m.corr,
                                   serverEndpoint(id_), reply.encode()));
}

void Server::recordIngestTrace(Trace t) {
  t.hops.push_back(
      {static_cast<std::uint16_t>(TraceStage::kServerAck), nowNanos()});
  const std::uint64_t sent = t.at(TraceStage::kClientSend);
  const std::uint64_t recv = t.at(TraceStage::kWorkerRecv);
  const std::uint64_t wal = t.at(TraceStage::kWorkerWal);
  const std::uint64_t applied = t.at(TraceStage::kWorkerApplied);
  const std::uint64_t acked = t.at(TraceStage::kServerAck);
  if (recv && wal >= recv) ingestWalNs_.record(wal - recv);
  if (wal && applied >= wal) ingestApplyNs_.record(applied - wal);
  // Chained inserts: time from the primary's forward to the tail's ack
  // (the replication leg the client ack waited on).
  const std::uint64_t fwd = t.at(TraceStage::kReplForward);
  const std::uint64_t tack = t.at(TraceStage::kReplTailAck);
  if (fwd && tack >= fwd) ingestReplNs_.record(tack - fwd);
  if (sent) {
    if (applied >= sent) freshnessLagNs_.record(applied - sent);
    if (acked >= sent) ingestTotalNs_.record(acked - sent);
  }
  traceRing_.offer(std::move(t));
}

void Server::bootstrapImage() {
  // Register this server and pull the current system image, arming watches
  // so later changes arrive as notifications (SIII-B: "servers make use of
  // Zookeeper's watch facility ... without wasteful polling").
  zk_.create(serversPath() + "/" + std::to_string(id_), {});
  refreshShardList();
}

void Server::refreshShardList() {
  auto kids = zk_.children(shardsPath(), /*watch=*/true);
  if (!kids.has_value()) return;
  for (const auto& name : *kids) {
    const ShardId id = std::strtoull(name.c_str(), nullptr, 10);
    bool known;
    {
      imageLock_.lock_shared();
      known = image_.hasShard(id);
      imageLock_.unlock_shared();
    }
    if (!known) refreshShard(id);
  }
}

void Server::refreshShard(ShardId id) {
  auto got = zk_.get(shardPath(id), /*watch=*/true);
  if (!got.has_value()) return;
  ByteReader r(got->data);
  try {
    const ShardInfo info = ShardInfo::deserialize(r);
    imageLock_.lock();
    // The snapshot holds what applyRemote reports: boxes, owners, epochs.
    if (image_.applyRemote(info)) rebuildSnapshotLocked();
    knownShards_.store(image_.shardCount(), std::memory_order_relaxed);
    imageLock_.unlock();
  } catch (const DeserializeError&) {
    // Corrupt znode: ignore; the next write will repair it.
  }
}

// ---- lock-light insert routing ----------------------------------------------

void Server::rebuildSnapshotLocked() {
  auto snap = std::make_shared<RouteSnapshot>();
  const std::vector<ShardId> ids = image_.allShards();
  snap->leaves.reserve(ids.size());
  for (ShardId id : ids) {
    RouteSnapshot::Leaf leaf;
    leaf.box = image_.boxOf(id);
    leaf.volume = leaf.box.volume(schema_);
    leaf.shard = id;
    leaf.worker = image_.workerOf(id);
    leaf.epoch = image_.epochOf(id);
    snap->leaves.push_back(std::move(leaf));
  }
  std::lock_guard lock(snapMu_);
  snapshot_ = std::move(snap);
}

std::shared_ptr<const Server::RouteSnapshot> Server::currentSnapshot() const {
  std::lock_guard lock(snapMu_);
  return snapshot_;
}

const Server::RouteSnapshot::Leaf* Server::snapshotRoute(
    const RouteSnapshot& snap, PointRef p) {
  // Smallest-volume containing leaf — the same preference routeInsert has
  // for contained points. A point no leaf contains would grow a box, which
  // only the exclusive image path may do: report a miss.
  const RouteSnapshot::Leaf* best = nullptr;
  for (const auto& leaf : snap.leaves) {
    if (!leaf.box.contains(p)) continue;
    if (best == nullptr || leaf.volume < best->volume) best = &leaf;
  }
  return best;
}

void Server::handleWatchEvent(const Message& m) {
  watchEvents_.inc();
  ByteReader r(m.payload);
  WatchEvent e;
  try {
    e = WatchEvent::deserialize(r);
  } catch (const DeserializeError&) {
    return;
  }
  if (e.kind == WatchEvent::Kind::kChildren && e.path == shardsPath()) {
    refreshShardList();
  } else if (e.kind == WatchEvent::Kind::kData &&
             e.path.rfind(shardsPath() + "/", 0) == 0) {
    const ShardId id = std::strtoull(
        e.path.c_str() + shardsPath().size() + 1, nullptr, 10);
    refreshShard(id);
  }
}

// ---- client-request dedup ---------------------------------------------------

template <typename T>
std::optional<T> Server::readClientPayload(const Message& m,
                                           T (*read)(ByteReader&)) {
  try {
    ByteReader r(m.payload);
    T v = read(r);
    if (v.dims() == schema_.dims()) return v;
  } catch (const DeserializeError&) {
  }
  malformedRequests_.inc();
  return std::nullopt;
}

bool Server::dedupClientRequest(const Message& m) {
  Op replayOp = Op::kInsertAck;
  Blob replayPayload;
  {
    std::lock_guard lock(pendingMu_);
    if (const auto* ack = replay_.find(m.from, m.corr)) {
      replayOp = static_cast<Op>(ack->op);
      replayPayload = ack->payload;
      repliesReplayed_.inc();
    } else if (!inFlightClient_.insert(clientKey(m.from, m.corr)).second) {
      // Still being processed: the reply will go out when it completes.
      dupRequests_.inc();
      return true;
    } else {
      return false;
    }
  }
  fabric_.send(m.from, makeMessage(replayOp, m.corr, serverEndpoint(id_),
                                   std::move(replayPayload)));
  return true;
}

void Server::replyToClient(const std::string& ep, std::uint64_t corr, Op op,
                           Blob payload) {
  {
    std::lock_guard lock(pendingMu_);
    inFlightClient_.erase(clientKey(ep, corr));
    replay_.remember(ep, corr, static_cast<std::uint16_t>(op), payload);
  }
  fabric_.send(ep, makeMessage(op, corr, serverEndpoint(id_),
                               std::move(payload)));
}

// ---- worker-facing retries --------------------------------------------------

void Server::sweepRetries() {
  struct Resend {
    std::string dest;
    Op op;
    std::uint64_t corr;
    SharedBlob payload;
  };
  std::vector<Resend> resend;
  std::vector<std::shared_ptr<PendingQuery>> doneQueries;
  std::vector<std::shared_ptr<PendingBulk>> doneBulks;
  std::vector<ShardId> releasedLanes;  // lanes whose batch was parked
  const std::uint64_t now = nowNanos();
  {
    std::lock_guard lock(pendingMu_);
    std::uint64_t minDue = ~std::uint64_t{0};
    for (auto it = retries_.begin(); it != retries_.end();) {
      WireRetry& rt = it->second;
      if (rt.dueNanos > now) {
        minDue = std::min(minDue, rt.dueNanos);
        ++it;
        continue;
      }
      if (rt.attempts < cfg_.workerRetry.maxAttempts) {
        ++rt.attempts;
        rt.dueNanos =
            now + retryDelayNanos(cfg_.workerRetry, rt.attempts, rng_);
        if (rt.op == Op::kWBulk && rt.shard != 0) {
          // Follow the shard, not the worker: if the image re-homed the
          // shard since the first send (migration or crash recovery), the
          // retransmission — same corr, same payload — goes to the new
          // owner, whose dedup (WAL-seeded after a recovery) recognizes
          // an already-applied attempt.
          imageLock_.lock_shared();
          const WorkerId w = image_.workerOf(rt.shard);
          imageLock_.unlock_shared();
          if (w != kNoWorker) rt.dest = workerEndpoint(w);
        }
        resend.push_back({rt.dest, rt.op, it->first, rt.payload});
        workerRetries_.inc();
        minDue = std::min(minDue, rt.dueNanos);
        ++it;
        continue;
      }
      // Budget exhausted: the worker (or the path to it) is effectively
      // down for this request. Degrade per operation.
      const std::uint64_t corr = it->first;
      switch (rt.op) {
        case Op::kWQuery: {
          auto qit = pendingQueries_.find(corr);
          if (qit != pendingQueries_.end()) {
            auto q = qit->second;
            pendingQueries_.erase(qit);
            q->unreachable += rt.shards;
            if (--q->remaining == 0) doneQueries.push_back(std::move(q));
          }
          break;
        }
        case Op::kWBulk: {
          auto cit = pendingCoalesced_.find(corr);
          if (cit != pendingCoalesced_.end()) {
            // A coalesced batch: park the WHOLE batch (same corr, same
            // payload) keyed by every member's client identity, so any
            // member's retransmission resumes this exact wire request —
            // the worker's dedup must recognize an attempt that landed
            // with only its ack lost. Bounded FIFO.
            PendingCoalesced pc = std::move(cit->second);
            pendingCoalesced_.erase(cit);
            auto [dit, fresh] = droppedBatches_.try_emplace(corr);
            dit->second = DroppedBatch{rt.dest, std::move(rt.payload),
                                       rt.shard, std::move(pc.members),
                                       pc.items};
            for (const auto& pi : dit->second.members) {
              const std::string key = clientKey(pi.clientEp, pi.clientCorr);
              inFlightClient_.erase(key);
              droppedBatchIndex_[key] = corr;
            }
            if (fresh) {
              droppedBatchOrder_.push_back(corr);
              while (droppedBatchOrder_.size() > 1024) {
                const std::uint64_t old = droppedBatchOrder_.front();
                droppedBatchOrder_.pop_front();
                auto oit = droppedBatches_.find(old);
                if (oit != droppedBatches_.end()) {
                  for (const auto& pi : oit->second.members)
                    droppedBatchIndex_.erase(
                        clientKey(pi.clientEp, pi.clientCorr));
                  droppedBatches_.erase(oit);
                }
              }
            }
            insertsDropped_.inc(dit->second.members.size());
            releasedLanes.push_back(rt.shard);
            break;
          }
          auto bit = pendingBulks_.find(corr);
          if (bit != pendingBulks_.end()) {
            auto b = bit->second;
            pendingBulks_.erase(bit);
            if (--b->remaining == 0) doneBulks.push_back(std::move(b));
          }
          break;
        }
        default:
          break;
      }
      it = retries_.erase(it);
    }
    nextRetryDueNanos_.store(minDue, std::memory_order_relaxed);
  }
  // No ack will come for a parked batch, so its release is what sends the
  // items that buffered behind it.
  for (ShardId s : releasedLanes) releaseLane(s);
  for (auto& r : resend)
    fabric_.send(r.dest, makeMessage(r.op, r.corr, serverEndpoint(id_),
                                     std::move(r.payload)));
  for (auto& q : doneQueries) finishQuery(*q);
  for (auto& b : doneBulks) finishBulk(*b);
}

// ---- inserts ----------------------------------------------------------------

bool Server::resumeDroppedBatch(const Message& m) {
  std::string dest;
  std::uint64_t corr = 0;
  SharedBlob payload;
  ShardId laneShard = 0;
  {
    std::lock_guard lock(pendingMu_);
    auto it = droppedBatchIndex_.find(clientKey(m.from, m.corr));
    if (it == droppedBatchIndex_.end()) return false;
    corr = it->second;
    auto bit = droppedBatches_.find(corr);
    if (bit == droppedBatches_.end()) {
      droppedBatchIndex_.erase(it);  // stale index entry (batch evicted)
      return false;
    }
    DroppedBatch db = std::move(bit->second);
    droppedBatches_.erase(bit);
    // Every member goes back in flight: their own retransmissions must be
    // dropped as duplicates, and they are all acked by the one kWBulkAck.
    for (const auto& pi : db.members) {
      droppedBatchIndex_.erase(clientKey(pi.clientEp, pi.clientCorr));
      inFlightClient_.insert(clientKey(pi.clientEp, pi.clientCorr));
    }
    dest = std::move(db.dest);
    payload = db.payload;
    laneShard = db.shard;
    if (laneShard != 0) {
      // The original owner may be dead by now; re-resolve. Same corr and
      // payload, so the (possibly new) owner's dedup still applies.
      imageLock_.lock_shared();
      const WorkerId w = image_.workerOf(laneShard);
      imageLock_.unlock_shared();
      if (w != kNoWorker) dest = workerEndpoint(w);
    }
    const std::size_t items = db.items;
    pendingCoalesced_.emplace(
        corr, PendingCoalesced{std::move(db.members), laneShard, items});
    const std::uint64_t due =
        nowNanos() + retryDelayNanos(cfg_.workerRetry, 1, rng_);
    retries_.emplace(
        corr, WireRetry{dest, Op::kWBulk, payload, 1, due, 0, laneShard});
    noteRetryDue(due);
  }
  {
    std::lock_guard lock(coalesceMu_);
    ++lanes_[laneShard].inFlight;
  }
  fabric_.send(dest, makeMessage(Op::kWBulk, corr, serverEndpoint(id_),
                                 std::move(payload)));
  return true;
}

void Server::handleInsert(const Message& m) {
  const std::optional<Point> point = readClientPayload(m, &readPoint);
  if (!point) return;
  if (dedupClientRequest(m)) return;
  if (resumeDroppedBatch(m)) return;
  const Point& p = *point;
  insertsRouted_.inc();

  // Sampled tracing: continue the hop chain the client started. Untraced
  // requests (the overwhelming majority) skip every stamp.
  Trace trace;
  if (m.traced()) {
    trace.id = m.traceId;
    trace.hops = m.hops;
    trace.hops.push_back(
        {static_cast<std::uint16_t>(TraceStage::kServerRecv), nowNanos()});
  }

  // Lock-free fast path: route against the immutable snapshot. Any leaf
  // whose box contains the point is a valid insert target; only a point no
  // leaf contains (it must grow some box) needs the exclusive image lock.
  ShardId shard = 0;
  if (const auto snap = currentSnapshot()) {
    if (const RouteSnapshot::Leaf* leaf = snapshotRoute(*snap, p.ref())) {
      shard = leaf->shard;
      snapshotHits_.inc();
    }
  }
  if (shard == 0) {
    snapshotMisses_.inc();
    imageLock_.lock();  // routeInsert expands boxes: exclusive
    const LocalImage::Route route = image_.routeInsert(p.ref());
    shard = route.shard;
    rebuildSnapshotLocked();
    imageLock_.unlock();
    if (route.expanded)
      boxExpansions_.inc();
  }
  if (trace.id != 0) {
    const std::uint64_t routed = nowNanos();
    const std::uint64_t recv = trace.at(TraceStage::kServerRecv);
    trace.hops.push_back(
        {static_cast<std::uint16_t>(TraceStage::kServerRouted), routed});
    if (routed >= recv) ingestRouteNs_.record(routed - recv);
  }

  coalesceInsert(m, p, shard, std::move(trace));
}

// ---- ingest coalescing ------------------------------------------------------

void Server::coalesceInsert(const Message& m, const Point& p, ShardId shard,
                            Trace trace) {
  {
    std::lock_guard lock(coalesceMu_);
    Lane& lane = lanes_[shard];
    if (lane.buf.dims() != schema_.dims())
      lane.buf = PointSet(schema_.dims());
    lane.buf.push(p.ref());
    lane.members.push_back({m.from, m.corr});
    if (trace.id != 0) {
      trace.hops.push_back(
          {static_cast<std::uint16_t>(TraceStage::kLaneEnqueue), nowNanos()});
      lane.traces.push_back(std::move(trace));
    }
  }
  // An idle lane sends right away, so a one-at-a-time inserter sees no
  // added latency; a busy one keeps the item for the next ack.
  flushLane(shard);
}

void Server::flushLane(ShardId shard) {
  ShardBatch req;
  req.shard = shard;
  std::vector<PendingInsert> members;
  std::vector<Trace> traces;
  {
    std::lock_guard lock(coalesceMu_);
    auto it = lanes_.find(shard);
    if (it == lanes_.end() || it->second.buf.size() == 0) return;
    Lane& lane = it->second;
    if (lane.inFlight > 0) return;  // its ack or release sends the buffer
    req.items = std::move(lane.buf);
    members = std::move(lane.members);
    traces = std::move(lane.traces);
    lane.buf = PointSet(schema_.dims());
    lane.members.clear();
    lane.traces.clear();
    ++lane.inFlight;
  }
  // Every traced member records its lane dwell; the first trace rides the
  // batch so the worker can stamp the WAL/apply hops onto it.
  Trace rider;
  if (!traces.empty()) {
    const std::uint64_t flushedAt = nowNanos();
    for (auto& t : traces) {
      const std::uint64_t enq = t.at(TraceStage::kLaneEnqueue);
      if (enq && flushedAt >= enq) ingestLaneDwellNs_.record(flushedAt - enq);
    }
    rider = std::move(traces.front());
    rider.hops.push_back(
        {static_cast<std::uint16_t>(TraceStage::kLaneFlush), flushedAt});
  }
  // Encode and resolve the worker OUTSIDE the lane lock: serialization is
  // the expensive part, and the image lock must never nest inside it.
  WorkerId w;
  {
    imageLock_.lock_shared();
    w = image_.workerOf(shard);
    imageLock_.unlock_shared();
  }
  const std::size_t n = req.items.size();
  const SharedBlob payload(req.encode());
  const std::uint64_t corr = nextCorr_.fetch_add(1);
  const std::string dest = workerEndpoint(w);
  {
    std::lock_guard lock(pendingMu_);
    pendingCoalesced_.emplace(corr,
                              PendingCoalesced{std::move(members), shard, n});
    const std::uint64_t due =
        nowNanos() + retryDelayNanos(cfg_.workerRetry, 1, rng_);
    retries_.emplace(corr,
                     WireRetry{dest, Op::kWBulk, payload, 1, due, 0, shard});
    noteRetryDue(due);
  }
  coalescedBatches_.inc();
  coalescedItems_.inc(n);
  Message out = makeMessage(Op::kWBulk, corr, serverEndpoint(id_), payload);
  if (rider.id != 0) {
    out.traceId = rider.id;
    out.hops = std::move(rider.hops);
  }
  fabric_.send(dest, std::move(out));
}

void Server::releaseLane(ShardId shard) {
  {
    std::lock_guard lock(coalesceMu_);
    auto it = lanes_.find(shard);
    if (it != lanes_.end() && it->second.inFlight > 0) --it->second.inFlight;
  }
  flushLane(shard);
}

// ---- queries ----------------------------------------------------------------

void Server::handleQuery(const Message& m) {
  const std::optional<QueryBox> parsed =
      readClientPayload(m, &QueryBox::deserialize);
  if (!parsed) return;
  if (dedupClientRequest(m)) return;
  const QueryBox& box = *parsed;
  queriesRouted_.inc();

  std::vector<ShardId> ids;
  std::map<WorkerId, std::vector<ShardId>> byWorker;
  {
    imageLock_.lock_shared();
    image_.routeQuery(box, ids);
    // Each chunk goes to the shard's owner (SIII-C).
    for (ShardId id : ids) byWorker[image_.workerOf(id)].push_back(id);
    imageLock_.unlock_shared();
  }
  if (ids.empty()) {
    QueryReply reply;
    replyToClient(m.from, m.corr, Op::kQueryReply, reply.encode());
    return;
  }
  auto q = std::make_shared<PendingQuery>();
  q->clientEp = m.from;
  q->clientCorr = m.corr;
  q->box = box;
  q->remaining = static_cast<unsigned>(byWorker.size());
  q->workersAsked = static_cast<std::uint32_t>(byWorker.size());
  q->queried.insert(ids.begin(), ids.end());
  if (m.traced()) {
    q->trace.id = m.traceId;
    q->trace.hops = m.hops;
    q->trace.hops.push_back(
        {static_cast<std::uint16_t>(TraceStage::kServerRouted), nowNanos()});
  }
  // Each chunk has its own correlation id, registered before its send, so
  // a reply racing back on another pool thread always finds the entry and
  // a duplicate reply misses the (already-erased) entry.
  bool traceAttached = false;
  for (auto& [w, shardIds] : byWorker) {
    const auto nShards = static_cast<std::uint32_t>(shardIds.size());
    WQuery req;
    req.shards = std::move(shardIds);
    req.box = box;
    const SharedBlob payload(req.encode());
    const std::uint64_t corr = nextCorr_.fetch_add(1);
    {
      std::lock_guard lock(pendingMu_);
      pendingQueries_.emplace(corr, q);
      const std::uint64_t due =
          nowNanos() + retryDelayNanos(cfg_.workerRetry, 1, rng_);
      retries_.emplace(corr, WireRetry{workerEndpoint(w), Op::kWQuery,
                                       payload, 1, due, nShards});
      noteRetryDue(due);
    }
    Message out =
        makeMessage(Op::kWQuery, corr, serverEndpoint(id_), payload);
    if (q->trace.id != 0 && !traceAttached) {
      // The trace rides exactly one chunk; that worker's scan hops come
      // back on its reply and are folded into the query's trace.
      out.traceId = q->trace.id;
      out.hops = q->trace.hops;
      traceAttached = true;
    }
    fabric_.send(workerEndpoint(w), std::move(out));
  }
}

void Server::refreshLater(ShardId id) {
  WatchEvent e{WatchEvent::Kind::kData, shardPath(id)};
  ByteWriter w;
  e.serialize(w);
  fabric_.send(serverEndpoint(id_),
               makeMessage(static_cast<Op>(KeeperOp::kWatchEvent), 0,
                           serverEndpoint(id_), w.take()));
}

void Server::chase(const std::shared_ptr<PendingQuery>& q, ShardId id) {
  imageLock_.lock_shared();
  const WorkerId dest = image_.workerOf(id);
  imageLock_.unlock_shared();
  if (dest == kNoWorker) {
    // The image does not know the child yet: this query answers without
    // it, flagged partial, and the next one routes correctly.
    ++q->unreachable;
    refreshLater(id);
    return;
  }
  WQuery req;
  req.shards = {id};
  req.box = q->box;
  const SharedBlob payload(req.encode());
  const std::uint64_t corr = nextCorr_.fetch_add(1);
  pendingQueries_.emplace(corr, q);
  const std::uint64_t due =
      nowNanos() + retryDelayNanos(cfg_.workerRetry, 1, rng_);
  retries_.emplace(corr, WireRetry{workerEndpoint(dest), Op::kWQuery, payload,
                                   1, due, 1});
  noteRetryDue(due);
  ++q->remaining;
  chases_.inc();
  fabric_.send(workerEndpoint(dest),
               makeMessage(Op::kWQuery, corr, serverEndpoint(id_),
                           payload));
}

void Server::handleWorkerQueryReply(const Message& m) {
  std::shared_ptr<PendingQuery> q;
  bool finished = false;
  {
    std::lock_guard lock(pendingMu_);
    auto it = pendingQueries_.find(m.corr);
    if (it == pendingQueries_.end()) return;  // late duplicate reply
    q = it->second;
    pendingQueries_.erase(it);
    retries_.erase(m.corr);
    if (m.traced() && q->trace.id == m.traceId) {
      // Fold the worker-side hops into the query's trace (the echo also
      // carries the client/server hops already present — skip those).
      for (const auto& h : m.hops) {
        const auto stage = static_cast<TraceStage>(h.stage);
        if (stage == TraceStage::kWorkerRecv ||
            stage == TraceStage::kWorkerScanned)
          q->trace.hops.push_back(h);
      }
      const std::uint64_t recv = q->trace.at(TraceStage::kWorkerRecv);
      const std::uint64_t scanned = q->trace.at(TraceStage::kWorkerScanned);
      if (recv && scanned >= recv) queryScanNs_.record(scanned - recv);
    }
    try {
      const WQueryReply reply = WQueryReply::decode(m.payload);
      q->agg.merge(reply.agg);
      q->searched += reply.searchedShards;
      for (ShardId id : reply.moved) {
        if (q->queried.insert(id).second) chase(q, id);  // else covered
      }
      for (ShardId id : reply.notMine) {
        // The worker we asked does not host this shard (it was fenced out
        // of it, or our image is stale). Count it unreachable — an honest
        // partial result — and re-read the shard's placement so the NEXT
        // query routes to the real owner.
        ++q->unreachable;
        refreshLater(id);
      }
    } catch (const DeserializeError&) {
      // Corrupt reply: count the chunk as answered with nothing.
    }
    finished = --q->remaining == 0;
  }
  if (finished) finishQuery(*q);
}

void Server::finishQuery(PendingQuery& q) {
  QueryReply reply;
  reply.agg = q.agg;
  reply.shardsSearched = q.searched;
  reply.workersAsked = q.workersAsked;
  reply.unreachableShards = q.unreachable;
  reply.partial = q.unreachable > 0;
  if (reply.partial) partialQueries_.inc();
  if (q.trace.id != 0) {
    q.trace.hops.push_back(
        {static_cast<std::uint16_t>(TraceStage::kServerMerged), nowNanos()});
    const std::uint64_t start = q.trace.at(TraceStage::kClientSend)
                                    ? q.trace.at(TraceStage::kClientSend)
                                    : q.trace.at(TraceStage::kServerRouted);
    const std::uint64_t merged = q.trace.at(TraceStage::kServerMerged);
    if (start && merged >= start) queryTotalNs_.record(merged - start);
    traceRing_.offer(std::move(q.trace));
  }
  replyToClient(q.clientEp, q.clientCorr, Op::kQueryReply, reply.encode());
}

// ---- bulk -------------------------------------------------------------------

void Server::handleBulk(const Message& m) {
  const std::optional<PointSet> parsed =
      readClientPayload(m, &PointSet::deserialize);
  if (!parsed) return;
  if (dedupClientRequest(m)) return;
  const PointSet& items = *parsed;
  insertsRouted_.inc(items.size());

  std::map<ShardId, PointSet> byShard;
  std::map<ShardId, WorkerId> workers;
  // Route the bulk of the batch against the lock-free snapshot; only the
  // items no leaf contains (they grow a box) take the exclusive image path.
  std::vector<std::size_t> missed;
  const auto snap = currentSnapshot();
  if (snap != nullptr && !snap->leaves.empty()) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      const PointRef p = items.at(i);
      const RouteSnapshot::Leaf* leaf = snapshotRoute(*snap, p);
      if (leaf == nullptr) {
        missed.push_back(i);
        continue;
      }
      auto [it, fresh] =
          byShard.try_emplace(leaf->shard, PointSet(schema_.dims()));
      it->second.push(p);
      if (fresh) workers[leaf->shard] = leaf->worker;
    }
    snapshotHits_.inc(items.size() - missed.size());
    snapshotMisses_.inc(missed.size());
  } else {
    missed.resize(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) missed[i] = i;
  }
  if (!missed.empty()) {
    imageLock_.lock();
    for (const std::size_t i : missed) {
      const PointRef p = items.at(i);
      const LocalImage::Route route = image_.routeInsert(p);
      if (route.expanded)
        boxExpansions_.inc();
      auto [it, fresh] =
          byShard.try_emplace(route.shard, PointSet(schema_.dims()));
      it->second.push(p);
      workers[route.shard] = image_.workerOf(route.shard);
    }
    rebuildSnapshotLocked();
    imageLock_.unlock();
  }
  if (byShard.empty()) {
    ByteWriter w;
    w.varint(0);
    replyToClient(m.from, m.corr, Op::kBulkAck, w.take());
    return;
  }
  auto bulk = std::make_shared<PendingBulk>();
  bulk->clientEp = m.from;
  bulk->clientCorr = m.corr;
  bulk->remaining = static_cast<unsigned>(byShard.size());
  for (auto& [shard, batch] : byShard) {
    ShardBatch req;
    req.shard = shard;
    req.items = std::move(batch);
    const SharedBlob payload(req.encode());
    const std::uint64_t corr = nextCorr_.fetch_add(1);
    {
      std::lock_guard lock(pendingMu_);
      pendingBulks_.emplace(corr, bulk);
      const std::uint64_t due =
          nowNanos() + retryDelayNanos(cfg_.workerRetry, 1, rng_);
      retries_.emplace(corr, WireRetry{workerEndpoint(workers[shard]),
                                       Op::kWBulk, payload, 1, due, 0, shard});
      noteRetryDue(due);
    }
    fabric_.send(workerEndpoint(workers[shard]),
                 makeMessage(Op::kWBulk, corr, serverEndpoint(id_),
                             payload));
  }
}

void Server::handleWorkerBulkAck(const Message& m) {
  WBulkAck ack;
  try {
    ack = WBulkAck::decode(m.payload);
  } catch (const DeserializeError&) {
    return;  // garbled ack: its stamps are unreadable, keep retrying
  }
  // Fencing check first — even for acks with no pending entry — so a
  // zombie's late (or forged) ack is visibly rejected, not silently
  // ignored as a duplicate. A stamp whose epoch is below the image's epoch
  // for that shard comes from an owner the recovery supervisor has already
  // fenced out; the pending entry stays and the retry path drives the
  // batch to the current owner.
  bool stale = false;
  if (const auto snap = currentSnapshot()) {
    for (const auto& [shard, epoch] : ack.stamps)
      stale = stale || epoch < snap->epochOf(shard);
  }
  if (stale) {
    staleEpochAcks_.inc();
    return;
  }
  // Coalesced batch: one wire ack fans out to every member's client.
  std::vector<PendingInsert> members;
  ShardId laneShard = 0;
  bool coalesced = false;
  {
    std::lock_guard lock(pendingMu_);
    auto cit = pendingCoalesced_.find(m.corr);
    if (cit != pendingCoalesced_.end()) {
      coalesced = true;
      members = std::move(cit->second.members);
      laneShard = cit->second.shard;
      pendingCoalesced_.erase(cit);
      retries_.erase(m.corr);
    }
  }
  if (coalesced) {
    if (m.traced()) recordIngestTrace(Trace{m.traceId, m.hops});
    for (const auto& pi : members)
      replyToClient(pi.clientEp, pi.clientCorr, Op::kInsertAck, {});
    releaseLane(laneShard);  // whatever buffered behind the batch goes next
    return;
  }
  std::shared_ptr<PendingBulk> bulk;
  bool finished = false;
  {
    std::lock_guard lock(pendingMu_);
    auto it = pendingBulks_.find(m.corr);
    if (it == pendingBulks_.end()) return;  // duplicate ack
    bulk = it->second;
    pendingBulks_.erase(it);
    retries_.erase(m.corr);
    bulk->applied += ack.applied;
    finished = --bulk->remaining == 0;
  }
  if (finished) finishBulk(*bulk);
}

void Server::finishBulk(PendingBulk& b) {
  ByteWriter w;
  w.varint(b.applied);
  replyToClient(b.clientEp, b.clientCorr, Op::kBulkAck, w.take());
}

// ---- keeper synchronization -------------------------------------------------

void Server::syncPush() {
  std::vector<ShardId> dirty;
  {
    imageLock_.lock();
    dirty = image_.takeDirty();
    imageLock_.unlock();
  }
  for (ShardId id : dirty) {
    ShardInfo mine;
    mine.id = id;
    {
      imageLock_.lock_shared();
      mine.worker = image_.workerOf(id);
      mine.count = image_.countOf(id);
      mine.box = image_.boxOf(id);
      imageLock_.unlock_shared();
    }
    bool pushed = false;
    for (int attempt = 0; attempt < 4 && !pushed; ++attempt) {
      auto cur = zk_.get(shardPath(id), /*watch=*/true);
      if (!cur.has_value()) {
        ByteWriter w;
        mine.serialize(w);
        pushed = zk_.create(shardPath(id), w.take()).has_value();
        continue;
      }
      ByteReader r(cur->data);
      ShardInfo stored = ShardInfo::deserialize(r);
      // Servers only contribute box growth; count and location belong to
      // the worker and manager respectively.
      stored.mergeFrom(schema_, mine, /*takeLocation=*/false,
                       /*takeCount=*/false);
      // Piggy-back: fold the remote view into our image while we are here.
      {
        imageLock_.lock();
        if (image_.applyRemote(stored)) rebuildSnapshotLocked();
        imageLock_.unlock();
      }
      ByteWriter w;
      stored.serialize(w);
      pushed = zk_.set(shardPath(id), w.take(), cur->version).has_value();
    }
    if (pushed) syncPushes_.inc();
  }
}

}  // namespace volap
