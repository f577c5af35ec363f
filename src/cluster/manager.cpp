#include "cluster/manager.hpp"

#include <algorithm>
#include <cstdlib>
#include <tuple>

#include "cluster/stats.hpp"
#include "common/clock.hpp"
#include "repl/repl.hpp"

namespace volap {

namespace {

/// Cap on outstanding takeovers (a cold one ships a whole shard; do not
/// flood the fabric), and on reconfigs dispatched per chain-repair pass.
constexpr std::size_t kMaxConcurrentRecoveries = 4;

/// The takeover command by which a chain member adopts its own mirror of
/// `shard` under `epoch` (a promotion; the durable fields stay empty).
Blob mirrorTakeover(ShardId shard, std::uint64_t epoch) {
  RecoverShard req;
  req.shard = shard;
  req.epoch = epoch;
  req.fromMirror = true;
  return req.encode();
}

}  // namespace

Manager::Manager(Fabric& fabric, const Schema& schema, ManagerConfig cfg,
                 ShardId firstShardId, DurableLog& durable)
    : fabric_(fabric),
      schema_(schema),
      cfg_(cfg),
      durable_(durable),
      inbox_(fabric.bind(managerEndpoint())),
      zk_(fabric, managerEndpoint()),
      nextShardId_(firstShardId),
      enabled_(cfg.enabled),
      splits_(metrics_.counter("manager.splits")),
      migrations_(metrics_.counter("manager.migrations")),
      inFlight_(metrics_.gauge("manager.ops_in_flight")),
      opsTimedOut_(metrics_.counter("manager.ops_timed_out")),
      recoveries_(metrics_.counter("manager.recoveries")),
      promotions_(metrics_.counter("repl.promotions")),
      chainRepairs_(metrics_.counter("repl.chain_repairs")) {
  thread_ = std::thread([this] { serve(); });
}

Manager::~Manager() { stop(); }

void Manager::stop() {
  inbox_->close();
  if (thread_.joinable()) thread_.join();
}

void Manager::setEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Manager::serve() {
  std::uint64_t nextTick = nowNanos() + cfg_.periodNanos;
  while (true) {
    const std::uint64_t now = nowNanos();
    if (now >= nextTick) {
      sweepLeases();
      // A lost step (or its lost ack) stalls a move until the lease; every
      // step is idempotent, so resend each pending one once per tick.
      for (const auto& [shard, mv] : moves_) fabric_.send(mv.stepTo, mv.step);
      // Recovery outranks balancing and runs even while balancing is
      // paused: a dead worker's shards are unreachable until re-hosted.
      superviseRecovery();
      if (enabled_.load(std::memory_order_relaxed) &&
          inFlight_.value() <
              static_cast<std::int64_t>(cfg_.maxConcurrentOps)) {
        analyze();
      }
      nextTick = now + cfg_.periodNanos;
    }
    auto m = inbox_->recvFor(
        std::chrono::nanoseconds(nextTick > now ? nextTick - now : 1));
    if (!m) {
      if (inbox_->closed()) return;
      continue;
    }
    switch (static_cast<Op>(m->type)) {
      case Op::kSplitDone: handleSplitDone(*m); break;
      case Op::kRecoverDone: handleRecoverDone(*m); break;
      case Op::kReplReconfigAck: handleReplReconfigAck(*m); break;
      case Op::kStats: handleStats(*m); break;
      default: break;
    }
  }
}

void Manager::handleStats(const Message& m) {
  StatsReply reply;
  reply.node = managerEndpoint();
  reply.snapshot = metrics_.snapshot();
  fabric_.send(m.from, makeMessage(Op::kStatsReply, m.corr,
                                   managerEndpoint(), reply.encode()));
}

void Manager::sweepLeases() {
  const std::uint64_t now = nowNanos();
  std::vector<ShardId> expiredMoves;
  for (auto it = pendingOps_.begin(); it != pendingOps_.end();) {
    if (it->second.deadlineNanos > now) {
      ++it;
      continue;
    }
    // The command or its Done report is lost, or the worker is stuck.
    // Reclaim the slot; the next analysis re-derives whatever still needs
    // doing from the (worker-repaired) image. A Done arriving after this
    // misses the lease map and is ignored.
    if (it->second.kind == PendingOp::Kind::kRecover) {
      // The next tick re-fences (bumping the epoch again, so a late
      // install from THIS attempt is rejected) and retries.
      takeoverFailed(it->second);
    } else if (it->second.kind == PendingOp::Kind::kReconfig) {
      pendingReconfig_.erase(it->second.shard);
    } else if (it->second.kind == PendingOp::Kind::kMigrate) {
      expiredMoves.push_back(it->second.shard);
    } else {
      inFlight_.add(-1);
    }
    it = pendingOps_.erase(it);
    opsTimedOut_.inc();
  }
  for (ShardId shard : expiredMoves) endMove(shard, /*done=*/false);
}

bool Manager::readImage(std::map<WorkerId, WorkerStats>& workers,
                        std::vector<ShardInfo>& shards) {
  auto workerNames = zk_.children(workersPath());
  if (!workerNames.has_value()) return false;
  for (const auto& name : *workerNames) {
    auto got = zk_.get(workersPath() + "/" + name);
    if (!got.has_value()) continue;
    try {
      ByteReader r(got->data);
      const WorkerStats s = WorkerStats::deserialize(r);
      workers[s.id] = s;
    } catch (const DeserializeError&) {
    }
  }
  auto shardNames = zk_.children(shardsPath());
  if (!shardNames.has_value()) return false;
  for (const auto& name : *shardNames) {
    auto got = zk_.get(shardsPath() + "/" + name);
    if (!got.has_value()) continue;
    try {
      ByteReader r(got->data);
      shards.push_back(ShardInfo::deserialize(r));
    } catch (const DeserializeError&) {
    }
  }
  return true;
}

std::set<WorkerId> Manager::readDeadWorkers(std::uint64_t extraGraceNanos,
                                            std::set<WorkerId>* haveBeat) {
  std::set<WorkerId> dead;
  auto names = zk_.children(alivesPath());
  if (!names.has_value()) return dead;  // no liveness tree: assume alive
  const std::uint64_t now = nowNanos();
  for (const auto& name : *names) {
    auto got = zk_.get(alivesPath() + "/" + name);
    if (!got.has_value()) continue;
    const auto id =
        static_cast<WorkerId>(std::strtoul(name.c_str(), nullptr, 10));
    if (haveBeat != nullptr) haveBeat->insert(id);
    try {
      ByteReader r(got->data);
      const std::uint64_t beat = r.u64();
      if (beat + cfg_.aliveTimeoutNanos + extraGraceNanos < now)
        dead.insert(id);
    } catch (const DeserializeError&) {
    }
  }
  return dead;
}

void Manager::superviseRecovery() {
  // A dead worker (heartbeat stale past timeout + grace) cannot serve or
  // ack anything; every shard the image still maps to it is fenced in the
  // durable store and its state shipped to a live worker.
  std::set<WorkerId> haveBeat;
  const std::set<WorkerId> dead =
      readDeadWorkers(cfg_.deadGraceNanos, &haveBeat);

  std::map<WorkerId, WorkerStats> workers;
  std::vector<ShardInfo> shards;
  if (!readImage(workers, shards)) return;

  // A worker the image maps shards to but that never wrote a liveness
  // znode (killed or partitioned before its first heartbeat) would stay
  // "assumed alive" forever. Seed a beat for it: a live worker overwrites
  // the seed on its next push; a dead one lets it go stale, which is what
  // finally admits it into `dead` and unblocks recovery.
  for (const ShardInfo& s : shards) {
    if (haveBeat.count(s.worker) != 0) continue;
    ByteWriter hb;
    hb.u64(nowNanos());
    zk_.create(alivePath(s.worker), hb.take());
    haveBeat.insert(s.worker);
  }

  // A move whose target died, or whose owner died before the handover's
  // commit point, cannot finish: write it off (a fenced one becomes an
  // orphan suspect, or the dead-owner pass below promotes or recovers it).
  std::vector<ShardId> stuck;
  for (const auto& [shard, mv] : moves_)
    if (dead.count(mv.to) != 0 ||
        (dead.count(mv.from.worker) != 0 && !mv.promoting))
      stuck.push_back(shard);
  for (ShardId shard : stuck) endMove(shard, /*done=*/false);

  // Live takeover targets, lightest first; cold takeovers round-robin
  // across them so one survivor does not absorb a whole dead worker alone.
  std::vector<WorkerId> targets;
  if (!dead.empty() || !pendingRecover_.empty() || !orphanRetry_.empty()) {
    for (const auto& [id, st] : workers)
      if (dead.count(id) == 0) targets.push_back(id);
    std::sort(targets.begin(), targets.end(), [&](WorkerId a, WorkerId b) {
      return workers[a].totalItems < workers[b].totalItems;
    });
    if (targets.empty()) return;  // nobody left to host anything
  }
  std::size_t rr = 0;
  const auto nextTarget = [&] { return targets[rr++ % targets.size()]; };

  if (!dead.empty() || !pendingRecover_.empty()) {
    std::set<WorkerId> stillOwning;  // dead workers with shards to move
    for (const ShardInfo& s : shards) {
      if (dead.count(s.worker) == 0) continue;
      stillOwning.insert(s.worker);
      if (pendingRecover_.count(s.id) != 0) continue;
      if (pendingRecover_.size() >= kMaxConcurrentRecoveries) continue;
      // A reconfig dispatched to the now-dead owner can never conclude;
      // cancel it so the post-recovery chain rebuild is not parked behind
      // its lease.
      if (pendingReconfig_.erase(s.id) != 0) {
        for (auto it = pendingOps_.begin(); it != pendingOps_.end();)
          it = (it->second.kind == PendingOp::Kind::kReconfig &&
                it->second.shard == s.id)
                   ? pendingOps_.erase(it)
                   : std::next(it);
      }
      // Fast path — promotion: a live chain member already mirrors the
      // shard (and, by the tail-gated ack rule, holds every acked insert).
      // Promote the most-caught-up survivor — the EARLIEST in chain order,
      // since each member applies before relaying — in place instead of
      // shipping the whole checkpoint + WAL across the fabric.
      WorkerId candidate = kNoWorker;
      for (WorkerId rep : s.replicas) {
        if (rep == s.worker || dead.count(rep) != 0) continue;
        if (workers.count(rep) == 0) continue;
        candidate = rep;
        break;
      }
      if (candidate != kNoWorker) {
        // Fence first: after this, the dead owner's appends/checkpoints
        // fail even if it is secretly alive (a zombie).
        const auto snap = durable_.fence(s.id);
        if (!snap.has_value()) continue;  // never wrote: nothing to move
        if (promote(s, snap->epoch, candidate,
                    {PendingOp::Kind::kRecover,
                     nowNanos() + cfg_.opLeaseNanos, s.id}) != 0) {
          pendingRecover_[s.id] = s.worker;
          continue;  // promotion dispatched; cold path not needed
        }
      }
      rehostCold(s, nextTarget());
    }

    // Retire a dead worker's registration only once the image maps none of
    // its shards to it and nothing is in flight toward it — removing the
    // heartbeat earlier would make it look alive again (missing znode =
    // assumed alive) and stall the rest of its recoveries.
    for (WorkerId w : dead) {
      if (stillOwning.count(w) != 0) continue;
      bool inFlight = false;
      for (const auto& [shard, from] : pendingRecover_)
        if (from == w) inFlight = true;
      if (inFlight) continue;
      zk_.remove(workerPath(w));
      zk_.remove(alivePath(w));
    }
  }

  // Orphan healing. A fencing race can leave the image mapping a shard to
  // a LIVE worker that no longer hosts it: a worker spuriously declared
  // dead during a heartbeat stall sheds its fenced slots once its
  // checkpoints start failing, then its beat goes fresh again; or a failed
  // promotion rolls the image back to an owner that already shed the slot.
  // The dead-owner loop above never retries those (the owner looks alive),
  // so the shard would strand — reachable in the image, hosted nowhere.
  // Any shard flagged as an orphan suspect (reconfig NACK, failed or
  // expired takeover) is re-hosted cold exactly like a dead-owner
  // recovery; the fence bump makes the replayed copy authoritative no
  // matter who still thinks they own it, and the target may well be the
  // image owner itself.
  if (!orphanRetry_.empty()) {
    std::set<ShardId> inImage;
    for (const ShardInfo& s : shards) {
      inImage.insert(s.id);
      if (orphanRetry_.count(s.id) == 0) continue;
      if (dead.count(s.worker) != 0) {
        orphanRetry_.erase(s.id);  // the dead-owner loop handles it
        continue;
      }
      if (pendingRecover_.count(s.id) != 0 ||
          pendingReconfig_.count(s.id) != 0)
        continue;
      if (pendingRecover_.size() >= kMaxConcurrentRecoveries) break;
      if (rehostCold(s, nextTarget())) orphanRetry_.erase(s.id);
    }
    // Suspects no longer in the image (retired by a split merge-back or a
    // concluded relocation) are moot.
    for (auto it = orphanRetry_.begin(); it != orphanRetry_.end();)
      it = inImage.count(*it) == 0 ? orphanRetry_.erase(it) : std::next(it);
  }

  // Chain repair avoids not just declared-dead workers but also SUSPECTS —
  // workers past the alive timeout but still inside the dead grace. A
  // reconfig dispatched to a worker that is actually dying parks that
  // shard's repair behind the full command lease; waiting out the grace
  // costs one tick and no lease.
  std::set<WorkerId> avoid = readDeadWorkers(0);
  avoid.insert(dead.begin(), dead.end());
  repairChains(workers, shards, avoid);
}

bool Manager::casPromotion(const ShardInfo& s, std::uint64_t epoch,
                           WorkerId target) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    auto cur = zk_.get(shardPath(s.id));
    if (!cur.has_value()) return false;
    ShardInfo stored;
    try {
      ByteReader r(cur->data);
      stored = ShardInfo::deserialize(r);
    } catch (const DeserializeError&) {
      return false;
    }
    if (stored.epoch >= epoch) {
      return false;  // someone moved past us
    }
    bool hasTarget = false;
    for (WorkerId rep : stored.replicas) hasTarget |= rep == target;
    // The chain changed under us (e.g. the primary's teardown gate
    // cleared the replicas before dying): the candidate may be stale.
    if (!hasTarget || stored.worker != s.worker) {
      return false;
    }
    stored.worker = target;
    stored.epoch = epoch;
    stored.replicas.clear();
    ByteWriter w;
    stored.serialize(w);
    if (zk_.set(shardPath(s.id), w.take(), cur->version).has_value())
      return true;
  }
  return false;
}

std::uint64_t Manager::promote(const ShardInfo& s, std::uint64_t epoch,
                               WorkerId target, PendingOp lease) {
  if (!casPromotion(s, epoch, target)) return 0;
  lease.owner = s.worker;
  lease.fromMirror = true;
  const std::uint64_t corr = dispatch(target, Op::kRecoverShard,
                                      mirrorTakeover(s.id, epoch), lease);
  if (corr == 0) takeoverFailed(lease);  // later ticks still see the owner
  return corr;
}

bool Manager::rehostCold(const ShardInfo& s, WorkerId target) {
  // Fence first: after this, the image owner's appends and checkpoints
  // fail even if it is secretly alive (a zombie), so the snapshot is final.
  auto snap = durable_.fence(s.id);
  if (!snap.has_value()) return true;  // shard never wrote: nothing to move
  RecoverShard req;
  req.shard = s.id;
  req.epoch = snap->epoch;
  req.checkpoint = std::move(snap->checkpoint);
  req.wal = std::move(snap->wal);
  req.applied = std::move(snap->applied);
  PendingOp lease{PendingOp::Kind::kRecover, nowNanos() + cfg_.opLeaseNanos,
                  s.id, s.worker};
  if (dispatch(target, Op::kRecoverShard, req.encode(), lease) == 0)
    return false;
  pendingRecover_[s.id] = s.worker;
  return true;
}

void Manager::takeoverFailed(const PendingOp& lease) {
  // casPromotion pointed the image at the candidate; a cold attempt never
  // wrote it. Point a failed promotion back at the owner so the next tick
  // re-fences and retries — cold this time (the CAS cleared the replicas).
  // A late install from this attempt is fenced by the re-fence's higher
  // epoch.
  if (lease.fromMirror) {
    ShardInfo back;
    back.id = lease.shard;
    back.worker = lease.owner;
    writeShardInfo(back, /*relocate=*/true, /*takeCount=*/false);
  }
  // The owner may only have LOOKED dead (a heartbeat stall) and have shed
  // its fenced slot since: as an orphan suspect the shard is re-hosted
  // even if the owner's beat is fresh again.
  pendingRecover_.erase(lease.shard);
  orphanRetry_.insert(lease.shard);
}

std::uint64_t Manager::dispatch(WorkerId to, Op op, Blob payload,
                                PendingOp lease) {
  const std::uint64_t corr = nextCorr_++;
  pendingOps_[corr] = lease;
  if (fabric_.send(workerEndpoint(to), makeMessage(op, corr, managerEndpoint(),
                                                   std::move(payload))))
    return corr;
  pendingOps_.erase(corr);
  return 0;
}

bool Manager::balancing(ShardId shard) const {
  if (moves_.count(shard) != 0) return true;
  for (const auto& [corr, op] : pendingOps_)
    if (op.kind == PendingOp::Kind::kSplit && op.shard == shard) return true;
  return false;
}

void Manager::repairChains(const std::map<WorkerId, WorkerStats>& workers,
                           const std::vector<ShardInfo>& shards,
                           const std::set<WorkerId>& avoid) {
  // Trusted workers (not dead, not suspect) as recruitment candidates.
  std::vector<WorkerId> live;
  for (const auto& [id, s] : workers)
    if (avoid.count(id) == 0) live.push_back(id);
  if (live.empty()) return;
  const std::size_t want = std::min<std::size_t>(
      cfg_.replicationFactor - 1, live.size() - 1);
  // Chain memberships (primary or replica) per worker: from the image, with
  // a pending reconfig's chain standing in for its shard's image entry, and
  // updated as this pass assigns chains. Recruiting the least-loaded
  // worker spreads replicas, and with them chain-apply work, evenly; a
  // one-off "lightest by items" order hands every chain of a pass to one
  // worker (at boot all workers are equally empty).
  std::map<WorkerId, std::size_t> members;
  for (const ShardInfo& s : shards) {
    const auto pend = pendingReconfig_.find(s.id);
    if (pend != pendingReconfig_.end()) {
      for (WorkerId w : pend->second) ++members[w];
      continue;
    }
    ++members[s.worker];
    for (WorkerId rep : s.replicas) ++members[rep];
  }
  unsigned dispatched = 0;
  for (const ShardInfo& s : shards) {
    if (avoid.count(s.worker) != 0) continue;  // promotion/recovery first
    if (workers.count(s.worker) == 0) continue;
    if (pendingRecover_.count(s.id) != 0) continue;
    if (pendingReconfig_.count(s.id) != 0) continue;
    // Mid-split the slot is busy and would NACK the reconfig, which the
    // NACK handler reads as "owner lost the slot" and answers with a
    // needless re-host; a move runs its own chain. Wait either out.
    if (balancing(s.id)) continue;
    if (orphanRetry_.count(s.id) != 0) continue;  // re-host first
    // Keep healthy members in chain order; anything dead, unknown, or
    // duplicated forces a rebuild.
    std::vector<WorkerId> keep;
    bool broken = false;
    for (WorkerId rep : s.replicas) {
      if (rep == s.worker || avoid.count(rep) != 0 ||
          workers.count(rep) == 0) {
        broken = true;
        continue;
      }
      if (keep.size() < want)
        keep.push_back(rep);
      else
        broken = true;
    }
    if (keep.size() == want && !broken) continue;  // chain is healthy
    std::vector<WorkerId> chain{s.worker};
    for (WorkerId rep : keep) chain.push_back(rep);
    while (chain.size() < want + 1) {
      // Fewest memberships first; ties go to the lighter worker by items,
      // then the lower id. Distinct-worker placement.
      WorkerId best = kNoWorker;
      for (WorkerId cand : live) {
        if (std::find(chain.begin(), chain.end(), cand) != chain.end())
          continue;
        if (best == kNoWorker ||
            std::tuple(members[cand], workers.at(cand).totalItems, cand) <
                std::tuple(members[best], workers.at(best).totalItems, best))
          best = cand;
      }
      if (best == kNoWorker) break;
      chain.push_back(best);
      ++members[best];
    }
    // A lone primary is only worth a reconfig when it drops a chain (one
    // left behind by a move, or whose members all died).
    if (chain.size() < 2 && s.replicas.empty()) continue;
    if (dispatch(s.worker, Op::kReplReconfig,
                 ReplReconfig{s.id, chain}.encode(),
                 {PendingOp::Kind::kReconfig,
                  nowNanos() + cfg_.opLeaseNanos, s.id}) == 0)
      continue;
    pendingReconfig_[s.id] = chain;
    if (++dispatched >= kMaxConcurrentRecoveries) break;
  }
}

void Manager::analyze() {
  std::map<WorkerId, WorkerStats> workers;
  std::vector<ShardInfo> shards;
  if (!readImage(workers, shards) || workers.empty()) return;

  // Shards with replication work in flight are off-limits for balancing:
  // a split/migrate would make the primary's slot busy and NACK the
  // pending reconfig, which the supervisor reads as a lost slot.
  // Nor is a shard already being split or moved picked again.
  auto replBusy = [&](const ShardInfo& s) {
    return pendingReconfig_.count(s.id) != 0 ||
           pendingRecover_.count(s.id) != 0 ||
           orphanRetry_.count(s.id) != 0 || balancing(s.id);
  };

  // Rule 1 — capacity: split any shard beyond the size cap, largest first,
  // so migration units stay manageable (SIII-E).
  const ShardInfo* splitCandidate = nullptr;
  for (const auto& s : shards) {
    if (replBusy(s)) continue;
    if (s.count > cfg_.maxShardItems &&
        (splitCandidate == nullptr || s.count > splitCandidate->count))
      splitCandidate = &s;
  }
  if (splitCandidate != nullptr) {
    startSplit(*splitCandidate);
    return;
  }

  // Rule 2 — balance: if the heaviest worker carries imbalanceRatio x the
  // lightest (new workers join empty), move its largest movable shard to
  // the lightest worker. Only shards small enough to actually reduce the
  // gap are movable; an oversized one is split first by rule 1 next tick.
  // Workers with a stale liveness heartbeat are never chosen as targets —
  // migrating onto a dead node would strand the shard.
  const std::set<WorkerId> dead = readDeadWorkers();
  WorkerId heavy = kNoWorker, light = kNoWorker;
  std::uint64_t heavyLoad = 0, lightLoad = ~std::uint64_t{0};
  for (const auto& [id, s] : workers) {
    if (s.totalItems >= heavyLoad) {
      heavyLoad = s.totalItems;
      heavy = id;
    }
    if (s.totalItems < lightLoad && dead.count(id) == 0) {
      lightLoad = s.totalItems;
      light = id;
    }
  }
  if (light == kNoWorker || heavy == light) return;
  const std::uint64_t gap = heavyLoad - lightLoad;
  if (gap < cfg_.minImbalanceItems) return;
  if (lightLoad > 0 &&
      static_cast<double>(heavyLoad) <
          cfg_.imbalanceRatio * static_cast<double>(lightLoad))
    return;

  const ShardInfo* movable = nullptr;
  const ShardInfo* largestOnHeavy = nullptr;
  for (const auto& s : shards) {
    if (s.worker != heavy || replBusy(s)) continue;
    if (largestOnHeavy == nullptr || s.count > largestOnHeavy->count)
      largestOnHeavy = &s;
    if (s.count == 0 || s.count > gap / 2 + 1) continue;
    if (movable == nullptr || s.count > movable->count) movable = &s;
  }
  if (movable != nullptr) {
    startMigrate(*movable, light);
  } else if (largestOnHeavy != nullptr && largestOnHeavy->count > 1) {
    // Everything on the heavy worker is too big to move: halve the largest.
    startSplit(*largestOnHeavy);
  }
}

void Manager::startSplit(const ShardInfo& shard) {
  SplitShard req;
  req.shard = shard.id;
  req.newShard = allocShardId();
  inFlight_.add(1);
  if (dispatch(shard.worker, Op::kSplitShard, req.encode(),
               {PendingOp::Kind::kSplit, nowNanos() + cfg_.opLeaseNanos,
                shard.id}) == 0)
    inFlight_.add(-1);
}

void Manager::startMigrate(const ShardInfo& shard, WorkerId dest) {
  inFlight_.add(1);
  Move& mv = moves_[shard.id];
  mv.from = shard;
  mv.to = dest;
  mv.deadlineNanos = nowNanos() + cfg_.opLeaseNanos;
  if (std::find(shard.replicas.begin(), shard.replicas.end(), dest) !=
      shard.replicas.end()) {
    fenceAndRelease(shard.id);  // already a seeded replica: hand over now
    return;
  }
  // Step 1: append the target to the shard's chain (a two-member chain
  // when the shard has none); the owner acks once the target is seeded.
  std::vector<WorkerId> chain{shard.worker};
  chain.insert(chain.end(), shard.replicas.begin(), shard.replicas.end());
  chain.push_back(dest);
  if (!sendMoveStep(shard.id, shard.worker, Op::kReplReconfig,
                    ReplReconfig{shard.id, chain}.encode()))
    endMove(shard.id, /*done=*/false);
}

void Manager::fenceAndRelease(ShardId shard) {
  Move& mv = moves_.at(shard);
  // Step 3: from here on no member can accept a write for the shard, so
  // the owner's answers stay exact until it sheds the shard.
  const auto snap = durable_.fence(shard);
  if (!snap.has_value()) {
    endMove(shard, /*done=*/false);  // never wrote: nothing to move
    return;
  }
  mv.epoch = snap->epoch;
  // Step 4: the owner sheds the fenced shard; the chain it names spares
  // the target's mirror from the owner's drop notices.
  if (!sendMoveStep(shard, mv.from.worker, Op::kReplReconfig,
                    ReplReconfig{shard, {mv.to}}.encode()))
    endMove(shard, /*done=*/false);
}

bool Manager::sendMoveStep(ShardId shard, WorkerId to, Op op, Blob payload) {
  Move& mv = moves_.at(shard);
  const std::uint64_t corr =
      dispatch(to, op, payload,
               {PendingOp::Kind::kMigrate, mv.deadlineNanos, shard});
  mv.stepTo = workerEndpoint(to);
  mv.step = makeMessage(op, corr, managerEndpoint(), std::move(payload));
  return corr != 0;
}

void Manager::handleMoveAck(ShardId shard, const Message& m) {
  auto it = moves_.find(shard);
  if (it == moves_.end()) return;
  Move& mv = it->second;
  RecoverDone done;
  try {
    done = RecoverDone::decode(m.payload);
  } catch (const DeserializeError&) {
  }
  if (!done.ok || done.info.id != shard) {
    // Before the fence a NACK means the image owner does not host the
    // shard (as for a repair reconfig): re-host it. After, endMove does.
    if (mv.epoch == 0) orphanRetry_.insert(shard);
    endMove(shard, /*done=*/false);
    return;
  }
  if (mv.promoting) {
    // Step 5 concluded: the target serves the shard under the new epoch.
    writeShardInfo(done.info, /*relocate=*/true, /*takeCount=*/true);
    migrations_.inc();
    endMove(shard, /*done=*/true);
    return;
  }
  if (mv.epoch == 0) {
    // Step 2: every member, the target included, holds its seed. Publish
    // the chain; a target missing from it means its seed failed.
    writeShardInfo(done.info, /*relocate=*/true, /*takeCount=*/true);
    if (std::find(done.info.replicas.begin(), done.info.replicas.end(),
                  mv.to) == done.info.replicas.end()) {
      endMove(shard, /*done=*/false);
      return;
    }
    fenceAndRelease(shard);
    return;
  }
  // The owner holds nothing of the shard any more: promote the target.
  const std::uint64_t corr =
      promote(mv.from, mv.epoch, mv.to,
              {PendingOp::Kind::kMigrate, mv.deadlineNanos, shard});
  if (corr == 0) {
    endMove(shard, /*done=*/false);
    return;
  }
  mv.promoting = true;
  mv.stepTo = workerEndpoint(mv.to);
  mv.step = makeMessage(Op::kRecoverShard, corr, managerEndpoint(),
                        mirrorTakeover(shard, mv.epoch));
}

void Manager::endMove(ShardId shard, bool done) {
  auto it = moves_.find(shard);
  if (it == moves_.end()) return;
  if (!done && it->second.epoch != 0) orphanRetry_.insert(shard);
  std::erase_if(pendingOps_, [shard](const auto& entry) {
    return entry.second.kind == PendingOp::Kind::kMigrate &&
           entry.second.shard == shard;
  });
  moves_.erase(it);
  inFlight_.add(-1);
}

void Manager::writeShardInfo(const ShardInfo& info, bool relocate,
                             bool takeCount) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto cur = zk_.get(shardPath(info.id));
    if (!cur.has_value()) {
      ByteWriter w;
      info.serialize(w);
      if (zk_.create(shardPath(info.id), w.take()).has_value()) return;
      continue;
    }
    ByteReader r(cur->data);
    ShardInfo stored = ShardInfo::deserialize(r);
    stored.mergeFrom(schema_, info, /*takeLocation=*/relocate, takeCount);
    ByteWriter w;
    stored.serialize(w);
    if (zk_.set(shardPath(info.id), w.take(), cur->version).has_value())
      return;
  }
}

void Manager::handleSplitDone(const Message& m) {
  auto it = pendingOps_.find(m.corr);
  if (it == pendingOps_.end() || it->second.kind != PendingOp::Kind::kSplit)
    return;  // lease expired, duplicate Done, or mismatched op kind
  pendingOps_.erase(it);
  inFlight_.add(-1);
  SplitDone done;  // ok = false unless it decodes
  try {
    done = SplitDone::decode(m.payload);
  } catch (const DeserializeError&) {
  }
  if (!done.ok) return;
  // Publish the new shard and refresh the old one's stats; servers learn of
  // the new shard through their children watch on /volap/shards.
  // Split halves the counts: overwrite them (the one non-monotone update
  // besides relocation, see ShardInfo).
  writeShardInfo(done.right, /*relocate=*/true, /*takeCount=*/true);
  writeShardInfo(done.left, /*relocate=*/false, /*takeCount=*/true);
  splits_.inc();
}

void Manager::handleRecoverDone(const Message& m) {
  auto it = pendingOps_.find(m.corr);
  if (it == pendingOps_.end()) return;  // lease expired, or duplicate Done
  const PendingOp lease = it->second;
  if (lease.kind == PendingOp::Kind::kMigrate) {
    pendingOps_.erase(it);
    handleMoveAck(lease.shard, m);
    return;
  }
  if (lease.kind != PendingOp::Kind::kRecover) return;
  pendingOps_.erase(it);
  RecoverDone done;
  try {
    done = RecoverDone::decode(m.payload);
  } catch (const DeserializeError&) {
  }
  // Failure (no mirror to adopt, corrupt durable state, or the target got
  // re-fenced): the next tick re-fences and retries elsewhere.
  if (!done.ok || done.info.id != lease.shard) {
    takeoverFailed(lease);
    return;
  }
  pendingRecover_.erase(lease.shard);
  // Publish the new placement — epoch included, so servers reject the dead
  // owner's late acks — and the count. Servers pick the change up through
  // their /volap/shards watches, exactly like a migration.
  writeShardInfo(done.info, /*relocate=*/true, /*takeCount=*/true);
  if (lease.fromMirror) promotions_.inc();
  recoveries_.inc();
}

void Manager::handleReplReconfigAck(const Message& m) {
  auto it = pendingOps_.find(m.corr);
  if (it == pendingOps_.end()) return;
  const ShardId shard = it->second.shard;
  if (it->second.kind == PendingOp::Kind::kMigrate) {
    pendingOps_.erase(it);
    handleMoveAck(shard, m);
    return;
  }
  if (it->second.kind != PendingOp::Kind::kReconfig) return;
  pendingOps_.erase(it);
  pendingReconfig_.erase(shard);
  RecoverDone done;
  try {
    done = RecoverDone::decode(m.payload);
  } catch (const DeserializeError&) {
    return;
  }
  // Failure: with balancing ops serialized against replication ops per
  // shard, a NACK means the image owner does not actually host the shard
  // (it shed a fenced slot after a spurious death declaration, or a
  // rolled-back promotion left the image stale). Retrying the reconfig
  // would NACK forever; re-host the shard from the durable store instead.
  if (!done.ok || done.info.id != shard) {
    orphanRetry_.insert(shard);
    return;
  }
  // Publish the chain (info.replicas) alongside the unchanged placement so
  // a future promotion can find the members.
  writeShardInfo(done.info, /*relocate=*/true, /*takeCount=*/true);
  if (everChained_.count(shard) != 0) chainRepairs_.inc();
  everChained_.insert(shard);
}

}  // namespace volap
