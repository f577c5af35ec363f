// The manager background process (paper SIII-E): periodically analyzes the
// system state stored in the keeper and initiates load-balancing operations
// — splitting oversized shards and migrating shards from overloaded (or
// onto newly added, empty) workers — while the system keeps serving
// inserts and queries. The manager is deliberately not on the data path.
//
// A migration is a chain handover (chain reconfiguration, van Renesse &
// Schneider): the target is appended to the shard's replication chain and
// seeded (skipped when it already is a replica), the durable store is
// fenced, the old owner sheds the shard, and the target is promoted under
// the new epoch — the same promotion that fails a dead primary over.
//
// Fault tolerance: every split/migrate carries a lease; if the worker's
// report does not arrive before the lease expires (dropped command,
// dropped report, stuck worker), the operation is written off and its
// in-flight slot reclaimed, so balancing never wedges. Late reports for
// expired leases are ignored (no double accounting). A move resends its
// current step every tick (each step is idempotent), and a move written
// off after its fence is re-hosted by the orphan-heal path below. Move
// targets are chosen among workers with a fresh liveness heartbeat.
//
// Crash recovery: the manager also runs the re-hosting supervisor over
// the cluster's DurableLog. A worker whose heartbeat stays stale past
// an extra grace period is declared dead; each shard the image maps to it
// is fenced in the durable store (epoch bump — the zombie's appends start
// failing) and handed to a live worker with the one takeover command,
// kRecoverShard, under the same lease regime: a surviving chain member
// adopts its mirror (promotion), else the checkpoint + WAL tail is
// shipped to the lightest live worker (cold recovery). The dead worker's
// znodes are removed only after every one of its shards has been
// re-hosted, so a supervisor restart re-derives the remaining work from
// the image.
// Recovery runs even while balancing is paused.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "cluster/protocol.hpp"
#include "common/metrics.hpp"
#include "keeper/keeper.hpp"
#include "net/fabric.hpp"

namespace volap {

struct ManagerConfig {
  std::uint64_t periodNanos = 1'000'000'000;  // analysis cadence
  /// Split any shard that grows beyond this (keeps migration units small,
  /// SIII-E: "a shard can also be split if the load balancer requires
  /// smaller shards for migration").
  std::uint64_t maxShardItems = 200'000;
  /// Rebalance when max/min worker load diverges beyond this ratio.
  double imbalanceRatio = 1.5;
  /// Absolute slack: ignore imbalance below this many items.
  std::uint64_t minImbalanceItems = 2'000;
  /// In-flight operation cap per tick.
  unsigned maxConcurrentOps = 2;
  bool enabled = true;
  /// How long a split/migrate may stay unacknowledged before the manager
  /// writes it off and reclaims its in-flight slot. Must comfortably exceed
  /// the workers' seed retry budget so a move whose seed failed reports it
  /// before the lease expires.
  std::uint64_t opLeaseNanos = 10'000'000'000;
  /// A worker whose liveness heartbeat is older than this is not chosen as
  /// a migration target. Workers without a heartbeat znode are assumed
  /// alive (bootstrap races, hand-built test images).
  std::uint64_t aliveTimeoutNanos = 2'500'000'000;
  /// Crash-recovery supervision: a stale heartbeat must persist this long
  /// PAST aliveTimeoutNanos before the worker is declared dead and its
  /// shards re-hosted — transient stalls (GC-like pauses, fabric hiccups)
  /// should not trigger a fencing storm.
  std::uint64_t deadGraceNanos = 2'000'000'000;
  /// Replication factor R: every shard should live on one primary plus
  /// R-1 chain replicas on distinct live workers (src/repl/repl.hpp).
  /// With R = 1 a shard has a chain only while it moves (the two-member
  /// chain of a handover), and the repair scan shrinks any chain a move
  /// left behind; otherwise the workers' ingest path skips the
  /// replication branch.
  unsigned replicationFactor = 2;
};

class Manager {
 public:
  Manager(Fabric& fabric, const Schema& schema, ManagerConfig cfg,
          ShardId firstShardId, DurableLog& durable);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  void stop();

  /// Pause/resume balancing (the Fig. 6 experiment runs discrete phases).
  void setEnabled(bool on);

  /// Lifetime counters for the Fig. 6 series. Views over the manager's
  /// metrics registry (the same numbers a kStats scrape returns).
  std::uint64_t splitsDone() const { return splits_.value(); }
  std::uint64_t migrationsDone() const { return migrations_.value(); }
  std::uint64_t opsInFlight() const {
    return static_cast<std::uint64_t>(inFlight_.value());
  }
  /// Operations whose lease expired without a Done report.
  std::uint64_t opsTimedOut() const { return opsTimedOut_.value(); }
  /// Shards successfully re-hosted off dead workers.
  std::uint64_t recoveriesDone() const { return recoveries_.value(); }
  /// Dead primaries replaced by promoting a caught-up chain replica in
  /// place (the fast-failover path; a cold takeover is the fallback).
  std::uint64_t promotionsDone() const { return promotions_.value(); }
  /// Broken chains rebuilt with fresh members (a member died or the
  /// primary tore the chain down after its retransmission budget).
  std::uint64_t chainRepairsDone() const { return chainRepairs_.value(); }

  /// This manager's metrics registry (scraped via kStats).
  MetricsRegistry& metrics() { return metrics_; }

  /// Allocate a fresh shard id (also used by the bootstrap path).
  ShardId allocShardId() { return nextShardId_.fetch_add(1); }

 private:
  /// Lease for one outstanding command, keyed by its corr. `shard` names
  /// the shard the command works on, so an expired lease can un-pend it.
  /// A takeover (kRecover, or a move's last step) also records the image
  /// owner it moves the shard off and its source, for takeoverFailed.
  struct PendingOp {
    enum class Kind : std::uint8_t { kSplit, kMigrate, kRecover, kReconfig };
    Kind kind = Kind::kSplit;
    std::uint64_t deadlineNanos = 0;
    ShardId shard = 0;
    WorkerId owner = kNoWorker;
    bool fromMirror = false;
  };
  /// One migration in flight: its lease, where it moves the shard, and
  /// the step it waits on (resent every tick until acked).
  struct Move {
    ShardInfo from;                  // image entry when the move began
    WorkerId to = kNoWorker;
    std::uint64_t epoch = 0;         // fence epoch; 0 before the fence
    bool promoting = false;          // casPromotion done, promote sent
    std::uint64_t deadlineNanos = 0;
    std::string stepTo;              // endpoint of the pending step
    Message step;                    // its command, corr included
  };

  void serve();
  void handleStats(const Message& m);
  void analyze();
  void sweepLeases();
  void superviseRecovery();
  void handleSplitDone(const Message& m);
  /// The one takeover ack: a kMigrate lease goes to handleMoveAck, a
  /// kRecover one (either source) concludes here.
  void handleRecoverDone(const Message& m);
  void handleReplReconfigAck(const Message& m);
  /// Rebuild every chain that is short of replicationFactor - 1 healthy
  /// members on distinct trusted workers (runs each supervision tick).
  /// `avoid` holds dead workers plus suspects still inside the dead grace
  /// — no reconfig is dispatched to or recruits from either.
  void repairChains(const std::map<WorkerId, WorkerStats>& workers,
                    const std::vector<ShardInfo>& shards,
                    const std::set<WorkerId>& avoid);
  /// CAS the image entry to (worker = target, epoch, replicas cleared) —
  /// the promotion commit point. Fails if the chain changed under us (the
  /// primary's own teardown gate won the race) or someone moved the epoch
  /// past ours; the caller then falls back to cold recovery.
  bool casPromotion(const ShardInfo& s, std::uint64_t epoch,
                    WorkerId target);
  /// Promotion dispatch, shared by failover and moves: casPromotion, then
  /// a mirror-source kRecoverShard to `target` under `lease`. Returns the
  /// command's corr, or 0 when the CAS lost or the send failed (then
  /// takeoverFailed pointed the image back at s.worker).
  std::uint64_t promote(const ShardInfo& s, std::uint64_t epoch,
                        WorkerId target, PendingOp lease);
  /// Cold takeover: fence `s`, ship its durable state to `target` as a
  /// kRecoverShard and note it in pendingRecover_. Returns false only when
  /// the send failed; a shard that never wrote needs nothing and is true.
  bool rehostCold(const ShardInfo& s, WorkerId target);
  /// A takeover under `lease` was NACKed, lost or expired: un-pend the
  /// shard and make it an orphan suspect. After a mirror-source attempt
  /// the image is pointed back at lease.owner (only casPromotion moved it).
  void takeoverFailed(const PendingOp& lease);
  /// Send `op` to worker `to` under `lease`; returns its corr, 0 if the
  /// send failed (nothing registered).
  std::uint64_t dispatch(WorkerId to, Op op, Blob payload, PendingOp lease);
  /// True while a split or migration of `shard` is in flight.
  bool balancing(ShardId shard) const;
  bool readImage(std::map<WorkerId, WorkerStats>& workers,
                 std::vector<ShardInfo>& shards);
  /// Workers whose liveness beat is stale past aliveTimeout + extra grace.
  /// When `haveBeat` is given, it collects every worker that has a beat
  /// znode at all (so callers can spot never-registered workers).
  std::set<WorkerId> readDeadWorkers(std::uint64_t extraGraceNanos = 0,
                                     std::set<WorkerId>* haveBeat = nullptr);
  void startSplit(const ShardInfo& shard);
  void startMigrate(const ShardInfo& shard, WorkerId dest);
  /// Move steps 3-4: fence the shard, then tell the owner to shed it.
  void fenceAndRelease(ShardId shard);
  /// Advance a move on its step's ack (a kReplReconfigAck or
  /// kRecoverDone whose lease is a kMigrate).
  void handleMoveAck(ShardId shard, const Message& m);
  /// Register `op` to `to` as the move's pending step and send it.
  bool sendMoveStep(ShardId shard, WorkerId to, Op op, Blob payload);
  /// Conclude a move: a fenced shard whose handover did not finish is
  /// left to the orphan-heal path (before the fence the repair scan puts
  /// the chain back in shape).
  void endMove(ShardId shard, bool done);
  void writeShardInfo(const ShardInfo& info, bool relocate,
                      bool takeCount);

  Fabric& fabric_;
  const Schema& schema_;
  ManagerConfig cfg_;
  DurableLog& durable_;
  std::shared_ptr<Mailbox> inbox_;
  KeeperClient zk_;
  std::atomic<ShardId> nextShardId_;
  std::atomic<bool> enabled_;

  // Registry-backed counters (handles created in the constructor).
  MetricsRegistry metrics_;
  Counter& splits_;
  Counter& migrations_;
  Gauge& inFlight_;
  Counter& opsTimedOut_;
  Counter& recoveries_;
  Counter& promotions_;
  Counter& chainRepairs_;
  std::uint64_t nextCorr_ = 1;
  std::map<std::uint64_t, PendingOp> pendingOps_;  // serve thread only
  /// Shards with an outstanding takeover (kRecoverShard outside a move),
  /// mapped to the worker they are being moved off (serve thread only).
  std::map<ShardId, WorkerId> pendingRecover_;
  /// Shards with an outstanding kReplReconfig, mapped to the chain it
  /// installs (serve thread only).
  std::map<ShardId, std::vector<WorkerId>> pendingReconfig_;
  /// Orphan suspects: the image maps them to a worker that reported (or
  /// timed out suggesting) it no longer hosts them — a fencing race, e.g.
  /// a spuriously-dead-declared owner shedding its fenced slot, or a
  /// failed promotion rolled back. The supervisor cold-recovers these from
  /// the durable store even though their image owner looks alive.
  std::set<ShardId> orphanRetry_;
  /// Shards that have completed at least one reconfig: a later reconfig
  /// for them is a chain REPAIR, not initial chain creation.
  std::set<ShardId> everChained_;
  /// Migrations in flight (serve thread only).
  std::map<ShardId, Move> moves_;

  std::thread thread_;
};

}  // namespace volap
