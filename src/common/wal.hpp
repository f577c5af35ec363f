// Durability substrate for crash recovery: a per-shard write-ahead log of
// applied requests plus a checkpoint blob, both fenced by a monotone epoch.
// This is the in-process stand-in for a disk (or replicated log) that
// survives a worker process crash: workers append to the log BEFORE acking
// an insert, periodically fold the log into a checkpoint, and a recovery
// supervisor fences the store (bumping the epoch so the old owner's appends
// start failing) before reading the snapshot it restores elsewhere.
//
// Records are keyed by (from, corr) — the same identity the dedup caches
// use — so replaying a log onto a fresh shard can also re-seed the replay
// cache, making recovery transparent to in-flight retransmissions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/crc.hpp"
#include "common/serialize.hpp"

namespace volap {

/// One logged request: enough to re-apply the items AND re-ack the sender
/// if it retransmits after recovery.
struct WalRecord {
  std::string from;            // sender endpoint of the logged request
  std::uint64_t corr = 0;      // correlation id; (from, corr) is the dedup key
  std::uint16_t ackOp = 0;     // ack opcode to replay on redelivery
  Blob ackPayload;             // ack payload to replay (may be re-stamped)
  Blob items;                  // serialized PointSet the request applied

  void serialize(ByteWriter& w) const {
    w.str(from);
    w.varint(corr);
    w.u16(ackOp);
    w.bytes(ackPayload);
    w.bytes(items);
  }
  static WalRecord deserialize(ByteReader& r) {
    WalRecord rec;
    rec.from = r.str();
    rec.corr = r.varint();
    rec.ackOp = r.u16();
    rec.ackPayload = r.bytes();
    rec.items = r.bytes();
    return rec;
  }
};

/// Encode a run of WAL records as a self-checking segment: each record is
/// framed as [u32 length][u32 crc32][record bytes]. A reader can detect a
/// torn tail (partial final frame) or a bit-flipped record and recover the
/// longest intact prefix — the property a replica seed or an on-disk log
/// needs that the raw concatenation of records lacks.
inline Blob encodeWalSegment(const std::vector<WalRecord>& recs) {
  ByteWriter w;
  for (const auto& rec : recs) {
    ByteWriter body;
    rec.serialize(body);
    w.u32(static_cast<std::uint32_t>(body.size()));
    w.u32(crc32(body.data().data(), body.size()));
    w.raw(body.data().data(), body.size());
  }
  return w.take();
}

/// Result of opening a WAL segment: the intact record prefix, plus how the
/// scan ended. `torn` is true when the segment did not end cleanly — a
/// partial final frame (e.g. a crash mid-appendGroup) or a CRC mismatch —
/// and `droppedBytes` counts what was truncated.
struct WalSegmentOpen {
  std::vector<WalRecord> records;
  std::size_t droppedBytes = 0;
  bool torn = false;
};

/// Scan a segment produced by encodeWalSegment, stopping at the first
/// incomplete or corrupt frame. Never throws: whatever bytes follow the
/// last intact record are reported as dropped, so open-after-crash always
/// yields a usable (possibly shorter) log.
inline WalSegmentOpen openWalSegment(const Blob& segment) {
  WalSegmentOpen out;
  std::size_t pos = 0;
  const std::size_t n = segment.size();
  while (pos < n) {
    if (n - pos < 8) break;  // torn header
    std::uint32_t len = 0, crc = 0;
    std::memcpy(&len, segment.data() + pos, 4);
    std::memcpy(&crc, segment.data() + pos + 4, 4);
    if (n - pos - 8 < len) break;  // torn body
    const std::uint8_t* body = segment.data() + pos + 8;
    if (crc32(body, len) != crc) break;  // bit rot or mid-frame overwrite
    try {
      ByteReader r(std::span<const std::uint8_t>(body, len));
      out.records.push_back(WalRecord::deserialize(r));
    } catch (const DeserializeError&) {
      break;  // CRC collided with garbage; still truncate here
    }
    pos += 8 + len;
  }
  out.droppedBytes = n - pos;
  out.torn = out.droppedBytes != 0;
  return out;
}

/// The durable view of one shard at the moment it was fenced.
struct DurableSnapshot {
  std::uint64_t epoch = 0;  // the NEW epoch; the previous owner is fenced out
  std::uint32_t owner = 0;  // last owner to checkpoint
  Blob checkpoint;          // TransferShard-format blob (may be empty)
  std::vector<WalRecord> wal;  // records appended since that checkpoint
  /// Dedup identities of records older checkpoints truncated (items
  /// empty). The restorer seeds its replay cache from these too, so a
  /// retransmission of a pre-checkpoint request is answered, not applied.
  std::vector<WalRecord> applied;
};

/// Shared durable store, one entry per shard. Thread-safe: a short global
/// lock resolves the shard entry, then a per-entry lock serializes the
/// append/checkpoint/fence race — so hot-path appends on different shards
/// never contend.
///
/// Epoch discipline: append and saveCheckpoint succeed only while the
/// caller's epoch is current; fence() bumps the epoch and returns the
/// snapshot, so any append that succeeded is visible in some later fence
/// snapshot, and any append after a fence fails (the caller must NOT ack).
/// That ordering is the whole crash-safety argument: ack happens only after
/// a successful append, so every acked insert is either in the snapshot the
/// supervisor restores or rejected before its ack.
class DurableLog {
 public:
  /// Append one record under `epoch`. Returns false if the shard has been
  /// fenced past `epoch` — the caller must drop the request unacked.
  bool append(std::uint64_t shard, std::uint64_t epoch, WalRecord rec) {
    Rec* r = entry(shard);
    std::lock_guard lock(r->mu);
    if (epoch < r->epoch) return false;
    r->epoch = epoch;
    r->wal.push_back(std::move(rec));
    return true;
  }

  /// Group commit: append a whole batch of records under ONE per-entry lock
  /// acquisition. All-or-nothing against the fencing epoch — if the shard
  /// has been fenced past `epoch`, no record lands and the caller must not
  /// ack any member of the group. Callers pre-serialize records (the
  /// expensive PointSet encoding) before calling, so nothing heavy runs
  /// under the entry lock.
  bool appendGroup(std::uint64_t shard, std::uint64_t epoch,
                   std::vector<WalRecord>&& recs) {
    if (recs.empty()) return true;
    Rec* r = entry(shard);
    std::lock_guard lock(r->mu);
    if (epoch < r->epoch) return false;
    r->epoch = epoch;
    r->wal.reserve(r->wal.size() + recs.size());
    for (auto& rec : recs) r->wal.push_back(std::move(rec));
    return true;
  }

  /// Replace the checkpoint and truncate the log. The caller must have
  /// quiesced the shard so `blob` covers every record being truncated.
  /// Returns false if fenced past `epoch`.
  ///
  /// Truncation does NOT discard the records' dedup identities: each is
  /// folded into the bounded `applied` index (items dropped, ack kept) so
  /// that a later owner — migration target or crash recovery — can still
  /// replay the ack for a request whose sender retransmits after the
  /// checkpoint swallowed its WAL record. Without this, checkpoint +
  /// migrate + lost ack re-applies the whole request at the new owner.
  bool saveCheckpoint(std::uint64_t shard, std::uint64_t epoch,
                      std::uint32_t owner, Blob blob) {
    Rec* r = entry(shard);
    std::lock_guard lock(r->mu);
    if (epoch < r->epoch) return false;
    r->epoch = epoch;
    r->owner = owner;
    r->checkpoint = std::move(blob);
    for (auto& rec : r->wal) {
      rec.items.clear();
      r->applied.push_back(std::move(rec));
    }
    while (r->applied.size() > kAppliedCap) r->applied.pop_front();
    r->wal.clear();
    return true;
  }

  /// Erase this request's records from the shard's log. Used when a bulk
  /// apply spanning several shards fails partway (one target fenced): the
  /// surviving appends must not double-apply when the sender's retry lands
  /// on the recovered placement, so the whole attempt is rolled back. Only
  /// ever called for a request that was NOT acked, so at most one attempt's
  /// records exist — erasing every (from, corr) match is exact.
  void rollback(std::uint64_t shard, const std::string& from,
                std::uint64_t corr) {
    Rec* r = entry(shard);
    std::lock_guard lock(r->mu);
    r->wal.erase(std::remove_if(r->wal.begin(), r->wal.end(),
                                [&](const WalRecord& rec) {
                                  return rec.corr == corr && rec.from == from;
                                }),
                 r->wal.end());
  }

  /// Seal the shard against its current owner and return the durable state
  /// to restore elsewhere. Nullopt if the shard never wrote anything (then
  /// there is nothing to recover either).
  std::optional<DurableSnapshot> fence(std::uint64_t shard) {
    Rec* r;
    {
      std::lock_guard lock(mu_);
      auto it = recs_.find(shard);
      if (it == recs_.end()) return std::nullopt;
      r = it->second.get();
    }
    std::lock_guard lock(r->mu);
    DurableSnapshot snap;
    snap.epoch = ++r->epoch;
    snap.owner = r->owner;
    snap.checkpoint = r->checkpoint;
    snap.wal = r->wal;
    snap.applied.assign(r->applied.begin(), r->applied.end());
    return snap;
  }

  /// True if the store has an entry for the shard (it existed under SOME
  /// owner). Lets a worker distinguish "protocol garbage aimed at a shard
  /// nobody ever created" (safe to drop-ack) from "a shard I was fenced
  /// out of" (must stay silent so the sender retries toward the owner).
  bool knows(std::uint64_t shard) const {
    std::lock_guard lock(mu_);
    return recs_.count(shard) != 0;
  }

  std::uint64_t epochOf(std::uint64_t shard) const {
    std::lock_guard lock(mu_);
    auto it = recs_.find(shard);
    if (it == recs_.end()) return 0;
    std::lock_guard rlock(it->second->mu);
    return it->second->epoch;
  }

  std::size_t walEntries(std::uint64_t shard) const {
    std::lock_guard lock(mu_);
    auto it = recs_.find(shard);
    if (it == recs_.end()) return 0;
    std::lock_guard rlock(it->second->mu);
    return it->second->wal.size();
  }

  /// Every dedup identity the store knows for this shard — the applied
  /// index (checkpointed-away records, items empty) followed by the live
  /// WAL tail — without fencing. A new chain member receives it with its
  /// seed and, once promoted, seeds its replay cache from it (records
  /// carry the original (from, corr) and ack), so a sender retransmitting
  /// a request the OLD owner applied — ack lost in flight — gets the ack
  /// replayed instead of a double apply, exactly as crash recovery does
  /// with the fence snapshot.
  std::vector<WalRecord> dedupTail(std::uint64_t shard) const {
    std::lock_guard lock(mu_);
    auto it = recs_.find(shard);
    if (it == recs_.end()) return {};
    std::lock_guard rlock(it->second->mu);
    std::vector<WalRecord> out;
    out.reserve(it->second->applied.size() + it->second->wal.size());
    out.insert(out.end(), it->second->applied.begin(),
               it->second->applied.end());
    out.insert(out.end(), it->second->wal.begin(), it->second->wal.end());
    return out;
  }

  bool hasCheckpoint(std::uint64_t shard) const {
    std::lock_guard lock(mu_);
    auto it = recs_.find(shard);
    if (it == recs_.end()) return false;
    std::lock_guard rlock(it->second->mu);
    return !it->second->checkpoint.empty();
  }

  std::vector<std::uint64_t> shardIds() const {
    std::lock_guard lock(mu_);
    std::vector<std::uint64_t> out;
    out.reserve(recs_.size());
    for (const auto& [id, rec] : recs_) out.push_back(id);
    return out;
  }

 private:
  struct Rec {
    mutable std::mutex mu;
    std::uint64_t epoch = 0;
    std::uint32_t owner = 0;
    Blob checkpoint;
    std::vector<WalRecord> wal;
    /// Dedup identities of records a checkpoint folded away (items
    /// cleared, ack kept). Bounded FIFO; see kAppliedCap.
    std::deque<WalRecord> applied;
  };

  /// How many checkpointed-away (from, corr) identities to retain per
  /// shard. Bounds the window in which a sender's retransmission of an
  /// already-applied, already-checkpointed request is still answered from
  /// a successor's replay cache instead of re-applied.
  static constexpr std::size_t kAppliedCap = 8192;

  Rec* entry(std::uint64_t shard) {
    std::lock_guard lock(mu_);
    auto it = recs_.find(shard);
    if (it == recs_.end())
      it = recs_.emplace(shard, std::make_unique<Rec>()).first;
    return it->second.get();
  }

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::unique_ptr<Rec>> recs_;
};

}  // namespace volap
