// Wire protocol between clients, servers, workers and the manager. Every
// payload is a flat ByteWriter blob; opcodes live in the 0x200 range so
// they never collide with keeper traffic sharing the same fabric.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/types.hpp"
#include "common/wal.hpp"
#include "net/fabric.hpp"
#include "olap/aggregate.hpp"
#include "olap/point.hpp"
#include "olap/query_box.hpp"
#include "tree/shard.hpp"

namespace volap {

enum class Op : std::uint16_t {
  // Client -> Server.
  kInsert = 0x200,      // point
  kQuery = 0x201,       // QueryBox
  kBulk = 0x202,        // PointSet
  // Server -> Client.
  kInsertAck = 0x210,
  kQueryReply = 0x211,  // Aggregate + routing stats
  kBulkAck = 0x212,
  // Server -> Worker.
  kWQuery = 0x221,      // shard id list + QueryBox
  kWBulk = 0x222,       // shard id + PointSet
  // Worker -> Server.
  kWQueryReply = 0x231, // Aggregate + searched count + moved list
  kWBulkAck = 0x232,
  // Manager/bootstrap -> Worker.
  kCreateShard = 0x240,   // shard id + kind
  kSplitShard = 0x241,    // shard id + new shard id
  kRecoverShard = 0x243,  // takeover: adopt own mirror, or durable state
  // Worker -> Manager.
  kCreateShardAck = 0x250,
  kSplitDone = 0x251,   // ok + both halves' info
  kRecoverDone = 0x253, // ok + the taken-over shard's info
  // Stats plane (any scraper -> any node; see cluster/stats.hpp).
  kStats = 0x270,       // empty payload; reply-to taken from Message::from
  kStatsReply = 0x271,  // StatsReply: node name + registry snapshot + traces
  // Replication plane (see repl/repl.hpp for payloads).
  kReplAppend = 0x280,      // primary/replica -> successor: chained WAL entry
  kReplAck = 0x281,         // tail -> primary: cumulative apply ack
  kReplSeed = 0x282,        // primary -> new chain member: checkpoint + WAL
  kReplSeedAck = 0x283,     // member -> primary: seed installed
  kReplReconfig = 0x284,    // manager -> owner: adopt (or hand over) chain
  kReplReconfigAck = 0x285, // primary -> manager: RecoverDone
};

// ---- small payload helpers -------------------------------------------------

inline void writePoint(ByteWriter& w, PointRef p) {
  w.varint(p.coords.size());
  for (auto c : p.coords) w.varint(c);
  w.f64(p.measure);
}

inline Point readPoint(ByteReader& r) {
  Point p;
  const auto d = r.varint();
  p.coords.reserve(std::min<std::uint64_t>(d, r.remaining()));  // untrusted
  for (std::uint64_t i = 0; i < d; ++i) p.coords.push_back(r.varint());
  p.measure = r.f64();
  return p;
}

/// kWQuery payload.
struct WQuery {
  std::vector<ShardId> shards;
  QueryBox box;

  Blob encode() const {
    ByteWriter w;
    w.varint(shards.size());
    for (auto s : shards) w.varint(s);
    box.serialize(w);
    return w.take();
  }
  static WQuery decode(const Blob& b) {
    ByteReader r(b);
    WQuery m;
    const auto n = r.varint();
    m.shards.reserve(std::min<std::uint64_t>(n, r.remaining()));  // untrusted
    for (std::uint64_t i = 0; i < n; ++i) m.shards.push_back(r.varint());
    m.box = QueryBox::deserialize(r);
    return m;
  }
};

/// kWQueryReply payload: partial aggregate, the split children reached
/// through a mapping that this worker does not own (`moved`: the server
/// locates each in its image), and a list of requested shards this worker
/// does not host at all (e.g. it was fenced out of them) — the server
/// counts those as unreachable for this query and refreshes its image
/// rather than silently treating them as empty. A worker answers for every
/// shard it holds, owned or mirrored.
struct WQueryReply {
  Aggregate agg;
  std::uint32_t searchedShards = 0;
  std::vector<ShardId> moved;
  std::vector<ShardId> notMine;

  Blob encode() const {
    ByteWriter w;
    agg.serialize(w);
    w.u32(searchedShards);
    w.varint(moved.size());
    for (auto id : moved) w.varint(id);
    w.varint(notMine.size());
    for (auto id : notMine) w.varint(id);
    return w.take();
  }
  static WQueryReply decode(const Blob& b) {
    ByteReader r(b);
    WQueryReply m;
    m.agg = Aggregate::deserialize(r);
    m.searchedShards = r.u32();
    const auto n = r.varint();
    m.moved.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) m.moved.push_back(r.varint());
    const auto nm = r.varint();
    m.notMine.reserve(nm);
    for (std::uint64_t i = 0; i < nm; ++i) m.notMine.push_back(r.varint());
    return m;
  }
};

/// kQueryReply payload (server -> client). `partial` marks graceful
/// degradation: some shards stayed unreachable after the server's retry
/// budget, so the aggregate covers only the shards that answered.
struct QueryReply {
  Aggregate agg;
  std::uint32_t shardsSearched = 0;
  std::uint32_t workersAsked = 0;
  bool partial = false;
  std::uint32_t unreachableShards = 0;

  Blob encode() const {
    ByteWriter w;
    agg.serialize(w);
    w.u32(shardsSearched);
    w.u32(workersAsked);
    w.u8(partial ? 1 : 0);
    w.u32(unreachableShards);
    return w.take();
  }
  static QueryReply decode(const Blob& b) {
    ByteReader r(b);
    QueryReply m;
    m.agg = Aggregate::deserialize(r);
    m.shardsSearched = r.u32();
    m.workersAsked = r.u32();
    m.partial = r.u8() != 0;
    m.unreachableShards = r.u32();
    return m;
  }
};

/// kCreateShard payload.
struct CreateShard {
  ShardId shard = 0;
  ShardKind kind = ShardKind::kHilbertPdcMds;

  Blob encode() const {
    ByteWriter w;
    w.varint(shard);
    w.u8(static_cast<std::uint8_t>(kind));
    return w.take();
  }
  static CreateShard decode(const Blob& b) {
    ByteReader r(b);
    CreateShard m;
    m.shard = r.varint();
    m.kind = static_cast<ShardKind>(r.u8());
    return m;
  }
};

/// kSplitShard payload.
struct SplitShard {
  ShardId shard = 0;
  ShardId newShard = 0;

  Blob encode() const {
    ByteWriter w;
    w.varint(shard);
    w.varint(newShard);
    return w.take();
  }
  static SplitShard decode(const Blob& b) {
    ByteReader r(b);
    SplitShard m;
    m.shard = r.varint();
    m.newShard = r.varint();
    return m;
  }
};

/// kSplitDone payload.
struct SplitDone {
  bool ok = false;
  ShardInfo left;   // keeps the original id
  ShardInfo right;  // the new id

  Blob encode() const {
    ByteWriter w;
    w.u8(ok ? 1 : 0);
    left.serialize(w);
    right.serialize(w);
    return w.take();
  }
  static SplitDone decode(const Blob& b) {
    ByteReader r(b);
    SplitDone m;
    m.ok = r.u8() != 0;
    m.left = ShardInfo::deserialize(r);
    m.right = ShardInfo::deserialize(r);
    return m;
  }
};

/// A shard's serialized state: the checkpoint format of the durable store
/// and the snapshot a kReplSeed ships to a new chain member. Carries the
/// mapping-table entry (SIII-E) along with the data, so a previously split
/// shard keeps redirecting queries to its right half wherever it is
/// restored or promoted, plus the fencing epoch it was taken under.
struct TransferShard {
  ShardId shard = 0;
  std::uint64_t epoch = 0;
  Blob blob;
  std::vector<std::pair<Hyperplane, ShardId>> splits;  // mapping chain

  Blob encode() const {
    ByteWriter w;
    w.varint(shard);
    w.varint(epoch);
    w.bytes(blob);
    w.varint(splits.size());
    for (const auto& [plane, rightId] : splits) {
      plane.serialize(w);
      w.varint(rightId);
    }
    return w.take();
  }
  static TransferShard decode(const Blob& b) {
    ByteReader r(b);
    TransferShard m;
    m.shard = r.varint();
    m.epoch = r.varint();
    m.blob = r.bytes();
    const auto n = r.varint();
    m.splits.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Hyperplane plane = Hyperplane::deserialize(r);
      const ShardId rightId = r.varint();
      m.splits.emplace_back(plane, rightId);
    }
    return m;
  }
};

/// kRecoverShard payload: the manager hands a fenced shard to a surviving
/// worker, which holds it under `epoch` from then on (one takeover command
/// for failover, a move's promotion and cold re-hosting). With `fromMirror`
/// the worker adopts its own chain mirror of the shard and the durable
/// fields are empty; otherwise it rebuilds the shard from them:
/// `checkpoint` is a TransferShard-format blob (empty for a shard that
/// never checkpointed) and `wal` holds the records appended after it, in
/// apply order. Either way the answer is a kRecoverDone.
struct RecoverShard {
  ShardId shard = 0;
  std::uint64_t epoch = 0;  // install under this epoch; zombie is below it
  bool fromMirror = false;
  Blob checkpoint;
  std::vector<WalRecord> wal;
  /// Dedup identities of requests older checkpoints already folded in
  /// (items empty — data-wise they are covered by `checkpoint`). The new
  /// owner seeds its replay cache from these so a retransmission of a
  /// pre-checkpoint request is re-acked, never re-applied.
  std::vector<WalRecord> applied;

  Blob encode() const {
    ByteWriter w;
    w.varint(shard);
    w.varint(epoch);
    w.u8(fromMirror ? 1 : 0);
    w.bytes(checkpoint);
    w.varint(wal.size());
    for (const auto& rec : wal) rec.serialize(w);
    w.varint(applied.size());
    for (const auto& rec : applied) rec.serialize(w);
    return w.take();
  }
  static RecoverShard decode(const Blob& b) {
    ByteReader r(b);
    RecoverShard m;
    m.shard = r.varint();
    m.epoch = r.varint();
    m.fromMirror = r.u8() != 0;
    m.checkpoint = r.bytes();
    const auto n = r.varint();
    m.wal.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
      m.wal.push_back(WalRecord::deserialize(r));
    const auto na = r.varint();
    m.applied.reserve(na);
    for (std::uint64_t i = 0; i < na; ++i)
      m.applied.push_back(WalRecord::deserialize(r));
    return m;
  }
};

/// kRecoverDone payload.
struct RecoverDone {
  bool ok = false;
  ShardInfo info;  // the shard as hosted by its new owner

  Blob encode() const {
    ByteWriter w;
    w.u8(ok ? 1 : 0);
    info.serialize(w);
    return w.take();
  }
  static RecoverDone decode(const Blob& b) {
    ByteReader r(b);
    RecoverDone m;
    m.ok = r.u8() != 0;
    m.info = ShardInfo::deserialize(r);
    return m;
  }
};

/// kWBulk payload.
struct ShardBatch {
  ShardId shard = 0;
  PointSet items;

  Blob encode() const {
    ByteWriter w;
    w.varint(shard);
    items.serialize(w);
    return w.take();
  }
  static ShardBatch decode(const Blob& b) {
    ByteReader r(b);
    ShardBatch m;
    m.shard = r.varint();
    m.items = PointSet::deserialize(r);
    return m;
  }
};

/// kWBulkAck payload: items applied and the fencing stamps of the batch.
/// `stamps` names every slot the batch was applied to and that slot's
/// fencing epoch, so a server whose image already carries a newer epoch for
/// one of them rejects a zombie owner's ack and keeps retrying toward the
/// new owner. An ack with no stamps (unknown shard, nothing applied) is
/// accepted as-is. The stamps follow `applied`, so decode() accepts a bare
/// count and readers that stop after the first varint keep working.
struct WBulkAck {
  std::uint64_t applied = 0;
  std::vector<std::pair<ShardId, std::uint64_t>> stamps;  // (shard, epoch)

  Blob encode() const {
    ByteWriter w;
    w.varint(applied);
    w.varint(stamps.size());
    for (const auto& [shard, epoch] : stamps) {
      w.varint(shard);
      w.varint(epoch);
    }
    return w.take();
  }
  static WBulkAck decode(const Blob& b) {
    ByteReader r(b);
    WBulkAck m;
    m.applied = r.varint();
    if (r.remaining() > 0) {
      const auto n = r.varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        const ShardId shard = r.varint();
        const std::uint64_t epoch = r.varint();
        m.stamps.emplace_back(shard, epoch);
      }
    }
    return m;
  }
};

inline Message makeMessage(Op op, std::uint64_t corr, std::string from,
                           SharedBlob payload) {
  Message m;
  m.type = static_cast<std::uint16_t>(op);
  m.corr = corr;
  m.from = std::move(from);
  m.payload = std::move(payload);
  return m;
}

}  // namespace volap
