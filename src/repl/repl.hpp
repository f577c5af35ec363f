// Shard replication subsystem: chain-replicated WALs (ops 0x280-0x285 in
// cluster/protocol.hpp). Every replicated shard has a chain of workers —
// primary first, tail last. The primary forwards each WAL-appended request
// batch down the chain as a kReplAppend carrying (shard, epoch, log-index,
// records); each replica applies to its own live tree and relays; the
// TAIL's kReplAck walks back up and only then does the primary release the
// client ack. That ordering is the durability argument: an acked insert is
// on every chain member, so promotion of ANY surviving member loses
// nothing acked, and the most-caught-up survivor (the earliest in chain
// order) has everything any later member acked.
//
// Seeding a new member ships a checkpoint (TransferShard format) plus the
// dedup tail framed as a CRC-checked WAL segment (common/wal.hpp), so a
// torn or corrupt seed truncates to the intact prefix instead of poisoning
// the replica.
//
// Promotion has no op of its own: the manager sends a chain member the
// takeover command, kRecoverShard with `fromMirror` set, and the member
// installs its mirror as the shard's slot (cluster/protocol.hpp).
//
// This header defines the wire payloads and the in-worker chain state;
// the forwarding/apply/takeover state machines live in cluster/worker.cpp
// and the placement/promotion supervisor in cluster/manager.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/types.hpp"
#include "common/trace.hpp"
#include "common/wal.hpp"
#include "net/fabric.hpp"
#include "tree/shard.hpp"

namespace volap {

// ---- wire payloads ---------------------------------------------------------

/// kReplAppend: one chained WAL entry, forwarded hop by hop. `chain` is the
/// FULL chain including the primary at [0]; a receiver locates itself in it
/// to learn its successor (forward) or absence (stale membership — ignore).
/// `logIndex` numbers entries per (shard, epoch) starting at 1; replicas
/// apply strictly in index order, stashing gaps.
struct ReplAppend {
  ShardId shard = 0;
  std::uint64_t epoch = 0;
  std::uint64_t logIndex = 0;
  std::uint64_t sendNanos = 0;  // primary's forward timestamp (lag metric)
  std::vector<WorkerId> chain;
  std::vector<WalRecord> records;

  Blob encode() const {
    ByteWriter w;
    w.varint(shard);
    w.varint(epoch);
    w.varint(logIndex);
    w.u64(sendNanos);
    w.varint(chain.size());
    for (auto m : chain) w.u32(m);
    w.varint(records.size());
    for (const auto& rec : records) rec.serialize(w);
    return w.take();
  }
  static ReplAppend decode(const Blob& b) {
    ByteReader r(b);
    ReplAppend m;
    m.shard = r.varint();
    m.epoch = r.varint();
    m.logIndex = r.varint();
    m.sendNanos = r.u64();
    const auto nc = r.varint();
    m.chain.reserve(nc);
    for (std::uint64_t i = 0; i < nc; ++i) m.chain.push_back(r.u32());
    const auto nr = r.varint();
    m.records.reserve(nr);
    for (std::uint64_t i = 0; i < nr; ++i)
      m.records.push_back(WalRecord::deserialize(r));
    return m;
  }
};

/// kReplAck: cumulative — acking `logIndex` acks every entry at or below
/// it. Message::corr echoes the corr of the append being answered so the
/// sender can match its retransmit window entry.
struct ReplAck {
  ShardId shard = 0;
  std::uint64_t epoch = 0;
  std::uint64_t logIndex = 0;

  Blob encode() const {
    ByteWriter w;
    w.varint(shard);
    w.varint(epoch);
    w.varint(logIndex);
    return w.take();
  }
  static ReplAck decode(const Blob& b) {
    ByteReader r(b);
    ReplAck m;
    m.shard = r.varint();
    m.epoch = r.varint();
    m.logIndex = r.varint();
    return m;
  }
};

/// kReplSeed: full state transfer to a new chain member. `checkpoint` is a
/// TransferShard-format blob (the durable store's checkpoint format);
/// `segment` is the dedup tail framed by encodeWalSegment so the receiver
/// CRC-verifies it. Appends with logIndex > startIndex follow. A primary's
/// log indices for a shard keep rising across chain rebuilds, so a member
/// kept in a rebuilt chain takes the new seed, and an append of the old
/// chain that arrives late is a duplicate, never a second apply.
struct ReplSeed {
  ShardId shard = 0;
  std::uint64_t epoch = 0;
  std::uint64_t startIndex = 0;  // member is caught up through this index
  std::vector<WorkerId> chain;
  Blob checkpoint;
  Blob segment;

  Blob encode() const {
    ByteWriter w;
    w.varint(shard);
    w.varint(epoch);
    w.varint(startIndex);
    w.varint(chain.size());
    for (auto m : chain) w.u32(m);
    w.bytes(checkpoint);
    w.bytes(segment);
    return w.take();
  }
  static ReplSeed decode(const Blob& b) {
    ByteReader r(b);
    ReplSeed m;
    m.shard = r.varint();
    m.epoch = r.varint();
    m.startIndex = r.varint();
    const auto nc = r.varint();
    m.chain.reserve(nc);
    for (std::uint64_t i = 0; i < nc; ++i) m.chain.push_back(r.u32());
    m.checkpoint = r.bytes();
    m.segment = r.bytes();
    return m;
  }
};

/// kReplSeedAck.
struct ReplSeedAck {
  ShardId shard = 0;
  std::uint64_t startIndex = 0;

  Blob encode() const {
    ByteWriter w;
    w.varint(shard);
    w.varint(startIndex);
    return w.take();
  }
  static ReplSeedAck decode(const Blob& b) {
    ByteReader r(b);
    ReplSeedAck m;
    m.shard = r.varint();
    m.startIndex = r.varint();
    return m;
  }
};

/// kReplReconfig: the manager (corr != 0, under lease, expects
/// kReplReconfigAck) tells a primary to run this chain; the ack goes out
/// once every new member has installed its seed, so the image never lists
/// a replica that holds nothing. Sent to the owner of a fenced shard with
/// a chain that does not start with it, it is a handover: the owner sheds
/// the shard (see Worker::fenceSlot) and acks. Sent with corr == 0 it is a
/// fire-and-forget membership notice — a receiver absent from `chain`
/// discards its replica state for the shard.
struct ReplReconfig {
  ShardId shard = 0;
  std::vector<WorkerId> chain;  // full chain, primary at [0]

  Blob encode() const {
    ByteWriter w;
    w.varint(shard);
    w.varint(chain.size());
    for (auto m : chain) w.u32(m);
    return w.take();
  }
  static ReplReconfig decode(const Blob& b) {
    ByteReader r(b);
    ReplReconfig m;
    m.shard = r.varint();
    const auto n = r.varint();
    m.chain.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) m.chain.push_back(r.u32());
    return m;
  }
};

// ---- in-worker chain state -------------------------------------------------

/// A client (or server) request whose ack is parked until the chain tail
/// confirms. One DeferredAck may span several chained shards (a kWBulk that
/// hit multiple replicated targets); `remaining` counts outstanding tails.
struct DeferredAck {
  std::string from;
  std::uint64_t corr = 0;
  std::uint16_t ackOp = 0;
  Blob payload;
  std::uint64_t traceId = 0;
  std::vector<TraceHop> hops;
  unsigned remaining = 0;
};

/// One un-acked entry in a sender's retransmit window. The encoded payload
/// is kept verbatim so a retransmission is byte-identical (replicas dedup
/// by logIndex, not corr).
struct ReplOutEntry {
  SharedBlob payload;   // encoded ReplAppend
  std::uint64_t corr = 0;
  unsigned attempts = 0;
  std::uint64_t dueNanos = 0;
  std::uint64_t sendNanos = 0;
  // Primary only: the client acks this entry releases when the tail
  // confirms it.
  std::vector<std::shared_ptr<DeferredAck>> clientAcks;
  // Intermediate replica only: where to relay the tail's ack upstream.
  std::string ackTo;
  std::uint64_t ackCorr = 0;
  // Trace plumbing: set on the first send only.
  std::uint64_t traceId = 0;
  std::vector<TraceHop> hops;
};

/// Primary-side chain state for one hosted shard.
struct ChainState {
  std::vector<WorkerId> chain;   // self at [0]; size >= 2 when active
  std::uint64_t epoch = 0;
  std::uint64_t nextIndex = 1;   // next logIndex to assign
  std::map<std::uint64_t, ReplOutEntry> window;  // logIndex -> un-acked
  std::set<WorkerId> seeded;     // members whose seed was acked
  /// The manager's kReplReconfig, acked once every member is seeded
  /// (reportCorr == 0: nothing to ack).
  std::string reportTo;
  std::uint64_t reportCorr = 0;
  ShardInfo reportInfo;
};

/// Replica-side state for one shard this worker mirrors but does not own.
/// `log` keeps the dedup identities (items cleared) of applied records so
/// promotion can seed the replay cache exactly like cold recovery does.
struct ReplicaShard {
  std::shared_ptr<Shard> shard;
  std::vector<WorkerId> chain;
  std::uint64_t epoch = 0;
  std::uint64_t lastApplied = 0;  // highest contiguously applied logIndex
  std::map<std::uint64_t, ReplAppend> stash;  // out-of-order arrivals
  std::map<std::uint64_t, ReplOutEntry> out;  // window toward successor
  std::deque<WalRecord> log;  // dedup identities, capped
  std::vector<std::pair<Hyperplane, ShardId>> splits;
};

}  // namespace volap
