// The shard abstraction (paper SIII-D/E). A shard is an in-memory,
// multi-threaded data structure holding one partition of the database. It
// must support the stream operations (Insert, AggregateQuery) plus the four
// load-balancing operations the paper lists verbatim: SplitQuery, Split,
// SerializeShard and DeserializeShard.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/serialize.hpp"
#include "olap/aggregate.hpp"
#include "olap/mds.hpp"
#include "olap/point.hpp"
#include "olap/query_box.hpp"
#include "olap/schema.hpp"

namespace volap {

/// A splitting hyperplane: items with coords[dim] < cut fall on the left.
/// Returned by SplitQuery, consumed by Split (paper SIII-E).
struct Hyperplane {
  unsigned dim = 0;
  std::uint64_t cut = 0;

  void serialize(ByteWriter& w) const {
    w.varint(dim);
    w.varint(cut);
  }
  static Hyperplane deserialize(ByteReader& r) {
    Hyperplane h;
    h.dim = static_cast<unsigned>(r.varint());
    h.cut = r.varint();
    return h;
  }
};

/// The five shard data structures of SIII-D plus the two R-tree baselines
/// used in the Fig. 5 comparison.
enum class ShardKind : std::uint8_t {
  kArray = 0,          // simple array, benchmarking baseline
  kPdcMds = 1,         // PDC tree, MDS keys
  kPdcMbr = 2,         // PDC tree, MBR keys
  kHilbertPdcMds = 3,  // Hilbert PDC tree, MDS keys (the paper's default)
  kHilbertPdcMbr = 4,  // Hilbert PDC tree, MBR keys
  kRTree = 5,          // classic R-tree (Fig. 5 baseline)
  kHilbertRTree = 6,   // Hilbert R-tree (Fig. 5 baseline)
};

const char* shardKindName(ShardKind k);

/// serializeShard() blob header: magic "VS" + format version. The blobs
/// double as durable checkpoints (crash recovery reads them back long after
/// they were written), so they are self-identifying: deserializeShard
/// rejects a missing magic or a version newer than it understands.
inline constexpr std::uint8_t kShardBlobMagic0 = 'V';
inline constexpr std::uint8_t kShardBlobMagic1 = 'S';
inline constexpr std::uint8_t kShardBlobVersion = 1;

class Shard {
 public:
  virtual ~Shard() = default;

  virtual ShardKind kind() const = 0;

  /// Dimensionality of the schema the shard was built for.
  virtual unsigned dims() const = 0;

  /// Insert one item. Thread-safe; may run concurrently with queries.
  virtual void insert(PointRef p) = 0;

  /// Bulk ingestion path (paper SIV-C: ">400 thousand items per second").
  /// Orders of magnitude faster than point insertion when the shard is
  /// empty; falls back to bulkInsert otherwise.
  virtual void bulkLoad(const PointSet& items) = 0;

  /// Batch insert into a (possibly non-empty) shard, concurrent with
  /// queries. The ingest hot path: implementations presort the batch (e.g.
  /// by Hilbert key) so sibling items share descent paths, and amortize
  /// per-item bookkeeping (bounds lock, size counter) over the batch.
  /// Defaults to a plain insert loop.
  virtual void bulkInsert(const PointSet& items) {
    for (std::size_t i = 0; i < items.size(); ++i) insert(items.at(i));
  }

  /// Aggregate all items inside `q`. Thread-safe.
  virtual Aggregate query(const QueryBox& q) const = 0;

  virtual std::size_t size() const = 0;

  /// MDS bounding box of the shard contents, used as the shard's key in the
  /// system image / server routing index.
  virtual MdsKey boundingMds() const = 0;

  /// SplitQuery (paper SIII-E): a hyperplane partitioning this shard into
  /// two halves of approximately equal size.
  virtual Hyperplane splitQuery() const = 0;

  /// Split (paper SIII-E): remove and return the items on/right of `h`,
  /// leaving the left items in this shard (both sides rebuilt).
  virtual std::unique_ptr<Shard> split(const Hyperplane& h) = 0;

  /// Append every item to `out` (basis of SerializeShard).
  virtual void collect(PointSet& out) const = 0;

  /// SerializeShard: flat binary blob suitable for network transmission.
  Blob serializeShard() const;

  /// Rough bytes of memory held; drives the manager's capacity balancing.
  virtual std::size_t memoryUse() const = 0;

  /// Leaves scanned and items tested by query() over this shard's life
  /// (tree shards only; the stats plane's "pruning or kernel" counters).
  std::uint64_t leavesScanned() const {
    return leavesScanned_.load(std::memory_order_relaxed);
  }
  std::uint64_t itemsTested() const {
    return itemsTested_.load(std::memory_order_relaxed);
  }
  /// Queries answered from the per-dimension top-level summaries, without
  /// a walk (tree shards only).
  std::uint64_t summaryAnswers() const {
    return summaryAnswers_.load(std::memory_order_relaxed);
  }

 protected:
  /// Publish one query's scan tally.
  void countScan(std::uint64_t leaves, std::uint64_t items) const {
    leavesScanned_.fetch_add(leaves, std::memory_order_relaxed);
    itemsTested_.fetch_add(items, std::memory_order_relaxed);
  }
  /// Publish one query answered from the summaries.
  void countSummaryAnswer() const {
    summaryAnswers_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::uint64_t> leavesScanned_{0};
  mutable std::atomic<std::uint64_t> itemsTested_{0};
  mutable std::atomic<std::uint64_t> summaryAnswers_{0};
};

/// Create an empty shard of the given kind.
std::unique_ptr<Shard> makeShard(ShardKind kind, const Schema& schema);

/// DeserializeShard: rebuild a shard from a serializeShard() blob.
std::unique_ptr<Shard> deserializeShard(const Schema& schema,
                                        std::span<const std::uint8_t> blob);

}  // namespace volap
