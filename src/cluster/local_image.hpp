// The server's local image of the system (paper SIII-C): a modified PDC
// tree whose *leaves are shards*. Searching routes queries to every shard
// whose box touches the query; inserts choose the least-overlap leaf and
// only expand boxes (leaves are fixed, inserts never split). A side index
// keyed by shard id supports the bottom-up box expansion used when remote
// servers grow a shard's bounding box — the operation the paper notes may
// temporarily violate the containment invariant without affecting queries.
//
// Owned and mutated by a single server thread; not thread-safe by design
// (each server maintains its own local image as an in-memory cache of the
// global image in the keeper).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/types.hpp"
#include "olap/mds.hpp"
#include "olap/point.hpp"
#include "olap/query_box.hpp"

namespace volap {

class LocalImage {
 public:
  explicit LocalImage(const Schema& schema, unsigned fanout = 8);
  ~LocalImage();

  LocalImage(const LocalImage&) = delete;
  LocalImage& operator=(const LocalImage&) = delete;

  struct Route {
    ShardId shard = 0;
    bool expanded = false;  // the leaf box grew: must sync to the keeper
  };

  /// Choose the shard for an insert (least-overlap leaf) and expand boxes
  /// along the path. Requires at least one shard.
  Route routeInsert(PointRef p);

  /// All shards whose box intersects the query.
  void routeQuery(const QueryBox& q, std::vector<ShardId>& out) const;

  bool hasShard(ShardId id) const { return leafIndex_.count(id) != 0; }
  std::size_t shardCount() const { return leafIndex_.size(); }

  /// Register a brand-new shard (inserts a new leaf; may split directory
  /// nodes — the one structural operation synchronization requires).
  void addShard(const ShardInfo& info);

  /// Apply a remote snapshot: box union via bottom-up expansion through the
  /// shard-id side index, plus worker relocation. Adds the shard if it is
  /// unknown. Returns true if anything changed.
  bool applyRemote(const ShardInfo& info);

  /// The shard's owner: every query chunk and insert batch for the shard
  /// goes there. Chain replicas are not tracked; they serve failover only.
  WorkerId workerOf(ShardId id) const;
  MdsKey boxOf(ShardId id) const;
  std::uint64_t countOf(ShardId id) const;
  void noteCount(ShardId id, std::uint64_t count);
  /// Highest fencing epoch seen for the shard (0 if never fenced). Acks
  /// stamped with a lower epoch come from a fenced zombie owner.
  std::uint64_t epochOf(ShardId id) const;

  std::vector<ShardId> allShards() const;

  /// Shards whose boxes grew locally since the last call (the delta the
  /// server pushes to the keeper each sync interval).
  std::vector<ShardId> takeDirty();

  /// Structural self-check for tests: containment, uniform leaf depth,
  /// side-index completeness.
  void checkInvariants() const;

 private:
  struct Node {
    MdsKey key;
    Node* parent = nullptr;
    bool leaf = false;
    std::vector<Node*> children;  // directory nodes only
    ShardId shard = 0;            // leaves only
  };

  void freeTree(Node* n);
  Node* chooseInsertLeaf(PointRef p);
  Node* chooseLeafParent(const MdsKey& box);
  void splitOverflowed(Node* n);
  void checkNode(const Node* n, unsigned depth, unsigned& leafDepth,
                 std::size_t& leaves) const;

  const Schema& schema_;
  const unsigned fanout_;
  Node* root_ = nullptr;
  std::unordered_map<ShardId, Node*> leafIndex_;
  std::unordered_map<ShardId, WorkerId> workers_;
  std::unordered_map<ShardId, std::uint64_t> counts_;
  std::unordered_map<ShardId, std::uint64_t> epochs_;
  std::unordered_set<ShardId> dirty_;
  std::uint64_t tieBreak_ = 0;  // rotates ties among indistinguishable leaves
};

}  // namespace volap
