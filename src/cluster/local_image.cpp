#include "cluster/local_image.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "tree/key_split.hpp"

namespace volap {

LocalImage::LocalImage(const Schema& schema, unsigned fanout)
    : schema_(schema), fanout_(fanout) {
  if (fanout_ < 4) throw std::invalid_argument("image fanout must be >= 4");
}

LocalImage::~LocalImage() { freeTree(root_); }

void LocalImage::freeTree(Node* n) {
  if (n == nullptr) return;
  for (Node* c : n->children) freeTree(c);
  delete n;
}

// ---- shard registration -----------------------------------------------------

void LocalImage::addShard(const ShardInfo& info) {
  if (leafIndex_.count(info.id) != 0) return;
  Node* leaf = new Node();
  leaf->leaf = true;
  leaf->shard = info.id;
  leaf->key = info.box;
  leafIndex_.emplace(info.id, leaf);
  workers_[info.id] = info.worker;
  counts_[info.id] = info.count;
  if (info.epoch > 0) epochs_[info.id] = info.epoch;

  if (root_ == nullptr) {
    root_ = leaf;
    return;
  }
  if (root_->leaf) {
    Node* top = new Node();
    top->children = {root_, leaf};
    top->key = root_->key;
    top->key.merge(schema_, leaf->key);
    root_->parent = top;
    leaf->parent = top;
    root_ = top;
    return;
  }
  Node* parent = chooseLeafParent(info.box);
  parent->children.push_back(leaf);
  leaf->parent = parent;
  // Expand keys up the path, then resolve overflow (may grow the root).
  for (Node* n = parent; n != nullptr; n = n->parent)
    n->key.merge(schema_, leaf->key);
  for (Node* n = parent;
       n != nullptr && n->children.size() > fanout_;) {
    Node* up = n->parent;
    splitOverflowed(n);
    n = up;
  }
}

LocalImage::Node* LocalImage::chooseLeafParent(const MdsKey& box) {
  Node* n = root_;
  while (!n->children.front()->leaf) {
    Node* best = nullptr;
    double bestGrow = std::numeric_limits<double>::infinity();
    double bestVol = std::numeric_limits<double>::infinity();
    std::size_t offset = tieBreak_++ % n->children.size();
    for (std::size_t k = 0; k < n->children.size(); ++k) {
      Node* c = n->children[(k + offset) % n->children.size()];
      MdsKey cand = c->key;
      if (box.valid()) cand.merge(schema_, box);
      const double vol = c->key.volume(schema_);
      const double grow = cand.volume(schema_) - vol;
      if (grow < bestGrow || (grow == bestGrow && vol < bestVol)) {
        bestGrow = grow;
        bestVol = vol;
        best = c;
      }
    }
    n = best;
  }
  return n;
}

void LocalImage::splitOverflowed(Node* n) {
  std::vector<MdsKey> keys;
  keys.reserve(n->children.size());
  for (Node* c : n->children) keys.push_back(c->key);
  const std::vector<bool> toRight = quadraticSplitAssign(schema_, keys);

  Node* sib = new Node();
  std::vector<Node*> keep;
  keep.reserve(n->children.size());
  for (std::size_t i = 0; i < n->children.size(); ++i) {
    if (toRight[i]) {
      sib->children.push_back(n->children[i]);
      n->children[i]->parent = sib;
    } else {
      keep.push_back(n->children[i]);
    }
  }
  n->children = std::move(keep);
  auto recomputeKey = [this](Node* node) {
    node->key = MdsKey();
    for (Node* c : node->children) node->key.merge(schema_, c->key);
  };
  recomputeKey(n);
  recomputeKey(sib);

  if (n->parent == nullptr) {
    Node* top = new Node();
    top->children = {n, sib};
    top->key = n->key;
    top->key.merge(schema_, sib->key);
    n->parent = top;
    sib->parent = top;
    root_ = top;
    return;
  }
  sib->parent = n->parent;
  n->parent->children.push_back(sib);
  // The parent's key is unchanged (same coverage, repartitioned); overflow
  // at the parent is handled by the caller's upward loop.
}

// ---- routing ----------------------------------------------------------------

LocalImage::Route LocalImage::routeInsert(PointRef p) {
  Node* leaf = chooseInsertLeaf(p);
  const bool expanded = leaf->key.expand(schema_, p);
  if (expanded) dirty_.insert(leaf->shard);
  return {leaf->shard, expanded};
}

LocalImage::Node* LocalImage::chooseInsertLeaf(PointRef p) {
  if (root_ == nullptr)
    throw std::logic_error("routeInsert on an image with no shards");
  Node* n = root_;
  while (!n->leaf) {
    n->key.expand(schema_, p);
    // Children covering p: cheapest (smallest) wins. Otherwise, the child
    // whose expansion adds the least overlap with its siblings (SIII-C).
    Node* best = nullptr;
    double bestVol = std::numeric_limits<double>::infinity();
    for (Node* c : n->children) {
      if (c->key.contains(p)) {
        const double vol = c->key.volume(schema_);
        if (vol < bestVol) {
          bestVol = vol;
          best = c;
        }
      }
    }
    if (best == nullptr) {
      double bestDelta = std::numeric_limits<double>::infinity();
      double bestGrow = std::numeric_limits<double>::infinity();
      const std::size_t offset = tieBreak_++ % n->children.size();
      for (std::size_t k = 0; k < n->children.size(); ++k) {
        Node* c = n->children[(k + offset) % n->children.size()];
        MdsKey cand = c->key;
        cand.expand(schema_, p);
        double delta = 0;
        for (Node* o : n->children) {
          if (o == c) continue;
          delta += cand.overlap(schema_, o->key) -
                   c->key.overlap(schema_, o->key);
        }
        const double grow =
            cand.volume(schema_) - c->key.volume(schema_);
        if (delta < bestDelta ||
            (delta == bestDelta && grow < bestGrow)) {
          bestDelta = delta;
          bestGrow = grow;
          best = c;
        }
      }
    }
    n = best;
  }
  return n;
}

void LocalImage::routeQuery(const QueryBox& q,
                            std::vector<ShardId>& out) const {
  if (root_ == nullptr) return;
  std::vector<const Node*> stack{root_};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (!n->key.intersects(q)) continue;
    if (n->leaf) {
      out.push_back(n->shard);
      continue;
    }
    for (const Node* c : n->children) stack.push_back(c);
  }
}

// ---- synchronization --------------------------------------------------------

bool LocalImage::applyRemote(const ShardInfo& info) {
  auto it = leafIndex_.find(info.id);
  if (it == leafIndex_.end()) {
    addShard(info);
    return true;
  }
  bool changed = false;
  Node* leaf = it->second;
  if (info.box.valid() && leaf->key.merge(schema_, info.box)) {
    changed = true;
    // Bottom-up expansion through the side index (SIII-C): propagate the
    // grown box toward the root, stopping once an ancestor already covers
    // it. The containment invariant is violated between iterations, which
    // is safe here because the owning server thread never interleaves a
    // query with this loop — exactly the property the paper relies on.
    for (Node* n = leaf->parent; n != nullptr; n = n->parent) {
      if (!n->key.merge(schema_, info.box)) break;
    }
  }
  auto w = workers_.find(info.id);
  if (w == workers_.end() || w->second != info.worker) {
    workers_[info.id] = info.worker;
    changed = true;
  }
  auto& cnt = counts_[info.id];
  if (info.count > cnt) cnt = info.count;
  auto& ep = epochs_[info.id];
  if (info.epoch > ep) {
    ep = info.epoch;
    changed = true;
  }
  return changed;
}

WorkerId LocalImage::workerOf(ShardId id) const {
  auto it = workers_.find(id);
  return it == workers_.end() ? kNoWorker : it->second;
}

MdsKey LocalImage::boxOf(ShardId id) const {
  auto it = leafIndex_.find(id);
  return it == leafIndex_.end() ? MdsKey() : it->second->key;
}

std::uint64_t LocalImage::countOf(ShardId id) const {
  auto it = counts_.find(id);
  return it == counts_.end() ? 0 : it->second;
}

void LocalImage::noteCount(ShardId id, std::uint64_t count) {
  auto& cnt = counts_[id];
  if (count > cnt) cnt = count;
}

std::uint64_t LocalImage::epochOf(ShardId id) const {
  auto it = epochs_.find(id);
  return it == epochs_.end() ? 0 : it->second;
}

std::vector<ShardId> LocalImage::allShards() const {
  std::vector<ShardId> out;
  out.reserve(leafIndex_.size());
  for (const auto& [id, leaf] : leafIndex_) out.push_back(id);
  return out;
}

std::vector<ShardId> LocalImage::takeDirty() {
  std::vector<ShardId> out(dirty_.begin(), dirty_.end());
  dirty_.clear();
  return out;
}

// ---- invariants -------------------------------------------------------------

void LocalImage::checkNode(const Node* n, unsigned depth, unsigned& leafDepth,
                           std::size_t& leaves) const {
  if (n->leaf) {
    if (leafDepth == 0) leafDepth = depth;
    assert(depth == leafDepth && "leaves must share one level");
    assert(leafIndex_.at(n->shard) == n);
    ++leaves;
    return;
  }
  assert(!n->children.empty());
  assert(n->children.size() <= fanout_);
  for (const Node* c : n->children) {
    assert(c->parent == n);
    if (c->key.valid()) {
      MdsKey probe = n->key;
      const bool grew = probe.merge(schema_, c->key);
      assert(!grew && "child key escapes parent");
      (void)grew;
    }
    checkNode(c, depth + 1, leafDepth, leaves);
  }
}

void LocalImage::checkInvariants() const {
  if (root_ == nullptr) {
    assert(leafIndex_.empty());
    return;
  }
  unsigned leafDepth = 0;
  std::size_t leaves = 0;
  checkNode(root_, 1, leafDepth, leaves);
  assert(leaves == leafIndex_.size());
  (void)leaves;
}

}  // namespace volap
