// The concurrent tree behind all PDC / Hilbert-PDC / R-tree shard variants
// (paper SIII-D). Directory nodes store per-child entries (key, cached
// aggregate, max Hilbert key, pointer), so every read a descent needs is
// guarded by the node's own lock; operations hold at most two node locks on
// the insert path (hand-over-hand) and the current root-to-branch path on
// the query path — never whole subtrees (SIII-C).
//
//  * Insert descends with lock coupling, expanding keys and cached
//    aggregates top-down, and proactively splits any full child while
//    holding parent + child (so splits never propagate upward).
//  * Hilbert order (InsertOrder::kHilbert) descends to the first child
//    whose max-Hilbert key bounds the item's compact Hilbert index — no
//    geometric computation on the hot path, which is why ingestion is fast
//    and insert latency stays flat as dimensions grow (Fig. 5a).
//  * Queries use cached aggregates whenever a child's key is fully inside
//    the query box, so high-coverage aggregations never reach the leaves
//    (Fig. 4 / Fig. 9a).
//  * Leaves are columnar (one contiguous 32-bit value column per dimension
//    plus a measure column), so the residual leaf scan is a fused interval
//    test per constrained dimension into a bit-packed selection (see
//    olap/flat_query.hpp) instead of a per-point short-circuit loop. The
//    descent is an explicit-stack traversal whose child key tests visit
//    only the query's constrained dimensions.
//  * A Hilbert order over all dimensions cannot isolate one dimension's
//    value, so the tree also keeps one aggregate per top-level value of
//    each dimension (the 1-D cuboids of the cube). A box that constrains a
//    single dimension to whole top-level values is answered from those
//    slots without a walk.
#pragma once

#include <atomic>
#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "common/rwspin.hpp"
#include "olap/flat_query.hpp"
#include "tree/key_split.hpp"
#include "tree/shard.hpp"
#include "tree/tree_config.hpp"

namespace volap {

template <typename Key>
class ShardTree final : public Shard {
 public:
  ShardTree(const Schema& schema, ShardKind kindTag, TreeConfig cfg)
      : schema_(schema), kind_(kindTag), cfg_(cfg) {
    assert(cfg_.fanout >= 4 && cfg_.leafCapacity >= 4);
    summaries_.resize(schema_.dims());
    for (unsigned j = 0; j < schema_.dims(); ++j) {
      const Hierarchy& h = schema_.dim(j);
      summaries_[j].shift = h.bitsBelow(1);
      const std::uint64_t values = std::uint64_t{1} << h.bitsAt(1);
      if (values <= kMaxSummarySlots) summaries_[j].slots.resize(values);
    }
    root_.store(newNode(/*leaf=*/true), std::memory_order_release);
  }

  ~ShardTree() override { freeTree(root_.load(std::memory_order_acquire)); }

  ShardTree(const ShardTree&) = delete;
  ShardTree& operator=(const ShardTree&) = delete;

  ShardKind kind() const override { return kind_; }
  unsigned dims() const override { return schema_.dims(); }
  std::size_t size() const override {
    return size_.load(std::memory_order_relaxed);
  }

  void insert(PointRef p) override {
    HilbertKey h;
    if (hilbert()) h = schema_.hilbertKey(p.coords);
    insertOne(p, h);
    updateBounds(p);
    size_.fetch_add(1, std::memory_order_relaxed);
  }

  void bulkInsert(const PointSet& items) override {
    if (items.empty()) return;
    if (hilbert() && size() == 0) {
      bulkLoad(items);  // empty tree: the packed bottom-up build is faster
      return;
    }
    bulkInsertSorted(items);
  }

  void bulkLoad(const PointSet& items) override {
    if (items.empty()) return;
    if (!hilbert() || size() != 0) {
      bulkInsertSorted(items);
      return;
    }
    // Hilbert-sorted bottom-up packing: the bulk-ingestion path behind the
    // paper's ">400 thousand items per second" headline (SIV-C). Requires
    // no concurrent inserts (enforced by holding the root lock).
    Node* root = lockRootExclusive();
    if (!root->leaf || leafCount(*root) != 0) {
      root->lock.unlock();  // data raced in; fall back to batch inserts
      bulkInsertSorted(items);
      return;
    }
    // The root node itself stays put: other threads may be spinning on its
    // lock (a concurrent bulkInsert into the same empty shard, a query), so
    // publishing a new root and freeing this one would hand them freed
    // memory. Move the packed root's contents in and free only its shell.
    Node* packed = buildPacked(items);
    root->leaf = packed->leaf;
    root->childKeys = std::move(packed->childKeys);
    root->childAggs = std::move(packed->childAggs);
    root->childMaxH = std::move(packed->childMaxH);
    root->children = std::move(packed->children);
    root->cols = std::move(packed->cols);
    root->measures = std::move(packed->measures);
    root->hkeys = std::move(packed->hkeys);
    delete packed;
    nodeCount_.fetch_sub(1, std::memory_order_relaxed);
    root->lock.unlock();
    // Fold the whole batch into a local key first so boundsLock_ is taken
    // once, not once per item.
    MdsKey batchBounds;
    for (std::size_t i = 0; i < items.size(); ++i)
      batchBounds.expand(schema_, items.at(i));
    boundsLock_.lock();
    bounds_.merge(schema_, batchBounds);
    for (std::size_t i = 0; i < items.size(); ++i) summarize(items.at(i));
    boundsLock_.unlock();
    size_.fetch_add(items.size(), std::memory_order_relaxed);
  }

  Aggregate query(const QueryBox& q) const override {
    const FlatQuery fq(schema_, q);
    Aggregate out;
    if (fq.empty() || querySummary(fq, out)) return out;
    Node* n = lockRootShared();
    queryTree(n, q, fq, out);  // unlocks every node it visits
    return out;
  }

  MdsKey boundingMds() const override {
    boundsLock_.lock_shared();
    MdsKey k = bounds_;
    boundsLock_.unlock_shared();
    return k;
  }

  void collect(PointSet& out) const override {
    Node* n = lockRootShared();
    collectNode(*n, out);
    n->lock.unlock_shared();
  }

  Hyperplane splitQuery() const override {
    PointSet all(schema_.dims());
    all.reserve(size());
    collect(all);
    return balancedHyperplane(schema_, all);
  }

  std::unique_ptr<Shard> split(const Hyperplane& h) override {
    // Rebuild both halves; `this` is replaced by the left half and the
    // right half is returned. The worker keeps serving queries from the
    // *original* shard plus an insertion queue until the split commits
    // (paper SIII-E), so in-place mutation here is safe by protocol; the
    // cluster layer swaps shards atomically.
    PointSet all(schema_.dims());
    all.reserve(size());
    collect(all);
    PointSet left(schema_.dims()), right(schema_.dims());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const PointRef p = all.at(i);
      (p.coords[h.dim] < h.cut ? left : right).push(p);
    }
    auto rightShard = std::make_unique<ShardTree<Key>>(schema_, kind_, cfg_);
    rightShard->bulkLoad(right);
    reset();
    bulkLoad(left);
    return rightShard;
  }

  std::size_t memoryUse() const override {
    const std::size_t perItem = schema_.dims() * sizeof(std::uint32_t) +
                                sizeof(double) +
                                (hilbert() ? sizeof(HilbertKey) : 0);
    std::size_t summarySlots = 0;
    for (const TopSummary& s : summaries_) summarySlots += s.slots.size();
    return size() * perItem +
           nodeCount_.load(std::memory_order_relaxed) * sizeof(Node) +
           summarySlots * sizeof(Aggregate);
  }

  /// Structural invariant check for tests: key containment, cached
  /// aggregate consistency, Hilbert ordering, fill bounds, summary totals.
  /// Not thread-safe.
  void checkInvariants() const {
    Node* root = root_.load(std::memory_order_acquire);
    Aggregate total;
    checkNode(*root, total, /*isRoot=*/true);
    assert(total.count == size());
    for (const TopSummary& s : summaries_) {
      if (s.slots.empty()) continue;
      Aggregate all;
      for (const Aggregate& a : s.slots) all.merge(a);
      assert(all.count == size() && "summary misses or repeats items");
      (void)all;
    }
    (void)total;
  }

  /// Height of the tree (leaf = 1); for tests/diagnostics. Not thread-safe.
  unsigned height() const {
    unsigned hgt = 1;
    for (Node* n = root_.load(); !n->leaf; n = n->children.front()) ++hgt;
    return hgt;
  }

  /// A balanced split hyperplane for a set of items: the dimension whose
  /// median cut best balances the halves (paper SIII-E SplitQuery).
  static Hyperplane balancedHyperplane(const Schema& schema,
                                       const PointSet& items);

 private:
  struct Node {
    mutable RwSpinLock lock;
    bool leaf = true;

    // Directory payload: parallel per-child entry arrays (R-tree layout:
    // the subtree's key/aggregate live at the parent so descents only need
    // the parent's lock).
    std::vector<Key> childKeys;
    std::vector<Aggregate> childAggs;
    std::vector<HilbertKey> childMaxH;  // Hilbert variants only
    std::vector<Node*> children;

    // Data payload (leaf): true structure-of-arrays — one contiguous
    // column per dimension (cols[j][i] = item i's coordinate in dimension
    // j) plus the measure column, so a query scans only the constrained
    // columns, each a vectorizable interval test over contiguous memory.
    // Coordinates are 32-bit: Hierarchy caps a dimension at 32 bits and
    // workers reject items outside the domain before they reach a tree.
    std::vector<std::vector<std::uint32_t>> cols;  // [dims][count]
    std::vector<double> measures;
    std::vector<HilbertKey> hkeys;  // Hilbert variants only, sorted
  };

  bool hilbert() const { return cfg_.order == InsertOrder::kHilbert; }

  std::size_t leafCount(const Node& n) const { return n.measures.size(); }

  bool isFull(const Node& n) const {
    return n.leaf ? leafCount(n) >= cfg_.leafCapacity
                  : n.children.size() >= cfg_.fanout;
  }

  Node* newNode(bool leaf) {
    Node* n = new Node();
    n->leaf = leaf;
    if (leaf) n->cols.resize(schema_.dims());
    nodeCount_.fetch_add(1, std::memory_order_relaxed);
    return n;
  }

  void freeTree(Node* n) {
    if (n == nullptr) return;
    for (Node* c : n->children) freeTree(c);
    delete n;
  }

  Node* lockRootExclusive() {
    while (true) {
      Node* n = root_.load(std::memory_order_acquire);
      n->lock.lock();
      if (n == root_.load(std::memory_order_acquire)) return n;
      n->lock.unlock();
    }
  }

  Node* lockRootShared() const {
    while (true) {
      Node* n = root_.load(std::memory_order_acquire);
      n->lock.lock_shared();
      if (n == root_.load(std::memory_order_acquire)) return n;
      n->lock.unlock_shared();
    }
  }

  void updateBounds(PointRef p) {
    boundsLock_.lock();
    bounds_.expand(schema_, p);
    summarize(p);
    boundsLock_.unlock();
  }

  /// Add p to its top-level slot in every summarized dimension. Called
  /// with boundsLock_ held exclusive, after p reached the tree.
  void summarize(PointRef p) {
    for (unsigned j = 0; j < summaries_.size(); ++j) {
      TopSummary& s = summaries_[j];
      if (!s.slots.empty()) s.slots[p.coords[j] >> s.shift].add(p.measure);
    }
  }

  // ---- insert path -------------------------------------------------------

  /// One tree descent (no bounds/size bookkeeping — callers batch that).
  void insertOne(PointRef p, const HilbertKey& h) {
    while (true) {
      Node* n = lockRootExclusive();
      if (isFull(*n)) {
        splitRoot(n);  // unlocks n
        continue;
      }
      descendInsert(n, p, h);
      break;
    }
  }

  /// Batch insert into a live tree: presort the batch by Hilbert key so
  /// sibling items descend to adjacent leaves back-to-back (warm node path,
  /// in-order leaf appends), and fold the bounds/size updates so
  /// boundsLock_ is taken once per batch rather than once per item.
  /// Concurrent queries and point inserts stay safe — each descent uses the
  /// same hand-over-hand locking as insert().
  void bulkInsertSorted(const PointSet& items) {
    const std::size_t n = items.size();
    if (n == 0) return;
    std::vector<HilbertKey> keys;
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    if (hilbert()) {
      keys.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        keys[i] = schema_.hilbertKey(items.at(i).coords);
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return keys[a] < keys[b];
                });
    }
    MdsKey batchBounds;
    for (std::uint32_t idx : order) {
      const PointRef p = items.at(idx);
      insertOne(p, hilbert() ? keys[idx] : HilbertKey{});
      batchBounds.expand(schema_, p);
    }
    boundsLock_.lock();
    bounds_.merge(schema_, batchBounds);
    for (std::size_t i = 0; i < n; ++i) summarize(items.at(i));
    boundsLock_.unlock();
    size_.fetch_add(n, std::memory_order_relaxed);
  }

  /// n is locked exclusive and not full; consumes the lock.
  void descendInsert(Node* n, PointRef p, const HilbertKey& h) {
    while (!n->leaf) {
      std::size_t ci = chooseChild(*n, p, h);
      Node* c = n->children[ci];
      c->lock.lock();
      if (isFull(*c)) {
        splitChild(*n, ci);  // holds n + c exclusive; sibling at ci+1
        if (preferRight(*n, ci, p, h)) {
          c->lock.unlock();
          ++ci;
          c = n->children[ci];
          c->lock.lock();
        }
      }
      n->childKeys[ci].expand(schema_, p);
      n->childAggs[ci].add(p.measure);
      if (hilbert() && h > n->childMaxH[ci]) n->childMaxH[ci] = h;
      n->lock.unlock();
      n = c;
    }
    appendToLeaf(*n, p, h);
    n->lock.unlock();
  }

  void appendToLeaf(Node& n, PointRef p, const HilbertKey& h) {
    const unsigned d = schema_.dims();
    std::size_t pos = leafCount(n);
    if (hilbert()) {
      pos = static_cast<std::size_t>(
          std::lower_bound(n.hkeys.begin(), n.hkeys.end(), h) -
          n.hkeys.begin());
      n.hkeys.insert(n.hkeys.begin() + static_cast<std::ptrdiff_t>(pos), h);
    }
    for (unsigned j = 0; j < d; ++j)
      n.cols[j].insert(n.cols[j].begin() + static_cast<std::ptrdiff_t>(pos),
                       static_cast<std::uint32_t>(p.coords[j]));
    n.measures.insert(
        n.measures.begin() + static_cast<std::ptrdiff_t>(pos), p.measure);
  }

  std::size_t chooseChild(const Node& n, PointRef p,
                          const HilbertKey& h) const {
    if (hilbert()) {
      // First child whose max Hilbert key bounds h, else the last (B+-tree
      // style; no geometric computation — paper SIII-D).
      const auto it =
          std::lower_bound(n.childMaxH.begin(), n.childMaxH.end(), h);
      if (it == n.childMaxH.end()) return n.children.size() - 1;
      return static_cast<std::size_t>(it - n.childMaxH.begin());
    }
    // Geometric: among children already covering p, the smallest; else the
    // configured heuristic over all children.
    std::size_t best = std::size_t(-1);
    double bestVol = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (n.childKeys[i].contains(p)) {
        const double vol = n.childKeys[i].volume(schema_);
        if (vol < bestVol) {
          bestVol = vol;
          best = i;
        }
      }
    }
    if (best != std::size_t(-1)) return best;
    return cfg_.choose == ChooseHeuristic::kLeastOverlap
               ? chooseLeastOverlap(n, p)
               : chooseLeastEnlargement(n, p);
  }

  std::size_t chooseLeastOverlap(const Node& n, PointRef p) const {
    // PDC heuristic (SIII-C): pick the child whose expansion adds the least
    // overlap with its siblings; ties broken by least volume enlargement.
    std::size_t best = 0;
    double bestDelta = std::numeric_limits<double>::infinity();
    double bestEnlarge = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      Key cand = n.childKeys[i];
      cand.expand(schema_, p);
      double delta = 0;
      for (std::size_t j = 0; j < n.children.size(); ++j) {
        if (j == i) continue;
        delta += cand.overlap(schema_, n.childKeys[j]) -
                 n.childKeys[i].overlap(schema_, n.childKeys[j]);
      }
      const double enlarge =
          cand.volume(schema_) - n.childKeys[i].volume(schema_);
      if (delta < bestDelta ||
          (delta == bestDelta && enlarge < bestEnlarge)) {
        bestDelta = delta;
        bestEnlarge = enlarge;
        best = i;
      }
    }
    return best;
  }

  std::size_t chooseLeastEnlargement(const Node& n, PointRef p) const {
    std::size_t best = 0;
    double bestEnlarge = std::numeric_limits<double>::infinity();
    double bestVol = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      Key cand = n.childKeys[i];
      cand.expand(schema_, p);
      const double vol = n.childKeys[i].volume(schema_);
      const double enlarge = cand.volume(schema_) - vol;
      if (enlarge < bestEnlarge ||
          (enlarge == bestEnlarge && vol < bestVol)) {
        bestEnlarge = enlarge;
        bestVol = vol;
        best = i;
      }
    }
    return best;
  }

  /// After splitChild left the halves at ci (left) and ci+1 (right), decide
  /// whether the insert belongs in the right half.
  bool preferRight(const Node& n, std::size_t ci, PointRef p,
                   const HilbertKey& h) const {
    if (hilbert()) return h > n.childMaxH[ci];
    // Two-way version of the configured geometric heuristic.
    Key left = n.childKeys[ci];
    Key right = n.childKeys[ci + 1];
    if (left.contains(p)) return false;
    if (right.contains(p)) return true;
    Key leftC = left, rightC = right;
    leftC.expand(schema_, p);
    rightC.expand(schema_, p);
    if (cfg_.choose == ChooseHeuristic::kLeastOverlap) {
      const double dl = leftC.overlap(schema_, right) -
                        left.overlap(schema_, right);
      const double dr = rightC.overlap(schema_, left) -
                        right.overlap(schema_, left);
      if (dl != dr) return dr < dl;
    }
    const double el = leftC.volume(schema_) - left.volume(schema_);
    const double er = rightC.volume(schema_) - right.volume(schema_);
    return er < el;
  }

  // ---- splits ------------------------------------------------------------

  /// Split the full child at index ci of `parent`. Caller holds `parent`
  /// and the child exclusively; the child keeps the left group and a new
  /// sibling (inserted at ci+1) receives the right group.
  void splitChild(Node& parent, std::size_t ci) {
    Node& c = *parent.children[ci];
    Node* sib = newNode(c.leaf);
    if (c.leaf)
      splitLeaf(c, *sib);
    else
      splitInternal(c, *sib);
    // Refresh the parent's entries for both halves.
    parent.childKeys[ci] = computeKey(c);
    parent.childAggs[ci] = computeAgg(c);
    parent.childKeys.insert(parent.childKeys.begin() + ci + 1,
                            computeKey(*sib));
    parent.childAggs.insert(parent.childAggs.begin() + ci + 1,
                            computeAgg(*sib));
    if (hilbert()) {
      parent.childMaxH[ci] = computeMaxH(c);
      parent.childMaxH.insert(parent.childMaxH.begin() + ci + 1,
                              computeMaxH(*sib));
    }
    parent.children.insert(parent.children.begin() + ci + 1, sib);
  }

  /// Grow the tree: `oldRoot` is locked exclusive and full; consumes the
  /// lock. Afterwards root_ points at a fresh directory node.
  void splitRoot(Node* oldRoot) {
    Node* newRoot = newNode(/*leaf=*/false);
    newRoot->children.push_back(oldRoot);
    newRoot->childKeys.push_back(computeKey(*oldRoot));
    newRoot->childAggs.push_back(computeAgg(*oldRoot));
    if (hilbert()) newRoot->childMaxH.push_back(computeMaxH(*oldRoot));
    splitChild(*newRoot, 0);
    root_.store(newRoot, std::memory_order_release);
    oldRoot->lock.unlock();
  }

  void splitLeaf(Node& c, Node& sib) {
    const std::size_t n = leafCount(c);
    std::vector<std::uint64_t> buf;
    if (cfg_.split == SplitAlgo::kQuadratic) {
      std::vector<Key> keys;
      keys.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        keys.push_back(Key::forPoint(schema_, gatherLeaf(c, i, buf)));
      const std::vector<bool> toRight = quadraticAssign(keys);
      moveLeafEntries(c, sib, toRight);
      return;
    }
    const std::size_t cut = orderedCut(n, [&](std::size_t i) {
      return Key::forPoint(schema_, gatherLeaf(c, i, buf));
    });
    std::vector<bool> toRight(n, false);
    for (std::size_t i = cut; i < n; ++i) toRight[i] = true;
    moveLeafEntries(c, sib, toRight);
    // hkeys stay sorted because the cut respects the existing order.
  }

  void splitInternal(Node& c, Node& sib) {
    const std::size_t n = c.children.size();
    std::vector<bool> toRight;
    if (cfg_.split == SplitAlgo::kQuadratic) {
      toRight = quadraticAssign(c.childKeys);
    } else {
      const std::size_t cut =
          orderedCut(n, [&](std::size_t i) { return c.childKeys[i]; });
      toRight.assign(n, false);
      for (std::size_t i = cut; i < n; ++i) toRight[i] = true;
    }
    Node tmpLeft;
    tmpLeft.leaf = false;
    for (std::size_t i = 0; i < n; ++i) {
      Node& dst = toRight[i] ? sib : tmpLeft;
      dst.children.push_back(c.children[i]);
      dst.childKeys.push_back(std::move(c.childKeys[i]));
      dst.childAggs.push_back(c.childAggs[i]);
      if (hilbert()) dst.childMaxH.push_back(c.childMaxH[i]);
    }
    c.children = std::move(tmpLeft.children);
    c.childKeys = std::move(tmpLeft.childKeys);
    c.childAggs = std::move(tmpLeft.childAggs);
    c.childMaxH = std::move(tmpLeft.childMaxH);
  }

  void moveLeafEntries(Node& c, Node& sib, const std::vector<bool>& toRight) {
    const unsigned d = schema_.dims();
    const std::size_t n = leafCount(c);
    Node tmp;
    tmp.cols.resize(d);
    for (std::size_t i = 0; i < n; ++i) {
      Node& dst = toRight[i] ? sib : tmp;
      for (unsigned j = 0; j < d; ++j) dst.cols[j].push_back(c.cols[j][i]);
      dst.measures.push_back(c.measures[i]);
      if (hilbert()) dst.hkeys.push_back(c.hkeys[i]);
    }
    c.cols = std::move(tmp.cols);
    c.measures = std::move(tmp.measures);
    c.hkeys = std::move(tmp.hkeys);
  }

  /// Cut index for ordered splits: kMiddleCut takes the midpoint; the
  /// Hilbert PDC kMinOverlapCut scans every cut in the fill window and
  /// picks the one whose halves overlap least (SIII-D), computed in linear
  /// time with prefix/suffix key merges.
  template <typename KeyAt>
  std::size_t orderedCut(std::size_t n, KeyAt keyAt) const {
    const std::size_t minFill = std::max<std::size_t>(1, n * 2 / 5);
    if (cfg_.split == SplitAlgo::kMiddleCut) return n / 2;
    std::vector<Key> prefix(n + 1), suffix(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      prefix[i + 1] = prefix[i];
      prefix[i + 1].merge(schema_, keyAt(i));
    }
    for (std::size_t i = n; i-- > 0;) {
      suffix[i] = suffix[i + 1];
      suffix[i].merge(schema_, keyAt(i));
    }
    std::size_t best = n / 2;
    double bestOverlap = std::numeric_limits<double>::infinity();
    double bestMargin = std::numeric_limits<double>::infinity();
    for (std::size_t cut = minFill; cut + minFill <= n; ++cut) {
      const double ov = prefix[cut].overlap(schema_, suffix[cut]);
      const double mg =
          prefix[cut].margin(schema_) + suffix[cut].margin(schema_);
      if (ov < bestOverlap || (ov == bestOverlap && mg < bestMargin)) {
        bestOverlap = ov;
        bestMargin = mg;
        best = cut;
      }
    }
    return best;
  }

  std::vector<bool> quadraticAssign(const std::vector<Key>& keys) const {
    return quadraticSplitAssign(schema_, keys);
  }

  // ---- node summaries ----------------------------------------------------

  /// Materialize leaf item i from the columns into `buf`; the returned
  /// view stays valid until the next gather into the same buffer. Only
  /// cold paths (splits, collect, key computation) need whole points; the
  /// query scan works on the columns directly.
  PointRef gatherLeaf(const Node& n, std::size_t i,
                      std::vector<std::uint64_t>& buf) const {
    const unsigned d = schema_.dims();
    buf.resize(d);
    for (unsigned j = 0; j < d; ++j) buf[j] = n.cols[j][i];
    return {std::span<const std::uint64_t>(buf.data(), d), n.measures[i]};
  }

  Key computeKey(const Node& n) const {
    Key k;
    if (n.leaf) {
      std::vector<std::uint64_t> buf;
      for (std::size_t i = 0; i < leafCount(n); ++i) {
        if (i == 0)
          k = Key::forPoint(schema_, gatherLeaf(n, i, buf));
        else
          k.expand(schema_, gatherLeaf(n, i, buf));
      }
    } else {
      for (const Key& ck : n.childKeys) k.merge(schema_, ck);
    }
    return k;
  }

  Aggregate computeAgg(const Node& n) const {
    Aggregate a;
    if (n.leaf) {
      for (double m : n.measures) a.add(m);
    } else {
      for (const Aggregate& ca : n.childAggs) a.merge(ca);
    }
    return a;
  }

  HilbertKey computeMaxH(const Node& n) const {
    if (n.leaf) return n.hkeys.empty() ? HilbertKey{} : n.hkeys.back();
    return n.childMaxH.empty() ? HilbertKey{} : n.childMaxH.back();
  }

  // ---- queries -----------------------------------------------------------

  /// Answer a box that constrains exactly one summarized dimension to a
  /// run of whole top-level values by merging that run's slots; returns
  /// false, touching nothing, for every other box. The slots are read
  /// under boundsLock_ shared, so the answer is the slots' state at one
  /// instant, and every item counted there is already in the tree.
  bool querySummary(const FlatQuery& fq, Aggregate& out) const {
    if (fq.constrained() != 1) return false;
    const TopSummary& s = summaries_[fq.dimAt(0)];
    if (s.slots.empty()) return false;
    const std::uint64_t lo = fq.lo(0);
    const std::uint64_t end = lo + fq.width(0) + 1;  // one past the interval
    const std::uint64_t below = (std::uint64_t{1} << s.shift) - 1;
    if ((lo & below) != 0 || (end & below) != 0) return false;
    boundsLock_.lock_shared();
    for (std::uint64_t v = lo >> s.shift; v < end >> s.shift; ++v)
      out.merge(s.slots[v]);
    boundsLock_.unlock_shared();
    countSummaryAnswer();
    return true;
  }

  /// Columnar scan of one leaf (see olap/flat_query.hpp): every
  /// constrained column gets a fused lo/hi interval pass over contiguous
  /// memory into a bit-packed selection, then the survivors' measures are
  /// aggregated. Returns the number of items tested.
  std::size_t scanLeaf(const Node& n, const FlatQuery& fq,
                       std::vector<std::uint64_t>& sel, Aggregate& out) const {
    const std::size_t cnt = leafCount(n);
    if (cnt == 0) return 0;
    if (sel.size() < selectionWords(cnt)) sel.resize(selectionWords(cnt));
    scanColumns(
        fq, [&](unsigned j) { return n.cols[j].data(); },
        n.measures.data(), cnt, sel.data(), out);
    return cnt;
  }

  /// Explicit-stack traversal; holds shared locks on the current
  /// root-to-node path exactly like the recursive descent it replaces, and
  /// still honors the cached-aggregate pruning: a child key containedIn
  /// the query merges childAggs and never descends. The child key tests
  /// visit only the constrained dimensions, most selective first (exact:
  /// every key lies inside an unconstrained dimension's extent). Leaves
  /// scanned and items tested are tallied locally and published once per
  /// query.
  void queryTree(const Node* root, const QueryBox& q, const FlatQuery& fq,
                 Aggregate& out) const {
    struct Frame {
      const Node* n;
      std::size_t next;  // next child index to examine
    };
    std::vector<Frame> stack;
    stack.reserve(8);
    std::vector<std::uint64_t> sel(selectionWords(cfg_.leafCapacity));
    std::uint64_t leaves = 0, items = 0;
    const std::span<const unsigned> dims = fq.dims();
    stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const Node& n = *f.n;
      if (n.leaf) {
        ++leaves;
        items += scanLeaf(n, fq, sel, out);
        n.lock.unlock_shared();
        stack.pop_back();
        continue;
      }
      if (f.next == n.children.size()) {
        n.lock.unlock_shared();
        stack.pop_back();
        continue;
      }
      const std::size_t i = f.next++;
      if (!n.childKeys[i].intersects(q, dims)) continue;
      if (n.childKeys[i].containedIn(q, dims)) {
        out.merge(n.childAggs[i]);  // cached aggregate: no descent
        continue;
      }
      Node* c = n.children[i];
      c->lock.lock_shared();
      stack.push_back({c, 0});  // invalidates f; reloaded next iteration
    }
    countScan(leaves, items);
  }

  void collectNode(const Node& n, PointSet& out) const {
    if (n.leaf) {
      std::vector<std::uint64_t> buf;
      for (std::size_t i = 0; i < leafCount(n); ++i)
        out.push(gatherLeaf(n, i, buf));
      return;
    }
    for (Node* c : n.children) {
      c->lock.lock_shared();
      collectNode(*c, out);
      c->lock.unlock_shared();
    }
  }

  // ---- bulk build --------------------------------------------------------

  Node* buildPacked(const PointSet& items) {
    const unsigned d = schema_.dims();
    std::vector<HilbertKey> keys(items.size());
    std::vector<std::uint32_t> order(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      keys[i] = schema_.hilbertKey(items.at(i).coords);
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return keys[a] < keys[b];
              });

    const std::size_t leafFill = std::max<std::size_t>(
        2, cfg_.leafCapacity * 3 / 4);
    std::vector<Node*> level;
    for (std::size_t start = 0; start < order.size(); start += leafFill) {
      const std::size_t end = std::min(order.size(), start + leafFill);
      Node* leaf = newNode(true);
      for (unsigned j = 0; j < d; ++j) leaf->cols[j].reserve(end - start);
      leaf->measures.reserve(end - start);
      leaf->hkeys.reserve(end - start);
      for (std::size_t i = start; i < end; ++i) {
        const PointRef p = items.at(order[i]);
        for (unsigned j = 0; j < d; ++j)
          leaf->cols[j].push_back(static_cast<std::uint32_t>(p.coords[j]));
        leaf->measures.push_back(p.measure);
        leaf->hkeys.push_back(keys[order[i]]);
      }
      level.push_back(leaf);
    }
    const std::size_t dirFill = std::max<std::size_t>(2, cfg_.fanout * 3 / 4);
    while (level.size() > 1) {
      std::vector<Node*> up;
      for (std::size_t start = 0; start < level.size(); start += dirFill) {
        const std::size_t end = std::min(level.size(), start + dirFill);
        Node* dir = newNode(false);
        for (std::size_t i = start; i < end; ++i) {
          dir->children.push_back(level[i]);
          dir->childKeys.push_back(computeKey(*level[i]));
          dir->childAggs.push_back(computeAgg(*level[i]));
          dir->childMaxH.push_back(computeMaxH(*level[i]));
        }
        up.push_back(dir);
      }
      level = std::move(up);
    }
    return level.front();
  }

  void reset() {
    Node* old = root_.exchange(newNode(true), std::memory_order_acq_rel);
    freeTree(old);
    size_.store(0, std::memory_order_relaxed);
    boundsLock_.lock();
    bounds_ = MdsKey();
    for (TopSummary& s : summaries_)
      std::fill(s.slots.begin(), s.slots.end(), Aggregate{});
    boundsLock_.unlock();
  }

  // ---- invariants (tests) -------------------------------------------------

  void checkNode(const Node& n, Aggregate& total, bool isRoot) const {
    if (n.leaf) {
      for (std::size_t i = 0; i < leafCount(n); ++i) total.add(n.measures[i]);
      if (hilbert())
        assert(std::is_sorted(n.hkeys.begin(), n.hkeys.end()));
      assert(leafCount(n) <= cfg_.leafCapacity);
      assert(n.cols.size() == schema_.dims());
      for (const auto& col : n.cols) {
        assert(col.size() == leafCount(n));
        (void)col;
      }
      return;
    }
    assert(!n.children.empty());
    assert(n.children.size() <= cfg_.fanout);
    assert(n.childKeys.size() == n.children.size());
    assert(n.childAggs.size() == n.children.size());
    if (hilbert()) {
      assert(n.childMaxH.size() == n.children.size());
      assert(std::is_sorted(n.childMaxH.begin(), n.childMaxH.end()));
    }
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      const Node& c = *n.children[i];
      // Parent entry must bound the child's actual key and aggregate.
      Key actual = computeKey(c);
      Key merged = n.childKeys[i];
      const bool grew = merged.merge(schema_, actual);
      assert(!grew && "child escapes its parent key");
      (void)grew;
      const Aggregate ca = computeAgg(c);
      assert(ca.count == n.childAggs[i].count);
      (void)ca;
      if (hilbert()) {
        assert(!(computeMaxH(c) > n.childMaxH[i]));
      }
      Aggregate sub;
      checkNode(c, sub, false);
      assert(sub.count == n.childAggs[i].count);
    }
    (void)isRoot;
  }

  const Schema& schema_;
  const ShardKind kind_;
  const TreeConfig cfg_;
  std::atomic<Node*> root_{nullptr};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> nodeCount_{0};

  /// One dimension's top-level summary: slot v aggregates the items whose
  /// coordinate lies under top-level value v (coord >> shift == v).
  struct TopSummary {
    unsigned shift = 0;
    std::vector<Aggregate> slots;  // empty: the dimension is not summarized
  };
  /// A dimension whose top level has more values than this gets no
  /// summary; its slices take the walk.
  static constexpr std::uint64_t kMaxSummarySlots = 256;

  mutable RwSpinLock boundsLock_;  // guards bounds_ and every summary slot
  MdsKey bounds_;
  std::vector<TopSummary> summaries_;  // one per dimension
};

template <typename Key>
Hyperplane ShardTree<Key>::balancedHyperplane(const Schema& schema,
                                              const PointSet& items) {
  Hyperplane best{0, 0};
  std::size_t bestBalance = 0;  // size of the smaller side (bigger = better)
  std::vector<std::uint64_t> vals;
  vals.reserve(items.size());
  for (unsigned j = 0; j < schema.dims(); ++j) {
    vals.clear();
    for (std::size_t i = 0; i < items.size(); ++i)
      vals.push_back(items.at(i).coords[j]);
    std::nth_element(vals.begin(), vals.begin() + vals.size() / 2,
                     vals.end());
    const std::uint64_t cut = vals[vals.size() / 2];
    std::size_t left = 0;
    for (auto v : vals)
      if (v < cut) ++left;
    const std::size_t balance = std::min(left, vals.size() - left);
    if (balance > bestBalance) {
      bestBalance = balance;
      best = {j, cut};
    }
  }
  return best;
}

}  // namespace volap
