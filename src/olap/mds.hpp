// Minimum Describing Subset key (DC-tree, Ester/Kohlhammer/Kriegel ICDE
// 2000; paper reference [37]). Per dimension, a bounded set of hierarchy
// values — i.e. disjoint *aligned* intervals of leaf ordinals — that jointly
// cover the subtree's data. When the set would exceed its budget it is
// generalized to values higher in the hierarchy. MDS keys describe
// hierarchical data far more tightly than MBRs, which is why PDC trees keep
// their query performance at high dimensionality (paper Fig. 5) while
// R-trees degrade.
//
// Storage is a single flat block of dims x kMaxEntries slots (one heap
// allocation per key): keys are copied heavily on the insert/split hot
// paths, so per-dimension vectors would dominate ingest cost.
#pragma once

#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "olap/point.hpp"
#include "olap/query_box.hpp"
#include "olap/schema.hpp"

namespace volap {

class MdsKey {
 public:
  /// Max hierarchy values kept per dimension before generalizing.
  static constexpr unsigned kMaxEntries = 3;

  MdsKey() = default;

  static MdsKey forPoint(const Schema& schema, PointRef p);

  bool valid() const { return !counts_.empty(); }
  unsigned dims() const { return static_cast<unsigned>(counts_.size()); }

  /// The sorted, disjoint aligned intervals covering dimension j.
  std::span<const HierInterval> dim(unsigned j) const {
    return {entries_.data() + j * kMaxEntries, counts_[j]};
  }

  /// Grow to cover `p`; returns true iff the key changed.
  bool expand(const Schema& schema, PointRef p);

  /// Grow to cover another key; returns true iff the key changed.
  bool merge(const Schema& schema, const MdsKey& o);

  bool contains(PointRef p) const;

  /// Box tests against `q` on the listed dimensions only (a range of
  /// dimension indices, e.g. FlatQuery::dims()). Leaving out a dimension
  /// that `q` does not constrain is exact: a valid key always intersects,
  /// and lies inside, a dimension's full extent.
  template <typename Dims>
  bool intersects(const QueryBox& q, const Dims& dims) const;
  template <typename Dims>
  bool containedIn(const QueryBox& q, const Dims& dims) const;
  /// Whole-box forms: every dimension.
  bool intersects(const QueryBox& q) const {
    return intersects(q, std::views::iota(0u, dims()));
  }
  bool containedIn(const QueryBox& q) const {
    return containedIn(q, std::views::iota(0u, dims()));
  }

  /// Normalized overlap volume with `o` in [0,1].
  double overlap(const Schema& schema, const MdsKey& o) const;

  /// Normalized covered volume in [0,1].
  double volume(const Schema& schema) const;

  /// Normalized margin (sum of per-dimension covered fractions).
  double margin(const Schema& schema) const;

  void serialize(ByteWriter& w) const;
  static MdsKey deserialize(ByteReader& r);

  friend bool operator==(const MdsKey& a, const MdsKey& b) {
    if (a.counts_ != b.counts_) return false;
    for (unsigned j = 0; j < a.dims(); ++j) {
      const auto sa = a.dim(j), sb = b.dim(j);
      for (std::size_t i = 0; i < sa.size(); ++i)
        if (!(sa[i] == sb[i])) return false;
    }
    return true;
  }

 private:
  void allocate(unsigned dims);
  HierInterval* slots(unsigned j) { return entries_.data() + j * kMaxEntries; }
  const HierInterval* slots(unsigned j) const {
    return entries_.data() + j * kMaxEntries;
  }

  /// Insert an aligned interval into dimension j's sorted disjoint set,
  /// absorbing nested entries and generalizing if over budget.
  bool addInterval(const Schema& schema, unsigned j, HierInterval iv);

  // entries_ holds dims*kMaxEntries slots; dimension j uses the first
  // counts_[j] of its kMaxEntries slots, sorted by lo and pairwise
  // disjoint.
  std::vector<HierInterval> entries_;
  std::vector<std::uint8_t> counts_;
};

template <typename Dims>
bool MdsKey::intersects(const QueryBox& q, const Dims& dims) const {
  if (counts_.empty()) return false;  // an empty key covers nothing
  for (const unsigned j : dims) {
    const HierInterval& qi = q.dim(j);
    const HierInterval* s = slots(j);
    const unsigned n = counts_[j];
    bool any = false;
    // Sorted by lo: past qi.hi nothing further can intersect.
    for (unsigned i = 0; i < n && s[i].lo <= qi.hi; ++i) {
      if (s[i].hi >= qi.lo) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

template <typename Dims>
bool MdsKey::containedIn(const QueryBox& q, const Dims& dims) const {
  if (counts_.empty()) return true;  // nothing to place outside q
  for (const unsigned j : dims) {
    const HierInterval& qi = q.dim(j);
    for (const HierInterval& e : dim(j))
      if (e.lo < qi.lo || e.hi > qi.hi) return false;
  }
  return true;
}

}  // namespace volap
