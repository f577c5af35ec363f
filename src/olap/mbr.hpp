// Minimum Bounding Rectangle key: one interval of leaf-ordinal space per
// dimension. The cheaper but looser of VOLAP's two key types (paper SIII-B:
// bounding boxes are "either a Minimum Bounding Rectangle (MBR, one box) or
// Minimum Describing Subset (MDS, multiple boxes)"). R-tree variants use
// MBRs exclusively; PDC variants may use either.
#pragma once

#include <cassert>
#include <cstdint>
#include <ranges>
#include <vector>

#include "olap/point.hpp"
#include "olap/query_box.hpp"
#include "olap/schema.hpp"

namespace volap {

class MbrKey {
 public:
  MbrKey() = default;

  static MbrKey forPoint(const Schema& schema, PointRef p) {
    MbrKey k;
    k.dims_.reserve(schema.dims());
    for (unsigned j = 0; j < schema.dims(); ++j)
      k.dims_.push_back(Interval::point(p.coords[j]));
    return k;
  }

  bool valid() const { return !dims_.empty(); }
  unsigned dims() const { return static_cast<unsigned>(dims_.size()); }
  const Interval& dim(unsigned j) const { return dims_[j]; }

  /// Grow to cover `p`; returns true iff the key changed.
  bool expand(const Schema& schema, PointRef p) {
    if (dims_.empty()) {
      *this = forPoint(schema, p);
      return true;
    }
    bool changed = false;
    for (unsigned j = 0; j < dims(); ++j) {
      auto& iv = dims_[j];
      const auto v = p.coords[j];
      if (v < iv.lo) {
        iv.lo = v;
        changed = true;
      }
      if (v > iv.hi) {
        iv.hi = v;
        changed = true;
      }
    }
    return changed;
  }

  /// Grow to cover another key; returns true iff the key changed.
  bool merge(const Schema&, const MbrKey& o) {
    if (dims_.empty()) {
      *this = o;
      return o.valid();
    }
    bool changed = false;
    for (unsigned j = 0; j < dims(); ++j) {
      const Interval h = dims_[j].hull(o.dims_[j]);
      if (h != dims_[j]) {
        dims_[j] = h;
        changed = true;
      }
    }
    return changed;
  }

  bool contains(PointRef p) const {
    if (dims_.empty()) return false;  // an empty key covers nothing
    for (unsigned j = 0; j < dims(); ++j)
      if (!dims_[j].contains(p.coords[j])) return false;
    return true;
  }

  /// Box tests against `q` on the listed dimensions only (a range of
  /// dimension indices, e.g. FlatQuery::dims()). Leaving out a dimension
  /// that `q` does not constrain is exact: a valid key always intersects,
  /// and lies inside, a dimension's full extent.
  template <typename Dims>
  bool intersects(const QueryBox& q, const Dims& dims) const {
    if (dims_.empty()) return false;  // an empty key covers nothing
    for (const unsigned j : dims)
      if (!dims_[j].intersects(q.dim(j).asInterval())) return false;
    return true;
  }
  template <typename Dims>
  bool containedIn(const QueryBox& q, const Dims& dims) const {
    if (dims_.empty()) return true;  // nothing to place outside q
    for (const unsigned j : dims)
      if (!q.dim(j).asInterval().contains(dims_[j])) return false;
    return true;
  }
  /// Whole-box forms: every dimension.
  bool intersects(const QueryBox& q) const {
    return intersects(q, std::views::iota(0u, dims()));
  }
  bool containedIn(const QueryBox& q) const {
    return containedIn(q, std::views::iota(0u, dims()));
  }

  /// Normalized overlap volume with `o` in [0,1].
  double overlap(const Schema& schema, const MbrKey& o) const {
    if (dims_.empty() || o.dims_.empty()) return 0;
    double v = 1.0;
    for (unsigned j = 0; j < dims(); ++j) {
      const auto len = dims_[j].overlapLength(o.dims_[j]);
      if (len == 0) return 0;
      v *= static_cast<double>(len) /
           static_cast<double>(schema.dim(j).extent());
    }
    return v;
  }

  /// Normalized volume in [0,1].
  double volume(const Schema& schema) const {
    if (dims_.empty()) return 0;
    double v = 1.0;
    for (unsigned j = 0; j < dims(); ++j)
      v *= static_cast<double>(dims_[j].length()) /
           static_cast<double>(schema.dim(j).extent());
    return v;
  }

  /// Normalized margin (sum of side fractions); R*-style tie-breaker.
  double margin(const Schema& schema) const {
    double m = 0;
    for (unsigned j = 0; j < dims(); ++j)
      m += static_cast<double>(dims_[j].length()) /
           static_cast<double>(schema.dim(j).extent());
    return m;
  }

  void serialize(ByteWriter& w) const {
    w.varint(dims_.size());
    for (const auto& iv : dims_) iv.serialize(w);
  }
  static MbrKey deserialize(ByteReader& r) {
    MbrKey k;
    const auto n = r.varint();
    k.dims_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
      k.dims_.push_back(Interval::deserialize(r));
    return k;
  }

  friend bool operator==(const MbrKey&, const MbrKey&) = default;

 private:
  std::vector<Interval> dims_;
};

}  // namespace volap
