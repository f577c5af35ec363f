// An aggregate query region: one constraint per dimension, each a value at
// some hierarchy level (= an aligned interval of leaf ordinals). Level 0
// leaves the dimension unconstrained ("All"), so queries can aggregate
// anything from a single cell to nearly the whole database (paper SIV).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "olap/point.hpp"
#include "olap/schema.hpp"

namespace volap {

class QueryBox {
 public:
  QueryBox() = default;
  explicit QueryBox(const Schema& schema) {
    dims_.reserve(schema.dims());
    for (unsigned j = 0; j < schema.dims(); ++j)
      dims_.push_back(
          {0, schema.dim(j).extent() - 1, 0});  // unconstrained
  }

  unsigned dims() const { return static_cast<unsigned>(dims_.size()); }
  const HierInterval& dim(unsigned j) const { return dims_[j]; }

  /// Constrain dimension j to the subtree under the given partial path.
  void constrain(const Schema& schema, unsigned j,
                 std::span<const std::uint64_t> path) {
    dims_[j] = schema.dim(j).pathInterval(path);
  }

  /// Constrain dimension j to the level-l ancestor of leaf ordinal v.
  void constrainAncestor(const Schema& schema, unsigned j, std::uint64_t v,
                         unsigned level) {
    dims_[j] = schema.dim(j).ancestorInterval(v, level);
  }

  bool contains(PointRef p) const {
    assert(p.dims() == dims());
    for (unsigned j = 0; j < dims(); ++j)
      if (!dims_[j].contains(p.coords[j])) return false;
    return true;
  }

  /// Fraction of the (bit-padded) domain covered; a cheap prior for the
  /// true data coverage that the generator measures against a sample.
  double domainFraction(const Schema& schema) const {
    double f = 1.0;
    for (unsigned j = 0; j < dims(); ++j)
      f *= static_cast<double>(dims_[j].length()) /
           static_cast<double>(schema.dim(j).extent());
    return f;
  }

  std::string describe(const Schema& schema) const {
    std::string out;
    for (unsigned j = 0; j < dims(); ++j) {
      if (dims_[j].level == 0) continue;
      if (!out.empty()) out += " & ";
      out += schema.dim(j).name() + "@L" + std::to_string(dims_[j].level) +
             "=[" + std::to_string(dims_[j].lo) + "," +
             std::to_string(dims_[j].hi) + "]";
    }
    return out.empty() ? "ALL" : out;
  }

  void serialize(ByteWriter& w) const {
    w.varint(dims_.size());
    for (const auto& d : dims_) d.serialize(w);
  }
  static QueryBox deserialize(ByteReader& r) {
    QueryBox q;
    const auto n = r.varint();
    q.dims_.reserve(std::min<std::uint64_t>(n, r.remaining()));  // untrusted
    for (std::uint64_t i = 0; i < n; ++i)
      q.dims_.push_back(HierInterval::deserialize(r));
    return q;
  }

  friend bool operator==(const QueryBox&, const QueryBox&) = default;

 private:
  std::vector<HierInterval> dims_;
};

}  // namespace volap
