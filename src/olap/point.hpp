// Data items. Hot paths operate on PointRef (a borrowed view) and PointSet
// (structure-of-arrays storage used by generators, bulk loads, and shard
// serialization) to avoid per-item heap allocation at ingest rates of
// hundreds of thousands of items per second.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.hpp"

namespace volap {

/// Borrowed view of one item: packed leaf ordinals per dimension + measure.
struct PointRef {
  std::span<const std::uint64_t> coords;
  double measure = 0;

  unsigned dims() const { return static_cast<unsigned>(coords.size()); }
};

/// Owning single item, for APIs where the caller builds one point at a time.
struct Point {
  std::vector<std::uint64_t> coords;
  double measure = 0;

  unsigned dims() const { return static_cast<unsigned>(coords.size()); }
  PointRef ref() const { return {coords, measure}; }
};

/// Structure-of-arrays batch of items with a fixed dimensionality.
class PointSet {
 public:
  PointSet() = default;
  explicit PointSet(unsigned dims) : dims_(dims) {}

  unsigned dims() const { return dims_; }
  std::size_t size() const { return measures_.size(); }
  bool empty() const { return measures_.empty(); }

  void reserve(std::size_t n) {
    coords_.reserve(n * dims_);
    measures_.reserve(n);
  }

  void push(PointRef p) {
    assert(p.dims() == dims_);
    coords_.insert(coords_.end(), p.coords.begin(), p.coords.end());
    measures_.push_back(p.measure);
  }

  PointRef at(std::size_t i) const {
    return {std::span<const std::uint64_t>(coords_.data() + i * dims_, dims_),
            measures_[i]};
  }

  void clear() {
    coords_.clear();
    measures_.clear();
  }

  void serialize(ByteWriter& w) const {
    w.varint(dims_);
    w.varint(size());
    for (auto c : coords_) w.varint(c);
    for (auto m : measures_) w.f64(m);
  }

  static PointSet deserialize(ByteReader& r) {
    PointSet ps(static_cast<unsigned>(r.varint()));
    const auto n = r.varint();
    // Wire counts are untrusted: reserve no more than the bytes left (a
    // short payload then ends in DeserializeError, not a huge allocation).
    ps.coords_.reserve(std::min<std::uint64_t>(n * ps.dims_, r.remaining()));
    ps.measures_.reserve(std::min<std::uint64_t>(n, r.remaining() / 8));
    for (std::uint64_t i = 0; i < n * ps.dims_; ++i)
      ps.coords_.push_back(r.varint());
    for (std::uint64_t i = 0; i < n; ++i) ps.measures_.push_back(r.f64());
    return ps;
  }

 private:
  unsigned dims_ = 0;
  std::vector<std::uint64_t> coords_;
  std::vector<double> measures_;
};

}  // namespace volap
