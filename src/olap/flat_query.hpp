// Flattened query representation for the leaf-scan hot path. A QueryBox is
// a vector of HierIntervals tested per point with a short-circuit loop;
// that layout is fine for directory pruning but hostile to leaf scans:
// every point costs d unpredictable branches and a pointer chase into the
// interval vector. FlatQuery pre-compiles the box once per query into
// contiguous lo[]/width[] arrays holding only the *constrained* dimensions,
// ordered most-selective-first, so a columnar leaf scan is a sequence of
// fused interval tests ((c - lo) <= width, one unsigned compare per point
// per dimension) over 32-bit columns. Each column pass ANDs its compare
// bits into a bit-packed selection vector (one uint64_t word per 64 items);
// the kernels live in flat_query.cpp. The same constrained-dimension list
// drives the directory key tests (ShardTree::queryTree).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "olap/aggregate.hpp"
#include "olap/point.hpp"
#include "olap/query_box.hpp"
#include "olap/schema.hpp"

namespace volap {

class FlatQuery {
 public:
  FlatQuery(const Schema& schema, const QueryBox& q) {
    struct Ent {
      unsigned dim;
      std::uint32_t lo;
      std::uint32_t width;
      double frac;  // covered fraction of the dimension (selectivity prior)
    };
    std::vector<Ent> ents;
    ents.reserve(q.dims());
    for (unsigned j = 0; j < q.dims(); ++j) {
      const HierInterval& iv = q.dim(j);
      // Clamp to the domain [0, extent - 1] (extent <= 2^32, Hierarchy's
      // width limit) before narrowing, so a box from the wire cannot wrap
      // a 32-bit lo or width. An interval left empty selects nothing.
      const std::uint64_t top = schema.dim(j).extent() - 1;
      const std::uint64_t hi = std::min(iv.hi, top);
      if (iv.lo > hi) {
        empty_ = true;
        continue;
      }
      if (iv.lo == 0 && hi == top) continue;  // unconstrained
      ents.push_back({j, static_cast<std::uint32_t>(iv.lo),
                      static_cast<std::uint32_t>(hi - iv.lo),
                      static_cast<double>(hi - iv.lo + 1) /
                          static_cast<double>(top + 1)});
    }
    // Most selective dimension first: the narrowest interval zeroes the
    // most selection words early, making later column passes cheap and
    // letting callers early-out on an all-zero selection. The directory
    // key tests visit the dimensions in the same order.
    std::sort(ents.begin(), ents.end(),
              [](const Ent& a, const Ent& b) { return a.frac < b.frac; });
    dims_.reserve(ents.size());
    lo_.reserve(ents.size());
    width_.reserve(ents.size());
    for (const Ent& e : ents) {
      dims_.push_back(e.dim);
      lo_.push_back(e.lo);
      width_.push_back(e.width);
    }
  }

  /// True when some interval of the box misses the domain entirely (or is
  /// inverted): the query selects nothing.
  bool empty() const { return empty_; }
  /// Number of constrained dimensions (the only ones a scan must test).
  unsigned constrained() const {
    return static_cast<unsigned>(dims_.size());
  }
  /// Original dimension indices of the constraints, most selective first.
  std::span<const unsigned> dims() const { return dims_; }
  /// Original dimension index of the k-th most selective constraint.
  unsigned dimAt(unsigned k) const { return dims_[k]; }
  std::uint32_t lo(unsigned k) const { return lo_[k]; }
  std::uint32_t width(unsigned k) const { return width_[k]; }

  /// Point-at-a-time test over the constrained dimensions only; the fused
  /// unsigned compare makes each test a single branchless predicate.
  bool contains(PointRef p) const {
    unsigned ok = empty_ ? 0 : 1;
    for (unsigned k = 0; k < constrained(); ++k)
      ok &= static_cast<unsigned>((p.coords[dims_[k]] - lo_[k]) <= width_[k]);
    return ok != 0;
  }

 private:
  std::vector<unsigned> dims_;
  std::vector<std::uint32_t> lo_;
  std::vector<std::uint32_t> width_;
  bool empty_ = false;
};

/// Words in the selection vector of an n-item block: bit i%64 of word i/64
/// says whether item i is still selected.
constexpr std::size_t selectionWords(std::size_t n) { return (n + 63) / 64; }

/// Select all n items: full words all-ones, the tail word's bits at and
/// past n clear (so only a full 64-item word can ever be all-ones).
void selectAll(std::uint64_t* sel, std::size_t n);

/// One column pass: clear bit i of `sel` unless (col[i] - lo) <= width,
/// i.e. col[i] lies in [lo, lo + width] (32-bit arithmetic: leaf columns
/// hold 32-bit coordinates). Words that are already zero are skipped.
/// Returns false when no bit survived, so callers can stop scanning the
/// remaining (less selective) columns of a dead block. Runs the AVX-512
/// compare on hosts that have it, else the portable path; the choice is
/// made once per process.
bool selectInterval(const std::uint32_t* col, std::size_t n, std::uint32_t lo,
                    std::uint32_t width, std::uint64_t* sel);

/// Aggregate the measures whose selection bit is set. Runs the AVX-512
/// masked-vector path on hosts that have it, else the portable word walk;
/// the choice is made once per process.
Aggregate selectedAggregate(const double* measures, const std::uint64_t* sel,
                            std::size_t n);

namespace detail {
/// Signature shared by every column pass.
using ColumnPass = bool (*)(const std::uint32_t*, std::size_t, std::uint32_t,
                            std::uint32_t, std::uint64_t*);
/// Signature shared by every aggregate path.
using AggregatePass = Aggregate (*)(const double*, const std::uint64_t*,
                                    std::size_t);
/// True when the CPU supports the AVX-512 paths.
bool haveAvx512();
/// The two column passes selectInterval dispatches between. Same contract;
/// selectIntervalAvx512 may only be called when haveAvx512().
bool selectIntervalScalar(const std::uint32_t* col, std::size_t n,
                          std::uint32_t lo, std::uint32_t width,
                          std::uint64_t* sel);
bool selectIntervalAvx512(const std::uint32_t* col, std::size_t n,
                          std::uint32_t lo, std::uint32_t width,
                          std::uint64_t* sel);
/// The two aggregate paths selectedAggregate dispatches between. Same
/// contract (sums may differ in rounding only); selectedAggregateAvx512 may
/// only be called when haveAvx512().
Aggregate selectedAggregateScalar(const double* measures,
                                  const std::uint64_t* sel, std::size_t n);
Aggregate selectedAggregateAvx512(const double* measures,
                                  const std::uint64_t* sel, std::size_t n);
}  // namespace detail

/// Full scan of one columnar block: `colAt(j)` returns dimension j's
/// column (n contiguous values). `sel` is caller-owned scratch of at least
/// selectionWords(n) words. Matches are merged into `out`.
template <typename ColAt>
inline void scanColumns(const FlatQuery& fq, ColAt colAt,
                        const double* measures, std::size_t n,
                        std::uint64_t* sel, Aggregate& out) {
  if (n == 0 || fq.empty()) return;
  selectAll(sel, n);
  for (unsigned k = 0; k < fq.constrained(); ++k)
    if (!selectInterval(colAt(fq.dimAt(k)), n, fq.lo(k), fq.width(k), sel))
      return;  // block fully rejected by a more selective column
  out.merge(selectedAggregate(measures, sel, n));
}

}  // namespace volap
