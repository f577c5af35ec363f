// Differential test of the leaf-scan kernels (olap/flat_query.cpp): the
// AVX-512 and the scalar column pass, each called directly, and the
// word-mask aggregate must reproduce a per-point oracle bit for bit. Leaf
// sizes straddle the 64-item word boundary so partial tail words are
// exercised, and the values sit on the interval edges (exactly lo, exactly
// lo + width, just below lo where c - lo wraps, just past lo + width).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "olap/data_gen.hpp"
#include "olap/flat_query.hpp"
#include "olap/query_box.hpp"
#include "olap/schema.hpp"

namespace volap {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
const std::size_t kLeafSizes[] = {0, 1, 63, 64, 65, 511, 512, 600};

/// Every column pass to check: the two implementations, plus the
/// dispatching entry point the tree calls. The AVX-512 one only when the
/// CPU has it.
std::vector<std::pair<const char*, detail::ColumnPass>> passes() {
  std::vector<std::pair<const char*, detail::ColumnPass>> out = {
      {"scalar", detail::selectIntervalScalar},
      {"dispatched", selectInterval}};
  if (detail::haveAvx512())
    out.push_back({"avx512", detail::selectIntervalAvx512});
  return out;
}

bool bitAt(const std::vector<std::uint64_t>& sel, std::size_t i) {
  return ((sel[i / 64] >> (i % 64)) & 1) != 0;
}

Aggregate oracleAggregate(const std::vector<double>& measures,
                          const std::vector<bool>& keep) {
  Aggregate a;
  for (std::size_t i = 0; i < measures.size(); ++i)
    if (keep[i]) a.add(measures[i]);
  return a;
}

void expectSameAggregate(const Aggregate& got, const Aggregate& want,
                         const std::string& label) {
  ASSERT_EQ(got.count, want.count) << label;
  EXPECT_NEAR(got.sum, want.sum, 1e-9 * (1.0 + std::abs(want.sum))) << label;
  if (want.count > 0) {
    EXPECT_EQ(got.min, want.min) << label;
    EXPECT_EQ(got.max, want.max) << label;
  }
}

std::vector<double> randomMeasures(Rng& rng, std::size_t n) {
  std::vector<double> m(n);
  for (double& v : m) v = rng.logNormal(3.0, 1.5) - 20.0;  // some negative
  return m;
}

/// Starting selections: all live, all dead, live and dead words in turn,
/// and random bits. Bits at and past n are always clear.
std::vector<std::vector<std::uint64_t>> startSelections(Rng& rng,
                                                        std::size_t n) {
  const std::size_t words = selectionWords(n);
  std::vector<std::uint64_t> all(words);
  selectAll(all.data(), n);
  std::vector<std::uint64_t> dead(words, 0);
  std::vector<std::uint64_t> striped = all, random = all;
  for (std::size_t w = 0; w < words; ++w) {
    if (w % 2 == 1) striped[w] = 0;
    random[w] &= rng.next();
  }
  return {all, dead, striped, random};
}

TEST(FlatQueryKernel, ColumnPassesMatchIntervalOracle) {
  Rng rng(7);
  struct Range {
    std::uint64_t lo, width;
  };
  const Range ranges[] = {
      {100, 0},         // a single value
      {100, 50},        // a plain interval
      {0, 10},          // lo at the bottom: lo - 1 wraps to kMax
      {0, kMax},        // unconstrained: every value passes
      {kMax - 10, 10},  // lo + width is exactly kMax
      {5, kMax - 5},    // everything from 5 up
  };
  for (const std::size_t n : kLeafSizes) {
    for (const Range& r : ranges) {
      const std::uint64_t hi = r.lo + r.width;
      const std::uint64_t edges[] = {r.lo,     hi,   r.lo - 1, hi + 1,
                                     0,        kMax, r.lo + r.width / 2,
                                     rng.next()};
      std::vector<std::uint64_t> col(n);
      for (std::uint64_t& c : col) c = edges[rng.below(std::size(edges))];
      const std::vector<double> measures = randomMeasures(rng, n);
      const HierInterval oracle{r.lo, hi, 0};
      for (const auto& start : startSelections(rng, n)) {
        std::vector<bool> keep(n);
        bool anyLive = false;
        for (std::size_t i = 0; i < n; ++i) {
          keep[i] = bitAt(start, i) && oracle.contains(col[i]);
          anyLive = anyLive || keep[i];
        }
        const Aggregate want = oracleAggregate(measures, keep);
        for (const auto& [name, pass] : passes()) {
          const std::string label = std::string(name) + " n=" +
                                    std::to_string(n) + " lo=" +
                                    std::to_string(r.lo) + " width=" +
                                    std::to_string(r.width);
          std::vector<std::uint64_t> sel = start;
          EXPECT_EQ(pass(col.data(), n, r.lo, r.width, sel.data()), anyLive)
              << label;
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(bitAt(sel, i), keep[i]) << label << " item " << i;
          if (n % 64 != 0) {  // tail bits stay clear
            EXPECT_EQ(sel.back() >> (n % 64), 0u) << label;
          }
          expectSameAggregate(
              selectedAggregate(measures.data(), sel.data(), n), want, label);
        }
      }
    }
  }
}

TEST(FlatQueryKernel, LeafScanMatchesQueryBoxOracle) {
  const Schema schema = Schema::tpcds();
  const unsigned d = schema.dims();
  DataGenerator gen(schema, 31);
  Rng rng(32);
  for (const std::size_t n : kLeafSizes) {
    const PointSet anchors = gen.generate(64);
    for (unsigned constrained = 0; constrained <= 3; ++constrained) {
      for (int trial = 0; trial < 8; ++trial) {
        // A box constraining `constrained` distinct dimensions to an
        // ancestor of one anchor item.
        QueryBox q(schema);
        const PointRef anchor = anchors.at(rng.below(anchors.size()));
        std::vector<unsigned> dims;
        while (dims.size() < constrained) {
          const auto j = static_cast<unsigned>(rng.below(d));
          if (std::find(dims.begin(), dims.end(), j) != dims.end()) continue;
          dims.push_back(j);
          const unsigned depth = schema.dim(j).depth();
          q.constrainAncestor(schema, j, anchor.coords[j],
                              1 + static_cast<unsigned>(rng.below(depth)));
        }
        // Columns of generated items, with constrained values pushed onto
        // the interval edges a third of the time.
        std::vector<std::vector<std::uint64_t>> cols(
            d, std::vector<std::uint64_t>(n));
        const PointSet items = gen.generate(n);
        for (std::size_t i = 0; i < n; ++i)
          for (unsigned j = 0; j < d; ++j) cols[j][i] = items.at(i).coords[j];
        for (const unsigned j : dims) {
          const HierInterval& iv = q.dim(j);
          const std::uint64_t edges[] = {iv.lo, iv.hi, iv.lo - 1, iv.hi + 1,
                                         anchor.coords[j]};
          for (std::uint64_t& c : cols[j])
            if (rng.below(3) == 0) c = edges[rng.below(std::size(edges))];
        }
        const std::vector<double> measures = randomMeasures(rng, n);

        std::vector<bool> keep(n);
        std::vector<std::uint64_t> buf(d);
        for (std::size_t i = 0; i < n; ++i) {
          for (unsigned j = 0; j < d; ++j) buf[j] = cols[j][i];
          keep[i] = q.contains({std::span<const std::uint64_t>(buf), 0.0});
        }
        const Aggregate want = oracleAggregate(measures, keep);

        const FlatQuery fq(schema, q);
        ASSERT_EQ(fq.constrained(), constrained);
        const std::string desc =
            q.describe(schema) + " n=" + std::to_string(n);
        for (const auto& [name, pass] : passes()) {
          std::vector<std::uint64_t> sel(selectionWords(n));
          selectAll(sel.data(), n);
          Aggregate got;
          bool alive = n != 0;
          for (unsigned k = 0; alive && k < fq.constrained(); ++k)
            alive = pass(cols[fq.dimAt(k)].data(), n, fq.lo(k), fq.width(k),
                         sel.data());
          if (alive) got = selectedAggregate(measures.data(), sel.data(), n);
          expectSameAggregate(got, want, std::string(name) + " " + desc);
        }
        // The whole-leaf entry point the tree calls.
        std::vector<std::uint64_t> sel(selectionWords(n));
        Aggregate got;
        scanColumns(
            fq, [&](unsigned j) { return cols[j].data(); }, measures.data(),
            n, sel.data(), got);
        expectSameAggregate(got, want, "scanColumns " + desc);
      }
    }
  }
}

}  // namespace
}  // namespace volap
