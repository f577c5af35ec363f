// Differential test of the leaf-scan kernels (olap/flat_query.cpp): the
// AVX-512 and the scalar column pass over 32-bit columns, and the AVX-512
// and the scalar aggregate, each called directly, must reproduce a
// per-point oracle. Leaf sizes straddle the 64-item word boundary so
// partial tail words are exercised, and the values sit on the interval
// edges (exactly lo, exactly lo + width, just below lo where c - lo wraps,
// just past lo + width, and the top of the 32-bit range).
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
#include "common/serialize.hpp"
#include "olap/data_gen.hpp"
#include "olap/flat_query.hpp"
#include "olap/query_box.hpp"
#include "olap/schema.hpp"

namespace volap {
namespace {

constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
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

/// Every aggregate path to check, the same way.
std::vector<std::pair<const char*, detail::AggregatePass>> aggregates() {
  std::vector<std::pair<const char*, detail::AggregatePass>> out = {
      {"scalar", detail::selectedAggregateScalar},
      {"dispatched", selectedAggregate}};
  if (detail::haveAvx512())
    out.push_back({"avx512", detail::selectedAggregateAvx512});
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

/// Two dimensions: an 8-bit one and one 32 bits wide (the widest a
/// Hierarchy allows), whose leaf ordinals reach 2^32 - 1.
Schema wideSchema() {
  return Schema({Hierarchy("Narrow", {{"A", 16}, {"B", 16}}),
                 Hierarchy("Wide", {{"Hi", 1ull << 16}, {"Lo", 1ull << 16}})});
}

TEST(FlatQueryKernel, ColumnPassesMatchIntervalOracle) {
  Rng rng(7);
  struct Range {
    std::uint32_t lo, width;
  };
  const Range ranges[] = {
      {100, 0},         // a single value
      {100, 50},        // a plain interval
      {0, 10},          // lo at the bottom: lo - 1 wraps to kMax
      {0, kMax},        // unconstrained: every value passes
      {kMax - 10, 10},  // lo + width is exactly 2^32 - 1
      {kMax, 0},        // only the top value
      {5, kMax - 5},    // everything from 5 up
  };
  for (const std::size_t n : kLeafSizes) {
    for (const Range& r : ranges) {
      const std::uint32_t hi = r.lo + r.width;
      const std::uint32_t edges[] = {
          r.lo, hi, r.lo - 1, hi + 1, 0, kMax, r.lo + r.width / 2,
          static_cast<std::uint32_t>(rng.next())};
      std::vector<std::uint32_t> col(n);
      for (std::uint32_t& c : col) c = edges[rng.below(std::size(edges))];
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

TEST(FlatQueryKernel, AggregatePathsMatchPerPointOracle) {
  Rng rng(11);
  for (const std::size_t n : kLeafSizes) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> measures = randomMeasures(rng, n);
      // Ties and signed outliers: the exact min/max must survive them.
      if (n > 2 && trial % 2 == 1) {
        measures[rng.below(n)] = -1e6;
        measures[rng.below(n)] = 1e6;
        measures[n - 1] = measures[0];
      }
      for (const auto& start : startSelections(rng, n)) {
        std::vector<bool> keep(n);
        for (std::size_t i = 0; i < n; ++i) keep[i] = bitAt(start, i);
        const Aggregate want = oracleAggregate(measures, keep);
        for (const auto& [name, agg] : aggregates()) {
          const std::string label = std::string(name) +
                                    " n=" + std::to_string(n) +
                                    " trial=" + std::to_string(trial);
          expectSameAggregate(agg(measures.data(), start.data(), n), want,
                              label);
        }
      }
    }
  }
}

TEST(FlatQueryKernel, LeafScanMatchesQueryBoxOracle) {
  for (const Schema& schema : {Schema::tpcds(), wideSchema()}) {
    const unsigned d = schema.dims();
    DataGenerator gen(schema, 31);
    Rng rng(32);
    for (const std::size_t n : kLeafSizes) {
      const PointSet anchors = gen.generate(64);
      for (unsigned constrained = 0; constrained <= std::min(3u, d);
           ++constrained) {
        for (int trial = 0; trial < 8; ++trial) {
          // A box constraining `constrained` distinct dimensions to an
          // ancestor of one anchor item.
          QueryBox q(schema);
          const PointRef anchor = anchors.at(rng.below(anchors.size()));
          std::vector<unsigned> dims;
          while (dims.size() < constrained) {
            const auto j = static_cast<unsigned>(rng.below(d));
            if (std::find(dims.begin(), dims.end(), j) != dims.end())
              continue;
            dims.push_back(j);
            const unsigned depth = schema.dim(j).depth();
            q.constrainAncestor(schema, j, anchor.coords[j],
                                1 + static_cast<unsigned>(rng.below(depth)));
          }
          // Columns of generated items, with constrained values pushed
          // onto the interval edges and the domain's ends a third of the
          // time.
          std::vector<std::vector<std::uint32_t>> cols(
              d, std::vector<std::uint32_t>(n));
          const PointSet items = gen.generate(n);
          for (std::size_t i = 0; i < n; ++i)
            for (unsigned j = 0; j < d; ++j)
              cols[j][i] = static_cast<std::uint32_t>(items.at(i).coords[j]);
          for (const unsigned j : dims) {
            const HierInterval& iv = q.dim(j);
            const std::uint64_t top = schema.dim(j).extent() - 1;
            std::vector<std::uint64_t> edges = {iv.lo, iv.hi, 0, top,
                                                anchor.coords[j]};
            if (iv.lo > 0) edges.push_back(iv.lo - 1);
            if (iv.hi < top) edges.push_back(iv.hi + 1);
            for (std::uint32_t& c : cols[j])
              if (rng.below(3) == 0)
                c = static_cast<std::uint32_t>(
                    edges[rng.below(edges.size())]);
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
            for (const auto& [aggName, agg] : aggregates()) {
              std::vector<std::uint64_t> sel(selectionWords(n));
              selectAll(sel.data(), n);
              Aggregate got;
              bool alive = n != 0;
              for (unsigned k = 0; alive && k < fq.constrained(); ++k)
                alive = pass(cols[fq.dimAt(k)].data(), n, fq.lo(k),
                             fq.width(k), sel.data());
              if (alive) got = agg(measures.data(), sel.data(), n);
              expectSameAggregate(
                  got, want,
                  std::string(name) + "/" + aggName + " " + desc);
            }
          }
          // The whole-leaf entry point the tree calls.
          std::vector<std::uint64_t> sel(selectionWords(n));
          Aggregate got;
          scanColumns(
              fq, [&](unsigned j) { return cols[j].data(); },
              measures.data(), n, sel.data(), got);
          expectSameAggregate(got, want, "scanColumns " + desc);
        }
      }
    }
  }
}

/// A box as it arrives off the wire: raw per-dimension (lo, hi) pairs,
/// not necessarily inside the domain.
QueryBox wireBox(std::initializer_list<std::pair<std::uint64_t, std::uint64_t>>
                     dims) {
  ByteWriter w;
  w.varint(dims.size());
  for (const auto& [lo, hi] : dims) HierInterval{lo, hi, 1}.serialize(w);
  const Blob blob = w.take();
  ByteReader r(blob);
  return QueryBox::deserialize(r);
}

TEST(FlatQuery, ClampsWireIntervalsToTheDomain) {
  const Schema schema = wideSchema();
  constexpr std::uint64_t kBig = 1ull << 40;
  {
    // hi past the 32-bit domain: clamped to 2^32 - 1, so the width cannot
    // wrap when narrowed.
    const FlatQuery fq(schema, wireBox({{0, 255}, {5, kBig}}));
    EXPECT_FALSE(fq.empty());
    ASSERT_EQ(fq.constrained(), 1u);
    EXPECT_EQ(fq.dimAt(0), 1u);
    EXPECT_EQ(fq.lo(0), 5u);
    EXPECT_EQ(fq.width(0), kMax - 5);
  }
  {
    // [0, beyond the top] covers the whole dimension: unconstrained.
    const FlatQuery fq(schema, wireBox({{0, kBig}, {0, kBig}}));
    EXPECT_FALSE(fq.empty());
    EXPECT_EQ(fq.constrained(), 0u);
  }
  // Entirely outside the domain, or inverted: the box selects nothing.
  for (const QueryBox& q :
       {wireBox({{0, 255}, {1ull << 33, 1ull << 34}}),
        wireBox({{300, 400}, {0, 10}}), wireBox({{10, 5}, {0, 10}})}) {
    const FlatQuery fq(schema, q);
    EXPECT_TRUE(fq.empty()) << q.describe(schema);
    const std::vector<std::uint64_t> c{7, 7};
    EXPECT_FALSE(fq.contains({std::span<const std::uint64_t>(c), 1.0}));
    const std::vector<std::uint32_t> col(4, 7);
    std::vector<std::uint64_t> sel(1);
    const std::vector<double> measures(4, 1.0);
    Aggregate got;
    scanColumns(
        fq, [&](unsigned) { return col.data(); }, measures.data(), 4,
        sel.data(), got);
    EXPECT_EQ(got.count, 0u);
  }
}

}  // namespace
}  // namespace volap
