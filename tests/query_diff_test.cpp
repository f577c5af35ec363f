// Differential property test for the columnar query hot path: random
// points + random QueryBoxes must produce IDENTICAL aggregates from every
// implementation — ShardTree leaves scan SoA columns with the branch-free
// FlatQuery kernel, ArrayShard scans point-major storage through
// FlatQuery::contains, and the brute-force oracle here uses the original
// QueryBox::contains. Tiny fanout/leafCapacity force deep trees and many
// splits so the cached-aggregate pruning path (containedIn -> merge
// childAggs, no descent) is exercised, and a concurrent-insert phase runs
// queries against the explicit-stack traversal while leaves are mutating.
// Every test also asks single-dimension slices: whole top-level values,
// which the trees answer from their per-dimension summaries, and unaligned
// intervals next to them, which must take the walk.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/serialize.hpp"
#include "olap/data_gen.hpp"
#include "olap/flat_query.hpp"
#include "olap/mbr.hpp"
#include "olap/query_gen.hpp"
#include "tree/array_shard.hpp"
#include "tree/shard_tree.hpp"

namespace volap {
namespace {

Aggregate bruteForce(const PointSet& points, const QueryBox& q) {
  Aggregate a;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointRef p = points.at(i);
    if (q.contains(p)) a.add(p.measure);
  }
  return a;
}

// Sums are compared with tolerance (log-normal measures accumulate in
// different orders per implementation); count/min/max must match exactly.
void expectSame(const Aggregate& got, const Aggregate& want,
                const char* label, const std::string& desc) {
  ASSERT_EQ(got.count, want.count) << label << ": " << desc;
  EXPECT_NEAR(got.sum, want.sum, 1e-6 * (1.0 + std::abs(want.sum)))
      << label << ": " << desc;
  if (want.count > 0) {
    EXPECT_EQ(got.min, want.min) << label << ": " << desc;
    EXPECT_EQ(got.max, want.max) << label << ": " << desc;
  }
}

// A box constraining dimension j alone to [lo, hi], built the way one
// arrives off the wire: hi may lie past the end of the domain.
QueryBox rangeBox(const Schema& schema, unsigned j, std::uint64_t lo,
                  std::uint64_t hi) {
  const QueryBox all(schema);
  ByteWriter w;
  w.varint(schema.dims());
  for (unsigned k = 0; k < schema.dims(); ++k)
    (k == j ? HierInterval{lo, hi, 0} : all.dim(k)).serialize(w);
  const Blob blob = w.take();
  ByteReader r(blob);
  return QueryBox::deserialize(r);
}

// Single-dimension slices around the anchor's top-level value in every
// dimension: the value itself, a run of up to three values, the run from
// it to the domain's end (hi past the end, clamped by the shard), and two
// unaligned intervals that start or end inside a top-level value.
std::vector<QueryBox> sliceBoxes(const Schema& schema, PointRef anchor) {
  std::vector<QueryBox> out;
  for (unsigned j = 0; j < schema.dims(); ++j) {
    const Hierarchy& h = schema.dim(j);
    const std::uint64_t span = std::uint64_t{1} << h.bitsBelow(1);
    const std::uint64_t values = std::uint64_t{1} << h.bitsAt(1);
    const std::uint64_t v = anchor.coords[j] / span;
    QueryBox one(schema);
    one.constrainAncestor(schema, j, anchor.coords[j], 1);
    out.push_back(one);
    out.push_back(
        rangeBox(schema, j, v * span, std::min(v + 3, values) * span - 1));
    out.push_back(rangeBox(schema, j, v * span, ~std::uint64_t{0}));
    if (span > 1) {
      out.push_back(rangeBox(schema, j, v * span + 1, (v + 2) * span - 1));
      out.push_back(rangeBox(schema, j, v * span, (v + 1) * span));
    }
  }
  return out;
}

TreeConfig tinyConfig() {
  TreeConfig cfg;
  cfg.fanout = 4;
  cfg.leafCapacity = 4;  // maximizes splits and directory depth
  return cfg;
}

TEST(QueryDiff, AllImplementationsAgreeOnRandomBoxes) {
  const Schema schema = Schema::tpcds();
  ShardTree<MdsKey> hilbert(schema, ShardKind::kHilbertPdcMds, tinyConfig());
  TreeConfig geomCfg = tinyConfig();
  geomCfg.order = InsertOrder::kGeometric;
  ShardTree<MdsKey> geometric(schema, ShardKind::kPdcMds, geomCfg);
  ArrayShard array(schema);

  DataGenerator gen(schema, 501);
  QueryGenerator qgen(schema, 502);
  PointSet all(schema.dims());

  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 250; ++i) {
      const PointRef p = gen.next();
      hilbert.insert(p);
      geometric.insert(p);
      array.insert(p);
      all.push(p);
    }
    std::vector<QueryBox> qs = sliceBoxes(schema, all.at(round * 250));
    for (int i = 0; i < 25; ++i) qs.push_back(qgen.random(all));
    for (const QueryBox& q : qs) {
      const Aggregate want = bruteForce(all, q);
      expectSame(hilbert.query(q), want, "hilbert", q.describe(schema));
      expectSame(geometric.query(q), want, "geometric", q.describe(schema));
      expectSame(array.query(q), want, "array", q.describe(schema));
    }
  }
  hilbert.checkInvariants();
  geometric.checkInvariants();
}

TEST(QueryDiff, AgreementSurvivesShardSplit) {
  const Schema schema = Schema::tpcds();
  ShardTree<MdsKey> tree(schema, ShardKind::kHilbertPdcMds, tinyConfig());
  DataGenerator gen(schema, 503);
  QueryGenerator qgen(schema, 504);
  PointSet all(schema.dims());
  for (int i = 0; i < 1500; ++i) {
    const PointRef p = gen.next();
    tree.insert(p);
    all.push(p);
  }

  auto right = tree.split(tree.splitQuery());
  tree.checkInvariants();
  ASSERT_EQ(tree.size() + right->size(), all.size());

  std::vector<QueryBox> qs = sliceBoxes(schema, all.at(0));
  for (const QueryBox& q : sliceBoxes(schema, all.at(all.size() - 1)))
    qs.push_back(q);
  for (int i = 0; i < 40; ++i) qs.push_back(qgen.random(all));
  for (const QueryBox& q : qs) {
    const Aggregate want = bruteForce(all, q);
    Aggregate got = tree.query(q);
    got.merge(right->query(q));
    expectSame(got, want, "left+right", q.describe(schema));
  }
}

TEST(QueryDiff, QueriesUnderConcurrentInsertsStayBounded) {
  const Schema schema = Schema::tpcds();
  ShardTree<MdsKey> tree(schema, ShardKind::kHilbertPdcMds, tinyConfig());
  DataGenerator gen(schema, 505);
  QueryGenerator qgen(schema, 506);

  PointSet prefix(schema.dims());
  for (int i = 0; i < 600; ++i) {
    const PointRef p = gen.next();
    tree.insert(p);
    prefix.push(p);
  }
  PointSet extra(schema.dims());
  for (int i = 0; i < 1200; ++i) extra.push(gen.next());
  PointSet all(schema.dims());
  for (std::size_t i = 0; i < prefix.size(); ++i) all.push(prefix.at(i));
  for (std::size_t i = 0; i < extra.size(); ++i) all.push(extra.at(i));

  std::vector<QueryBox> qs = sliceBoxes(schema, extra.at(0));
  for (int i = 0; i < 30; ++i) qs.push_back(qgen.random(all));

  std::thread writer([&] {
    for (std::size_t i = 0; i < extra.size(); ++i) tree.insert(extra.at(i));
  });
  // During the race a query sees the prefix plus some subset of the extra
  // inserts: count bounded by [prefix-only, all], min/max within the
  // all-points envelope.
  for (int pass = 0; pass < 4; ++pass) {
    for (const QueryBox& q : qs) {
      const Aggregate lo = bruteForce(prefix, q);
      const Aggregate hi = bruteForce(all, q);
      const Aggregate got = tree.query(q);
      EXPECT_GE(got.count, lo.count) << q.describe(schema);
      EXPECT_LE(got.count, hi.count) << q.describe(schema);
      if (got.count > 0) {
        EXPECT_GE(got.min, hi.min) << q.describe(schema);
        EXPECT_LE(got.max, hi.max) << q.describe(schema);
      }
    }
  }
  writer.join();

  tree.checkInvariants();
  for (const QueryBox& q : qs)
    expectSame(tree.query(q), bruteForce(all, q), "post-join",
               q.describe(schema));
}

}  // namespace
}  // namespace volap
