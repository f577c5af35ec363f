// Tests for the OLAP domain layer: hierarchies, schemas, the Fig. 3 ID
// expansion, interval algebra, and the MBR key type.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "olap/data_gen.hpp"
#include "olap/flat_query.hpp"
#include "olap/hierarchy.hpp"
#include "olap/mbr.hpp"
#include "olap/query_box.hpp"
#include "olap/query_gen.hpp"
#include "olap/schema.hpp"

namespace volap {
namespace {

Hierarchy dateDim() {
  return Hierarchy("Date",
                   {{"Year", 16}, {"Month", 12}, {"Day", 31}});
}

TEST(Hierarchy, BitLayout) {
  const Hierarchy h = dateDim();
  EXPECT_EQ(h.depth(), 3u);
  EXPECT_EQ(h.bitsAt(1), 4u);   // 16 years
  EXPECT_EQ(h.bitsAt(2), 4u);   // 12 months
  EXPECT_EQ(h.bitsAt(3), 5u);   // 31 days
  EXPECT_EQ(h.leafBits(), 13u);
  EXPECT_EQ(h.bitsBelow(1), 9u);
  EXPECT_EQ(h.bitsBelow(2), 5u);
  EXPECT_EQ(h.bitsBelow(3), 0u);
  EXPECT_EQ(h.leafCount(), 16u * 12 * 31);
  EXPECT_EQ(h.extent(), 1u << 13);
}

TEST(Hierarchy, EncodeDecodeRoundTrip) {
  const Hierarchy h = dateDim();
  const std::vector<std::uint64_t> path{11, 6, 24};
  const std::uint64_t ordinal = h.encodePrefix(path);
  std::vector<std::uint64_t> decoded(3);
  h.decodeLeaf(ordinal, decoded);
  EXPECT_EQ(decoded, path);
}

TEST(Hierarchy, PathIntervalCoversExactlyTheSubtree) {
  const Hierarchy h = dateDim();
  // Year=3, Month=7: covers all days of that month.
  const std::vector<std::uint64_t> prefix{3, 7};
  const HierInterval iv = h.pathInterval(prefix);
  EXPECT_EQ(iv.level, 2);
  EXPECT_EQ(iv.length(), 32u);  // 5 day bits
  // Every full path under the prefix is inside; siblings are outside.
  EXPECT_TRUE(iv.contains(h.encodePrefix(std::vector<std::uint64_t>{3, 7, 0})));
  EXPECT_TRUE(
      iv.contains(h.encodePrefix(std::vector<std::uint64_t>{3, 7, 30})));
  EXPECT_FALSE(
      iv.contains(h.encodePrefix(std::vector<std::uint64_t>{3, 8, 0})));
  EXPECT_FALSE(
      iv.contains(h.encodePrefix(std::vector<std::uint64_t>{4, 7, 0})));
}

TEST(Hierarchy, AncestorIntervalMatchesPathInterval) {
  const Hierarchy h = dateDim();
  const std::vector<std::uint64_t> full{9, 2, 17};
  const std::uint64_t leaf = h.encodePrefix(full);
  for (unsigned l = 0; l <= 3; ++l) {
    const HierInterval anc = h.ancestorInterval(leaf, l);
    EXPECT_TRUE(anc.contains(leaf));
    if (l > 0) {
      const std::vector<std::uint64_t> prefix(full.begin(),
                                              full.begin() + l);
      EXPECT_EQ(anc, h.pathInterval(prefix)) << "level " << l;
    } else {
      EXPECT_EQ(anc.length(), h.extent());
    }
  }
}

TEST(Hierarchy, CommonLevel) {
  const Hierarchy h = dateDim();
  const auto leaf = [&](std::uint64_t y, std::uint64_t m, std::uint64_t d) {
    return h.encodePrefix(std::vector<std::uint64_t>{y, m, d});
  };
  EXPECT_EQ(h.commonLevel(leaf(1, 2, 3), leaf(1, 2, 3)), 3u);
  EXPECT_EQ(h.commonLevel(leaf(1, 2, 3), leaf(1, 2, 4)), 2u);
  EXPECT_EQ(h.commonLevel(leaf(1, 2, 3), leaf(1, 3, 3)), 1u);
  EXPECT_EQ(h.commonLevel(leaf(1, 2, 3), leaf(2, 2, 3)), 0u);
}

TEST(Hierarchy, RejectsInvalidSpecs) {
  EXPECT_THROW(Hierarchy("empty", {}), std::invalid_argument);
  EXPECT_THROW(Hierarchy("zero", {{"L1", 0}}), std::invalid_argument);
  EXPECT_THROW(
      Hierarchy("wide", {{"L1", 1ull << 40}, {"L2", 1ull << 40}}),
      std::invalid_argument);
  // Leaf ordinals must fit the trees' 32-bit leaf columns: 33 bits is one
  // too many, 32 is the widest accepted.
  EXPECT_THROW(Hierarchy("33bit", {{"Hi", 1ull << 16}, {"Lo", 1ull << 17}}),
               std::invalid_argument);
  const Hierarchy widest("32bit", {{"Hi", 1ull << 16}, {"Lo", 1ull << 16}});
  EXPECT_EQ(widest.leafBits(), 32u);
  EXPECT_EQ(widest.extent(), 1ull << 32);
}

TEST(Schema, TpcdsShape) {
  const Schema s = Schema::tpcds();
  EXPECT_EQ(s.dims(), 8u);  // paper: d = 8 hierarchical dimensions
  EXPECT_EQ(s.maxDepth(), 4u);
  // Every dimension's expanded width is the sum of the common level widths
  // over its levels (Fig. 3).
  for (unsigned j = 0; j < s.dims(); ++j) {
    unsigned expect = 0;
    for (unsigned l = 1; l <= s.dim(j).depth(); ++l)
      expect += s.levelWidth(l);
    EXPECT_EQ(s.expandedBits(j), expect);
    EXPECT_GE(s.expandedBits(j), s.dim(j).leafBits());
  }
}

TEST(Schema, LevelWidthIsMaxAcrossDims) {
  const Schema s = Schema::tpcds();
  for (unsigned l = 1; l <= s.maxDepth(); ++l) {
    unsigned maxBits = 0;
    for (const auto& h : s.hierarchies())
      if (l <= h.depth()) maxBits = std::max(maxBits, h.bitsAt(l));
    EXPECT_EQ(s.levelWidth(l), maxBits);
  }
}

TEST(Schema, ExpansionPreservesLevelOrder) {
  // Fig. 3's purpose: after expansion, comparing two expanded coordinates
  // first compares level-1 values, then level-2, etc. Verify that an item
  // with a larger level-1 value expands to a larger coordinate regardless
  // of deeper levels.
  const Schema s = Schema::tpcds();
  const Hierarchy& h = s.dim(3);  // Date
  std::vector<std::uint64_t> a(s.dims(), 0), b(s.dims(), 0);
  a[3] = h.encodePrefix(std::vector<std::uint64_t>{2, 11, 30});
  b[3] = h.encodePrefix(std::vector<std::uint64_t>{3, 0, 0});
  std::vector<std::uint64_t> ea(s.dims()), eb(s.dims());
  s.expandPoint(a, ea);
  s.expandPoint(b, eb);
  EXPECT_LT(ea[3], eb[3]);
}

TEST(Schema, ExpandedValuesFitDeclaredWidths) {
  const Schema s = Schema::tpcds();
  DataGenerator gen(s, 42);
  std::vector<std::uint64_t> expanded(s.dims());
  for (int i = 0; i < 1000; ++i) {
    const PointRef p = gen.next();
    s.expandPoint(p.coords, expanded);
    for (unsigned j = 0; j < s.dims(); ++j)
      EXPECT_LT(expanded[j], std::uint64_t{1} << s.expandedBits(j));
  }
}

TEST(Schema, HilbertKeysDistinguishDistinctItems) {
  const Schema s = Schema::synthetic(4, 2, 4);
  std::vector<std::uint64_t> a(4, 0), b(4, 0);
  b[2] = 5;
  EXPECT_NE(s.hilbertKey(a), s.hilbertKey(b));
  EXPECT_EQ(s.hilbertKey(a), s.hilbertKey(a));
}

TEST(Interval, Algebra) {
  const Interval a{10, 20};
  const Interval b{15, 30};
  const Interval c{25, 40};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_EQ(a.overlapLength(b), 6u);
  EXPECT_EQ(a.overlapLength(c), 0u);
  EXPECT_EQ(a.hull(c), (Interval{10, 40}));
  EXPECT_EQ(a.enlargement(b), 10u);
  EXPECT_TRUE((Interval{0, 100}).contains(a));
  EXPECT_FALSE(a.contains(b));
}

TEST(QueryBox, UnconstrainedCoversEverything) {
  const Schema s = Schema::tpcds();
  QueryBox q(s);
  DataGenerator gen(s, 7);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.contains(gen.next()));
  EXPECT_DOUBLE_EQ(q.domainFraction(s), 1.0);
  EXPECT_EQ(q.describe(s), "ALL");
}

TEST(QueryBox, ConstraintFiltersByAncestor) {
  const Schema s = Schema::tpcds();
  DataGenerator gen(s, 11);
  const Point anchor = [&] {
    const PointRef p = gen.next();
    return Point{{p.coords.begin(), p.coords.end()}, p.measure};
  }();
  QueryBox q(s);
  q.constrainAncestor(s, 3, anchor.coords[3], 1);  // same Date year
  EXPECT_TRUE(q.contains(anchor.ref()));
  // An item whose Date year differs must be excluded.
  Point other = anchor;
  const Hierarchy& date = s.dim(3);
  std::vector<std::uint64_t> path(date.depth());
  date.decodeLeaf(other.coords[3], path);
  path[0] = (path[0] + 1) % date.level(1).fanout;
  other.coords[3] = date.encodePrefix(path);
  EXPECT_FALSE(q.contains(other.ref()));
}

TEST(QueryBox, SerializeRoundTrip) {
  const Schema s = Schema::tpcds();
  QueryBox q(s);
  q.constrainAncestor(s, 0, 1234, 2);
  q.constrainAncestor(s, 7, 99, 1);
  ByteWriter w;
  q.serialize(w);
  const Blob blob = w.take();
  ByteReader r(blob);
  EXPECT_EQ(QueryBox::deserialize(r), q);
}

TEST(Mbr, ExpandAndContain) {
  const Schema s = Schema::synthetic(3, 2, 4);
  DataGenerator gen(s, 3);
  const PointRef p0 = gen.next();
  MbrKey k = MbrKey::forPoint(s, p0);
  EXPECT_TRUE(k.contains(p0));
  EXPECT_DOUBLE_EQ(k.volume(s),
                   1.0 / static_cast<double>(s.dim(0).extent()) /
                       static_cast<double>(s.dim(1).extent()) /
                       static_cast<double>(s.dim(2).extent()));
  for (int i = 0; i < 50; ++i) {
    const PointRef p = gen.next();
    k.expand(s, p);
    EXPECT_TRUE(k.contains(p));
  }
  EXPECT_FALSE(k.expand(s, p0)) << "expanding with covered point must be a no-op";
}

TEST(Mbr, MergeAndOverlap) {
  const Schema s = Schema::synthetic(2, 1, 16);
  auto keyFor = [&](std::uint64_t x, std::uint64_t y) {
    const std::vector<std::uint64_t> c{x, y};
    return MbrKey::forPoint(s, PointRef{c, 1.0});
  };
  MbrKey a = keyFor(0, 0);
  const std::vector<std::uint64_t> c1{7, 7};
  a.expand(s, PointRef{c1, 1.0});
  MbrKey b = keyFor(4, 4);
  const std::vector<std::uint64_t> c2{15, 15};
  b.expand(s, PointRef{c2, 1.0});
  // a = [0,7]^2, b = [4,15]^2; overlap = [4,7]^2 = 16 cells of 256.
  EXPECT_DOUBLE_EQ(a.overlap(s, b), 16.0 / 256.0);
  MbrKey m = a;
  EXPECT_TRUE(m.merge(s, b));
  EXPECT_DOUBLE_EQ(m.volume(s), 1.0);
  EXPECT_FALSE(m.merge(s, a));
}

TEST(Mbr, QueryRelations) {
  const Schema s = Schema::synthetic(2, 2, 4);  // 4 bits/dim
  const std::vector<std::uint64_t> lo{2, 2}, hi{5, 5};
  MbrKey k = MbrKey::forPoint(s, PointRef{lo, 1.0});
  k.expand(s, PointRef{hi, 1.0});

  QueryBox all(s);
  EXPECT_TRUE(k.intersects(all));
  EXPECT_TRUE(k.containedIn(all));

  QueryBox sub(s);
  sub.constrainAncestor(s, 0, 0, 1);  // dim0 subtree [0,3]
  EXPECT_TRUE(k.intersects(sub));
  EXPECT_FALSE(k.containedIn(sub));

  QueryBox off(s);
  off.constrainAncestor(s, 0, 12, 1);  // dim0 subtree [12,15]
  EXPECT_FALSE(k.intersects(off));
}

TEST(Mbr, ConstrainedDimensionTestsMatchWholeBox) {
  // The tree's child tests visit only FlatQuery's constrained dimensions;
  // over random keys and boxes they must agree with the whole-box tests.
  const Schema s = Schema::tpcds();
  Rng rng(321);
  DataGenerator gen(s, 10);
  QueryGenerator qgen(s, 11);
  const PointSet data = gen.generate(500);
  std::vector<QueryBox> boxes{QueryBox(s)};  // constrains no dimension
  for (int i = 0; i < 300; ++i) boxes.push_back(qgen.random(data));
  for (int i = 0; i < 50; ++i) boxes.push_back(qgen.nearMiss(data));
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.below(trial % 3 == 0 ? 200 : 8);
    MbrKey k = MbrKey::forPoint(s, data.at(rng.below(data.size())));
    for (std::size_t i = 1; i < n; ++i)
      k.expand(s, data.at(rng.below(data.size())));
    for (int b = 0; b < 20; ++b) {
      const QueryBox& q = boxes[rng.below(boxes.size())];
      const FlatQuery fq(s, q);
      EXPECT_EQ(k.intersects(q, fq.dims()), k.intersects(q))
          << q.describe(s);
      EXPECT_EQ(k.containedIn(q, fq.dims()), k.containedIn(q))
          << q.describe(s);
    }
  }
  const MbrKey empty;
  const FlatQuery all(s, boxes[0]);
  EXPECT_FALSE(empty.intersects(boxes[0], all.dims()));
  EXPECT_EQ(empty.containedIn(boxes[0], all.dims()),
            empty.containedIn(boxes[0]));
}

TEST(Mbr, SerializeRoundTrip) {
  const Schema s = Schema::tpcds();
  DataGenerator gen(s, 13);
  MbrKey k = MbrKey::forPoint(s, gen.next());
  for (int i = 0; i < 20; ++i) k.expand(s, gen.next());
  ByteWriter w;
  k.serialize(w);
  const Blob blob = w.take();
  ByteReader r(blob);
  EXPECT_EQ(MbrKey::deserialize(r), k);
}

TEST(DataGen, SkewProducesRepeatedHeavyHitters) {
  const Schema s = Schema::tpcds();
  DataGenerator skewed(s, 5, {.zipfSkew = 1.1});
  DataGenerator flat(s, 5, {.zipfSkew = 0.0, .uniform = true});
  auto distinctLevel1 = [&](DataGenerator& g) {
    std::vector<bool> seen(s.dim(0).level(1).fanout, false);
    unsigned distinct = 0;
    for (int i = 0; i < 64; ++i) {
      const PointRef p = g.next();
      const auto v = p.coords[0] >> s.dim(0).bitsBelow(1);
      if (!seen[v]) {
        seen[v] = true;
        ++distinct;
      }
    }
    return distinct;
  };
  EXPECT_LE(distinctLevel1(skewed), distinctLevel1(flat));
}

TEST(DataGen, MeasuresPositive) {
  const Schema s = Schema::tpcds();
  DataGenerator gen(s, 17);
  for (int i = 0; i < 200; ++i) EXPECT_GT(gen.next().measure, 0.0);
}

TEST(PointSet, SerializeRoundTrip) {
  const Schema s = Schema::tpcds();
  DataGenerator gen(s, 19);
  PointSet ps = gen.generate(64);
  ByteWriter w;
  ps.serialize(w);
  const Blob blob = w.take();
  ByteReader r(blob);
  const PointSet back = PointSet::deserialize(r);
  ASSERT_EQ(back.size(), ps.size());
  ASSERT_EQ(back.dims(), ps.dims());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const auto a = ps.at(i), b = back.at(i);
    EXPECT_EQ(std::vector(a.coords.begin(), a.coords.end()),
              std::vector(b.coords.begin(), b.coords.end()));
    EXPECT_EQ(a.measure, b.measure);
  }
}

}  // namespace
}  // namespace volap

namespace volap {
namespace {

TEST(DataGen, ClusteredDataSharesPrefixes) {
  // In cluster mode, most items share upper-hierarchy prefixes with one of
  // the centers across *all* dimensions simultaneously (correlated values)
  // - the property that keeps MDS keys tight (Fig. 5 workload).
  const Schema s = Schema::synthetic(8, 2, 8);
  DataGenOptions opts;
  opts.clusters = 4;
  opts.clusterSpread = 0.0;  // never escape: pure mixture
  DataGenerator gen(s, 77, opts);
  // Collect distinct level-1 prefix tuples; with 4 clusters and no escape
  // there can be at most 4.
  std::set<std::vector<std::uint64_t>> tuples;
  for (int i = 0; i < 500; ++i) {
    const PointRef p = gen.next();
    std::vector<std::uint64_t> prefix(s.dims());
    for (unsigned j = 0; j < s.dims(); ++j)
      prefix[j] = p.coords[j] >> s.dim(j).bitsBelow(1);
    tuples.insert(prefix);
  }
  EXPECT_LE(tuples.size(), 4u);
  EXPECT_GE(tuples.size(), 2u) << "degenerate: all centers identical";

  // Independent sampling produces far more distinct tuples.
  DataGenerator indep(s, 77);
  std::set<std::vector<std::uint64_t>> indepTuples;
  for (int i = 0; i < 500; ++i) {
    const PointRef p = indep.next();
    std::vector<std::uint64_t> prefix(s.dims());
    for (unsigned j = 0; j < s.dims(); ++j)
      prefix[j] = p.coords[j] >> s.dim(j).bitsBelow(1);
    indepTuples.insert(prefix);
  }
  EXPECT_GT(indepTuples.size(), 10 * tuples.size());
}

TEST(DataGen, ClusterSpreadEscapesSometimes) {
  const Schema s = Schema::synthetic(4, 2, 8);
  DataGenOptions opts;
  opts.clusters = 1;
  opts.clusterSpread = 0.5;
  DataGenerator gen(s, 78, opts);
  std::set<std::uint64_t> level1;
  for (int i = 0; i < 400; ++i)
    level1.insert(gen.next().coords[0] >> s.dim(0).bitsBelow(1));
  EXPECT_GT(level1.size(), 1u) << "spread must allow out-of-cluster values";
}

}  // namespace
}  // namespace volap
