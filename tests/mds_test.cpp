// Tests for the Minimum Describing Subset key: structural invariants
// (sorted, disjoint, bounded entry count), semantic correctness against a
// brute-force cover, and the generalization rule.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "olap/data_gen.hpp"
#include "olap/flat_query.hpp"
#include "olap/mbr.hpp"
#include "olap/mds.hpp"
#include "olap/query_gen.hpp"

namespace volap {
namespace {

void checkInvariants(const Schema& s, const MdsKey& k) {
  ASSERT_EQ(k.dims(), s.dims());
  for (unsigned j = 0; j < k.dims(); ++j) {
    const auto& entries = k.dim(j);
    ASSERT_FALSE(entries.empty()) << "dimension " << j << " has no cover";
    EXPECT_LE(entries.size(), MdsKey::kMaxEntries);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      // Aligned: lo/hi match an ancestor interval at the stated level.
      const auto anc = s.dim(j).ancestorInterval(entries[i].lo,
                                                 entries[i].level);
      EXPECT_EQ(anc, entries[i]) << "entry not aligned";
      if (i > 0) {
        EXPECT_LT(entries[i - 1].hi, entries[i].lo)
            << "entries must be sorted and disjoint";
      }
    }
  }
}

TEST(Mds, SinglePointKey) {
  const Schema s = Schema::tpcds();
  DataGenerator gen(s, 1);
  const PointRef p = gen.next();
  const MdsKey k = MdsKey::forPoint(s, p);
  checkInvariants(s, k);
  EXPECT_TRUE(k.contains(p));
  for (unsigned j = 0; j < s.dims(); ++j) {
    EXPECT_EQ(k.dim(j).size(), 1u);
    EXPECT_EQ(k.dim(j)[0].length(), 1u);
    EXPECT_EQ(k.dim(j)[0].level, s.dim(j).depth());
  }
}

TEST(Mds, ExpandCoversEveryInsertedPoint) {
  const Schema s = Schema::tpcds();
  DataGenerator gen(s, 2);
  PointSet seen(s.dims());
  MdsKey k = MdsKey::forPoint(s, gen.next());
  for (int i = 0; i < 500; ++i) {
    const PointRef p = gen.next();
    k.expand(s, p);
    seen.push(p);
    checkInvariants(s, k);
  }
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_TRUE(k.contains(seen.at(i))) << "lost cover of item " << i;
}

TEST(Mds, ExpandWithCoveredPointIsNoop) {
  const Schema s = Schema::tpcds();
  DataGenerator gen(s, 3);
  const PointRef p = gen.next();
  MdsKey k = MdsKey::forPoint(s, p);
  EXPECT_FALSE(k.expand(s, p));
}

TEST(Mds, GeneralizationPrefersNearbyValues) {
  // One dimension, Date-like: 16 years x 12 months x 31 days. Insert 4
  // distinct days of the same month and one far-away year: the same-month
  // days should collapse to the month ancestor, not swallow the whole dim.
  const Schema s(std::vector<Hierarchy>{
      Hierarchy("Date", {{"Year", 16}, {"Month", 12}, {"Day", 31}})});
  auto leaf = [&](std::uint64_t y, std::uint64_t m, std::uint64_t d) {
    return s.dim(0).encodePrefix(std::vector<std::uint64_t>{y, m, d});
  };
  std::vector<std::uint64_t> c{leaf(2, 5, 1)};
  MdsKey k = MdsKey::forPoint(s, PointRef{c, 1});
  for (std::uint64_t d : {4ull, 9ull, 20ull}) {
    c[0] = leaf(2, 5, d);
    k.expand(s, PointRef{c, 1});
  }
  c[0] = leaf(9, 0, 0);
  k.expand(s, PointRef{c, 1});
  checkInvariants(s, k);
  // Expect: month block for year2/month5 (level >= 2) + the lone far leaf.
  ASSERT_LE(k.dim(0).size(), MdsKey::kMaxEntries);
  bool hasMonthBlock = false;
  for (const auto& e : k.dim(0)) {
    if (e.level == 2 &&
        e.contains(leaf(2, 5, 0)) && !e.contains(leaf(2, 6, 0)))
      hasMonthBlock = true;
    EXPECT_NE(e.level, 0) << "generalized to whole dimension unnecessarily";
  }
  EXPECT_TRUE(hasMonthBlock);
  // The far item must still be covered.
  c[0] = leaf(9, 0, 0);
  EXPECT_TRUE(k.contains(PointRef{c, 1}));
}

TEST(Mds, MergeCoversBothSides) {
  const Schema s = Schema::tpcds();
  DataGenerator gen(s, 4);
  PointSet pa = gen.generate(100);
  PointSet pb = gen.generate(100);
  MdsKey a = MdsKey::forPoint(s, pa.at(0));
  for (std::size_t i = 1; i < pa.size(); ++i) a.expand(s, pa.at(i));
  MdsKey b = MdsKey::forPoint(s, pb.at(0));
  for (std::size_t i = 1; i < pb.size(); ++i) b.expand(s, pb.at(i));

  MdsKey m = a;
  m.merge(s, b);
  checkInvariants(s, m);
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_TRUE(m.contains(pa.at(i)));
  for (std::size_t i = 0; i < pb.size(); ++i)
    EXPECT_TRUE(m.contains(pb.at(i)));
  EXPECT_FALSE(m.merge(s, a)) << "merging a subset must be a no-op";
}

TEST(Mds, QueryRelationsMatchBruteForce) {
  const Schema s = Schema::synthetic(3, 2, 4);
  Rng rng(99);
  DataGenerator gen(s, 5);
  QueryGenerator qgen(s, 6);
  const PointSet data = gen.generate(200);

  for (int trial = 0; trial < 200; ++trial) {
    // Build a key over a random small subset.
    const std::size_t n = 1 + rng.below(20);
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < n; ++i) idx.push_back(rng.below(data.size()));
    MdsKey k = MdsKey::forPoint(s, data.at(idx[0]));
    for (std::size_t i = 1; i < idx.size(); ++i) k.expand(s, data.at(idx[i]));

    const QueryBox q = qgen.random(data);
    // If the key does not intersect the query, no covered item may match.
    if (!k.intersects(q)) {
      for (auto i : idx) EXPECT_FALSE(q.contains(data.at(i)));
    }
    // If the key is contained in the query, every covered item matches.
    if (k.containedIn(q)) {
      for (auto i : idx) EXPECT_TRUE(q.contains(data.at(i)));
    }
  }
}

TEST(Mds, ConstrainedDimensionTestsMatchWholeBox) {
  // The tree's child tests visit only FlatQuery's constrained dimensions;
  // over random keys and boxes they must agree with the whole-box tests.
  const Schema s = Schema::tpcds();
  Rng rng(123);
  DataGenerator gen(s, 8);
  QueryGenerator qgen(s, 9);
  const PointSet data = gen.generate(500);
  std::vector<QueryBox> boxes{QueryBox(s)};  // constrains no dimension
  for (int i = 0; i < 300; ++i) boxes.push_back(qgen.random(data));
  for (int i = 0; i < 50; ++i) boxes.push_back(qgen.nearMiss(data));
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.below(trial % 3 == 0 ? 200 : 8);
    MdsKey k = MdsKey::forPoint(s, data.at(rng.below(data.size())));
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
  // An empty key covers nothing under either form.
  const MdsKey empty;
  for (const QueryBox& q : {boxes[0], boxes[1]}) {
    const FlatQuery fq(s, q);
    EXPECT_FALSE(empty.intersects(q, fq.dims()));
    EXPECT_EQ(empty.containedIn(q, fq.dims()), empty.containedIn(q));
  }
}

TEST(Mds, OverlapAgainstBruteForce) {
  const Schema s = Schema::synthetic(2, 1, 8);  // 2 dims x 8 leaves
  auto keyOf = [&](std::initializer_list<std::pair<int, int>> pts) {
    MdsKey k;
    for (auto [x, y] : pts) {
      const std::vector<std::uint64_t> c{static_cast<std::uint64_t>(x),
                                         static_cast<std::uint64_t>(y)};
      if (!k.valid())
        k = MdsKey::forPoint(s, PointRef{c, 1});
      else
        k.expand(s, PointRef{c, 1});
    }
    return k;
  };
  const MdsKey a = keyOf({{0, 0}, {1, 1}, {2, 2}});
  const MdsKey b = keyOf({{1, 1}, {2, 2}, {3, 3}});
  // Brute force: count cells covered by both keys.
  std::uint64_t both = 0;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      const std::vector<std::uint64_t> c{static_cast<std::uint64_t>(x),
                                         static_cast<std::uint64_t>(y)};
      const PointRef p{c, 1};
      if (a.contains(p) && b.contains(p)) ++both;
    }
  }
  EXPECT_DOUBLE_EQ(a.overlap(s, b), static_cast<double>(both) / 64.0);
  EXPECT_DOUBLE_EQ(a.overlap(s, b), b.overlap(s, a));
}

TEST(Mds, VolumeIsCoveredFraction) {
  const Schema s = Schema::synthetic(2, 1, 8);
  const std::vector<std::uint64_t> c{3, 4};
  MdsKey k = MdsKey::forPoint(s, PointRef{c, 1});
  EXPECT_DOUBLE_EQ(k.volume(s), 1.0 / 64.0);
  EXPECT_DOUBLE_EQ(k.margin(s), 2.0 / 8.0);
}

TEST(Mds, SerializeRoundTrip) {
  const Schema s = Schema::tpcds();
  DataGenerator gen(s, 7);
  MdsKey k = MdsKey::forPoint(s, gen.next());
  for (int i = 0; i < 100; ++i) k.expand(s, gen.next());
  ByteWriter w;
  k.serialize(w);
  const Blob blob = w.take();
  ByteReader r(blob);
  EXPECT_EQ(MdsKey::deserialize(r), k);
}

TEST(Mds, TighterThanMbrOnSkewedData) {
  // The reason PDC trees beat R-trees (paper Fig. 5): two clusters far
  // apart. The MBR covers the whole span; the MDS covers two small blocks.
  const Schema s(std::vector<Hierarchy>{
      Hierarchy("D", {{"L1", 16}, {"L2", 16}})});
  auto leaf = [&](std::uint64_t a, std::uint64_t b) {
    return s.dim(0).encodePrefix(std::vector<std::uint64_t>{a, b});
  };
  std::vector<std::uint64_t> c{leaf(0, 0)};
  MdsKey mds = MdsKey::forPoint(s, PointRef{c, 1});
  MbrKey mbr = MbrKey::forPoint(s, PointRef{c, 1});
  for (auto [hi, lo] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {0, 5}, {0, 11}, {15, 3}, {15, 9}}) {
    c[0] = leaf(hi, lo);
    mds.expand(s, PointRef{c, 1});
    mbr.expand(s, PointRef{c, 1});
  }
  EXPECT_LT(mds.volume(s), mbr.volume(s) / 4.0);
}

}  // namespace
}  // namespace volap
