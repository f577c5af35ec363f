// Shard data-structure tests (paper SIII-D/E): every tree variant is
// differentially tested against the array oracle on identical operation
// streams, structural invariants are checked after operation storms, and
// the load-balancing operations (SplitQuery / Split / Serialize /
// Deserialize) are exercised end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "olap/data_gen.hpp"
#include "olap/mbr.hpp"
#include "olap/query_gen.hpp"
#include "tree/array_shard.hpp"
#include "tree/shard.hpp"
#include "tree/shard_tree.hpp"

namespace volap {
namespace {

const std::vector<ShardKind> kAllTreeKinds = {
    ShardKind::kPdcMds,        ShardKind::kPdcMbr,
    ShardKind::kHilbertPdcMds, ShardKind::kHilbertPdcMbr,
    ShardKind::kRTree,         ShardKind::kHilbertRTree,
};

void checkTreeInvariants(Shard& s) {
  switch (s.kind()) {
    case ShardKind::kPdcMds:
    case ShardKind::kHilbertPdcMds:
      static_cast<ShardTree<MdsKey>&>(s).checkInvariants();
      break;
    case ShardKind::kArray:
      break;
    default:
      static_cast<ShardTree<MbrKey>&>(s).checkInvariants();
      break;
  }
}

class ShardKindSweep : public ::testing::TestWithParam<ShardKind> {};

TEST_P(ShardKindSweep, MatchesOracleOnMixedStream) {
  const Schema schema = Schema::tpcds();
  auto shard = makeShard(GetParam(), schema);
  ArrayShard oracle(schema);
  DataGenerator gen(schema, 101);
  QueryGenerator qgen(schema, 102);
  const PointSet anchors = gen.generate(200);

  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 150; ++i) {
      const PointRef p = gen.next();
      shard->insert(p);
      oracle.insert(p);
    }
    for (int i = 0; i < 10; ++i) {
      const QueryBox q = qgen.random(anchors);
      const Aggregate got = shard->query(q);
      const Aggregate want = oracle.query(q);
      ASSERT_EQ(got.count, want.count) << q.describe(schema);
      ASSERT_NEAR(got.sum, want.sum, 1e-6 * (1.0 + std::abs(want.sum)));
      if (want.count > 0) {
        ASSERT_EQ(got.min, want.min);
        ASSERT_EQ(got.max, want.max);
      }
    }
  }
  EXPECT_EQ(shard->size(), oracle.size());
  checkTreeInvariants(*shard);
}

TEST_P(ShardKindSweep, FullCoverageQueryUsesWholeDatabase) {
  const Schema schema = Schema::tpcds();
  auto shard = makeShard(GetParam(), schema);
  DataGenerator gen(schema, 103);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const PointRef p = gen.next();
    sum += p.measure;
    shard->insert(p);
  }
  const Aggregate a = shard->query(QueryBox(schema));
  EXPECT_EQ(a.count, 2000u);
  EXPECT_NEAR(a.sum, sum, 1e-6 * sum);
}

TEST_P(ShardKindSweep, BulkLoadEqualsPointInsert) {
  const Schema schema = Schema::tpcds();
  DataGenerator gen(schema, 104);
  const PointSet items = gen.generate(3000);

  auto bulk = makeShard(GetParam(), schema);
  bulk->bulkLoad(items);
  auto point = makeShard(GetParam(), schema);
  for (std::size_t i = 0; i < items.size(); ++i) point->insert(items.at(i));

  EXPECT_EQ(bulk->size(), items.size());
  checkTreeInvariants(*bulk);

  QueryGenerator qgen(schema, 105);
  for (int i = 0; i < 40; ++i) {
    const QueryBox q = qgen.random(items);
    EXPECT_EQ(bulk->query(q).count, point->query(q).count);
  }
}

TEST_P(ShardKindSweep, BulkLoadThenPointInsertsStayConsistent) {
  const Schema schema = Schema::tpcds();
  DataGenerator gen(schema, 106);
  const PointSet base = gen.generate(1000);
  auto shard = makeShard(GetParam(), schema);
  ArrayShard oracle(schema);
  shard->bulkLoad(base);
  oracle.bulkLoad(base);
  for (int i = 0; i < 500; ++i) {
    const PointRef p = gen.next();
    shard->insert(p);
    oracle.insert(p);
  }
  checkTreeInvariants(*shard);
  QueryGenerator qgen(schema, 107);
  for (int i = 0; i < 30; ++i) {
    const QueryBox q = qgen.random(base);
    EXPECT_EQ(shard->query(q).count, oracle.query(q).count);
  }
}

TEST_P(ShardKindSweep, SplitPartitionsExactlyByHyperplane) {
  const Schema schema = Schema::tpcds();
  DataGenerator gen(schema, 108);
  auto shard = makeShard(GetParam(), schema);
  for (int i = 0; i < 2000; ++i) shard->insert(gen.next());

  const Hyperplane h = shard->splitQuery();
  const std::size_t before = shard->size();
  auto right = shard->split(h);
  EXPECT_EQ(shard->size() + right->size(), before);
  // SplitQuery promises approximately equal halves (paper SIII-E).
  EXPECT_GT(shard->size(), before / 5);
  EXPECT_GT(right->size(), before / 5);

  PointSet leftItems(schema.dims()), rightItems(schema.dims());
  shard->collect(leftItems);
  right->collect(rightItems);
  for (std::size_t i = 0; i < leftItems.size(); ++i)
    EXPECT_LT(leftItems.at(i).coords[h.dim], h.cut);
  for (std::size_t i = 0; i < rightItems.size(); ++i)
    EXPECT_GE(rightItems.at(i).coords[h.dim], h.cut);
  checkTreeInvariants(*shard);
}

TEST_P(ShardKindSweep, SerializeDeserializeRoundTrip) {
  const Schema schema = Schema::tpcds();
  DataGenerator gen(schema, 109);
  auto shard = makeShard(GetParam(), schema);
  for (int i = 0; i < 1500; ++i) shard->insert(gen.next());

  const Blob blob = shard->serializeShard();
  auto back = deserializeShard(schema, blob);
  EXPECT_EQ(back->kind(), shard->kind());
  EXPECT_EQ(back->size(), shard->size());

  QueryGenerator qgen(schema, 110);
  const PointSet anchors = gen.generate(100);
  for (int i = 0; i < 30; ++i) {
    const QueryBox q = qgen.random(anchors);
    const Aggregate a = shard->query(q);
    const Aggregate b = back->query(q);
    EXPECT_EQ(a.count, b.count);
    EXPECT_NEAR(a.sum, b.sum, 1e-6 * (1.0 + std::abs(a.sum)));
  }
}

TEST_P(ShardKindSweep, BoundingMdsCoversAllItems) {
  const Schema schema = Schema::tpcds();
  DataGenerator gen(schema, 111);
  auto shard = makeShard(GetParam(), schema);
  PointSet items = gen.generate(800);
  shard->bulkLoad(items);
  const MdsKey bounds = shard->boundingMds();
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_TRUE(bounds.contains(items.at(i)));
}

TEST_P(ShardKindSweep, ConcurrentInsertsAndQueriesAreSafe) {
  const Schema schema = Schema::tpcds();
  auto shard = makeShard(GetParam(), schema);
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 800;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      DataGenerator gen(schema, 200 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kPerWriter; ++i) shard->insert(gen.next());
    });
  }
  std::atomic<bool> stop{false};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      DataGenerator gen(schema, 300 + static_cast<std::uint64_t>(r));
      QueryGenerator qgen(schema, 400 + static_cast<std::uint64_t>(r));
      const PointSet anchors = gen.generate(50);
      std::uint64_t lastCount = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Aggregate a = shard->query(QueryBox(schema));
        // Full-coverage counts must be monotone under insert-only load.
        EXPECT_GE(a.count, lastCount);
        lastCount = a.count;
        (void)shard->query(qgen.random(anchors));
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(shard->size(),
            static_cast<std::size_t>(kWriters) * kPerWriter);
  EXPECT_EQ(shard->query(QueryBox(schema)).count,
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  checkTreeInvariants(*shard);
}

TEST_P(ShardKindSweep, ManyDimensionsSmoke) {
  const Schema schema = Schema::synthetic(32, 2, 8);
  auto shard = makeShard(GetParam(), schema);
  DataGenerator gen(schema, 500);
  const PointSet anchors = gen.generate(50);
  for (int i = 0; i < 600; ++i) shard->insert(gen.next());
  QueryGenerator qgen(schema, 501);
  ArrayShard oracle(schema);
  PointSet all(schema.dims());
  shard->collect(all);
  oracle.bulkLoad(all);
  for (int i = 0; i < 15; ++i) {
    const QueryBox q = qgen.random(anchors);
    EXPECT_EQ(shard->query(q).count, oracle.query(q).count);
  }
  checkTreeInvariants(*shard);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ShardKindSweep,
                         ::testing::ValuesIn(kAllTreeKinds),
                         [](const auto& info) {
                           std::string n = shardKindName(info.param);
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(ArrayShard, OracleBasics) {
  const Schema schema = Schema::tpcds();
  ArrayShard a(schema);
  DataGenerator gen(schema, 600);
  double sum = 0;
  for (int i = 0; i < 100; ++i) {
    const PointRef p = gen.next();
    sum += p.measure;
    a.insert(p);
  }
  EXPECT_EQ(a.size(), 100u);
  const Aggregate agg = a.query(QueryBox(schema));
  EXPECT_EQ(agg.count, 100u);
  EXPECT_NEAR(agg.sum, sum, 1e-9 * sum);
  EXPECT_EQ(a.kind(), ShardKind::kArray);
}

TEST(ShardTree, EmptyTreeQueriesReturnNothing) {
  const Schema schema = Schema::tpcds();
  for (ShardKind k : kAllTreeKinds) {
    auto shard = makeShard(k, schema);
    EXPECT_EQ(shard->size(), 0u);
    const Aggregate a = shard->query(QueryBox(schema));
    EXPECT_EQ(a.count, 0u);
    EXPECT_TRUE(a.empty());
  }
}

TEST(ShardTree, ThirtyTwoBitHierarchyRoundTrips) {
  // A dimension 32 bits wide (Hierarchy's limit): leaf ordinals up to
  // 2^32 - 1 must fill the 32-bit leaf columns without loss, through
  // point inserts, batch inserts, queries and collect.
  const Schema schema(
      {Hierarchy("Wide", {{"Hi", 1ull << 16}, {"Lo", 1ull << 16}}),
       Hierarchy("Narrow", {{"A", 16}})});
  constexpr std::uint64_t kTop = (1ull << 32) - 1;
  Rng rng(777);
  PointSet items(2);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t picks[] = {0, kTop, kTop - 1, 1ull << 31,
                                   rng.below(kTop + 1),
                                   kTop - rng.below(1 << 16)};
    const std::vector<std::uint64_t> c{picks[rng.below(std::size(picks))],
                                       rng.below(16)};
    items.push({c, static_cast<double>(i % 97)});
  }
  PointSet first(2), rest(2);
  for (std::size_t i = 0; i < items.size(); ++i)
    (i < 1000 ? first : rest).push(items.at(i));

  for (ShardKind k : kAllTreeKinds) {
    auto shard = makeShard(k, schema);
    ArrayShard oracle(schema);
    shard->bulkInsert(first);
    oracle.bulkInsert(first);
    for (std::size_t i = 0; i < rest.size(); ++i) {
      shard->insert(rest.at(i));
      oracle.insert(rest.at(i));
    }
    checkTreeInvariants(*shard);

    PointSet back(2);
    shard->collect(back);
    ASSERT_EQ(back.size(), items.size()) << shardKindName(k);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> want, got;
    for (std::size_t i = 0; i < items.size(); ++i) {
      want.emplace_back(items.at(i).coords[0], items.at(i).coords[1]);
      got.emplace_back(back.at(i).coords[0], back.at(i).coords[1]);
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << shardKindName(k);

    // Boxes at the top of the wide dimension: its last level-1 subtree,
    // the single top value, and the bottom value with a narrow constraint.
    QueryBox top1(schema), topLeaf(schema), bottom(schema);
    top1.constrainAncestor(schema, 0, kTop, 1);
    topLeaf.constrainAncestor(schema, 0, kTop, 2);
    bottom.constrainAncestor(schema, 0, 0, 2);
    bottom.constrainAncestor(schema, 1, 3, 1);
    for (const QueryBox& q : {QueryBox(schema), top1, topLeaf, bottom}) {
      const Aggregate a = shard->query(q), b = oracle.query(q);
      EXPECT_EQ(a.count, b.count) << shardKindName(k) << " "
                                  << q.describe(schema);
      EXPECT_NEAR(a.sum, b.sum, 1e-9 * (1 + std::abs(b.sum)));
    }
    EXPECT_GT(shard->query(topLeaf).count, 0u);
  }
}

// Slices of one dimension at its top level, one box per top-level value.
std::vector<QueryBox> topLevelSlices(const Schema& schema, unsigned j) {
  const Hierarchy& h = schema.dim(j);
  std::vector<QueryBox> out;
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << h.bitsAt(1)); ++v) {
    QueryBox q(schema);
    q.constrainAncestor(schema, j, v << h.bitsBelow(1), 1);
    out.push_back(q);
  }
  return out;
}

/// Queries `q` and checks the answer against the oracle's; returns how
/// many leaves the query scanned and whether the summaries answered it.
std::pair<std::uint64_t, bool> sliceAgrees(const Shard& s,
                                           const Shard& oracle,
                                           const QueryBox& q,
                                           const Schema& schema) {
  const std::uint64_t leaves = s.leavesScanned();
  const std::uint64_t items = s.itemsTested();
  const std::uint64_t answers = s.summaryAnswers();
  const Aggregate got = s.query(q), want = oracle.query(q);
  const std::string where =
      std::string(shardKindName(s.kind())) + " " + q.describe(schema);
  EXPECT_EQ(got.count, want.count) << where;
  EXPECT_NEAR(got.sum, want.sum, 1e-9 * (1 + std::abs(want.sum))) << where;
  if (want.count > 0) {
    EXPECT_EQ(got.min, want.min) << where;
    EXPECT_EQ(got.max, want.max) << where;
  }
  const bool summarized = s.summaryAnswers() != answers;
  if (summarized) {
    EXPECT_EQ(s.itemsTested(), items) << where;
  }
  return {s.leavesScanned() - leaves, summarized};
}

TEST(ShardTree, TopLevelSliceScansNoLeaves) {
  // A box that constrains one dimension to a top-level value is answered
  // from the shard's per-dimension summaries: no leaf scanned, no item
  // tested, and the oracle's answer. The summaries are filled through
  // every upkeep path (bulk load, batch insert, point insert) and rebuilt
  // by a split, after which each half answers for its own items only.
  const Schema schema = Schema::tpcds();
  DataGenerator gen(schema, 2301);
  const PointSet preload = gen.generate(3000);
  const PointSet batch = gen.generate(500);
  const PointSet points = gen.generate(500);
  for (ShardKind k : kAllTreeKinds) {
    auto shard = makeShard(k, schema);
    ArrayShard oracle(schema);
    for (Shard* s : {shard.get(), static_cast<Shard*>(&oracle)}) {
      s->bulkLoad(preload);
      s->bulkInsert(batch);
      for (std::size_t i = 0; i < points.size(); ++i) s->insert(points.at(i));
    }
    checkTreeInvariants(*shard);
    const Hyperplane h = shard->splitQuery();
    for (int phase = 0; phase < 2; ++phase) {
      std::unique_ptr<Shard> right, oracleRight;
      if (phase == 1) {
        right = shard->split(h);
        oracleRight = oracle.split(h);
        checkTreeInvariants(*shard);
        checkTreeInvariants(*right);
        ASSERT_GT(right->size(), 0u);
        ASSERT_EQ(right->size(), oracleRight->size());
      }
      for (unsigned j = 0; j < schema.dims(); ++j) {
        for (const QueryBox& q : topLevelSlices(schema, j)) {
          const auto [leaves, summarized] =
              sliceAgrees(*shard, oracle, q, schema);
          EXPECT_EQ(leaves, 0u) << shardKindName(k) << q.describe(schema);
          EXPECT_TRUE(summarized) << shardKindName(k) << q.describe(schema);
          if (right) {
            EXPECT_EQ(sliceAgrees(*right, *oracleRight, q, schema),
                      std::make_pair(std::uint64_t{0}, true))
                << shardKindName(k) << q.describe(schema);
          }
        }
      }
    }
  }

  // A top level wider than 256 values gets no summary: its slices still
  // answer exactly, through the walk, while the narrow dimension's slices
  // come from its summary.
  const Schema wide({Hierarchy("Wide", {{"Hi", 1ull << 16}, {"Lo", 4}}),
                     Hierarchy("Narrow", {{"A", 16}})});
  Rng rng(2302);
  PointSet items(2);
  for (int i = 0; i < 2000; ++i) {
    const std::vector<std::uint64_t> c{rng.below(64) << 2 | rng.below(4),
                                       rng.below(16)};
    items.push({c, static_cast<double>(i % 89)});
  }
  auto shard = makeShard(ShardKind::kHilbertPdcMds, wide);
  ArrayShard oracle(wide);
  shard->bulkLoad(items);
  oracle.bulkLoad(items);
  std::uint64_t walked = 0;
  for (std::uint64_t v = 0; v < 64; ++v) {
    QueryBox q(wide);
    q.constrainAncestor(wide, 0, v << 2, 1);
    const auto [leaves, summarized] = sliceAgrees(*shard, oracle, q, wide);
    EXPECT_FALSE(summarized) << q.describe(wide);
    walked += leaves;
  }
  EXPECT_GT(walked, 0u);
  for (const QueryBox& q : topLevelSlices(wide, 1))
    EXPECT_EQ(sliceAgrees(*shard, oracle, q, wide),
              std::make_pair(std::uint64_t{0}, true))
        << q.describe(wide);
}

TEST(ShardTree, HeightGrowsLogarithmically) {
  const Schema schema = Schema::tpcds();
  auto shard = makeShard(ShardKind::kHilbertPdcMds, schema);
  auto& tree = static_cast<ShardTree<MdsKey>&>(*shard);
  DataGenerator gen(schema, 700);
  for (int i = 0; i < 5000; ++i) shard->insert(gen.next());
  // fanout 16, leaf 32: 5000 items need height ~3; anything >6 signals a
  // broken split policy.
  EXPECT_LE(tree.height(), 6u);
  EXPECT_GE(tree.height(), 2u);
}

TEST(ShardTree, HilbertLeavesStaySortedAfterSplitStorm) {
  const Schema schema = Schema::synthetic(4, 3, 8);
  auto shard = makeShard(ShardKind::kHilbertPdcMds, schema);
  DataGenerator gen(schema, 701);
  for (int i = 0; i < 4000; ++i) shard->insert(gen.next());
  checkTreeInvariants(*shard);  // asserts sorted hkeys + sorted childMaxH
}

TEST(ShardTree, DeserializeRejectsGarbage) {
  const Schema schema = Schema::tpcds();
  const std::vector<std::uint8_t> garbage = {0x42, 0x00, 0x01};
  EXPECT_THROW(deserializeShard(schema, garbage), DeserializeError);
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(deserializeShard(schema, empty), DeserializeError);
}

TEST(ShardTree, SerializedBlobCarriesVersionedHeader) {
  // The blobs double as durable checkpoints read back long after they were
  // written, so the header must be self-identifying and evolvable.
  const Schema schema = Schema::tpcds();
  DataGenerator gen(schema, 703);
  auto shard = makeShard(ShardKind::kHilbertPdcMds, schema);
  for (int i = 0; i < 100; ++i) shard->insert(gen.next());
  const Blob blob = shard->serializeShard();
  ASSERT_GE(blob.size(), 4u);
  EXPECT_EQ(blob[0], kShardBlobMagic0);
  EXPECT_EQ(blob[1], kShardBlobMagic1);
  EXPECT_EQ(blob[2], kShardBlobVersion);
  EXPECT_NO_THROW(deserializeShard(schema, blob));

  // Corrupt magic: either byte.
  for (const std::size_t at : {std::size_t{0}, std::size_t{1}}) {
    Blob bad = blob;
    bad[at] ^= 0xff;
    EXPECT_THROW(deserializeShard(schema, bad), DeserializeError);
  }
  // Version 0 is never produced; versions newer than this build are from a
  // future writer and must be refused instead of misparsed.
  for (const std::uint8_t v : {std::uint8_t{0},
                               std::uint8_t(kShardBlobVersion + 1)}) {
    Blob bad = blob;
    bad[2] = v;
    EXPECT_THROW(deserializeShard(schema, bad), DeserializeError);
  }
}

TEST(ShardTree, SplitOnDegenerateDataKeepsEverything) {
  // All items identical: SplitQuery cannot separate them; Split must not
  // lose items regardless.
  const Schema schema = Schema::synthetic(2, 1, 4);
  auto shard = makeShard(ShardKind::kHilbertPdcMds, schema);
  const std::vector<std::uint64_t> c{1, 2};
  for (int i = 0; i < 200; ++i) shard->insert(PointRef{c, 1.0});
  const Hyperplane h = shard->splitQuery();
  auto right = shard->split(h);
  EXPECT_EQ(shard->size() + right->size(), 200u);
}

TEST(ShardTree, MemoryUseGrowsWithSize) {
  const Schema schema = Schema::tpcds();
  auto shard = makeShard(ShardKind::kHilbertPdcMds, schema);
  const std::size_t empty = shard->memoryUse();
  DataGenerator gen(schema, 702);
  for (int i = 0; i < 1000; ++i) shard->insert(gen.next());
  EXPECT_GT(shard->memoryUse(), empty + 1000 * schema.dims() * 8);
}

TEST(ShardTree, ConcurrentFirstBatchesIntoEmptyShardAreSafe) {
  // A worker pool can apply the first two batches of a fresh shard at once:
  // both see it empty and race for the packed bulk-load path while a query
  // descends from the root. The loser (and the query) wait on the root's
  // lock, so that node must still be live when the winner releases it.
  const Schema schema = Schema::tpcds();
  DataGenerator gen(schema, 808);
  const PointSet a = gen.generate(8);
  const PointSet b = gen.generate(8);
  const QueryBox all(schema);
  for (int round = 0; round < 3000; ++round) {
    auto shard = makeShard(ShardKind::kHilbertPdcMds, schema);
    std::atomic<int> arrived{0};
    auto barrier = [&] {
      arrived.fetch_add(1, std::memory_order_acq_rel);
      while (arrived.load(std::memory_order_acquire) < 3)
        std::this_thread::yield();
    };
    std::thread t1([&] {
      barrier();
      shard->bulkInsert(a);
    });
    std::thread t2([&] {
      barrier();
      shard->bulkInsert(b);
    });
    barrier();
    const std::uint64_t seen = shard->query(all).count;
    t1.join();
    t2.join();
    ASSERT_LE(seen, 16u);
    ASSERT_EQ(shard->size(), 16u) << "round " << round;
    ASSERT_EQ(shard->query(all).count, 16u) << "round " << round;
    checkTreeInvariants(*shard);
  }
}

}  // namespace
}  // namespace volap
