// Tests for compact Hilbert indices: bijectivity, contiguity (the defining
// Hilbert property: consecutive indices are unit-distance apart), agreement
// with the classic square curve, and locality statistics that the Hilbert
// PDC tree depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "olap/schema.hpp"
#include "hilbert/biguint.hpp"
#include "hilbert/compact_hilbert.hpp"

namespace volap {
namespace {

std::uint64_t keyToU64(const HilbertKey& k) { return k.word(0); }

// Enumerate every point of a small grid, collect (index -> point).
std::map<std::uint64_t, std::vector<std::uint64_t>> enumerateCurve(
    const CompactHilbertCurve& curve) {
  const auto& widths = curve.widths();
  std::map<std::uint64_t, std::vector<std::uint64_t>> byIndex;
  std::vector<std::uint64_t> point(widths.size(), 0);
  while (true) {
    const HilbertKey h = curve.index(point);
    // Small grids fit in one word.
    EXPECT_EQ(h.bits(64, 64), 0u);
    byIndex[keyToU64(h)] = point;
    // Odometer increment over the mixed-radix grid.
    std::size_t j = 0;
    for (; j < widths.size(); ++j) {
      if (++point[j] < (std::uint64_t{1} << widths[j])) break;
      point[j] = 0;
    }
    if (j == widths.size()) break;
  }
  return byIndex;
}

TEST(BigUInt, ShiftLeftOrBuildsExpectedWords) {
  BigUInt<128> v;
  v.shiftLeftOr(8, 0xab);
  v.shiftLeftOr(8, 0xcd);
  EXPECT_EQ(v.word(0), 0xabcdu);
  v.shiftLeftOr(60, 0x123);
  EXPECT_EQ(v.bits(0, 60), 0x123u);
  EXPECT_EQ(v.bits(60, 16), 0xabcdu);
}

TEST(BigUInt, CrossWordShift) {
  BigUInt<128> v(0xffffffffffffffffull);
  v.shiftLeftOr(4, 0x9);
  EXPECT_EQ(v.word(0), 0xfffffffffffffff9ull);
  EXPECT_EQ(v.word(1), 0xfull);
}

TEST(BigUInt, ComparisonIsLexicographicFromHighWord) {
  BigUInt<128> a(1);
  BigUInt<128> b(1);
  b.shiftLeftOr(64 + 1, 0);  // b = 2^65 > a even though low word is 0
  EXPECT_EQ(b.word(0), 0u);
  EXPECT_EQ(b.word(1), 2u);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, BigUInt<128>(1));
}

TEST(BigUInt, BitsExtractionAcrossWordBoundary) {
  BigUInt<128> v;
  v.setWord(0, 0x8000000000000000ull);
  v.setWord(1, 0x1ull);
  EXPECT_EQ(v.bits(63, 2), 0x3u);
  EXPECT_EQ(v.bits(62, 2), 0x2u);
}

TEST(BigUInt, ToHex) {
  BigUInt<128> v(0x1a2b);
  EXPECT_EQ(v.toHex(), "1a2b");
  EXPECT_EQ(BigUInt<128>{}.toHex(), "0");
}

TEST(CompactHilbert, Square2x2MatchesClassicOrder) {
  CompactHilbertCurve curve({1, 1});
  const auto byIndex = enumerateCurve(curve);
  ASSERT_EQ(byIndex.size(), 4u);
  // The four indices must be 0..3 and trace a connected U.
  for (std::uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(byIndex.count(i));
  for (std::uint64_t i = 0; i + 1 < 4; ++i) {
    const auto& a = byIndex.at(i);
    const auto& b = byIndex.at(i + 1);
    const auto dist = (a[0] > b[0] ? a[0] - b[0] : b[0] - a[0]) +
                      (a[1] > b[1] ? a[1] - b[1] : b[1] - a[1]);
    EXPECT_EQ(dist, 1u) << "indices " << i << " and " << i + 1;
  }
}

struct CurveCase {
  std::vector<unsigned> widths;
};

/// A case's label, e.g. w1_2_3 for widths {1, 2, 3}.
std::string widthsLabel(const CurveCase& c) {
  std::string label = "w";
  for (std::size_t j = 0; j < c.widths.size(); ++j)
    label += (j == 0 ? "" : "_") + std::to_string(c.widths[j]);
  return label;
}

/// gtest prints a parameter in the test listing that ctest records as the
/// test's name; the default printout is the struct's bytes (heap
/// addresses), which would change the name on every build.
void PrintTo(const CurveCase& c, std::ostream* os) { *os << widthsLabel(c); }

class CompactHilbertSweep : public ::testing::TestWithParam<CurveCase> {};
/// The sweep restricted to grids whose sides are all equal.
class EqualSidesSweep : public CompactHilbertSweep {};

/// Name each case by its widths, so a result names its grid rather than
/// its position in the list.
std::string curveCaseName(const ::testing::TestParamInfo<CurveCase>& info) {
  return widthsLabel(info.param);
}

TEST_P(CompactHilbertSweep, BijectiveOntoCompactRange) {
  CompactHilbertCurve curve(GetParam().widths);
  const auto byIndex = enumerateCurve(curve);

  std::uint64_t expected = 1;
  for (unsigned w : curve.widths()) expected <<= w;
  ASSERT_EQ(byIndex.size(), expected) << "index collisions detected";
  EXPECT_EQ(byIndex.rbegin()->first, expected - 1)
      << "indices must be exactly 0..2^M-1";
}

TEST_P(EqualSidesSweep, ContiguousWhenWidthsEqual) {
  // Grid adjacency of consecutive indices is a property of the *full*
  // Hilbert curve; the compact curve inherits it only when all widths match.
  const auto& widths = GetParam().widths;
  ASSERT_EQ(std::adjacent_find(widths.begin(), widths.end(),
                               std::not_equal_to<>()),
            widths.end());
  CompactHilbertCurve curve(widths);
  const auto byIndex = enumerateCurve(curve);
  const std::vector<std::uint64_t>* prev = nullptr;
  for (const auto& [idx, pt] : byIndex) {
    if (prev != nullptr) {
      std::uint64_t dist = 0;
      for (std::size_t j = 0; j < pt.size(); ++j)
        dist += (*prev)[j] > pt[j] ? (*prev)[j] - pt[j] : pt[j] - (*prev)[j];
      EXPECT_EQ(dist, 1u) << "discontinuity at index " << idx;
    }
    prev = &byIndex.at(idx);
  }
}

TEST_P(CompactHilbertSweep, OrderMatchesFullCurveRestriction) {
  // Defining property of the compact index (Hamilton & Rau-Chaplin): it
  // enumerates the subgrid in exactly the order the full (max-width) Hilbert
  // curve visits those cells, using fewer bits.
  const auto& widths = GetParam().widths;
  CompactHilbertCurve compact(widths);
  const unsigned maxW = compact.maxWidth();
  if (maxW == 0) GTEST_SKIP();
  CompactHilbertCurve full(std::vector<unsigned>(widths.size(), maxW));

  const auto byCompact = enumerateCurve(compact);
  std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>> byFull;
  byFull.reserve(byCompact.size());
  for (const auto& [idx, pt] : byCompact)
    byFull.emplace_back(keyToU64(full.index(pt)), pt);
  std::sort(byFull.begin(), byFull.end());

  auto it = byFull.begin();
  for (const auto& [idx, pt] : byCompact) {
    ASSERT_NE(it, byFull.end());
    EXPECT_EQ(it->second, pt)
        << "compact order diverges from full-curve order at index " << idx;
    ++it;
  }
}

TEST_P(CompactHilbertSweep, InverseRoundTrips) {
  CompactHilbertCurve curve(GetParam().widths);
  const auto byIndex = enumerateCurve(curve);
  std::vector<std::uint64_t> decoded(curve.dims());
  for (const auto& [idx, pt] : byIndex) {
    const HilbertKey h = curve.index(pt);
    curve.indexInverse(h, decoded);
    EXPECT_EQ(decoded, pt) << "round-trip failed at index " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallGrids, CompactHilbertSweep,
    ::testing::Values(
        CurveCase{{1}}, CurveCase{{3}}, CurveCase{{1, 1}}, CurveCase{{2, 2}},
        CurveCase{{3, 3}}, CurveCase{{2, 3}}, CurveCase{{3, 1}},
        CurveCase{{1, 3}}, CurveCase{{2, 2, 2}}, CurveCase{{1, 2, 3}},
        CurveCase{{3, 2, 1}}, CurveCase{{2, 0, 2}}, CurveCase{{1, 1, 1, 1}},
        CurveCase{{2, 1, 2, 1}}, CurveCase{{1, 2, 1, 2, 1}}),
    curveCaseName);

INSTANTIATE_TEST_SUITE_P(
    SmallGrids, EqualSidesSweep,
    ::testing::Values(CurveCase{{1}}, CurveCase{{3}}, CurveCase{{1, 1}},
                      CurveCase{{2, 2}}, CurveCase{{3, 3}},
                      CurveCase{{2, 2, 2}}, CurveCase{{1, 1, 1, 1}}),
    curveCaseName);

TEST(CompactHilbert, ManyDimensionsProduceDistinctOrderedKeys) {
  // 64 dimensions x 4 bits = 256-bit indices; verify keys are distinct for
  // distinct points and that the big-integer comparison orders them.
  std::vector<unsigned> widths(64, 4);
  CompactHilbertCurve curve(widths);
  EXPECT_EQ(curve.totalBits(), 256u);

  std::vector<std::uint64_t> a(64, 0), b(64, 0);
  std::vector<HilbertKey> keys;
  for (std::uint64_t v = 0; v < 16; ++v) {
    a[0] = v;
    a[63] = 15 - v;
    keys.push_back(curve.index(a));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "distinct points produced equal compact indices";

  std::vector<std::uint64_t> decoded(64);
  a.assign(64, 0);
  a[0] = 7;
  a[31] = 3;
  a[63] = 12;
  curve.indexInverse(curve.index(a), decoded);
  EXPECT_EQ(decoded, a);
}

TEST(CompactHilbert, ClusteringBeatsRowMajorOrder) {
  // The property the Hilbert PDC tree exploits: a run of consecutive indices
  // (i.e. the contents of one tree node) occupies a compact spatial region.
  // Compare the average bounding-box semi-perimeter of windows of 16
  // consecutive cells under Hilbert vs row-major order.
  CompactHilbertCurve curve({5, 5});
  const unsigned side = 32;
  std::vector<std::vector<std::uint64_t>> byIndex(side * side);
  std::vector<std::uint64_t> pt(2);
  for (unsigned y = 0; y < side; ++y) {
    for (unsigned x = 0; x < side; ++x) {
      pt[0] = x;
      pt[1] = y;
      byIndex[keyToU64(curve.index(pt))] = pt;
    }
  }
  auto windowCost = [&](auto pointAt) {
    double sum = 0;
    unsigned windows = 0;
    for (unsigned start = 0; start + 16 <= side * side; start += 16) {
      std::uint64_t minX = side, maxX = 0, minY = side, maxY = 0;
      for (unsigned k = 0; k < 16; ++k) {
        const auto p = pointAt(start + k);
        minX = std::min(minX, p[0]);
        maxX = std::max(maxX, p[0]);
        minY = std::min(minY, p[1]);
        maxY = std::max(maxY, p[1]);
      }
      sum += static_cast<double>((maxX - minX + 1) + (maxY - minY + 1));
      ++windows;
    }
    return sum / windows;
  };
  const double hilbertCost =
      windowCost([&](unsigned i) { return byIndex[i]; });
  const double rowMajorCost = windowCost([&](unsigned i) {
    return std::vector<std::uint64_t>{i % side, i / side};
  });
  EXPECT_LT(hilbertCost, rowMajorCost);
  EXPECT_LE(hilbertCost, 10.0);  // 16 cells fit in ~4x4 boxes under Hilbert
}

TEST(CompactHilbert, RejectsInvalidSpecs) {
  EXPECT_THROW(CompactHilbertCurve({}), std::invalid_argument);
  EXPECT_THROW(CompactHilbertCurve(std::vector<unsigned>(65, 1)),
               std::invalid_argument);
  EXPECT_THROW(CompactHilbertCurve({64}), std::invalid_argument);
}

TEST(BitsUtil, GrayCodeRoundTripAndAdjacency) {
  for (std::uint64_t i = 0; i < 1024; ++i) {
    EXPECT_EQ(grayCodeInverse(grayCode(i)), i);
    if (i > 0) {
      const auto diff = grayCode(i) ^ grayCode(i - 1);
      EXPECT_EQ(diff & (diff - 1), 0u) << "gray codes differ in >1 bit";
    }
  }
}

TEST(BitsUtil, Rotations) {
  EXPECT_EQ(rotrBits(0b011, 1, 3), 0b101u);
  EXPECT_EQ(rotlBits(0b101, 1, 3), 0b011u);
  EXPECT_EQ(rotrBits(0b1, 5, 1), 0b1u);
  for (unsigned w = 1; w <= 8; ++w) {
    for (std::uint64_t v = 0; v < (1u << w); ++v) {
      for (unsigned r = 0; r <= 2 * w; ++r) {
        EXPECT_EQ(rotlBits(rotrBits(v, r, w), r, w), v);
      }
    }
  }
}

TEST(BitsUtil, WidthAndMask) {
  EXPECT_EQ(bitWidthFor(1), 0u);
  EXPECT_EQ(bitWidthFor(2), 1u);
  EXPECT_EQ(bitWidthFor(3), 2u);
  EXPECT_EQ(bitWidthFor(1ull << 40), 40u);
  EXPECT_EQ(lowMask(0), 0u);
  EXPECT_EQ(lowMask(64), ~std::uint64_t{0});
  EXPECT_EQ(lowMask(7), 0x7fu);
}

}  // namespace
}  // namespace volap

namespace volap {
namespace {

TEST(CompactHilbert, MultiWordKeysRoundTripRandomPoints) {
  // Total precision beyond 64 bits exercises the BigUInt key path end to
  // end: random points must round trip through index()/indexInverse().
  const std::vector<std::vector<unsigned>> specs = {
      std::vector<unsigned>(16, 8),   // 128 bits
      std::vector<unsigned>(40, 7),   // 280 bits
      std::vector<unsigned>(64, 8),   // 512 bits (the key's full width)
      {20, 1, 13, 7, 30, 2, 9, 4},    // wildly unequal
  };
  Rng rng(4242);
  for (const auto& widths : specs) {
    CompactHilbertCurve curve(widths);
    std::vector<std::uint64_t> point(widths.size());
    std::vector<std::uint64_t> decoded(widths.size());
    for (int trial = 0; trial < 200; ++trial) {
      for (std::size_t j = 0; j < widths.size(); ++j)
        point[j] = widths[j] == 0 ? 0 : rng.below(1ull << widths[j]);
      curve.indexInverse(curve.index(point), decoded);
      ASSERT_EQ(decoded, point) << "dims=" << widths.size();
    }
  }
}

TEST(CompactHilbert, IndexOrderIsStableAcrossCalls) {
  const Schema schemaLikeWidths = Schema::tpcds();
  (void)schemaLikeWidths;
  CompactHilbertCurve curve({6, 7, 5, 6, 4, 7});
  Rng rng(99);
  std::vector<std::uint64_t> a(6), b(6);
  for (int trial = 0; trial < 500; ++trial) {
    for (int j = 0; j < 6; ++j) {
      a[j] = rng.below(1ull << curve.widths()[j]);
      b[j] = rng.below(1ull << curve.widths()[j]);
    }
    const auto ia1 = curve.index(a), ia2 = curve.index(a);
    const auto ib = curve.index(b);
    ASSERT_EQ(ia1, ia2);
    if (a == b) ASSERT_EQ(ia1, ib);
  }
}

}  // namespace
}  // namespace volap
