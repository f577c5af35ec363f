// A dimension hierarchy (paper Fig. 1): an ordered list of levels, each with
// a per-parent fanout, e.g. Date = Year(16) -> Month(12) -> Day(31). A full
// path to the deepest level identifies one leaf value; its bit-packed
// encoding is the item's coordinate in that dimension. A partial path (a
// value at some level) covers an aligned interval of leaf ordinals. The
// leaf encoding is at most 32 bits wide (the constructor throws on a wider
// spec), so every coordinate fits a shard tree's 32-bit leaf columns.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "olap/geometry.hpp"

namespace volap {

struct LevelSpec {
  std::string name;
  std::uint64_t fanout = 2;  // children per parent at this level
};

class Hierarchy {
 public:
  Hierarchy(std::string name, std::vector<LevelSpec> levels);

  const std::string& name() const { return name_; }
  unsigned depth() const { return static_cast<unsigned>(levels_.size()); }
  const LevelSpec& level(unsigned l) const { return levels_[l - 1]; }

  /// Bits used to encode a value at level l (1-based).
  unsigned bitsAt(unsigned l) const { return bits_[l - 1]; }
  /// Bits below level l in the packed encoding (shift for level-l prefixes).
  unsigned bitsBelow(unsigned l) const { return shift_[l - 1]; }
  /// Total bits of a leaf ordinal.
  unsigned leafBits() const { return leafBits_; }
  /// Number of representable leaf slots, 2^leafBits (>= real leaf count).
  std::uint64_t extent() const { return std::uint64_t{1} << leafBits_; }
  /// Number of real leaves: product of fanouts.
  std::uint64_t leafCount() const { return leafCount_; }

  /// Pack a (possibly partial) path of level values into the ordinal of the
  /// first leaf under it. values[i] is the value at level i+1.
  std::uint64_t encodePrefix(std::span<const std::uint64_t> values) const;

  /// Aligned interval of leaf ordinals covered by a partial path.
  HierInterval pathInterval(std::span<const std::uint64_t> values) const;

  /// Aligned interval covering the level-l ancestor of leaf ordinal `v`.
  /// Level 0 yields the whole dimension.
  HierInterval ancestorInterval(std::uint64_t v, unsigned l) const;

  /// Unpack a leaf ordinal into per-level values.
  void decodeLeaf(std::uint64_t ordinal,
                  std::span<std::uint64_t> values) const;

  /// Deepest level at which `a` and `b` share an ancestor (0 if only the
  /// root is shared). Drives MDS generalization.
  unsigned commonLevel(std::uint64_t a, std::uint64_t b) const;

 private:
  std::string name_;
  std::vector<LevelSpec> levels_;
  std::vector<unsigned> bits_;   // bits per level
  std::vector<unsigned> shift_;  // bits below each level
  unsigned leafBits_ = 0;
  std::uint64_t leafCount_ = 1;
};

}  // namespace volap
