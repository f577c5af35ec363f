#include "olap/hierarchy.hpp"

#include <cassert>
#include <stdexcept>

namespace volap {

Hierarchy::Hierarchy(std::string name, std::vector<LevelSpec> levels)
    : name_(std::move(name)), levels_(std::move(levels)) {
  if (levels_.empty())
    throw std::invalid_argument("hierarchy needs >=1 level: " + name_);
  bits_.reserve(levels_.size());
  for (const auto& l : levels_) {
    if (l.fanout == 0)
      throw std::invalid_argument("level fanout must be >0: " + l.name);
    bits_.push_back(bitWidthFor(l.fanout));
    leafBits_ += bits_.back();
    leafCount_ *= l.fanout;
  }
  // Leaf ordinals must fit the 32-bit leaf columns of the shard trees
  // (tree/shard_tree.hpp), so a dimension has at most 2^32 leaf slots.
  if (leafBits_ > 32)
    throw std::invalid_argument("hierarchy too wide: " + name_);
  // shift_[l-1] = bits below level l.
  shift_.assign(levels_.size(), 0);
  unsigned below = 0;
  for (int l = static_cast<int>(levels_.size()) - 1; l >= 0; --l) {
    shift_[static_cast<unsigned>(l)] = below;
    below += bits_[static_cast<unsigned>(l)];
  }
}

std::uint64_t Hierarchy::encodePrefix(
    std::span<const std::uint64_t> values) const {
  assert(values.size() <= levels_.size());
  std::uint64_t ordinal = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    assert(values[i] < levels_[i].fanout);
    ordinal |= values[i] << shift_[i];
  }
  return ordinal;
}

HierInterval Hierarchy::pathInterval(
    std::span<const std::uint64_t> values) const {
  const auto level = static_cast<unsigned>(values.size());
  const std::uint64_t lo = encodePrefix(values);
  const std::uint64_t span =
      level == 0 ? extent() : (std::uint64_t{1} << shift_[level - 1]);
  return {lo, lo + span - 1, static_cast<std::uint8_t>(level)};
}

HierInterval Hierarchy::ancestorInterval(std::uint64_t v, unsigned l) const {
  assert(l <= depth());
  if (l == 0) return {0, extent() - 1, 0};
  const unsigned shift = shift_[l - 1];
  const std::uint64_t lo = (v >> shift) << shift;
  return {lo, lo + (std::uint64_t{1} << shift) - 1,
          static_cast<std::uint8_t>(l)};
}

void Hierarchy::decodeLeaf(std::uint64_t ordinal,
                           std::span<std::uint64_t> values) const {
  assert(values.size() == levels_.size());
  for (std::size_t i = 0; i < levels_.size(); ++i)
    values[i] = (ordinal >> shift_[i]) & lowMask(bits_[i]);
}

unsigned Hierarchy::commonLevel(std::uint64_t a, std::uint64_t b) const {
  for (unsigned l = depth(); l >= 1; --l) {
    const unsigned shift = shift_[l - 1];
    if ((a >> shift) == (b >> shift)) return l;
  }
  return 0;
}

}  // namespace volap
