#include "olap/mds.hpp"

#include <algorithm>
#include <cassert>

namespace volap {

namespace {

/// Merge the cheapest adjacent pair of `buf[0..m)` into their common
/// hierarchy ancestor, absorbing anything nested inside it. Entries are
/// sorted and disjoint aligned intervals; the result keeps that invariant.
void generalizeOnce(const Hierarchy& h, HierInterval* buf, unsigned& m) {
  unsigned best = 0;
  std::uint64_t bestCost = ~std::uint64_t{0};
  HierInterval bestIv{};
  for (unsigned i = 0; i + 1 < m; ++i) {
    const unsigned cl = h.commonLevel(buf[i].lo, buf[i + 1].lo);
    const HierInterval anc = h.ancestorInterval(buf[i].lo, cl);
    const std::uint64_t cost =
        anc.length() - buf[i].length() - buf[i + 1].length();
    if (cost < bestCost) {
      bestCost = cost;
      best = i;
      bestIv = anc;
    }
  }
  // Absorb every entry nested in the ancestor (contiguous range since the
  // list is sorted and aligned intervals nest or are disjoint).
  unsigned first = best;
  while (first > 0 && bestIv.contains(buf[first - 1])) --first;
  unsigned last = best;
  while (last < m && bestIv.contains(buf[last])) ++last;
  if (last < best + 2) {
    // Termination guard for hostile data: coordinates outside the
    // hierarchy's domain (e.g. from a corrupted blob) can make the
    // computed ancestor miss its own pair. Force-merge the chosen pair
    // under a covering hull so m strictly decreases.
    last = best + 2;
    first = std::min(first, best);
    bestIv.lo = std::min(bestIv.lo, buf[first].lo);
    bestIv.hi = std::max(bestIv.hi, buf[last - 1].hi);
    bestIv.level = 0;
  }
  buf[first] = bestIv;
  for (unsigned i = last; i < m; ++i) buf[first + 1 + i - last] = buf[i];
  m -= (last - first) - 1;
}

}  // namespace

void MdsKey::allocate(unsigned dims) {
  entries_.resize(static_cast<std::size_t>(dims) * kMaxEntries);
  counts_.assign(dims, 0);
}

MdsKey MdsKey::forPoint(const Schema& schema, PointRef p) {
  MdsKey k;
  k.allocate(schema.dims());
  for (unsigned j = 0; j < schema.dims(); ++j) {
    k.slots(j)[0] = {p.coords[j], p.coords[j],
                     static_cast<std::uint8_t>(schema.dim(j).depth())};
    k.counts_[j] = 1;
  }
  return k;
}

bool MdsKey::addInterval(const Schema& schema, unsigned j, HierInterval iv) {
  HierInterval* s = slots(j);
  const unsigned n = counts_[j];
  // Covered already? (n <= kMaxEntries, linear scan is fastest.)
  for (unsigned i = 0; i < n; ++i) {
    if (s[i].contains(iv)) return false;
    if (s[i].lo > iv.hi) break;
  }
  // Build the merged list in a stack buffer: survivors + iv, sorted.
  HierInterval buf[kMaxEntries + 1];
  unsigned m = 0;
  bool placed = false;
  for (unsigned i = 0; i < n; ++i) {
    if (iv.contains(s[i])) continue;  // absorbed by the new interval
    if (!placed && s[i].lo > iv.lo) {
      buf[m++] = iv;
      placed = true;
    }
    buf[m++] = s[i];
  }
  if (!placed) buf[m++] = iv;
  while (m > kMaxEntries) generalizeOnce(schema.dim(j), buf, m);
  std::copy(buf, buf + m, s);
  counts_[j] = static_cast<std::uint8_t>(m);
  return true;
}

bool MdsKey::expand(const Schema& schema, PointRef p) {
  if (counts_.empty()) {
    *this = forPoint(schema, p);
    return true;
  }
  bool changed = false;
  for (unsigned j = 0; j < dims(); ++j) {
    const std::uint64_t v = p.coords[j];
    const HierInterval* s = slots(j);
    const unsigned n = counts_[j];
    bool covered = false;
    for (unsigned i = 0; i < n; ++i) {
      if (s[i].contains(v)) {
        covered = true;
        break;
      }
      if (s[i].lo > v) break;
    }
    if (covered) continue;
    changed |= addInterval(
        schema, j,
        {v, v, static_cast<std::uint8_t>(schema.dim(j).depth())});
  }
  return changed;
}

bool MdsKey::merge(const Schema& schema, const MdsKey& o) {
  if (counts_.empty()) {
    *this = o;
    return o.valid();
  }
  if (!o.valid()) return false;
  bool changed = false;
  for (unsigned j = 0; j < dims(); ++j) {
    const auto other = o.dim(j);
    for (const auto& iv : other) changed |= addInterval(schema, j, iv);
  }
  return changed;
}

bool MdsKey::contains(PointRef p) const {
  if (counts_.empty()) return false;  // an empty key covers nothing
  for (unsigned j = 0; j < dims(); ++j) {
    const HierInterval* s = slots(j);
    const unsigned n = counts_[j];
    const std::uint64_t v = p.coords[j];
    bool covered = false;
    for (unsigned i = 0; i < n; ++i) {
      if (s[i].contains(v)) {
        covered = true;
        break;
      }
      if (s[i].lo > v) break;
    }
    if (!covered) return false;
  }
  return true;
}

double MdsKey::overlap(const Schema& schema, const MdsKey& o) const {
  if (counts_.empty() || o.counts_.empty()) return 0;
  double v = 1.0;
  for (unsigned j = 0; j < dims(); ++j) {
    // Entries within a key are disjoint, so total pairwise overlap length
    // is the length of the set intersection.
    const auto da = dim(j);
    const auto db = o.dim(j);
    std::uint64_t len = 0;
    std::size_t a = 0, b = 0;
    while (a < da.size() && b < db.size()) {
      len += da[a].asInterval().overlapLength(db[b].asInterval());
      if (da[a].hi < db[b].hi)
        ++a;
      else
        ++b;
    }
    if (len == 0) return 0;
    v *= static_cast<double>(len) /
         static_cast<double>(schema.dim(j).extent());
  }
  return v;
}

double MdsKey::volume(const Schema& schema) const {
  if (counts_.empty()) return 0;
  double v = 1.0;
  for (unsigned j = 0; j < dims(); ++j) {
    std::uint64_t len = 0;
    for (const auto& e : dim(j)) len += e.length();
    v *= static_cast<double>(len) /
         static_cast<double>(schema.dim(j).extent());
  }
  return v;
}

double MdsKey::margin(const Schema& schema) const {
  double m = 0;
  for (unsigned j = 0; j < dims(); ++j) {
    std::uint64_t len = 0;
    for (const auto& e : dim(j)) len += e.length();
    m += static_cast<double>(len) /
         static_cast<double>(schema.dim(j).extent());
  }
  return m;
}

void MdsKey::serialize(ByteWriter& w) const {
  w.varint(dims());
  for (unsigned j = 0; j < dims(); ++j) {
    const auto entries = dim(j);
    w.varint(entries.size());
    for (const auto& e : entries) e.serialize(w);
  }
}

MdsKey MdsKey::deserialize(ByteReader& r) {
  MdsKey k;
  const auto nd = r.varint();
  if (nd == 0) return k;
  k.allocate(static_cast<unsigned>(nd));
  for (unsigned j = 0; j < k.dims(); ++j) {
    const auto ne = r.varint();
    if (ne > kMaxEntries) throw DeserializeError("MDS entry overflow");
    for (std::uint64_t i = 0; i < ne; ++i)
      k.slots(j)[i] = HierInterval::deserialize(r);
    k.counts_[j] = static_cast<std::uint8_t>(ne);
  }
  return k;
}

}  // namespace volap
