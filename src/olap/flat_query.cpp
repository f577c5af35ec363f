// Leaf-scan kernels over bit-packed selection vectors (see flat_query.hpp).
//
// A column pass turns 64 interval tests over a 32-bit column into one
// selection word. On hosts with AVX-512 the test runs 16 lanes at a time
// (`vpcmpud` on c - lo against width yields the 16 bits directly), and the
// aggregate runs masked 8-lane add/min/max over the selected measures;
// elsewhere a shift-or loop builds the same word and a word walk
// aggregates. Each path is chosen once per process from the CPU's feature
// bits, and the build flags stay at the x86-64 baseline: only the AVX-512
// functions are compiled for that target.
#include "olap/flat_query.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VOLAP_X86 1
#endif

namespace volap {

namespace {

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void selectAll(std::uint64_t* sel, std::size_t n) {
  const std::size_t words = selectionWords(n);
  std::fill_n(sel, words, kAllOnes);
  if (const std::size_t tail = n % 64; tail != 0)
    sel[words - 1] = (std::uint64_t{1} << tail) - 1;
}

namespace detail {

bool haveAvx512() {
#ifdef VOLAP_X86
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return have;
#else
  return false;
#endif
}

bool selectIntervalScalar(const std::uint32_t* col, std::size_t n,
                          std::uint32_t lo, std::uint32_t width,
                          std::uint64_t* sel) {
  std::uint64_t alive = 0;
  for (std::size_t w = 0, words = selectionWords(n); w < words; ++w) {
    if (sel[w] == 0) continue;
    const std::uint32_t* c = col + w * 64;
    const std::size_t len = std::min<std::size_t>(64, n - w * 64);
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < len; ++i)
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint32_t>(c[i] - lo) <= width)
              << i;
    sel[w] &= bits;
    alive |= sel[w];
  }
  return alive != 0;
}

Aggregate selectedAggregateScalar(const double* measures,
                                  const std::uint64_t* sel, std::size_t n) {
  // Independent accumulators let the dense path overlap its FP latency.
  constexpr unsigned kAcc = 4;
  double sum[kAcc] = {0, 0, 0, 0};
  double mn[kAcc] = {kInf, kInf, kInf, kInf};
  double mx[kAcc] = {-kInf, -kInf, -kInf, -kInf};
  std::uint64_t count = 0;
  for (std::size_t w = 0, words = selectionWords(n); w < words; ++w) {
    std::uint64_t s = sel[w];
    if (s == 0) continue;
    const double* m = measures + w * 64;
    if (s == kAllOnes) {  // only a full 64-item word can be all-ones
      count += 64;
      for (unsigned i = 0; i < 64; i += kAcc)
        for (unsigned a = 0; a < kAcc; ++a) {
          sum[a] += m[i + a];
          mn[a] = std::min(mn[a], m[i + a]);
          mx[a] = std::max(mx[a], m[i + a]);
        }
      continue;
    }
    for (; s != 0; s &= s - 1) {
      const double v = m[std::countr_zero(s)];
      ++count;
      sum[0] += v;
      mn[0] = std::min(mn[0], v);
      mx[0] = std::max(mx[0], v);
    }
  }
  Aggregate a;
  if (count != 0) {
    a.count = count;
    a.sum = (sum[0] + sum[1]) + (sum[2] + sum[3]);
    a.min = std::min(std::min(mn[0], mn[1]), std::min(mn[2], mn[3]));
    a.max = std::max(std::max(mx[0], mx[1]), std::max(mx[2], mx[3]));
  }
  return a;
}

#ifdef VOLAP_X86
__attribute__((target("avx512f"))) bool selectIntervalAvx512(
    const std::uint32_t* col, std::size_t n, std::uint32_t lo,
    std::uint32_t width, std::uint64_t* sel) {
  const __m512i vlo = _mm512_set1_epi32(static_cast<int>(lo));
  const __m512i vwidth = _mm512_set1_epi32(static_cast<int>(width));
  std::uint64_t alive = 0;
  for (std::size_t w = 0, words = selectionWords(n); w < words; ++w) {
    const std::uint64_t s = sel[w];
    if (s == 0) continue;
    const std::uint32_t* c = col + w * 64;
    std::uint64_t bits = 0;
    for (unsigned k = 0; k < 4; ++k) {
      // Only lanes still selected are loaded and compared. The selection's
      // tail bits are clear, so lanes past n are never read.
      const auto live = static_cast<__mmask16>(s >> (16 * k));
      if (live == 0) continue;
      const __m512i v = _mm512_maskz_loadu_epi32(live, c + 16 * k);
      const __mmask16 hit = _mm512_mask_cmple_epu32_mask(
          live, _mm512_sub_epi32(v, vlo), vwidth);
      bits |= static_cast<std::uint64_t>(hit) << (16 * k);
    }
    sel[w] = bits;  // hit lanes are a subset of the live ones
    alive |= bits;
  }
  return alive != 0;
}

__attribute__((target("avx512f"))) Aggregate selectedAggregateAvx512(
    const double* measures, const std::uint64_t* sel, std::size_t n) {
  // Two accumulator sets, alternating by 8-lane group, halve the
  // dependent add/min/max chain of a dense word.
  __m512d sum[2] = {_mm512_setzero_pd(), _mm512_setzero_pd()};
  __m512d mn[2] = {_mm512_set1_pd(kInf), _mm512_set1_pd(kInf)};
  __m512d mx[2] = {_mm512_set1_pd(-kInf), _mm512_set1_pd(-kInf)};
  std::uint64_t count = 0;
  for (std::size_t w = 0, words = selectionWords(n); w < words; ++w) {
    const std::uint64_t s = sel[w];
    if (s == 0) continue;
    count += static_cast<std::uint64_t>(std::popcount(s));
    const double* m = measures + w * 64;
    for (unsigned k = 0; k < 8; ++k) {
      // Masked lanes are neither loaded nor accumulated; tail bits are
      // clear, so measures past n are never read.
      const auto live = static_cast<__mmask8>(s >> (8 * k));
      if (live == 0) continue;
      const __m512d v = _mm512_maskz_loadu_pd(live, m + 8 * k);
      const unsigned a = k & 1;
      sum[a] = _mm512_mask_add_pd(sum[a], live, sum[a], v);
      mn[a] = _mm512_mask_min_pd(mn[a], live, mn[a], v);
      mx[a] = _mm512_mask_max_pd(mx[a], live, mx[a], v);
    }
  }
  Aggregate a;
  if (count != 0) {
    // Lane-wise fold through memory (GCC 12's _mm512_reduce_* intrinsics
    // trip -Wmaybe-uninitialized).
    alignas(64) double vs[8], vmn[16], vmx[16];
    _mm512_store_pd(vs, _mm512_add_pd(sum[0], sum[1]));
    _mm512_store_pd(vmn, mn[0]);
    _mm512_store_pd(vmn + 8, mn[1]);
    _mm512_store_pd(vmx, mx[0]);
    _mm512_store_pd(vmx + 8, mx[1]);
    a.count = count;
    a.sum = ((vs[0] + vs[1]) + (vs[2] + vs[3])) +
            ((vs[4] + vs[5]) + (vs[6] + vs[7]));
    a.min = *std::min_element(vmn, vmn + 16);
    a.max = *std::max_element(vmx, vmx + 16);
  }
  return a;
}
#else
// Never selected: haveAvx512() is false off x86. Defined so callers that
// test both paths still link.
bool selectIntervalAvx512(const std::uint32_t* col, std::size_t n,
                          std::uint32_t lo, std::uint32_t width,
                          std::uint64_t* sel) {
  return selectIntervalScalar(col, n, lo, width, sel);
}

Aggregate selectedAggregateAvx512(const double* measures,
                                  const std::uint64_t* sel, std::size_t n) {
  return selectedAggregateScalar(measures, sel, n);
}
#endif

}  // namespace detail

bool selectInterval(const std::uint32_t* col, std::size_t n, std::uint32_t lo,
                    std::uint32_t width, std::uint64_t* sel) {
  static const detail::ColumnPass pass = detail::haveAvx512()
                                             ? detail::selectIntervalAvx512
                                             : detail::selectIntervalScalar;
  return pass(col, n, lo, width, sel);
}

Aggregate selectedAggregate(const double* measures, const std::uint64_t* sel,
                            std::size_t n) {
  static const detail::AggregatePass pass =
      detail::haveAvx512() ? detail::selectedAggregateAvx512
                           : detail::selectedAggregateScalar;
  return pass(measures, sel, n);
}

}  // namespace volap
