// Log-bucketed latency histogram (HDR-style) used for throughput/latency
// reporting in the benchmark harness and as input to the PBS freshness
// simulator. Records nanosecond values; buckets have ~4.5% relative width.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace volap {

class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 16;  // per power of two
  static constexpr int kBuckets = 64 * kSubBuckets;

  void record(std::uint64_t nanos) {
    counts_[bucketFor(nanos)]++;
    total_++;
    sum_ += nanos;
    min_ = std::min(min_, nanos);
    max_ = std::max(max_, nanos);
  }

  void merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  std::uint64_t count() const { return total_; }
  std::uint64_t sumNanos() const { return sum_; }
  std::uint64_t minNanos() const { return total_ ? min_ : 0; }
  std::uint64_t maxNanos() const { return max_; }
  double meanNanos() const {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_)
                  : 0.0;
  }

  /// Value at quantile q in [0,1]: the upper bound of the bucket holding
  /// the ceil(q * count)-th sample (<=4.5% error).
  std::uint64_t quantileNanos(double q) const {
    if (total_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= target && counts_[i] > 0) return bucketUpper(i);
    }
    return max_;
  }

  /// Draw a sample from the recorded distribution (used by the PBS simulator
  /// to replay measured latencies). `u` is uniform in [0,1).
  std::uint64_t sampleNanos(double u) const {
    if (total_ == 0) return 0;
    auto target = static_cast<std::uint64_t>(u * static_cast<double>(total_));
    for (int i = 0; i < kBuckets; ++i) {
      if (target < counts_[i]) return (bucketLower(i) + bucketUpper(i)) / 2;
      target -= counts_[i];
    }
    return max_;
  }

  void reset() {
    counts_.fill(0);
    total_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t{0};
    max_ = 0;
  }

  // Bucket geometry, shared with the lock-light AtomicHistogram in
  // metrics.hpp (same indices, so their snapshots merge loss-free).
  static int bucketFor(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<int>(v);
    const int exp = 63 - static_cast<int>(__builtin_clzll(v));
    const int shift = exp - 4;  // log2(kSubBuckets)
    const auto sub = static_cast<int>((v >> shift) & (kSubBuckets - 1));
    const int idx = (exp - 3) * kSubBuckets + sub;
    return std::min(idx, kBuckets - 1);
  }

  static std::uint64_t bucketLower(int idx) {
    if (idx < kSubBuckets) return static_cast<std::uint64_t>(idx);
    const int exp = idx / kSubBuckets + 3;
    const int sub = idx % kSubBuckets;
    return (std::uint64_t{1} << exp) |
           (static_cast<std::uint64_t>(sub) << (exp - 4));
  }

  static std::uint64_t bucketUpper(int idx) {
    if (idx < kSubBuckets) return static_cast<std::uint64_t>(idx);
    const int exp = idx / kSubBuckets + 3;
    return bucketLower(idx) + (std::uint64_t{1} << (exp - 4)) - 1;
  }

 private:
  friend class AtomicHistogram;  // materialize() fills the fields directly

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace volap
