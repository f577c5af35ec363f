// Lock-light metrics registry: named counters, gauges, and fixed-bucket
// latency histograms with percentile extraction. One registry per node
// (server, worker, manager, fabric); the kStats RPC serializes a
// MetricsSnapshot of it so a scraper can pull every node's view of the
// cluster.
//
// Hot-path cost model:
//   Counter::inc    — one relaxed fetch_add on a per-thread-striped,
//                     cache-line-padded cell (no shared line ping-pong on
//                     the ingest path).
//   Histogram::record — a handful of relaxed atomics (bucket + count + sum,
//                     CAS only when min/max actually move). Meant for
//                     batch-level and sampled-trace events, not per-item.
//   Gauge           — either a plain atomic level or a pull callback
//                     evaluated only at snapshot time (for "size of this
//                     locked map" style gauges).
// Handles are created once (registration takes the registry mutex) and then
// used lock-free; snapshot() never blocks writers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.hpp"
#include "common/serialize.hpp"

namespace volap {

/// Monotone event counter, striped across cache-line-padded cells so many
/// threads incrementing the same name never contend on one line.
class Counter {
 public:
  static constexpr unsigned kStripes = 8;

  void inc(std::uint64_t n = 1) {
    cells_[stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  static unsigned stripe() {
    // A thread keeps its stripe for life; allocation is round-robin so up
    // to kStripes writers land on distinct lines.
    static std::atomic<unsigned> next{0};
    static thread_local unsigned mine =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return mine;
  }

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kStripes];
};

/// Instantaneous level. Push style (set/add) or, when registered with a
/// callback, pulled at snapshot time.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Percentile summary of one histogram, as shipped in a snapshot. All
/// values are nanoseconds (recorded unit); quantiles carry the underlying
/// log-bucket error (<=4.5%).
struct HistogramStats {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;

  double meanNanos() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  void serialize(ByteWriter& w) const {
    w.varint(count);
    w.varint(sum);
    w.varint(min);
    w.varint(max);
    w.varint(p50);
    w.varint(p95);
    w.varint(p99);
  }
  static HistogramStats deserialize(ByteReader& r) {
    HistogramStats s;
    s.count = r.varint();
    s.sum = r.varint();
    s.min = r.varint();
    s.max = r.varint();
    s.p50 = r.varint();
    s.p95 = r.varint();
    s.p99 = r.varint();
    return s;
  }
};

/// Concurrent latency histogram sharing LatencyHistogram's log-bucket
/// geometry, recordable from any thread with relaxed atomics.
class AtomicHistogram {
 public:
  void record(std::uint64_t nanos) {
    counts_[LatencyHistogram::bucketFor(nanos)].fetch_add(
        1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(nanos, std::memory_order_relaxed);
    relaxedMin(min_, nanos);
    relaxedMax(max_, nanos);
  }

  std::uint64_t count() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Copy into a plain LatencyHistogram (non-destructive) for quantile /
  /// merge machinery shared with the bench harness: bucket counts, sum,
  /// min and max, in O(buckets). The count is the buckets' total; a racing
  /// record() may straddle its bucket and the sum, which only perturbs the
  /// numbers by one sample.
  LatencyHistogram materialize() const {
    LatencyHistogram h;
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
      h.counts_[i] = counts_[i].load(std::memory_order_relaxed);
      h.total_ += h.counts_[i];
    }
    h.sum_ = sum_.load(std::memory_order_relaxed);
    h.min_ = min_.load(std::memory_order_relaxed);
    h.max_ = max_.load(std::memory_order_relaxed);
    return h;
  }

  /// Summary with LatencyHistogram's quantile rule, so it agrees with
  /// materialize().quantileNanos().
  HistogramStats stats() const {
    const LatencyHistogram h = materialize();
    HistogramStats s;
    s.count = h.count();
    s.sum = h.sumNanos();
    s.min = h.minNanos();
    s.max = h.maxNanos();
    s.p50 = h.quantileNanos(0.50);
    s.p95 = h.quantileNanos(0.95);
    s.p99 = h.quantileNanos(0.99);
    return s;
  }

 private:
  static void relaxedMin(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void relaxedMax(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> counts_[LatencyHistogram::kBuckets] = {};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Point-in-time copy of a whole registry: the kStats wire format and the
/// scraper's working representation.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;

  const std::uint64_t* findCounter(const std::string& name) const {
    for (const auto& [n, v] : counters)
      if (n == name) return &v;
    return nullptr;
  }
  const std::int64_t* findGauge(const std::string& name) const {
    for (const auto& [n, v] : gauges)
      if (n == name) return &v;
    return nullptr;
  }
  const HistogramStats* findHistogram(const std::string& name) const {
    for (const auto& [n, v] : histograms)
      if (n == name) return &v;
    return nullptr;
  }

  void serialize(ByteWriter& w) const {
    w.varint(counters.size());
    for (const auto& [n, v] : counters) {
      w.str(n);
      w.varint(v);
    }
    w.varint(gauges.size());
    for (const auto& [n, v] : gauges) {
      w.str(n);
      w.varint(static_cast<std::uint64_t>(v));
    }
    w.varint(histograms.size());
    for (const auto& [n, h] : histograms) {
      w.str(n);
      h.serialize(w);
    }
  }
  static MetricsSnapshot deserialize(ByteReader& r) {
    MetricsSnapshot s;
    const auto nc = r.varint();
    s.counters.reserve(nc);
    for (std::uint64_t i = 0; i < nc; ++i) {
      std::string name = r.str();
      s.counters.emplace_back(std::move(name), r.varint());
    }
    const auto ng = r.varint();
    s.gauges.reserve(ng);
    for (std::uint64_t i = 0; i < ng; ++i) {
      std::string name = r.str();
      s.gauges.emplace_back(std::move(name),
                            static_cast<std::int64_t>(r.varint()));
    }
    const auto nh = r.varint();
    s.histograms.reserve(nh);
    for (std::uint64_t i = 0; i < nh; ++i) {
      std::string name = r.str();
      s.histograms.emplace_back(std::move(name),
                                HistogramStats::deserialize(r));
    }
    return s;
  }

  /// Stable plain-text rendering (one `name value` per line; histograms as
  /// `name{count,p50,p95,p99,max}` in nanoseconds).
  std::string toText() const {
    std::string out;
    for (const auto& [n, v] : counters)
      out += n + " " + std::to_string(v) + "\n";
    for (const auto& [n, v] : gauges)
      out += n + " " + std::to_string(v) + "\n";
    for (const auto& [n, h] : histograms)
      out += n + "{count=" + std::to_string(h.count) +
             " p50=" + std::to_string(h.p50) + "ns p95=" +
             std::to_string(h.p95) + "ns p99=" + std::to_string(h.p99) +
             "ns max=" + std::to_string(h.max) + "ns}\n";
    return out;
  }

  /// JSON object: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {"count":..,"p50_ns":..,...}}}.
  std::string toJson() const {
    std::string out = "{\"counters\":{";
    for (std::size_t i = 0; i < counters.size(); ++i)
      out += (i ? "," : "") + quote(counters[i].first) + ":" +
             std::to_string(counters[i].second);
    out += "},\"gauges\":{";
    for (std::size_t i = 0; i < gauges.size(); ++i)
      out += (i ? "," : "") + quote(gauges[i].first) + ":" +
             std::to_string(gauges[i].second);
    out += "},\"histograms\":{";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      const auto& h = histograms[i].second;
      out += (i ? "," : "") + quote(histograms[i].first) +
             ":{\"count\":" + std::to_string(h.count) +
             ",\"min_ns\":" + std::to_string(h.min) +
             ",\"max_ns\":" + std::to_string(h.max) +
             ",\"p50_ns\":" + std::to_string(h.p50) +
             ",\"p95_ns\":" + std::to_string(h.p95) +
             ",\"p99_ns\":" + std::to_string(h.p99) + "}";
    }
    out += "}}";
    return out;
  }

 private:
  static std::string quote(const std::string& s) { return "\"" + s + "\""; }
};

/// The per-node registry. Registration (counter/gauge/histogram lookup by
/// name) takes a mutex and returns a stable handle; nodes register all
/// their handles at construction and never touch the mutex on the data
/// path. snapshot() walks the maps under the same mutex — pull-gauge
/// callbacks run there, so they must not require locks that are held while
/// registering metrics (no node does: registration happens only in
/// constructors).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) {
    std::lock_guard lock(mu_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
  }

  Gauge& gauge(const std::string& name) {
    std::lock_guard lock(mu_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
  }

  AtomicHistogram& histogram(const std::string& name) {
    std::lock_guard lock(mu_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<AtomicHistogram>();
    return *slot;
  }

  /// Pull gauge: `fn` is evaluated at snapshot time. Replaces any previous
  /// callback under the same name.
  void gaugeFn(const std::string& name, std::function<std::int64_t()> fn) {
    std::lock_guard lock(mu_);
    gaugeFns_[name] = std::move(fn);
  }

  MetricsSnapshot snapshot() const {
    MetricsSnapshot s;
    std::lock_guard lock(mu_);
    s.counters.reserve(counters_.size());
    for (const auto& [n, c] : counters_) s.counters.emplace_back(n, c->value());
    s.gauges.reserve(gauges_.size() + gaugeFns_.size());
    for (const auto& [n, g] : gauges_) s.gauges.emplace_back(n, g->value());
    for (const auto& [n, fn] : gaugeFns_) s.gauges.emplace_back(n, fn());
    s.histograms.reserve(histograms_.size());
    for (const auto& [n, h] : histograms_)
      s.histograms.emplace_back(n, h->stats());
    return s;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::function<std::int64_t()>> gaugeFns_;
  std::map<std::string, std::unique_ptr<AtomicHistogram>> histograms_;
};

}  // namespace volap
