// The per-layer ledger, measured from outside the program: registry sweeps
// through each node's metrics().snapshot() at the window edges, an inbox
// depth sampler over Fabric::bind(name)->pending(), and single-threaded
// replays that time layer public functions on inputs from the same run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/types.hpp"
#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "common/metrics.hpp"
#include "common/wal.hpp"
#include "inputs.hpp"
#include "net/fabric.hpp"
#include "sessions.hpp"
#include "spans.hpp"
#include "tree/shard.hpp"
#include "volap/volap.hpp"

namespace volapbench {

using volap::HistogramStats;
using volap::MetricsSnapshot;
using volap::VolapCluster;

/// One registry sweep over every node. Node registries use role-prefixed
/// names, so same-named counters and histogram count/sum add across nodes.
struct Sweep {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramStats> hists;

  void add(const MetricsSnapshot& s) {
    for (const auto& [n, v] : s.counters) counters[n] += v;
    for (const auto& [n, h] : s.histograms) {
      auto& acc = hists[n];
      acc.count += h.count;
      acc.sum += h.sum;
    }
  }
  std::uint64_t counter(const std::string& n) const {
    const auto it = counters.find(n);
    return it == counters.end() ? 0 : it->second;
  }
  HistogramStats hist(const std::string& n) const {
    const auto it = hists.find(n);
    return it == hists.end() ? HistogramStats{} : it->second;
  }
};

inline Sweep sweep(VolapCluster& c, SpanLog* spans) {
  const std::uint64_t t0 = nowNanos();
  Sweep s;
  for (unsigned i = 0; i < c.serverCount(); ++i)
    s.add(c.server(i).metrics().snapshot());
  for (unsigned i = 0; i < c.workerCount(); ++i)
    s.add(c.worker(i).metrics().snapshot());
  s.add(c.manager().metrics().snapshot());
  s.add(c.fabric().metrics().snapshot());
  if (spans != nullptr) spans->add("metrics.snapshot", t0, nowNanos());
  return s;
}

/// Change of one histogram between two sweeps: how many samples landed in
/// between and their mean.
struct HistDelta {
  std::uint64_t count = 0;
  double mean = 0;
};

inline HistDelta histDelta(const Sweep& a, const Sweep& b,
                           const std::string& n) {
  const HistogramStats x = a.hist(n), y = b.hist(n);
  HistDelta d;
  d.count = y.count - x.count;
  if (d.count != 0)
    d.mean = static_cast<double>(y.sum - x.sum) / static_cast<double>(d.count);
  return d;
}

/// One histogram merged across every worker (or server) registry, for
/// percentiles. Covers everything recorded since the cluster booted.
inline LatencyHistogram mergedWorkerHist(VolapCluster& c,
                                         const std::string& n) {
  LatencyHistogram h;
  for (unsigned i = 0; i < c.workerCount(); ++i)
    h.merge(c.worker(i).metrics().histogram(n).materialize());
  return h;
}
inline LatencyHistogram mergedServerHist(VolapCluster& c,
                                         const std::string& n) {
  LatencyHistogram h;
  for (unsigned i = 0; i < c.serverCount(); ++i)
    h.merge(c.server(i).metrics().histogram(n).materialize());
  return h;
}

/// Inbox depth sampler: every millisecond of a traced slice, read the
/// pending() count of every worker and server inbox.
class DepthSampler {
 public:
  DepthSampler(VolapCluster& c, const Timeline& tl) : tl_(tl) {
    for (unsigned i = 0; i < c.workerCount(); ++i)
      workers_.push_back(c.fabric().bind(volap::workerEndpoint(i)));
    for (unsigned i = 0; i < c.serverCount(); ++i)
      servers_.push_back(c.fabric().bind(volap::serverEndpoint(i)));
  }

  /// Runs until the window ends.
  void run(SpanLog& spans) {
    const std::uint64_t root = spans.open("sampler", nowNanos());
    for (;;) {
      const std::uint64_t now = nowNanos();
      const int idx = tl_.sliceAt(now);
      if (idx >= tl_.slices) break;
      if (tl_.tracedSlice(idx)) {
        for (const auto& m : workers_) workerDepth_.record(m->pending());
        for (const auto& m : servers_) serverDepth_.record(m->pending());
        ++samples_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    spans.close(root, nowNanos());
  }

  const LatencyHistogram& workerDepth() const { return workerDepth_; }
  const LatencyHistogram& serverDepth() const { return serverDepth_; }
  std::uint64_t samples() const { return samples_; }

 private:
  const Timeline& tl_;
  std::vector<std::shared_ptr<volap::Mailbox>> workers_, servers_;
  LatencyHistogram workerDepth_, serverDepth_;
  std::uint64_t samples_ = 0;
};

/// Keeps the optimizer from discarding a value computed only for timing.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

inline double medianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Results of the single-threaded replays.
struct Replays {
  double queryNs[3] = {0, 0, 0};      // per CoverageBand, median per query
  double queryMeanNs[3] = {0, 0, 0};  // per CoverageBand, mean per query
  double bulkInsertNsPerItem = 0;
  double walAppendGroupNs = 0;
  double hilbertIndexNs = 0;
  double handoffNsP50 = 0;
};

/// Replay each layer alone, one call at a time, on this run's inputs:
/// a Hilbert PDC shard bulk-loaded with the preload answers every band's
/// queries and then takes stream batches of `batchItems`; the durable log
/// appends one-record groups of that size; the Hilbert curve indexes
/// stream items; and a private fabric ping-pongs one message.
inline Replays runReplays(const Schema& schema, const Inputs& in,
                          std::size_t batchItems, SpanLog& spans) {
  Replays r;
  batchItems = std::max<std::size_t>(1, batchItems);
  const PointSet& stream = in.loaderPools.at(0);

  std::uint64_t t = nowNanos();
  auto shard = volap::makeShard(volap::ShardKind::kHilbertPdcMds, schema);
  shard->bulkLoad(in.preload);
  spans.add("replay.shard.bulkLoad", t, nowNanos());

  for (std::size_t b = 0; b < in.bands.size(); ++b) {
    std::vector<double> per;
    const std::uint64_t root = spans.open("replay.shard.query", nowNanos());
    for (const QueryBox& q : in.bands[b]) {
      t = nowNanos();
      const volap::Aggregate a = shard->query(q);
      const std::uint64_t e = nowNanos();
      keep(a);
      per.push_back(static_cast<double>(e - t));
      spans.add("shard.query", t, e, root, b);
    }
    spans.close(root, nowNanos());
    r.queryNs[b] = medianOf(per);
    for (double v : per) r.queryMeanNs[b] += v / static_cast<double>(per.size());
  }

  {
    const std::size_t batches =
        std::max<std::size_t>(8, 16'384 / batchItems);
    std::vector<PointSet> work;
    std::size_t at = 0;
    for (std::size_t k = 0; k < batches; ++k) {
      PointSet ps(schema.dims());
      ps.reserve(batchItems);
      for (std::size_t i = 0; i < batchItems; ++i)
        ps.push(stream.at(at++ % stream.size()));
      work.push_back(std::move(ps));
    }
    const std::uint64_t root =
        spans.open("replay.shard.bulkInsert", nowNanos());
    std::uint64_t total = 0;
    for (const PointSet& ps : work) {
      t = nowNanos();
      shard->bulkInsert(ps);
      const std::uint64_t e = nowNanos();
      total += e - t;
      spans.add("shard.bulkInsert", t, e, root);
    }
    spans.close(root, nowNanos());
    r.bulkInsertNsPerItem = static_cast<double>(total) /
                            static_cast<double>(batches * batchItems);
  }

  {
    // One record per group, the shape a coalesced kWBulk batch takes.
    PointSet ps(schema.dims());
    for (std::size_t i = 0; i < batchItems; ++i)
      ps.push(stream.at(i % stream.size()));
    volap::ByteWriter w;
    ps.serialize(w);
    const volap::Blob items = w.take();
    volap::DurableLog log;
    std::vector<double> per;
    constexpr int kGroups = 2'000;
    const std::uint64_t root = spans.open("replay.wal.appendGroup", nowNanos());
    for (int k = 0; k < kGroups; ++k) {
      std::vector<volap::WalRecord> group(1);
      group[0].from = "server/0";
      group[0].corr = static_cast<std::uint64_t>(k) + 1;
      group[0].items = items;
      t = nowNanos();
      log.appendGroup(1, 0, std::move(group));
      const std::uint64_t e = nowNanos();
      per.push_back(static_cast<double>(e - t));
      spans.add("wal.appendGroup", t, e, root);
      if (k % 64 == 63) log.saveCheckpoint(1, 0, 0, {});  // bound memory
    }
    spans.close(root, nowNanos());
    r.walAppendGroupNs = medianOf(per);
  }

  {
    const volap::CompactHilbertCurve& curve = schema.curve();
    std::vector<double> per;
    const std::uint64_t root = spans.open("replay.hilbert.index", nowNanos());
    constexpr std::size_t kBatch = 1'000;
    for (std::size_t at = 0; at + kBatch <= std::min<std::size_t>(
                                              stream.size(), 100'000);
         at += kBatch) {
      t = nowNanos();
      for (std::size_t i = at; i < at + kBatch; ++i) {
        const volap::HilbertKey k = curve.index(stream.at(i).coords);
        keep(k);
      }
      const std::uint64_t e = nowNanos();
      per.push_back(static_cast<double>(e - t) / kBatch);
      spans.add("hilbert.index.x1000", t, e, root);
    }
    spans.close(root, nowNanos());
    r.hilbertIndexNs = medianOf(per);
  }

  {
    volap::Fabric fabric;
    auto a = fabric.bind("replay/a");
    auto b = fabric.bind("replay/b");
    std::thread echo([&] {
      while (auto m = b->recv()) {
        m->from = "replay/b";
        fabric.send("replay/a", std::move(*m));
      }
    });
    LatencyHistogram rtt;
    const std::uint64_t root = spans.open("replay.net.pingpong", nowNanos());
    for (std::uint64_t k = 1; k <= 5'000; ++k) {
      volap::Message m;
      m.type = 1;
      m.corr = k;
      m.from = "replay/a";
      t = nowNanos();
      fabric.send("replay/b", std::move(m));
      a->recv();
      const std::uint64_t e = nowNanos();
      rtt.record(e - t);
      if (k % 16 == 0) spans.add("fabric.pingpong", t, e, root, k);
    }
    spans.close(root, nowNanos());
    b->close();
    echo.join();
    r.handoffNsP50 = static_cast<double>(rtt.quantileNanos(0.5)) / 2.0;
  }
  return r;
}

}  // namespace volapbench
