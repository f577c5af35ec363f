// Seeded workload inputs and the brute-force oracle the correctness gate
// checks cluster answers against. Everything here is generated before the
// cluster starts, so input generation never lands inside a timed phase.
// The preloaded database and the binned query pools are fixed; the seed
// drives everything else: the stream items and each session's op choices
// (insert or query, and which query).
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "olap/aggregate.hpp"
#include "olap/data_gen.hpp"
#include "olap/query_gen.hpp"

namespace volapbench {

using volap::Aggregate;
using volap::CoverageBand;
using volap::PointSet;
using volap::QueryBox;
using volap::Schema;

/// One named traffic mix. Loader sessions draw each op from `insertPct`;
/// queries come uniformly from the listed coverage bands (band first, then
/// a query within it).
struct WorkloadSpec {
  const char* name;
  unsigned insertPct;
  std::vector<CoverageBand> bands;
};

inline const std::vector<WorkloadSpec>& workloadSpecs() {
  static const std::vector<WorkloadSpec> specs = {
      {"ingest_heavy", 95, {CoverageBand::kHigh}},
      {"query_heavy", 10, {CoverageBand::kLow, CoverageBand::kMedium}},
      {"mixed_70_30",
       70,
       {CoverageBand::kLow, CoverageBand::kMedium, CoverageBand::kHigh}},
  };
  return specs;
}

inline const WorkloadSpec* findWorkload(const std::string& name) {
  for (const auto& w : workloadSpecs())
    if (name == w.name) return &w;
  return nullptr;
}

/// Seed of the fixed preloaded database. With balancing paused, the way the
/// preload lands on the four workers sets most of a run's throughput, and
/// it differs from one generated database to the next: worker loads of
/// 90k/86k/26k/97k and 105k/53k/54k/88k items gave 6.0k and 4.9k inserts/s
/// on mixed_70_30. One fixed database keeps that out of the seed-to-seed
/// spread.
constexpr std::uint64_t kDatabaseSeed = 1;

/// Seed of the fixed coverage-binned query pools. Low-coverage queries cost
/// the most to scan, and the mean cost of 512 of them still moved 15-20%
/// between generated pools (single-shard replay over the preload: 0.60 to
/// 0.90 ms for low + medium across ten seeds), which landed directly in
/// queries_per_s. Like the database, the pools are fixed; the seed picks
/// which of them each session sends, and in what order.
constexpr std::uint64_t kQuerySeed = 1;

struct InputSizes {
  std::size_t preload = 300'000;
  std::size_t bulkChunk = 20'000;
  /// Items each loader session cycles through. A session that outruns its
  /// pool wraps around; the oracle counts every send, repeats included.
  std::size_t loaderPool = 1u << 18;
  std::size_t probePool = 1u << 15;
  std::size_t queriesPerBand = 512;
  std::size_t queryAttempts = 400'000;
  std::size_t checkQueriesPerBand = 4;
};

struct Inputs {
  PointSet preload;
  std::vector<PointSet> preloadChunks;  // preload, cut into bulkLoad calls
  std::vector<PointSet> loaderPools;    // one per loader session
  PointSet probePool;
  std::vector<std::vector<QueryBox>> bands;  // indexed by CoverageBand
};

/// Draw `n` items. Measures are rounded to whole numbers so every SUM the
/// cluster computes is exact in double precision regardless of the order
/// its shards add them in; the gate can then compare sums bit for bit.
inline PointSet drawItems(volap::DataGenerator& gen, std::size_t n) {
  PointSet out(gen.schema().dims());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    volap::PointRef p = gen.next();
    p.measure = std::max(1.0, std::round(p.measure));
    out.push(p);
  }
  return out;
}

inline Inputs makeInputs(const Schema& schema, std::uint64_t seed,
                         unsigned loaders, const InputSizes& sz) {
  volap::DataGenOptions opts;
  opts.zipfSkew = 1.1;
  Inputs in;
  volap::DataGenerator preGen(schema, kDatabaseSeed, opts);
  in.preload = drawItems(preGen, sz.preload);
  for (std::size_t at = 0; at < in.preload.size(); at += sz.bulkChunk) {
    PointSet chunk(schema.dims());
    const std::size_t end = std::min(in.preload.size(), at + sz.bulkChunk);
    chunk.reserve(end - at);
    for (std::size_t i = at; i < end; ++i) chunk.push(in.preload.at(i));
    in.preloadChunks.push_back(std::move(chunk));
  }
  for (unsigned l = 0; l < loaders; ++l) {
    volap::DataGenerator g(schema, seed * 4 + 2 + 1000 * (l + 1), opts);
    in.loaderPools.push_back(drawItems(g, sz.loaderPool));
  }
  volap::DataGenerator probeGen(schema, seed * 4 + 3, opts);
  in.probePool = drawItems(probeGen, sz.probePool);

  // Coverage bins are measured against the preload, as the paper bins its
  // queries against the database before benchmarking.
  volap::QueryGenerator qgen(schema, kQuerySeed * 4 + 4);
  for (auto& band : qgen.generateBands(in.preload, sz.queriesPerBand,
                                               sz.queryAttempts)) {
    std::vector<QueryBox> boxes;
    for (auto& q : band) boxes.push_back(std::move(q.box));
    if (boxes.size() < sz.checkQueriesPerBand)
      throw std::runtime_error("query generator could not fill a band");
    in.bands.push_back(std::move(boxes));
  }
  return in;
}

/// A pool of items sent cyclically: send k carried pool[k % size].
struct SentStream {
  const PointSet* pool = nullptr;
  std::uint64_t sent = 0;
};

/// Brute-force answer over the preload plus every item the sessions sent.
inline Aggregate oracleQuery(const QueryBox& q, const PointSet& preload,
                             const std::vector<SentStream>& streams) {
  Aggregate agg;
  for (std::size_t i = 0; i < preload.size(); ++i) {
    const volap::PointRef p = preload.at(i);
    if (q.contains(p)) agg.add(p.measure);
  }
  for (const SentStream& s : streams) {
    const std::size_t n = s.pool->size();
    const std::uint64_t laps = s.sent / n;
    const std::uint64_t rest = s.sent % n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t times = laps + (i < rest ? 1 : 0);
      if (times == 0) continue;
      const volap::PointRef p = s.pool->at(i);
      if (!q.contains(p)) continue;
      Aggregate one;
      one.count = times;
      one.sum = p.measure * static_cast<double>(times);
      one.min = one.max = p.measure;
      agg.merge(one);
    }
  }
  return agg;
}

}  // namespace volapbench
