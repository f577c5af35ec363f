// Leaf-scan microbenchmark: the seed's per-point QueryBox::contains loop
// (short-circuit branch per dimension, point-major layout) versus the SoA
// scan (FlatQuery + one fused lo/hi interval pass per constrained 32-bit
// column into a bit-packed selection, then the selected-measure aggregate;
// see olap/flat_query.hpp) over the SAME data and queries. The SoA scan
// runs twice: with the column pass and aggregate the library dispatches to
// on this host, and with the portable scalar paths forced. Every run must produce the seed's
// aggregates (the bench doubles as a correctness check), and the
// dispatched scan is expected to be >= 4x faster than the seed loop in a
// Release build. Set VOLAP_BENCH_ENFORCE=1 (CI release leg) to turn the 4x
// floor into a hard failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_util.hpp"
#include "olap/data_gen.hpp"
#include "olap/flat_query.hpp"
#include "olap/query_gen.hpp"

int main() {
  using namespace volap;
  using namespace volap::bench;
  banner("Microbench: per-point contains loop vs SoA bit-packed leaf scan",
         "columnar leaves + fused interval tests are where the per-shard "
         "order-of-magnitude lives (cf. arXiv:1402.3781, arXiv:1707.00825)");

  const Schema schema = Schema::tpcds();
  const unsigned d = schema.dims();
  const std::size_t n = scaled(200'000);
  DataGenerator gen(schema, 21);
  const PointSet data = gen.generate(n);

  // Columnar copy of the same items (what a ShardTree leaf stores: 32-bit
  // coordinates, every dimension fits).
  std::vector<std::vector<std::uint32_t>> cols(d);
  for (unsigned j = 0; j < d; ++j) cols[j].reserve(n);
  std::vector<double> measures;
  measures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PointRef p = data.at(i);
    for (unsigned j = 0; j < d; ++j)
      cols[j].push_back(static_cast<std::uint32_t>(p.coords[j]));
    measures.push_back(p.measure);
  }

  QueryGenerator qgen(schema, 22);
  std::vector<QueryBox> qs;
  for (int i = 0; i < 16; ++i) qs.push_back(qgen.random(data));

  const unsigned reps = 3;
  constexpr std::size_t kBlock = 4096;  // leaf-sized blocks for the scan
  std::vector<std::uint64_t> sel(selectionWords(kBlock));

  std::vector<Aggregate> baseAgg(qs.size());

  const double baseSec = timeIt([&] {
    for (unsigned r = 0; r < reps; ++r) {
      for (std::size_t qi = 0; qi < qs.size(); ++qi) {
        Aggregate a;
        const QueryBox& q = qs[qi];
        for (std::size_t i = 0; i < n; ++i) {
          const PointRef p = data.at(i);
          if (q.contains(p)) a.add(p.measure);
        }
        baseAgg[qi] = a;
      }
    }
  });

  // The SoA scan with a given column pass and aggregate: scanColumns'
  // loop, spelled out so the scalar paths can be timed on a host that
  // dispatches to AVX-512.
  auto soaScan = [&](detail::ColumnPass pass, detail::AggregatePass agg,
                     std::vector<Aggregate>& aggs) {
    aggs.assign(qs.size(), Aggregate{});
    return timeIt([&] {
      for (unsigned r = 0; r < reps; ++r) {
        for (std::size_t qi = 0; qi < qs.size(); ++qi) {
          const FlatQuery fq(schema, qs[qi]);
          Aggregate a;
          for (std::size_t at = 0; at < n; at += kBlock) {
            const std::size_t len = std::min(kBlock, n - at);
            selectAll(sel.data(), len);
            bool alive = true;
            for (unsigned k = 0; alive && k < fq.constrained(); ++k)
              alive = pass(cols[fq.dimAt(k)].data() + at, len, fq.lo(k),
                           fq.width(k), sel.data());
            if (alive)
              a.merge(agg(measures.data() + at, sel.data(), len));
          }
          aggs[qi] = a;
        }
      }
    });
  };
  std::vector<Aggregate> soaAgg, scalarAgg;
  const double soaSec = soaScan(selectInterval, selectedAggregate, soaAgg);
  const double scalarSec = soaScan(detail::selectIntervalScalar,
                                   detail::selectedAggregateScalar, scalarAgg);

  // Differential check: every scan must agree exactly on count/min/max and
  // to fp-reassociation tolerance on sum.
  for (const auto* aggs : {&soaAgg, &scalarAgg}) {
    for (std::size_t qi = 0; qi < qs.size(); ++qi) {
      const Aggregate &a = baseAgg[qi], &b = (*aggs)[qi];
      const double tol = 1e-9 * (std::abs(a.sum) + 1);
      if (a.count != b.count || std::abs(a.sum - b.sum) > tol ||
          (a.count != 0 && (a.min != b.min || a.max != b.max))) {
        std::fprintf(stderr, "MISMATCH on query %zu: count %llu vs %llu\n",
                     qi, static_cast<unsigned long long>(a.count),
                     static_cast<unsigned long long>(b.count));
        return 1;
      }
    }
  }

  const double scanned =
      static_cast<double>(n) * static_cast<double>(qs.size()) * reps;
  const double baseRate = scanned / baseSec / 1e6;  // Mpoints/s
  const double soaRate = scanned / soaSec / 1e6;
  const double scalarRate = scanned / scalarSec / 1e6;
  const double speedup = baseRate > 0 ? soaRate / baseRate : 0;
  const double scalarSpeedup = baseRate > 0 ? scalarRate / baseRate : 0;
  const bool avx512 = detail::haveAvx512();
  std::printf("%-32s %10.1f Mpoints/s\n", "per-point contains (seed)",
              baseRate);
  std::printf("%-32s %10.1f Mpoints/s  (%.2fx)\n",
              avx512 ? "SoA scan, AVX-512 paths" : "SoA scan, scalar paths",
              soaRate, speedup);
  std::printf("%-32s %10.1f Mpoints/s  (%.2fx)\n",
              "SoA scan, scalar paths forced", scalarRate, scalarSpeedup);

  BenchJson json("leaf_scan");
  json.metric("ops_per_sec", soaRate * 1e6);  // points scanned per second
  json.metric("baseline_ops_per_sec", baseRate * 1e6);
  json.metric("speedup", speedup);
  json.metric("scalar_ops_per_sec", scalarRate * 1e6);
  json.metric("scalar_speedup", scalarSpeedup);
  json.metric("avx512", avx512 ? 1 : 0);
  json.write();

  const char* enforce = std::getenv("VOLAP_BENCH_ENFORCE");
  if (enforce != nullptr && std::strcmp(enforce, "0") != 0 && speedup < 4.0) {
    std::fprintf(stderr,
                 "FAIL: SoA scan speedup %.2fx below the 4x floor\n",
                 speedup);
    return 1;
  }
  return 0;
}
