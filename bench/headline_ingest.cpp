// Headline numbers (SI / SIV-C): "capable of bulk ingesting data at over
// 400 thousand items per second, and processing streams of interspersed
// insertions and aggregate queries at a rate of approximately 50 thousand
// insertions and 20 thousand aggregate queries per second".
//
// Measures (1) raw Hilbert PDC tree bulk load vs point insert on one
// shard, (2) end-to-end cluster bulk ingestion, and (3) a mixed 70/30
// insert/query stream — the three headline paths.
//
// Set VOLAP_BENCH_ENFORCE=1 (CI release leg) to fail the run when the
// mixed-stream insert rate falls below the floor: 2x the seed's 4.1k/s at
// scale 0.25 — the server-side coalescing + group-commit pipeline should
// clear that with a wide margin. VOLAP_INGEST_FLOOR overrides the floor.
//
// Diagnostics: VOLAP_MIX overrides the insert percentage of the mixed
// stream (100 = inserts only, 0 = queries only — isolates which side of
// the 70/30 coupling gates throughput); a run with any mix other than 70
// writes BENCH_ingest_mix<N>.json, so it never overwrites the trajectory
// point in BENCH_ingest.json. VOLAP_BENCH_DEBUG=1 prints client-observed
// latencies plus per-server routing/coalescing counters.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.hpp"
#include "olap/data_gen.hpp"
#include "olap/query_gen.hpp"
#include "tree/shard.hpp"
#include "volap/volap.hpp"

int main() {
  using namespace volap;
  using namespace volap::bench;
  banner("Headline: bulk ingest, point insert, and mixed-stream rates",
         ">400k items/s bulk; ~50k inserts/s + ~20k queries/s mixed "
         "(20 EC2 workers in the paper; one process here)");

  const Schema schema = Schema::tpcds();
  const std::size_t n = scaled(300'000);
  DataGenerator gen(schema, 3);
  const PointSet items = gen.generate(n);

  unsigned mix = 70;
  if (const char* env = std::getenv("VOLAP_MIX")) mix = std::atoi(env);
  BenchJson json(mix == 70 ? "ingest" : "ingest_mix" + std::to_string(mix));

  // 1. Raw shard: bulk load vs point insert.
  {
    auto bulk = makeShard(ShardKind::kHilbertPdcMds, schema);
    const double bulkSec = timeIt([&] { bulk->bulkLoad(items); });
    auto point = makeShard(ShardKind::kHilbertPdcMds, schema);
    const double pointSec = timeIt([&] {
      for (std::size_t i = 0; i < items.size(); ++i)
        point->insert(items.at(i));
    });
    std::printf("%-28s %12.1f kitems/s\n", "shard bulk load",
                static_cast<double>(n) / bulkSec / 1e3);
    std::printf("%-28s %12.1f kitems/s  (bulk is %.1fx faster)\n",
                "shard point insert",
                static_cast<double>(n) / pointSec / 1e3,
                pointSec / bulkSec);
    json.metric("shard_bulk_items_per_sec", static_cast<double>(n) / bulkSec);
    json.metric("shard_insert_items_per_sec",
                static_cast<double>(n) / pointSec);
  }

  // 2. End-to-end cluster bulk ingestion.
  ClusterOptions opts;
  opts.servers = 2;
  opts.workers = 4;
  opts.manager.maxShardItems = n;  // keep the run split-free
  opts.manager.replicationFactor = 1;  // floor measures the unchained path
  VolapCluster cluster(schema, opts);
  auto client = cluster.makeClient("ingest", 0, 256);
  {
    LatencyHistogram batchLat;
    const double sec = timeIt([&] {
      const std::size_t chunk = 20'000;
      for (std::size_t at = 0; at < n; at += chunk) {
        PointSet batch(schema.dims());
        batch.reserve(chunk);
        for (std::size_t i = at; i < std::min(n, at + chunk); ++i)
          batch.push(items.at(i));
        const std::uint64_t t0 = nowNanos();
        client->bulkLoad(batch);
        batchLat.record(nowNanos() - t0);
      }
    });
    std::printf("%-28s %12.1f kitems/s\n", "cluster bulk ingest",
                static_cast<double>(n) / sec / 1e3);
    json.metric("ops_per_sec", static_cast<double>(n) / sec);
    json.latency("batch", batchLat);
  }

  // 3. Mixed stream: ~70% inserts / 30% aggregate queries.
  {
    QueryGenerator qgen(schema, 4);
    const PointSet sample = gen.generate(10'000);
    std::vector<QueryBox> qs;
    for (int i = 0; i < 200; ++i) qs.push_back(qgen.random(sample));
    DataGenerator mixGen(schema, 9);
    Rng rng(10);
    // One process serves both roles here; size the stream so the run stays
    // in seconds while the rates remain stable.
    const std::size_t ops = scaled(2'500);
    std::size_t ins = 0, qry = 0;
    const double sec = timeIt([&] {
      for (std::size_t i = 0; i < ops; ++i) {
        if (rng.below(100) < mix) {
          client->insertAsync(mixGen.next());
          ++ins;
        } else {
          client->queryAsync(qs[qry % qs.size()]);
          ++qry;
        }
      }
      client->drain();
    });
    char label[32];
    std::snprintf(label, sizeof label, "mixed stream (%u/%u)", mix,
                  100 - mix);
    std::printf("%-28s %12.1f kinserts/s + %.1f kqueries/s\n", label,
                static_cast<double>(ins) / sec / 1e3,
                static_cast<double>(qry) / sec / 1e3);
    json.metric("mixed_inserts_per_sec", static_cast<double>(ins) / sec);
    json.metric("mixed_queries_per_sec", static_cast<double>(qry) / sec);
    // Client-observed mixed-stream latency percentiles: the trajectory
    // tracks the tail, not just the rates.
    json.latency("mixed_insert", client->insertLatency());
    json.latency("mixed_query", client->queryLatency());
    if (std::getenv("VOLAP_BENCH_DEBUG") != nullptr) {
      std::printf("insert lat p50=%.3fms p99=%.3fms  query lat p50=%.3fms "
                  "p99=%.3fms\n",
                  client->insertLatency().quantileNanos(0.50) / 1e6,
                  client->insertLatency().quantileNanos(0.99) / 1e6,
                  client->queryLatency().quantileNanos(0.50) / 1e6,
                  client->queryLatency().quantileNanos(0.99) / 1e6);
      for (unsigned s = 0; s < cluster.serverCount(); ++s) {
        const Server::Stats st = cluster.server(s).stats();
        std::printf(
            "server %u: snapHit=%llu snapMiss=%llu coalBatches=%llu "
            "coalItems=%llu\n",
            s, (unsigned long long)st.snapshotHits,
            (unsigned long long)st.snapshotMisses,
            (unsigned long long)st.coalescedBatches,
            (unsigned long long)st.coalescedItems);
      }
    }

    json.write();
    const char* enforce = std::getenv("VOLAP_BENCH_ENFORCE");
    if (enforce != nullptr && std::strcmp(enforce, "0") != 0) {
      double floor = 8300.0;  // 2x the seed's 4139/s mixed insert rate
      if (const char* env = std::getenv("VOLAP_INGEST_FLOOR")) {
        const double v = std::atof(env);
        if (v > 0) floor = v;
      }
      const double rate = static_cast<double>(ins) / sec;
      if (rate < floor) {
        std::fprintf(stderr,
                     "FAIL: mixed insert rate %.0f/s below the %.0f/s floor\n",
                     rate, floor);
        return 1;
      }
    }
  }
  return 0;
}
