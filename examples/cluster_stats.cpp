// Cluster observability tour + CI schema guard: run a short mixed
// insert/query workload with tracing on, scrape every node's metrics
// registry over the kStats RPC, and print the cluster-wide view — per-hop
// stage latencies, freshness lag, coalescing/retry/recovery counters, and
// the slowest end-to-end traces with their hop breakdowns.
//
//   ./examples/cluster_stats [items] [--json]
//
// The workload starts once every shard has a replication chain, so the
// chain stage is exercised too. Exit status is the contract the CI stats
// leg enforces: nonzero if the chains do not form, any node fails to
// answer kStats, any required metric name is missing from a scrape (schema
// drift), on any server the freshness-lag histogram stayed empty / zero at
// p99 or a trace stage histogram the workload exercises stayed empty (the
// query total or scan, or the ingest total, route, lane dwell, WAL, apply
// or chain replication stage: tracing plumbing broke, or trace sampling
// aliased with the op pattern and skipped every op of a type), or on any
// worker the replica apply-lag histogram stayed empty.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/stats.hpp"
#include "common/clock.hpp"
#include "olap/data_gen.hpp"
#include "olap/query_gen.hpp"
#include "volap/volap.hpp"

int main(int argc, char** argv) {
  using namespace volap;
  std::size_t n = 5'000;
  bool asJson = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0)
      asJson = true;
    else
      n = std::strtoull(argv[i], nullptr, 10);
  }

  const Schema schema = Schema::tpcds();
  ClusterOptions opts;
  opts.servers = 2;
  opts.workers = 3;
  opts.traceSampleEveryN = 4;  // dense sampling: this run is short
  VolapCluster cluster(schema, opts);

  // Wait until the manager has built, seeded and published a chain for
  // every shard: inserts that reach a chained shard run the replication
  // stage, which the guard below requires to be live.
  {
    KeeperClient zk(cluster.fabric(), "stats-chains");
    const std::size_t shards =
        static_cast<std::size_t>(opts.workers) * opts.initialShardsPerWorker;
    const auto allChained = [&] {
      const auto names = zk.children(shardsPath());
      if (!names || names->size() < shards) return false;
      for (const auto& name : *names) {
        const auto got = zk.get(shardsPath() + "/" + name);
        if (!got) return false;
        ByteReader r(got->data);
        if (ShardInfo::deserialize(r).replicas.empty()) return false;
      }
      return true;
    };
    const std::uint64_t deadline = nowNanos() + 15'000'000'000ull;
    while (!allChained()) {
      if (nowNanos() > deadline) {
        std::fprintf(stderr, "FAIL: shards never all chained\n");
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  // Mixed workload: pipelined inserts with aggregate queries riding along,
  // one client per server so every server's stage histograms fill up. Each
  // client issues one query per 25 inserts (26 ops), a period that a trace
  // sampler shared across op types would never land a query on.
  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned s = 0; s < cluster.serverCount(); ++s)
    clients.push_back(
        cluster.makeClient("stats-demo" + std::to_string(s), s, 128));
  DataGenerator gen(schema, 7);
  QueryGenerator qgen(schema, 8);
  const PointSet sample = gen.generate(1'000);
  std::size_t queries = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Client& c = *clients[i % clients.size()];
    c.insertAsync(gen.next());
    if (i % 50 >= 48) {
      c.queryAsync(qgen.random(sample));
      ++queries;
    }
  }
  std::uint64_t acked = 0, traced = 0;
  for (auto& c : clients) {
    c->drain();
    acked += c->insertsAcked();
    traced += c->tracesStarted();
  }
  std::printf("workload: %llu inserts acked, %llu queries, %llu traced\n\n",
              static_cast<unsigned long long>(acked),
              static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(traced));

  // Scrape every server, worker, and the manager in one sweep.
  const auto endpoints = cluster.statsEndpoints();
  const auto replies = scrapeStats(cluster.fabric(), endpoints);
  int failures = 0;
  if (replies.size() != endpoints.size()) {
    std::fprintf(stderr, "FAIL: %zu/%zu nodes answered kStats\n",
                 replies.size(), endpoints.size());
    ++failures;
  }

  for (const auto& r : replies) {
    if (asJson) {
      std::printf("{\"node\":\"%s\",\"metrics\":%s}\n", r.node.c_str(),
                  r.snapshot.toJson().c_str());
    } else {
      std::printf("=== %s ===\n%s", r.node.c_str(),
                  r.snapshot.toText().c_str());
      for (const auto& t : r.slowTraces) std::printf("  %s\n",
                                                     t.toString().c_str());
    }

    // Schema guard: the required-name contract, per node role.
    const std::vector<std::string>* required = nullptr;
    if (r.node.rfind("server/", 0) == 0)
      required = &requiredServerMetrics();
    else if (r.node.rfind("worker/", 0) == 0)
      required = &requiredWorkerMetrics();
    else if (r.node == "manager")
      required = &requiredManagerMetrics();
    if (required != nullptr) {
      for (const auto& name : missingMetrics(r.snapshot, *required)) {
        std::fprintf(stderr, "FAIL: %s missing required metric %s\n",
                     r.node.c_str(), name.c_str());
        ++failures;
      }
    }

    // Liveness guard: on servers, freshness lag and every trace stage the
    // workload exercises must have real samples — an empty or all-zero
    // histogram means the trace plumbing (or its sampling) broke even
    // though the name survived. Every worker mirrors some chain, so each
    // must have applied appends as a replica.
    if (r.node.rfind("worker/", 0) == 0) {
      const HistogramStats* lag = r.snapshot.findHistogram("repl.lag_ns");
      if (lag == nullptr || lag->count == 0) {
        std::fprintf(stderr, "FAIL: %s replica lag histogram empty\n",
                     r.node.c_str());
        ++failures;
      }
    }
    if (r.node.rfind("server/", 0) == 0) {
      for (const char* name :
           {"trace.query.total_ns", "trace.query.scan_ns",
            "trace.ingest.total_ns", "trace.ingest.route_ns",
            "trace.ingest.lane_dwell_ns", "trace.ingest.wal_ns",
            "trace.ingest.apply_ns", "trace.ingest.repl_ns"}) {
        const HistogramStats* h = r.snapshot.findHistogram(name);
        if (h == nullptr || h->count == 0) {
          std::fprintf(stderr, "FAIL: %s trace histogram %s empty\n",
                       r.node.c_str(), name);
          ++failures;
        }
      }
      const HistogramStats* lag =
          r.snapshot.findHistogram("ingest.freshness_lag_ns");
      if (lag == nullptr || lag->count == 0 || lag->p99 == 0) {
        std::fprintf(stderr,
                     "FAIL: %s freshness-lag histogram empty (count=%llu "
                     "p99=%llu)\n",
                     r.node.c_str(),
                     static_cast<unsigned long long>(lag ? lag->count : 0),
                     static_cast<unsigned long long>(lag ? lag->p99 : 0));
        ++failures;
      }
    }
  }

  if (failures != 0) {
    std::fprintf(stderr, "\ncluster_stats: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("\ncluster_stats: all nodes scraped, schema intact\n");
  return 0;
}
