// volapbench: the VOLAP benchmark of record.
//
//   volapbench --workload <ingest_heavy|query_heavy|mixed_70_30> --seed <n>
//              --seconds <window> --trace <0|1> [--spans-dir <dir>]
//              [--git-sha <sha>]
//
// Three times over: boots a VolapCluster with the library defaults
// (balancing paused, see clusterOptions), bulk-preloads a fixed database,
// waits for the cluster to settle, and runs the named workload closed loop
// for a warmup plus a third of the window. Then checks the last cluster's
// answers against a brute-force oracle through every server, and prints
// every metric with its unit. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs with spans, registry sweeps, an inbox sampler and
// layer replays, and the metrics are the per-layer ledger. Exit status is
// nonzero when the correctness gate fails.
#include <malloc.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "ledger.hpp"
#include "sessions.hpp"
#include "spans.hpp"
#include "volap/volap.hpp"

#ifndef VOLAPBENCH_BUILD_TYPE
#define VOLAPBENCH_BUILD_TYPE "unknown"
#endif

namespace volapbench {
namespace {

using volap::ClusterOptions;
using volap::QueryReply;

constexpr unsigned kLoaders = 2;
constexpr unsigned kLoaderWindow = 8;
constexpr double kWarmupSeconds = 1.5;  // per boot
constexpr double kSliceSeconds = 0.5;
constexpr unsigned kBoots = 3;
constexpr double kSettleQuietSeconds = 1.5;
constexpr double kSettleLimitSeconds = 30.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::string spansDir = ".";
  std::string gitSha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "volapbench: %s\nusage: volapbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-dir <dir>] "
               "[--git-sha <sha>]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = static_cast<unsigned>(std::atoi(v.c_str()));
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--spans-dir") a.spansDir = v;
    else if (k == "--git-sha") a.gitSha = v;
    else usage(("unknown argument " + k).c_str());
  }
  if (findWorkload(a.workload) == nullptr) usage("unknown --workload");
  if (a.seconds == 0) usage("--seconds must be at least 1");
  return a;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

void sleepUntil(std::uint64_t t) {
  const std::uint64_t now = nowNanos();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

std::uint64_t rssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Bytes the allocator has handed out and not had back, across every arena
/// and mmapped block. Unlike RSS it excludes free memory the allocator keeps
/// cached, which varies from run to run with thread timing.
std::uint64_t liveHeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// ---------------------------------------------------------------- setup --

struct Boot {
  std::unique_ptr<volap::VolapCluster> cluster;
  double setupSeconds = 0;
  std::vector<double> chunkRates;  // items/s of each bulkLoad call
  bool settled = false;
};

/// Fingerprint of the balancer's and the chains' progress; settled means it
/// stays unchanged, with no manager op in flight, for a quiet period.
std::vector<std::uint64_t> balancerState(volap::VolapCluster& c) {
  volap::Manager& m = c.manager();
  std::vector<std::uint64_t> s = {m.splitsDone(), m.migrationsDone(),
                                  m.recoveriesDone(), m.promotionsDone(),
                                  m.chainRepairsDone()};
  for (unsigned i = 0; i < c.workerCount(); ++i) {
    s.push_back(c.worker(i).shardCount());
    s.push_back(c.worker(i).replicaShardCount());
    s.push_back(c.worker(i).replSeeds());
  }
  return s;
}

bool settle(volap::VolapCluster& c) {
  const auto quiet = static_cast<std::uint64_t>(kSettleQuietSeconds * 1e9);
  const std::uint64_t limit =
      nowNanos() + static_cast<std::uint64_t>(kSettleLimitSeconds * 1e9);
  auto last = balancerState(c);
  std::uint64_t lastChange = nowNanos();
  while (nowNanos() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto now = balancerState(c);
    if (now != last || c.manager().opsInFlight() != 0) {
      last = std::move(now);
      lastChange = nowNanos();
    } else if (nowNanos() - lastChange >= quiet) {
      return true;
    }
  }
  return false;
}

/// The library defaults (2 servers, 4 workers, replication factor 2,
/// durability, shipped trace sampling) with one exception: the manager's
/// balancing is paused. With splits and migrations running under the
/// stream, whole-database answers come back up to 11% over or under the
/// truth, so no run could pass the gate. Crash recovery and chain repair
/// stay on; see README.md.
ClusterOptions clusterOptions() {
  ClusterOptions o;
  o.manager.enabled = false;
  return o;
}

/// Construct the cluster, bulk-preload it, wait for it to settle.
Boot boot(const Schema& schema, const Inputs& in) {
  Boot b;
  const std::uint64_t t0 = nowNanos();
  b.cluster = std::make_unique<volap::VolapCluster>(schema, clusterOptions());
  std::uint64_t applied = 0;
  {
    // One session on server 0: routing then depends only on that server's
    // own image, so the same preload lands on the same shards every time.
    auto bulk = b.cluster->makeClient("bulk", 0);
    for (const PointSet& chunk : in.preloadChunks) {
      const std::uint64_t t = nowNanos();
      applied += bulk->bulkLoad(chunk);
      b.chunkRates.push_back(static_cast<double>(chunk.size()) /
                             seconds(nowNanos() - t));
    }
  }
  if (applied != in.preload.size())
    throw std::runtime_error("bulk preload applied " +
                             std::to_string(applied) + " of " +
                             std::to_string(in.preload.size()) + " items");
  b.settled = settle(*b.cluster);
  b.setupSeconds = seconds(nowNanos() - t0);
  return b;
}

// --------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count, or "n/a: <reason>"
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printTable(const char* title, const std::vector<Metric>& ms) {
  std::printf("== %s\n", title);
  for (const Metric& m : ms)
    std::printf("%-34s %16.6g %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ aggregates --

double ms(double ns) { return ns * 1e-6; }

/// Quantile of a log-bucketed histogram, interpolated linearly inside the
/// bucket that holds the target rank. quantileNanos() returns the bucket's
/// upper edge, so its answer moves in ~6% steps; this one moves smoothly.
/// Bucket membership of a rank comes from sampleNanos(), which returns the
/// midpoint of the bucket holding rank floor(u * count).
double quantile(const LatencyHistogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0;
  const auto at = [&](std::uint64_t rank) {
    return h.sampleNanos((static_cast<double>(rank) + 0.5) /
                         static_cast<double>(n));
  };
  const auto ceilRank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  const std::uint64_t r = std::min(n, std::max<std::uint64_t>(1, ceilRank)) - 1;
  const std::uint64_t mid = at(r);
  std::uint64_t lo = 0, hi = r;  // first rank in r's bucket
  while (lo < hi) {
    const std::uint64_t m = (lo + hi) / 2;
    if (at(m) < mid) lo = m + 1; else hi = m;
  }
  const std::uint64_t first = lo;
  lo = r;
  hi = n - 1;  // last rank in r's bucket
  while (lo < hi) {
    const std::uint64_t m = (lo + hi + 1) / 2;
    if (at(m) > mid) hi = m - 1; else lo = m;
  }
  const int b = LatencyHistogram::bucketFor(mid);
  const double lower = static_cast<double>(LatencyHistogram::bucketLower(b));
  const double width =
      static_cast<double>(LatencyHistogram::bucketUpper(b) + 1) - lower;
  return lower + width * (static_cast<double>(r - first) + 0.5) /
                     static_cast<double>(lo - first + 1);
}

/// Sums over the window slices of a set of sessions.
struct WindowTotals {
  LatencyHistogram insertLat, queryLat;
  /// The same latencies, one histogram per boot.
  std::vector<LatencyHistogram> insertGroups, queryGroups;
  std::uint64_t sent = 0, insertsAcked = 0, queriesAnswered = 0;
  std::uint64_t shards = 0, retries = 0;
  /// Per window slice, summed over sessions (each over its own slice time).
  std::vector<double> insertRates, queryRates;
  // Traced-run split: ops sent and wall time in traced / untraced slices.
  double tracedOps = 0, tracedSeconds = 0, plainOps = 0, plainSeconds = 0;
  std::uint64_t blockedNanos = 0;

  double insertsPerSecond() const { return medianOf(insertRates); }
  double queriesPerSecond() const { return medianOf(queryRates); }
  /// Median over the boots of each boot's quantile: one stall, or one boot
  /// that came up slow, moves one boot's figure, not the reported one.
  static double groupQuantile(const std::vector<LatencyHistogram>& gs,
                              double q) {
    std::vector<double> v;
    for (const auto& g : gs)
      if (g.count() != 0) v.push_back(quantile(g, q));
    return medianOf(v);
  }
};

/// `slices` run-wide window slices, `bootSlices` of them per boot.
WindowTotals windowTotals(const std::vector<const SessionLog*>& logs,
                          int slices, int bootSlices) {
  WindowTotals t;
  t.insertGroups.resize(static_cast<std::size_t>(slices / bootSlices));
  t.queryGroups.resize(t.insertGroups.size());
  t.insertRates.assign(static_cast<std::size_t>(slices), 0.0);
  t.queryRates.assign(static_cast<std::size_t>(slices), 0.0);
  for (const SessionLog* log : logs) {
    for (const Slice& s : log->slices) {
      if (s.index < 0 || s.index >= slices) continue;
      const auto g = static_cast<std::size_t>(s.index / bootSlices);
      t.insertLat.merge(s.insertLat);
      t.queryLat.merge(s.queryLat);
      t.insertGroups[g].merge(s.insertLat);
      t.queryGroups[g].merge(s.queryLat);
      t.sent += s.insertsSent + s.queriesSent;
      t.insertsAcked += s.insertsAcked;
      t.queriesAnswered += s.queriesAnswered;
      t.shards += s.shardsSearched;
      t.retries += s.retries;
      const auto i = static_cast<std::size_t>(s.index);
      t.insertRates[i] += static_cast<double>(s.insertsAcked) / s.seconds();
      t.queryRates[i] += static_cast<double>(s.queriesAnswered) / s.seconds();
      const double ops = static_cast<double>(s.insertsSent + s.queriesSent);
      if (s.traced) {
        t.tracedOps += ops;
        t.tracedSeconds += s.seconds();
        t.blockedNanos += s.blockedNanos;
      } else {
        t.plainOps += ops;
        t.plainSeconds += s.seconds();
      }
    }
  }
  return t;
}

/// Whole-run accounting of one session (warmup, window and drain).
struct RunTotals {
  std::uint64_t insertsSent = 0, insertsAcked = 0, insertsExpired = 0;
  std::uint64_t queriesSent = 0, queriesAnswered = 0, queriesExpired = 0;
  std::uint64_t refused() const {
    return (insertsSent - insertsAcked - insertsExpired) +
           (queriesSent - queriesAnswered - queriesExpired);
  }
};

RunTotals runTotals(const SessionLog& log) {
  RunTotals r;
  for (const Slice& s : log.slices) {
    r.insertsSent += s.insertsSent;
    r.insertsAcked += s.insertsAcked;
    r.insertsExpired += s.insertsExpired;
    r.queriesSent += s.queriesSent;
    r.queriesAnswered += s.queriesAnswered;
    r.queriesExpired += s.queriesExpired;
  }
  return r;
}

std::string samples(std::uint64_t n) {
  return "n=" + std::to_string(n) + (n < 1000 ? " (p99 has <10 beyond)" : "");
}

// -------------------------------------------------------------- the gate --

/// Query until a complete (non-partial) answer arrives or attempts run out.
QueryReply completeAnswer(Client& c, const QueryBox& q) {
  QueryReply r;
  for (int attempt = 0; attempt < 10; ++attempt) {
    r = c.query(q);
    if (!r.partial) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  return r;
}

std::string describe(const Aggregate& a) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "count=%llu sum=%.17g min=%g max=%g",
                static_cast<unsigned long long>(a.count), a.sum, a.min, a.max);
  return buf;
}

/// Check every server's answers: the whole database, and a fixed sample
/// of binned queries from each band. Exact when no insert expired or was
/// refused; otherwise each count must lie within [oracle - lost, oracle].
bool correctnessGate(volap::VolapCluster& c, const Schema& schema,
                     const Inputs& in, const std::vector<SentStream>& sent,
                     std::uint64_t lost, std::size_t perBand) {
  std::vector<QueryBox> checks = {QueryBox(schema)};
  for (const auto& band : in.bands)
    for (std::size_t i = 0; i < perBand && i < band.size(); ++i)
      checks.push_back(band[i]);
  std::vector<Aggregate> truth;
  for (const QueryBox& q : checks)
    truth.push_back(oracleQuery(q, in.preload, sent));

  bool ok = true;
  for (unsigned s = 0; s < c.serverCount(); ++s) {
    auto client = c.makeClient("check" + std::to_string(s),
                               static_cast<int>(s));
    for (std::size_t k = 0; k < checks.size(); ++k) {
      const QueryReply r = completeAnswer(*client, checks[k]);
      const Aggregate& want = truth[k];
      bool good;
      if (r.partial) {
        good = false;
      } else if (lost == 0) {
        good = r.agg == want;
      } else {
        good = r.agg.count <= want.count && r.agg.count + lost >= want.count;
      }
      if (!good) {
        ok = false;
        std::fprintf(stderr,
                     "GATE FAIL server %u check %zu%s: got %s%s, want %s\n", s,
                     k, k == 0 ? " (whole database)" : "",
                     describe(r.agg).c_str(), r.partial ? " (partial)" : "",
                     describe(want).c_str());
      }
    }
  }
  return ok;
}

// ------------------------------------------------------------------ run --

int run(const Args& args) {
  const WorkloadSpec& spec = *findWorkload(args.workload);
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "volapbench: refusing to measure an unoptimized build (build "
               "type %s); rebuild as Release\n",
               VOLAPBENCH_BUILD_TYPE);
  return 2;
#endif
  const unsigned genThreads = kLoaders + 1 + (args.trace ? 1 : 0);
  std::printf(
      "# conditions: {\"workload\": \"%s\", \"seed\": %llu, \"window_s\": %u, "
      "\"warmup_s\": %g, \"slice_s\": %g, \"trace\": %d, "
      "\"hardware_threads\": %u, \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\", \"generator_threads\": %u, \"loader_sessions\": "
      "%u, \"loader_window\": %u, \"boots\": %u}\n",
      spec.name, static_cast<unsigned long long>(args.seed), args.seconds,
      kWarmupSeconds, kSliceSeconds, args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), VOLAPBENCH_BUILD_TYPE,
      args.gitSha.c_str(), genThreads, kLoaders,
      kLoaderWindow, kBoots);

  const Schema schema = Schema::tpcds();
  const InputSizes sizes;
  std::uint64_t t = nowNanos();
  const Inputs in = makeInputs(schema, args.seed, kLoaders, sizes);
  std::printf("# inputs: %zu preload, %zu+%zu loader pool, %zu probe pool, "
              "bands %zu/%zu/%zu queries, generated in %.2f s\n",
              in.preload.size(), in.loaderPools[0].size(),
              in.loaderPools[1].size(), in.probePool.size(),
              in.bands[0].size(), in.bands[1].size(), in.bands[2].size(),
              seconds(nowNanos() - t));

  // Boot kBoots clusters one after another, each set up from scratch, and
  // run an equal share of the window on each. The run then samples several
  // boots, and each metric pools or takes the median over all of them.
  // Memory is measured from just before the last boot, which stays up for
  // the correctness gate (and, in a traced run, the registry sweeps and the
  // inbox sampler).
  const int bootSlices = std::max(
      1, static_cast<int>(std::lround(args.seconds / kSliceSeconds / kBoots)));
  const int slices = bootSlices * static_cast<int>(kBoots);
  std::vector<std::unique_ptr<SpanLog>> spanLogs;
  for (unsigned i = 0; i < kLoaders + 3; ++i)
    spanLogs.push_back(std::make_unique<SpanLog>(i));
  SpanLog& mainSpans = *spanLogs[0];
  SpanLog* traceLog = args.trace ? &mainSpans : nullptr;
  static const char* const kLoaderNames[] = {"loader0.slice", "loader1.slice"};

  std::vector<double> setupTimes, bulkRates;
  std::vector<SessionLog> loaderLogs, probeLogs;  // every boot's
  Boot b;
  std::vector<std::unique_ptr<Client>> loaders;
  std::unique_ptr<Client> probe;
  std::unique_ptr<DepthSampler> sampler;
  Timeline tl;
  Sweep atStart, atEnd;
  std::uint64_t rssBefore = 0, heapBefore = 0;
  std::uint64_t failed = 0, lostInserts = 0, itemsHeld = in.preload.size();
  std::uint64_t lastAttempted = 0;
  std::vector<SentStream> sent;  // the last boot's, for the oracle
  for (unsigned k = 0; k < kBoots; ++k) {
    const bool last = k + 1 == kBoots;
    loaders.clear();
    probe.reset();
    b.cluster.reset();
    if (last) {
      malloc_trim(0);
      rssBefore = rssBytes();
      heapBefore = liveHeapBytes();
    }
    b = boot(schema, in);
    setupTimes.push_back(b.setupSeconds);
    bulkRates.insert(bulkRates.end(), b.chunkRates.begin(), b.chunkRates.end());
    volap::VolapCluster& cluster = *b.cluster;
    std::string loads;
    for (std::uint64_t v : cluster.workerLoads())
      loads += (loads.empty() ? "" : "/") + std::to_string(v);
    std::printf("# boot %u: setup %s s; settled=%s; items per worker %s\n", k,
                num(b.setupSeconds).c_str(),
                b.settled ? "yes" : "no (limit reached)", loads.c_str());

    // Sessions and this boot's timeline. Op choices differ per boot.
    const std::uint64_t opSeed = (args.seed * 7919 + k) * 16;
    std::vector<std::unique_ptr<OpSource>> sources;
    for (unsigned l = 0; l < kLoaders; ++l) {
      loaders.push_back(cluster.makeClient(
          "loader" + std::to_string(l),
          static_cast<int>(l % cluster.serverCount()), kLoaderWindow));
      sources.push_back(std::make_unique<OpSource>(spec, in, in.loaderPools[l],
                                                   opSeed + l + 1));
    }
    probe = cluster.makeClient("probe", 0, 1);
    OpSource probeOps(spec, in, in.probePool, opSeed + 15);

    tl = Timeline{};
    tl.sliceNanos = static_cast<std::uint64_t>(kSliceSeconds * 1e9);
    tl.slices = bootSlices;
    tl.traced = args.trace;
    tl.windowStart =
        nowNanos() + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);

    std::vector<SessionLog> bootLogs(kLoaders + 1);  // loaders, then probe
    std::vector<std::thread> threads;
    for (unsigned l = 0; l < kLoaders; ++l)
      threads.emplace_back([&, l] {
        bootLogs[l] = runSession(*loaders[l], *sources[l], tl, false,
                                 spanLogs[1 + l].get(), kLoaderNames[l]);
      });
    threads.emplace_back([&] {
      bootLogs[kLoaders] = runSession(*probe, probeOps, tl, true,
                                      spanLogs[1 + kLoaders].get(),
                                      "probe.slice");
    });
    const bool ledger = args.trace && last;
    if (ledger) {
      sampler = std::make_unique<DepthSampler>(cluster, tl);
      threads.emplace_back([&] { sampler->run(*spanLogs[2 + kLoaders]); });
    }

    sleepUntil(tl.windowStart);
    if (ledger) atStart = sweep(cluster, traceLog);
    sleepUntil(tl.windowEnd());
    if (ledger) atEnd = sweep(cluster, traceLog);
    for (auto& th : threads) th.join();

    // Accounting, then this boot's window slices move onto the run-wide
    // timeline: boot k holds slices [k * bootSlices, (k + 1) * bootSlices).
    std::uint64_t bootAttempted = 0;
    if (last) sent.clear();
    for (unsigned l = 0; l <= kLoaders; ++l) {
      SessionLog& log = bootLogs[l];
      const RunTotals r = runTotals(log);
      failed += r.refused();
      for (Slice& s : log.slices) {
        if (s.index >= 0) failed += s.failures();  // window and drain
        if (s.index >= 0 && s.index < bootSlices) {
          bootAttempted += s.insertsSent + s.queriesSent;
          s.index += static_cast<int>(k) * bootSlices;
        } else if (s.index >= bootSlices) {
          s.index = -2;  // drain
        }
      }
      if (last) {
        lostInserts += r.insertsSent - r.insertsAcked;
        itemsHeld += r.insertsAcked;
        sent.push_back({l < kLoaders ? &in.loaderPools[l] : &in.probePool,
                        log.itemsSent});
      }
      (l < kLoaders ? loaderLogs : probeLogs).push_back(std::move(log));
    }
    if (last) lastAttempted = bootAttempted;
  }
  volap::VolapCluster& cluster = *b.cluster;

  std::vector<const SessionLog*> loaderPtrs, probePtrs;
  for (const auto& l : loaderLogs) loaderPtrs.push_back(&l);
  for (const auto& l : probeLogs) probePtrs.push_back(&l);
  const WindowTotals lw = windowTotals(loaderPtrs, slices, bootSlices);
  const WindowTotals pw = windowTotals(probePtrs, slices, bootSlices);
  const std::uint64_t attempted = lw.sent + pw.sent;

  // Correctness gate: drain (done by the sessions), wait one server sync
  // interval so every server's image covers every shard's growth, check.
  // Memory is sampled during that wait, once the sessions have drained:
  // the heap then holds the database, its replicas and the durable state.
  const ClusterOptions defaults = clusterOptions();
  const std::uint64_t gateAt =
      nowNanos() + defaults.server.syncIntervalNanos + 500'000'000;
  std::vector<double> perItem, rssPerItem;
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const auto grown = [&](std::uint64_t now, std::uint64_t before) {
      return static_cast<double>(now > before ? now - before : 0) /
             static_cast<double>(itemsHeld);
    };
    perItem.push_back(grown(liveHeapBytes(), heapBefore));
    rssPerItem.push_back(grown(rssBytes(), rssBefore));
  }
  sleepUntil(gateAt);
  t = nowNanos();
  const bool correct = correctnessGate(cluster, schema, in, sent, lostInserts,
                                       sizes.checkQueriesPerBand);
  if (traceLog != nullptr) traceLog->add("gate", t, nowNanos());
  std::printf("# gate: %s (%s inserts lost to expiry/refusal), %.2f s\n",
              correct ? "pass" : "FAIL", std::to_string(lostInserts).c_str(),
              seconds(nowNanos() - t));

  const double windowSeconds = seconds(tl.windowEnd() - tl.windowStart);
  const double failedFrac =
      static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted));
  // The bounded end-to-end metrics (BENCHMARK.json), then the ones printed
  // beside them without a bound: tails and the failure share.
  const std::vector<Metric> e2e = {
      {"setup_s", medianOf(setupTimes), "s",
       "median of " + std::to_string(setupTimes.size()) + " setups"},
      {"bulk_items_per_s", medianOf(bulkRates), "items/s",
       "median of " + std::to_string(bulkRates.size()) + " bulkLoad calls"},
      {"inserts_per_s", lw.insertsPerSecond(), "ops/s",
       "acked=" + std::to_string(lw.insertsAcked)},
      {"queries_per_s", lw.queriesPerSecond(), "ops/s",
       "answered=" + std::to_string(lw.queriesAnswered)},
      {"insert_p50_ms", ms(quantile(lw.insertLat, 0.5)), "ms",
       samples(lw.insertLat.count())},
      {"query_p50_ms", ms(quantile(lw.queryLat, 0.5)), "ms",
       samples(lw.queryLat.count())},
      {"probe_insert_p50_ms", ms(quantile(pw.insertLat, 0.5)), "ms",
       samples(pw.insertLat.count())},
      {"probe_query_p50_ms", ms(quantile(pw.queryLat, 0.5)), "ms",
       samples(pw.queryLat.count())},
      {"mem_bytes_per_item", medianOf(perItem), "bytes",
       "live heap, median of " + std::to_string(perItem.size()) +
           " samples; items held=" + std::to_string(itemsHeld) +
           "; RSS growth " + num(medianOf(rssPerItem)) + " bytes/item"},
  };
  const Metric failedMetric{"failed_frac", failedFrac, "fraction",
                            std::to_string(failed) + " of " +
                                std::to_string(attempted) + " ops"};
  const std::vector<Metric> unbounded = {
      {"insert_p99_ms", ms(WindowTotals::groupQuantile(lw.insertGroups, 0.99)),
       "ms", samples(lw.insertLat.count())},
      {"query_p99_ms", ms(WindowTotals::groupQuantile(lw.queryGroups, 0.99)),
       "ms", samples(lw.queryLat.count())},
      {"probe_insert_p99_ms", ms(quantile(pw.insertLat, 0.99)), "ms",
       samples(pw.insertLat.count())},
      {"probe_query_p99_ms", ms(quantile(pw.queryLat, 0.99)), "ms",
       samples(pw.queryLat.count())},
      failedMetric,
  };
  std::printf("# window: %u boots x %.2f s; loader ops %llu, probe ops %llu\n",
              kBoots, windowSeconds, static_cast<unsigned long long>(lw.sent),
              static_cast<unsigned long long>(pw.sent));
  // Each boot's own median slice rates, to show how far boots differ.
  for (unsigned k = 0; k < kBoots; ++k) {
    const auto of = [&](const std::vector<double>& rates) {
      const auto from = rates.begin() + static_cast<long>(k) * bootSlices;
      return medianOf(std::vector<double>(from, from + bootSlices));
    };
    std::printf("# boot %u: %.0f inserts/s, %.0f queries/s\n", k,
                of(lw.insertRates), of(lw.queryRates));
  }
  printTable(args.trace ? "end-to-end (traced run; not of record)"
                        : "end-to-end",
             e2e);
  printTable("end-to-end, printed without a bound", unbounded);

  if (!args.trace) {
    printResult(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
  }

  // ---- Per-layer ledger (traced run) ----
  const auto d = [&](const char* n) { return histDelta(atStart, atEnd, n); };
  const auto dc = [&](const char* n) {
    return static_cast<double>(atEnd.counter(n) - atStart.counter(n));
  };
  const LatencyHistogram laneDwell =
      mergedServerHist(cluster, "trace.ingest.lane_dwell_ns");
  const LatencyHistogram scanHist =
      mergedWorkerHist(cluster, "worker.query_scan_ns");
  const LatencyHistogram replLag = mergedWorkerHist(cluster, "repl.lag_ns");
  const double workerThreads =
      static_cast<double>(defaults.worker.threads * cluster.workerCount());
  const double netSent = dc("net.sent");

  // Tear the cluster down before the replays so they run on a quiet box.
  loaders.clear();
  probe.reset();
  b.cluster.reset();

  const HistDelta route = d("trace.ingest.route_ns"),
                  dwell = d("trace.ingest.lane_dwell_ns"),
                  wal = d("trace.ingest.wal_ns"),
                  apply = d("trace.ingest.apply_ns"),
                  repl = d("trace.ingest.repl_ns"),
                  total = d("trace.ingest.total_ns"),
                  qTotal = d("trace.query.total_ns"),
                  qScan = d("trace.query.scan_ns"),
                  wWal = d("worker.wal_append_ns"),
                  wApply = d("worker.batch_apply_ns"),
                  wScan = d("worker.query_scan_ns");
  const double batchItems =
      dc("server.coalesce.items") / std::max(1.0, dc("server.coalesce.batches"));

  t = nowNanos();
  const Replays rp = runReplays(schema, in,
                                static_cast<std::size_t>(std::lround(batchItems)),
                                mainSpans);
  std::printf("# replays: %.2f s\n", seconds(nowNanos() - t));
  double mixReplayNs = 0;
  for (CoverageBand band : spec.bands)
    mixReplayNs += rp.queryMeanNs[static_cast<int>(band)];
  mixReplayNs /= static_cast<double>(spec.bands.size());

  const auto mean = [](const char* name, const HistDelta& h) -> Metric {
    return {name, h.mean, "ns",
            h.count < 10 ? "n/a: " + std::to_string(h.count) +
                               " samples in the window"
                         : "n=" + std::to_string(h.count)};
  };
  const auto pct = [](const char* name, const LatencyHistogram& h) -> Metric {
    return {name, quantile(h, 0.99), "ns",
            h.count() < 1000
                ? "n/a: " + std::to_string(h.count()) +
                      " samples since boot, p99 needs 1000"
                : "since boot, n=" + std::to_string(h.count())};
  };
  const double rateTraced = lw.tracedOps / std::max(1e-9, lw.tracedSeconds);
  const double ratePlain = lw.plainOps / std::max(1e-9, lw.plainSeconds);
  const double windowNs = windowSeconds * 1e9;

  std::vector<Metric> layer = {
      {"client.blocked_frac",
       static_cast<double>(lw.blockedNanos) / (lw.tracedSeconds * 1e9),
       "fraction", "loader time inside Client calls"},
      {"client.retries", static_cast<double>(lw.retries + pw.retries), "count",
       ""},
      {"client.shards_per_query",
       static_cast<double>(lw.shards) /
           std::max<double>(1, static_cast<double>(lw.queriesAnswered)),
       "shards", ""},
      mean("server.route_ns.mean", route),
      {"server.snapshot_hit_ratio",
       dc("server.snapshot_hits") /
           std::max(1.0, dc("server.snapshot_hits") +
                             dc("server.snapshot_misses")),
       "fraction", ""},
      {"server.items_per_batch", batchItems, "items",
       "batches=" + num(dc("server.coalesce.batches"))},
      mean("server.lane_dwell_ns.mean", dwell),
      pct("server.lane_dwell_ns.p99", laneDwell),
      {"server.throttled", dc("server.coalesce.throttled"), "count", ""},
      {"server.query_wait_ns.mean", qTotal.mean - qScan.mean, "ns",
       qTotal.count < 10 ? "n/a: too few traced queries"
                         : "n=" + std::to_string(qTotal.count)},
      {"server.partial_queries", dc("server.partial_queries"), "count", ""},
      {"server.chases", dc("server.chases"), "count", ""},
      {"server.worker_retries", dc("server.worker_retries"), "count", ""},
      {"net.msgs_per_op",
       netSent / std::max<double>(1, static_cast<double>(lastAttempted)),
       "msgs/op", ""},
      {"net.inbox_depth.worker.mean", sampler->workerDepth().meanNanos(),
       "msgs", "samples=" + std::to_string(sampler->samples())},
      {"net.inbox_depth.worker.p99",
       quantile(sampler->workerDepth(), 0.99), "msgs",
       ""},
      {"net.inbox_depth.server.mean", sampler->serverDepth().meanNanos(),
       "msgs", ""},
      {"net.handoff_ns.p50", rp.handoffNsP50, "ns", "replay"},
      mean("worker.wal_append_ns.mean", wWal),
      mean("worker.batch_apply_ns.mean", wApply),
      {"worker.ingest_busy_frac",
       (static_cast<double>(wWal.count) * wWal.mean +
        static_cast<double>(wApply.count) * wApply.mean) /
           (windowNs * workerThreads),
       "fraction", ""},
      mean("worker.query_scan_ns.mean", wScan),
      pct("worker.query_scan_ns.p99", scanHist),
      {"worker.scan_busy_frac",
       static_cast<double>(wScan.count) * wScan.mean /
           (windowNs * workerThreads),
       "fraction", ""},
      mean("repl.ingest_ns.mean", repl),
      pct("repl.lag_ns.p99", replLag),
      {"trace.ingest.residual_ns.mean",
       total.mean - (route.mean + dwell.mean + wal.mean + apply.mean + repl.mean),
       "ns",
       total.count < 10 ? "n/a: too few traced inserts"
                        : "n=" + std::to_string(total.count)},
      {"tree.query_ns.low", rp.queryNs[0], "ns", "replay"},
      {"tree.query_ns.medium", rp.queryNs[1], "ns", "replay"},
      {"tree.query_ns.high", rp.queryNs[2], "ns", "replay"},
      {"worker.scan_wait_ratio", wScan.mean / std::max(1.0, mixReplayNs),
       "ratio", "in-cluster scan mean / replay mean over the mix"},
      {"tree.bulk_insert_ns_per_item", rp.bulkInsertNsPerItem, "ns", "replay"},
      {"wal.append_group_ns", rp.walAppendGroupNs, "ns", "replay"},
      {"hilbert.index_ns", rp.hilbertIndexNs, "ns", "replay"},
      {"manager.splits", dc("manager.splits"), "count", ""},
      {"manager.migrations", dc("manager.migrations"), "count", ""},
      {"failed_frac", failedFrac, "fraction", failedMetric.note},
      {"traced.inserts_per_s", lw.insertsPerSecond(), "ops/s", ""},
      {"traced.queries_per_s", lw.queriesPerSecond(), "ops/s", ""},
      {"trace.overhead_frac", 1.0 - rateTraced / std::max(1e-9, ratePlain),
       "fraction",
       "loader ops/s traced " + num(rateTraced) + " vs untraced " +
           num(ratePlain)},
  };
  printTable("per-layer ledger", layer);

  std::vector<const SpanLog*> logs;
  std::uint64_t spanCount = 0, spansDropped = 0;
  for (const auto& l : spanLogs) {
    logs.push_back(l.get());
    spanCount += l->spans().size();
    spansDropped += l->dropped();
  }
  const std::string path =
      args.spansDir + "/spans-" + std::string(spec.name) + ".csv";
  if (writeSpans(path, logs))
    std::printf("# spans: %llu written to %s (%llu dropped at the cap)\n",
                static_cast<unsigned long long>(spanCount), path.c_str(),
                static_cast<unsigned long long>(spansDropped));
  else
    std::fprintf(stderr, "volapbench: could not write %s\n", path.c_str());

  printResult(correct, attempted, failed, layer);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace volapbench

int main(int argc, char** argv) {
  try {
    return volapbench::run(volapbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volapbench: %s\n", e.what());
    return 3;
  }
}
