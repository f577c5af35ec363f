// The scrapeable stats plane. Every node (server, worker, manager) answers
// the kStats RPC with a StatsReply: its endpoint name, a full
// MetricsSnapshot of its registry, and its slowest traces. scrapeStats()
// binds an ephemeral mailbox and pulls any set of endpoints in one sweep —
// the CLI example, the CI schema guard, and the stats-plane tests all go
// through it, so the wire format has a single consumer-side decoder.
//
// kRequiredServerMetrics / kRequiredWorkerMetrics are the schema contract:
// names a scrape of a healthy node must contain. The CI leg fails if any
// goes missing (schema drift guard), so renaming a metric means updating
// the lists — deliberately, in the same commit.
#pragma once

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "cluster/protocol.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "net/fabric.hpp"

namespace volap {

/// kStatsReply payload.
struct StatsReply {
  std::string node;  // endpoint name of the answering node
  MetricsSnapshot snapshot;
  std::vector<Trace> slowTraces;  // slowest-first

  Blob encode() const {
    ByteWriter w;
    w.str(node);
    snapshot.serialize(w);
    w.varint(slowTraces.size());
    for (const auto& t : slowTraces) t.serialize(w);
    return w.take();
  }
  static StatsReply decode(const Blob& b) {
    ByteReader r(b);
    StatsReply m;
    m.node = r.str();
    m.snapshot = MetricsSnapshot::deserialize(r);
    const auto n = r.varint();
    m.slowTraces.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
      m.slowTraces.push_back(Trace::deserialize(r));
    return m;
  }
};

/// Metric names every healthy server must report. "h:" prefix marks a
/// histogram (checked by name presence, not count); everything else is a
/// counter or gauge.
inline const std::vector<std::string>& requiredServerMetrics() {
  static const std::vector<std::string> kNames = {
      "server.inserts_routed",
      "server.queries_routed",
      "server.snapshot_hits",
      "server.snapshot_misses",
      "server.coalesce.batches",
      "server.coalesce.items",
      "server.worker_retries",
      "server.partial_queries",
      "server.stale_epoch_acks",
      "server.pending_coalesced",
      "server.pending_queries",
      "server.retry_entries",
      "server.coalesce.buffered",
      "h:trace.ingest.repl_ns",
      "h:ingest.freshness_lag_ns",
      "h:trace.ingest.route_ns",
      "h:trace.ingest.lane_dwell_ns",
      "h:trace.ingest.wal_ns",
      "h:trace.ingest.apply_ns",
      "h:trace.ingest.total_ns",
      "h:trace.query.scan_ns",
      "h:trace.query.total_ns",
  };
  return kNames;
}

/// Metric names every healthy worker must report.
inline const std::vector<std::string>& requiredWorkerMetrics() {
  static const std::vector<std::string> kNames = {
      "worker.inserts_applied",
      "worker.queries_served",
      "worker.items_dropped",
      "worker.batches_rejected",
      "worker.redelivered",
      "worker.fenced_ops",
      "worker.shards_recovered",
      "worker.checkpoints",
      "worker.items_held",
      "worker.scan.leaves",
      "worker.scan.items",
      "worker.scan.summary_answers",
      "worker.shards",
      "worker.retry_entries",
      "repl.appends_forwarded",
      "repl.appends_applied",
      "repl.lag_entries",
      "h:repl.lag_ns",
      "h:worker.wal_append_ns",
      "h:worker.batch_apply_ns",
      "h:worker.query_scan_ns",
  };
  return kNames;
}

/// Metric names every healthy manager must report.
inline const std::vector<std::string>& requiredManagerMetrics() {
  static const std::vector<std::string> kNames = {
      "manager.splits",
      "manager.migrations",
      "manager.recoveries",
      "repl.promotions",
      "repl.chain_repairs",
  };
  return kNames;
}

/// Names from a required-metrics list missing in `s` (empty == compliant).
inline std::vector<std::string> missingMetrics(
    const MetricsSnapshot& s, const std::vector<std::string>& required) {
  std::vector<std::string> missing;
  for (const auto& name : required) {
    if (name.rfind("h:", 0) == 0) {
      if (!s.findHistogram(name.substr(2))) missing.push_back(name);
    } else if (!s.findCounter(name) && !s.findGauge(name)) {
      missing.push_back(name);
    }
  }
  return missing;
}

/// Pull registry snapshots from `endpoints`. Binds an ephemeral scraper
/// mailbox, fires one kStats at each endpoint, and gathers replies until
/// all have answered or `timeout` elapses — nodes that died or never
/// implemented kStats are simply absent from the result.
inline std::vector<StatsReply> scrapeStats(
    Fabric& fabric, const std::vector<std::string>& endpoints,
    std::chrono::nanoseconds timeout = std::chrono::seconds(2)) {
  static std::atomic<std::uint64_t> scrapeSeq{0};
  const std::string me =
      "scrape/" + std::to_string(scrapeSeq.fetch_add(1) + 1);
  auto inbox = fabric.bind(me);

  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    Message m;
    m.type = static_cast<std::uint16_t>(Op::kStats);
    m.corr = i + 1;
    m.from = me;
    fabric.send(endpoints[i], m);
  }

  std::vector<StatsReply> out;
  const std::uint64_t deadline =
      nowNanos() + static_cast<std::uint64_t>(timeout.count());
  while (out.size() < endpoints.size()) {
    const std::uint64_t now = nowNanos();
    if (now >= deadline) break;
    auto msg = inbox->recvFor(std::chrono::nanoseconds(deadline - now));
    if (!msg) break;
    if (msg->type != static_cast<std::uint16_t>(Op::kStatsReply)) continue;
    out.push_back(StatsReply::decode(msg->payload));
  }
  fabric.unbind(me);
  return out;
}

}  // namespace volap
