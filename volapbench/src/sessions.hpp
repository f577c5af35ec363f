// The load generator: closed-loop client sessions driven on a shared
// timeline. Two loader sessions pipeline with a fixed in-flight window
// (one per server); one probe session issues synchronous ops one at a time,
// alternating insert and query. Each session cuts its run into slices — a
// warmup slice, N equal window slices, and a drain slice — by reading its
// Client's counters and histograms at every slice edge and resetting them.
// In a traced run, every even window slice also records a span around each
// Client call; odd slices run untraced, so comparing the two gives the
// tracing overhead inside one run.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/client.hpp"
#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "inputs.hpp"
#include "spans.hpp"

namespace volapbench {

using volap::Client;
using volap::LatencyHistogram;
using volap::nowNanos;

/// Shared clock plan. Set once before the session threads start.
struct Timeline {
  std::uint64_t windowStart = 0;
  std::uint64_t sliceNanos = 0;
  int slices = 0;
  bool traced = false;

  /// -1 during warmup, 0..slices-1 inside the window, `slices` once over.
  int sliceAt(std::uint64_t t) const {
    if (t < windowStart) return -1;
    const auto i = (t - windowStart) / sliceNanos;
    return i >= static_cast<std::uint64_t>(slices) ? slices
                                                   : static_cast<int>(i);
  }
  bool tracedSlice(int i) const { return traced && i >= 0 && i % 2 == 0; }
  std::uint64_t windowEnd() const {
    return windowStart + sliceNanos * static_cast<std::uint64_t>(slices);
  }
};

/// What one session did during one slice.
struct Slice {
  int index = -1;  // -1 warmup, 0..N-1 window, N drain
  bool traced = false;
  std::uint64_t t0 = 0, t1 = 0;
  LatencyHistogram insertLat, queryLat;
  std::uint64_t insertsSent = 0, queriesSent = 0;
  std::uint64_t insertsAcked = 0, queriesAnswered = 0;
  std::uint64_t shardsSearched = 0, retries = 0;
  std::uint64_t insertsExpired = 0, queriesExpired = 0, partials = 0;
  std::uint64_t blockedNanos = 0;  // traced slices: time inside Client calls

  double seconds() const { return static_cast<double>(t1 - t0) * 1e-9; }
  std::uint64_t failures() const {
    return insertsExpired + queriesExpired + partials;
  }
};

struct SessionLog {
  std::vector<Slice> slices;  // warmup, window slices, drain (in order)
  std::uint64_t itemsSent = 0;
};

/// Move the client's counters into `s` and reset them for the next slice.
inline void closeSlice(Client& c, Slice& s, std::uint64_t now) {
  s.t1 = now;
  s.insertLat = c.insertLatency();
  s.queryLat = c.queryLatency();
  s.insertsAcked = c.insertsAcked();
  s.queriesAnswered = c.queriesAnswered();
  s.shardsSearched = c.shardsSearchedTotal();
  s.retries = c.retriesSent();
  s.insertsExpired = c.insertsExpired();
  s.queriesExpired = c.queriesExpired();
  s.partials = c.partialReplies();
  c.resetStats();
}

/// One op chooser per session: inserts from the session's pool, queries
/// from the workload's bands (band uniform, then query uniform).
class OpSource {
 public:
  OpSource(const WorkloadSpec& spec, const Inputs& in, const PointSet& pool,
           std::uint64_t seed)
      : spec_(spec), in_(in), pool_(pool), rng_(seed) {}

  bool nextIsInsert() { return rng_.below(100) < spec_.insertPct; }
  volap::PointRef nextItem() { return pool_.at(sent_++ % pool_.size()); }
  const QueryBox& nextQuery() {
    const auto band = spec_.bands[rng_.below(spec_.bands.size())];
    const auto& qs = in_.bands[static_cast<std::size_t>(band)];
    return qs[rng_.below(qs.size())];
  }
  std::uint64_t itemsSent() const { return sent_; }

 private:
  const WorkloadSpec& spec_;
  const Inputs& in_;
  const PointSet& pool_;
  volap::Rng rng_;
  std::uint64_t sent_ = 0;
};

/// Drive one session until the window ends, then drain it. `probe` selects
/// synchronous alternating ops instead of the pipelined mix.
inline SessionLog runSession(Client& c, OpSource& ops, const Timeline& tl,
                             bool probe, SpanLog* spans, const char* name) {
  SessionLog log;
  Slice cur;
  std::uint64_t sliceSpan = 0;
  std::uint64_t opSeq = 0;
  cur.t0 = nowNanos();
  cur.index = tl.sliceAt(cur.t0);
  for (;;) {
    const std::uint64_t now = nowNanos();
    const int idx = tl.sliceAt(now);
    if (idx != cur.index) {
      closeSlice(c, cur, now);
      if (spans != nullptr) spans->close(sliceSpan, now);
      log.slices.push_back(std::move(cur));
      if (idx >= tl.slices) break;
      cur = Slice{};
      cur.index = idx;
      cur.t0 = now;
      cur.traced = tl.tracedSlice(idx);
      sliceSpan = cur.traced ? spans->open(name, now) : 0;
    }
    const bool insert = probe ? (opSeq % 2 == 0) : ops.nextIsInsert();
    ++opSeq;
    const char* what;
    if (insert) {
      ++cur.insertsSent;
      if (probe) {
        c.insert(ops.nextItem());
        what = "client.insert";
      } else {
        c.insertAsync(ops.nextItem());
        what = "client.insertAsync";
      }
    } else {
      ++cur.queriesSent;
      if (probe) {
        c.query(ops.nextQuery());
        what = "client.query";
      } else {
        c.queryAsync(ops.nextQuery());
        what = "client.queryAsync";
      }
    }
    if (cur.traced) {
      const std::uint64_t end = nowNanos();
      cur.blockedNanos += end - now;
      spans->add(what, now, end, sliceSpan, opSeq);
    }
  }
  Slice drain;
  drain.index = tl.slices;
  drain.t0 = nowNanos();
  c.drain();
  closeSlice(c, drain, nowNanos());
  log.slices.push_back(std::move(drain));
  log.itemsSent = ops.itemsSent();
  return log;
}

}  // namespace volapbench
