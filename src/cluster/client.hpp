// Client session (paper SIII-A: "each user session is attached to one of
// the server nodes"). Supports synchronous calls and a pipelined
// asynchronous mode with a bounded window, which is how the throughput
// experiments drive the system (many requests in flight per session).
//
// Every request carries a retry budget: on timeout the client retransmits
// with the SAME correlation id (the server deduplicates and replays the
// original reply), and when the budget is exhausted the request expires —
// the session degrades instead of blocking forever on a lost message.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "cluster/protocol.hpp"
#include "common/histogram.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"

namespace volap {

class Client {
 public:
  Client(Fabric& fabric, std::string name, std::string serverEp,
         unsigned maxOutstanding = 64, RetryPolicy retry = RetryPolicy{});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  const std::string& serverEndpointName() const { return serverEp_; }

  /// Sample every Nth insert/query into a distributed trace (0 = off).
  /// The sampled request carries a trace id + kClientSend stamp; servers
  /// and workers append their own hop stamps as it travels (see
  /// common/trace.hpp). Retransmissions never carry the trace — a trace
  /// follows the first attempt only, so hop deltas stay meaningful.
  void setTraceSampling(unsigned everyN) { traceEveryN_ = everyN; }
  std::uint64_t tracesStarted() const { return tracesStarted_; }

  /// Pipelined insert: blocks only when the window is full.
  void insertAsync(PointRef p);

  /// Pipelined aggregate query; the result is folded into the stats below.
  void queryAsync(const QueryBox& q);

  /// Synchronous insert (await the ack; measures full path latency).
  void insert(PointRef p);

  /// Synchronous aggregate query. A reply with `partial == true` means the
  /// retry budget ran out somewhere: either some shards stayed unreachable
  /// server-side, or (with an empty aggregate) this client gave up waiting.
  QueryReply query(const QueryBox& q);

  /// Synchronous bulk ingestion of a batch.
  std::uint64_t bulkLoad(const PointSet& items);

  /// Wait for every outstanding async operation (bounded by the retry
  /// budget: expired requests are abandoned, never waited on forever).
  void drain();

  const LatencyHistogram& insertLatency() const { return insertLat_; }
  const LatencyHistogram& queryLatency() const { return queryLat_; }
  std::uint64_t insertsAcked() const { return insertsAcked_; }
  std::uint64_t queriesAnswered() const { return queriesAnswered_; }
  std::uint64_t shardsSearchedTotal() const { return shardsSearched_; }
  const Aggregate& lastQueryResult() const { return lastAgg_; }

  // Fault-tolerance counters.
  std::uint64_t retriesSent() const { return retries_; }
  std::uint64_t insertsExpired() const { return insertsExpired_; }
  std::uint64_t queriesExpired() const { return queriesExpired_; }
  std::uint64_t partialReplies() const { return partialReplies_; }
  std::size_t outstanding() const { return outstanding_.size(); }

  void resetStats() {
    insertLat_.reset();
    queryLat_.reset();
    insertsAcked_ = 0;
    queriesAnswered_ = 0;
    shardsSearched_ = 0;
    retries_ = 0;
    insertsExpired_ = 0;
    queriesExpired_ = 0;
    partialReplies_ = 0;
  }

 private:
  struct Outstanding {
    Op op;
    std::uint64_t startedNanos;
    /// Shared with the in-flight message and every retransmission: one
    /// immutable allocation instead of a copy per send.
    SharedBlob payload;
    unsigned attempts = 1;
    std::uint64_t dueNanos = 0;
  };

  /// Process replies until the window shrinks below `target` (or a specific
  /// correlation id completes when `waitCorr` != 0). Returns false if the
  /// fabric shut down or the waited-on request expired its retry budget.
  bool pump(std::size_t target, std::uint64_t waitCorr, Message* out);
  /// Retransmit overdue requests; expire those out of budget. Returns false
  /// iff `waitCorr` expired.
  bool sweep(std::uint64_t waitCorr);
  std::uint64_t submit(Op op, Blob payload);
  void account(const Message& m, const Outstanding& o);

  Fabric& fabric_;
  std::string serverEp_;
  std::shared_ptr<Mailbox> inbox_;
  unsigned maxOutstanding_;
  RetryPolicy retry_;
  Rng rng_;
  std::uint64_t nextCorr_ = 1;
  unsigned traceEveryN_ = 0;
  std::uint64_t insertTick_ = 0;  // per-op-type trace sampling counters
  std::uint64_t queryTick_ = 0;
  std::uint64_t nextTraceId_;  // seeded per client name, never 0
  std::uint64_t tracesStarted_ = 0;
  std::unordered_map<std::uint64_t, Outstanding> outstanding_;
  /// Earliest retry deadline across outstanding_ — min-updated on submit,
  /// recomputed by sweep(). May go stale-low when the earliest entry
  /// completes; that only costs pump() a tryRecv pass before the next
  /// sweep() refreshes it, so pump never oversleeps a retransmission.
  std::uint64_t nextDueNanos_ = ~std::uint64_t{0};

  LatencyHistogram insertLat_;
  LatencyHistogram queryLat_;
  std::uint64_t insertsAcked_ = 0;
  std::uint64_t queriesAnswered_ = 0;
  std::uint64_t shardsSearched_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t insertsExpired_ = 0;
  std::uint64_t queriesExpired_ = 0;
  std::uint64_t partialReplies_ = 0;
  Aggregate lastAgg_;
};

}  // namespace volap
