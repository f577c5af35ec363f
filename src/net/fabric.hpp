// In-process message fabric standing in for ZeroMQ (paper SIII-B). Every
// node (server, worker, manager, keeper, client) binds a named endpoint and
// owns an inbox; send() routes a message to the destination inbox, applying
// an optional latency / jitter / drop model so that staleness and failure
// behaviour of the real network can be reproduced deterministically.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/mpmc_queue.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/trace.hpp"

namespace volap {

/// Immutable, reference-counted message payload. A payload is typically
/// born once (encode) and then referenced from several places at the same
/// time — the in-flight message, the sender's retransmission entry, and
/// (in-process) the receiver's copy of the message. Sharing one allocation
/// removes a full byte copy per retry entry and per retransmission, which
/// matters on the ingest hot path where coalesced batches run to megabytes.
/// Converts implicitly to `const Blob&` so decode helpers taking a Blob
/// keep working; it is also a contiguous range, so `ByteReader r(payload)`
/// works unchanged.
class SharedBlob {
 public:
  SharedBlob() = default;
  SharedBlob(Blob b) : blob_(std::make_shared<const Blob>(std::move(b))) {}
  SharedBlob(std::initializer_list<std::uint8_t> init)
      : blob_(std::make_shared<const Blob>(init)) {}
  explicit SharedBlob(std::shared_ptr<const Blob> b) : blob_(std::move(b)) {}

  operator const Blob&() const { return ref(); }
  const Blob& ref() const {
    static const Blob kEmpty;
    return blob_ ? *blob_ : kEmpty;
  }

  const std::uint8_t* data() const { return ref().data(); }
  std::size_t size() const { return blob_ ? blob_->size() : 0; }
  bool empty() const { return size() == 0; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size(); }

  friend bool operator==(const SharedBlob& a, const Blob& b) {
    return a.ref() == b;
  }
  friend bool operator==(const Blob& a, const SharedBlob& b) {
    return a == b.ref();
  }
  friend bool operator==(const SharedBlob& a, const SharedBlob& b) {
    return a.ref() == b.ref();
  }

 private:
  std::shared_ptr<const Blob> blob_;
};

struct Message {
  std::uint16_t type = 0;  // protocol-defined opcode
  std::uint64_t corr = 0;  // correlation id for request/reply matching
  std::string from;        // sender endpoint, used for replies
  SharedBlob payload;      // immutable, shared with any retry entry

  // Per-hop tracing (sampled). traceId == 0 means untraced — the hop
  // vector stays empty, so untraced messages pay only an empty-vector
  // member. Each node the message passes through appends its hops; acks
  // echo the accumulated hops back so the requester can assemble the
  // full path.
  std::uint64_t traceId = 0;
  std::vector<TraceHop> hops;

  bool traced() const { return traceId != 0; }
  void hop(TraceStage stage, std::uint64_t nanos) {
    hops.push_back({static_cast<std::uint16_t>(stage), nanos});
  }
};

/// A node's inbox. recv() blocks; close() releases all blocked receivers.
class Mailbox {
 public:
  explicit Mailbox(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  std::optional<Message> recv() { return queue_.pop(); }

  template <typename Rep, typename Period>
  std::optional<Message> recvFor(std::chrono::duration<Rep, Period> timeout) {
    return queue_.popFor(timeout);
  }

  std::optional<Message> tryRecv() { return queue_.tryPop(); }

  void close() { queue_.close(); }
  bool closed() const { return queue_.closed(); }
  std::size_t pending() const { return queue_.size(); }

 private:
  friend class Fabric;
  std::string name_;
  MpmcQueue<Message> queue_;
};

struct FabricOptions {
  /// Mean one-way delivery latency; 0 delivers synchronously.
  std::uint64_t latencyMeanNanos = 0;
  /// Uniform jitter added to the mean: U(0, jitter).
  std::uint64_t latencyJitterNanos = 0;
  /// Probability a message is silently dropped (failure injection).
  double dropRate = 0;
  std::uint64_t seed = 1;
};

/// Targeted failure injection: drop messages whose sender/destination match
/// the given endpoint prefixes (empty prefix matches everything). Lets chaos
/// tests sever one direction of one link — e.g. every worker->server reply —
/// while the rest of the cluster stays healthy.
struct FaultRule {
  std::string fromPrefix;
  std::string toPrefix;
  double dropRate = 1.0;
};

class Fabric {
 public:
  explicit Fabric(FabricOptions opts = FabricOptions());
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Create (or fetch) the endpoint `name` and return its mailbox.
  std::shared_ptr<Mailbox> bind(const std::string& name);

  /// Remove an endpoint; subsequent sends to it fail. Delayed messages
  /// already in flight toward it are dropped, never delivered to a later
  /// endpoint reusing the name (they target the old mailbox incarnation).
  void unbind(const std::string& name);

  /// Hard-crash a node: unbind `name` and every endpoint under `name + "/"`
  /// (e.g. "worker/3" also takes out "worker/3/zk", but never "worker/30").
  /// Mimics a process death as seen from the network — every inbox the node
  /// owns vanishes at once, mid-conversation. Nothing sent in the node's
  /// name is delivered from then on: a dead process sends nothing, even
  /// while threads of its node object are still winding down.
  void crash(const std::string& name);

  /// Deliver `m` to endpoint `to`. Returns false if the endpoint does not
  /// exist or is closed (the distributed-system analogue of ECONNREFUSED),
  /// or if `m.from` belongs to a crashed node; messages eaten by the drop
  /// model still return true, like UDP.
  bool send(const std::string& to, Message m);

  std::uint64_t sentCount() const { return sent_.value(); }
  std::uint64_t droppedCount() const { return dropped_.value(); }

  /// Transport-level registry (`net.*` counters); FaultPlan also records
  /// its `chaos.*` counters here so one scrape shows workload and injected
  /// faults side by side.
  MetricsRegistry& metrics() { return metrics_; }

  /// Dynamically adjust the failure model (tests flip this mid-run).
  void setDropRate(double rate);

  void addFaultRule(FaultRule rule);
  void clearFaultRules();

 private:
  struct Delayed {
    std::uint64_t dueNanos;
    std::uint64_t seq;  // FIFO tie-break for equal due times
    std::shared_ptr<Mailbox> to;
    Message msg;
    bool operator>(const Delayed& o) const {
      if (dueNanos != o.dueNanos) return dueNanos > o.dueNanos;
      return seq > o.seq;
    }
  };

  /// Returns true if the fault model eats the message; sets `delayNanos`.
  bool faulted(const Message& m, const std::string& to,
               std::uint64_t& delayNanos);
  void delayLoop();

  FabricOptions opts_;

  // Endpoint map lock. The fault model runs under its own lock (faultMu_)
  // so concurrent senders do not serialize on mu_ just to roll the RNG.
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Mailbox>> endpoints_;
  std::vector<std::string> crashed_;  // node names passed to crash()

  std::mutex faultMu_;
  Rng rng_;
  std::vector<FaultRule> rules_;
  MetricsRegistry metrics_;
  Counter& sent_;
  Counter& dropped_;
  std::atomic<double> dropRate_;

  // Delayed-delivery machinery, started lazily when latency > 0.
  std::mutex delayMu_;
  std::condition_variable delayCv_;
  std::vector<Delayed> delayHeap_;
  std::uint64_t delaySeq_ = 0;
  std::thread delayThread_;
  bool delayStop_ = false;
};

}  // namespace volap
