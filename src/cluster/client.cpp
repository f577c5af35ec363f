#include "cluster/client.hpp"

#include <functional>

#include "common/clock.hpp"

namespace volap {

Client::Client(Fabric& fabric, std::string name, std::string serverEp,
               unsigned maxOutstanding, RetryPolicy retry)
    : fabric_(fabric),
      serverEp_(std::move(serverEp)),
      inbox_(fabric.bind("client/" + name)),
      maxOutstanding_(maxOutstanding == 0 ? 1 : maxOutstanding),
      retry_(retry),
      rng_(0x636c69656e74ull ^ std::hash<std::string>{}(name)),
      nextTraceId_((std::hash<std::string>{}(name) << 20) | 1) {}

std::uint64_t Client::submit(Op op, Blob payload) {
  const std::uint64_t corr = nextCorr_++;
  // Timestamp BEFORE the send: on a loaded box the scheduler can run the
  // whole server/worker round trip before send() returns.
  const std::uint64_t t0 = nowNanos();
  const SharedBlob shared(std::move(payload));
  Message msg = makeMessage(op, corr, inbox_->name(), shared);
  // One sampling counter per op type: a shared one aliases with periodic
  // op patterns (one query every N ops can land on untraced ticks only).
  std::uint64_t* tick = op == Op::kInsert  ? &insertTick_
                        : op == Op::kQuery ? &queryTick_
                                           : nullptr;
  if (traceEveryN_ != 0 && tick != nullptr &&
      (*tick)++ % traceEveryN_ == 0) {
    msg.traceId = nextTraceId_++;
    msg.hop(TraceStage::kClientSend, t0);
    ++tracesStarted_;
  }
  if (!fabric_.send(serverEp_, std::move(msg)))
    return 0;  // endpoint gone; the caller's send counts as failed
  Outstanding o{op, t0, shared, 1, t0 + retryDelayNanos(retry_, 1, rng_)};
  nextDueNanos_ = std::min(nextDueNanos_, o.dueNanos);
  outstanding_.emplace(corr, std::move(o));
  return corr;
}

void Client::insertAsync(PointRef p) {
  if (outstanding_.size() >= maxOutstanding_)
    pump(maxOutstanding_ - 1, 0, nullptr);
  ByteWriter w;
  writePoint(w, p);
  submit(Op::kInsert, w.take());
}

void Client::queryAsync(const QueryBox& q) {
  if (outstanding_.size() >= maxOutstanding_)
    pump(maxOutstanding_ - 1, 0, nullptr);
  ByteWriter w;
  q.serialize(w);
  submit(Op::kQuery, w.take());
}

void Client::insert(PointRef p) {
  insertAsync(p);
  pump(0, nextCorr_ - 1, nullptr);
}

QueryReply Client::query(const QueryBox& q) {
  ByteWriter w;
  q.serialize(w);
  const std::uint64_t corr = submit(Op::kQuery, w.take());
  QueryReply degraded;
  degraded.partial = true;  // distinguishes "gave up" from an empty result
  if (corr == 0) return degraded;
  Message reply;
  if (!pump(0, corr, &reply)) return degraded;
  return QueryReply::decode(reply.payload);
}

std::uint64_t Client::bulkLoad(const PointSet& items) {
  drain();
  ByteWriter w;
  items.serialize(w);
  const std::uint64_t corr = submit(Op::kBulk, w.take());
  if (corr == 0) return 0;
  Message reply;
  if (!pump(0, corr, &reply)) return 0;
  ByteReader r(reply.payload);
  return r.varint();
}

void Client::drain() { pump(0, 0, nullptr); }

bool Client::pump(std::size_t target, std::uint64_t waitCorr, Message* out) {
  while (outstanding_.size() > target ||
         (waitCorr != 0 && outstanding_.count(waitCorr) != 0)) {
    const std::uint64_t nextDue =
        outstanding_.empty() ? ~std::uint64_t{0} : nextDueNanos_;
    const std::uint64_t now = nowNanos();
    std::optional<Message> m;
    if (nextDue > now)
      m = inbox_->recvFor(std::chrono::nanoseconds(nextDue - now));
    else
      m = inbox_->tryRecv();
    if (!m) {
      if (inbox_->closed()) {
        outstanding_.clear();  // fabric shut down under us
        return false;
      }
      if (!sweep(waitCorr)) return false;
      continue;
    }
    auto it = outstanding_.find(m->corr);
    if (it == outstanding_.end()) continue;  // late duplicate reply
    account(*m, it->second);
    const bool wanted = waitCorr != 0 && m->corr == waitCorr;
    outstanding_.erase(it);
    if (wanted) {
      if (out != nullptr) *out = std::move(*m);
      if (outstanding_.size() <= target) return true;
    }
  }
  return true;
}

bool Client::sweep(std::uint64_t waitCorr) {
  const std::uint64_t now = nowNanos();
  bool waitAlive = true;
  std::uint64_t minDue = ~std::uint64_t{0};
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    Outstanding& o = it->second;
    if (o.dueNanos > now) {
      minDue = std::min(minDue, o.dueNanos);
      ++it;
      continue;
    }
    if (o.attempts < retry_.maxAttempts) {
      // Same corr on purpose: the server dedups in-flight requests and
      // replays completed replies, so redelivery is exactly-once.
      fabric_.send(serverEp_,
                   makeMessage(o.op, it->first, inbox_->name(), o.payload));
      ++o.attempts;
      o.dueNanos = now + retryDelayNanos(retry_, o.attempts, rng_);
      minDue = std::min(minDue, o.dueNanos);
      ++retries_;
      ++it;
      continue;
    }
    switch (o.op) {
      case Op::kInsert: ++insertsExpired_; break;
      case Op::kQuery: ++queriesExpired_; break;
      default: break;
    }
    if (it->first == waitCorr) waitAlive = false;
    it = outstanding_.erase(it);
  }
  nextDueNanos_ = minDue;
  return waitAlive;
}

void Client::account(const Message& m, const Outstanding& o) {
  const std::uint64_t latency = nowNanos() - o.startedNanos;
  switch (o.op) {
    case Op::kInsert:
      insertLat_.record(latency);
      ++insertsAcked_;
      break;
    case Op::kQuery: {
      queryLat_.record(latency);
      ++queriesAnswered_;
      try {
        const QueryReply reply = QueryReply::decode(m.payload);
        shardsSearched_ += reply.shardsSearched;
        lastAgg_ = reply.agg;
        if (reply.partial) ++partialReplies_;
      } catch (const DeserializeError&) {
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace volap
