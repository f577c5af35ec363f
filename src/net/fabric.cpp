#include "net/fabric.hpp"

#include <algorithm>

#include "common/clock.hpp"

namespace volap {

namespace {

/// True if endpoint `ep` belongs to node `node`: the node's own name or a
/// name under it ("worker/3" owns "worker/3/zk", not "worker/30").
bool ofNode(const std::string& ep, const std::string& node) {
  return ep.rfind(node, 0) == 0 &&
         (ep.size() == node.size() || ep[node.size()] == '/');
}

}  // namespace

Fabric::Fabric(FabricOptions opts)
    : opts_(opts),
      rng_(opts.seed),
      sent_(metrics_.counter("net.sent")),
      dropped_(metrics_.counter("net.dropped")),
      dropRate_(opts.dropRate) {
  if (opts_.latencyMeanNanos > 0 || opts_.latencyJitterNanos > 0)
    delayThread_ = std::thread([this] { delayLoop(); });
}

Fabric::~Fabric() {
  {
    std::lock_guard lock(delayMu_);
    delayStop_ = true;
  }
  delayCv_.notify_all();
  if (delayThread_.joinable()) delayThread_.join();
  {
    // Flush undelivered delayed messages so they cannot outlive the fabric
    // (each holds a mailbox reference).
    std::lock_guard lock(delayMu_);
    delayHeap_.clear();
  }
  std::lock_guard lock(mu_);
  for (auto& [name, mb] : endpoints_) mb->close();
}

std::shared_ptr<Mailbox> Fabric::bind(const std::string& name) {
  std::lock_guard lock(mu_);
  auto it = endpoints_.find(name);
  if (it != endpoints_.end()) return it->second;
  auto mb = std::make_shared<Mailbox>(name);
  endpoints_.emplace(name, mb);
  return mb;
}

void Fabric::unbind(const std::string& name) {
  std::shared_ptr<Mailbox> victim;
  {
    std::lock_guard lock(mu_);
    auto it = endpoints_.find(name);
    if (it == endpoints_.end()) return;
    victim = it->second;
    endpoints_.erase(it);
  }
  victim->close();
}

void Fabric::crash(const std::string& name) {
  std::vector<std::shared_ptr<Mailbox>> victims;
  {
    std::lock_guard lock(mu_);
    crashed_.push_back(name);
    for (auto it = endpoints_.begin(); it != endpoints_.end();) {
      if (ofNode(it->first, name)) {
        victims.push_back(it->second);
        it = endpoints_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& mb : victims) mb->close();
}

void Fabric::setDropRate(double rate) {
  dropRate_.store(rate, std::memory_order_relaxed);
}

void Fabric::addFaultRule(FaultRule rule) {
  std::lock_guard lock(faultMu_);
  rules_.push_back(std::move(rule));
}

void Fabric::clearFaultRules() {
  std::lock_guard lock(faultMu_);
  rules_.clear();
}

bool Fabric::faulted(const Message& m, const std::string& to,
                     std::uint64_t& delayNanos) {
  std::lock_guard lock(faultMu_);
  const double drop = dropRate_.load(std::memory_order_relaxed);
  if (drop > 0 && rng_.chance(drop)) return true;
  for (const auto& r : rules_) {
    if (m.from.rfind(r.fromPrefix, 0) != 0) continue;
    if (to.rfind(r.toPrefix, 0) != 0) continue;
    if (rng_.chance(r.dropRate)) return true;
  }
  if (opts_.latencyMeanNanos > 0 || opts_.latencyJitterNanos > 0) {
    delayNanos = opts_.latencyMeanNanos;
    if (opts_.latencyJitterNanos > 0)
      delayNanos += rng_.below(opts_.latencyJitterNanos);
  }
  return false;
}

bool Fabric::send(const std::string& to, Message m) {
  sent_.inc();
  std::uint64_t delay = 0;
  if (faulted(m, to, delay)) {
    dropped_.inc();
    return true;  // silently eaten, like a lost datagram
  }
  // Resolve the destination at send time: a message addressed to an
  // endpoint that is later unbound dies with that mailbox instead of being
  // delivered to a rebound namesake.
  std::shared_ptr<Mailbox> mb;
  {
    std::lock_guard lock(mu_);
    for (const std::string& node : crashed_)
      if (ofNode(m.from, node)) return false;
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) return false;
    mb = it->second;
  }
  if (delay == 0) return mb->queue_.push(std::move(m));
  {
    std::lock_guard lock(delayMu_);
    delayHeap_.push_back(
        {nowNanos() + delay, delaySeq_++, std::move(mb), std::move(m)});
    std::push_heap(delayHeap_.begin(), delayHeap_.end(),
                   std::greater<Delayed>());
  }
  delayCv_.notify_one();
  return true;
}

void Fabric::delayLoop() {
  std::unique_lock lock(delayMu_);
  while (true) {
    if (delayStop_) return;
    if (delayHeap_.empty()) {
      delayCv_.wait(lock);
      continue;
    }
    const std::uint64_t now = nowNanos();
    if (delayHeap_.front().dueNanos > now) {
      delayCv_.wait_for(lock, std::chrono::nanoseconds(
                                  delayHeap_.front().dueNanos - now));
      continue;
    }
    std::pop_heap(delayHeap_.begin(), delayHeap_.end(),
                  std::greater<Delayed>());
    Delayed d = std::move(delayHeap_.back());
    delayHeap_.pop_back();
    lock.unlock();
    d.to->queue_.push(std::move(d.msg));  // no-op if unbound (closed)
    lock.lock();
  }
}

}  // namespace volap
