// Tests for the message fabric (ZeroMQ substitute) and the coordination
// service (Zookeeper substitute): delivery, latency, drops, crashes, znode
// semantics, CAS versioning, sequential nodes, and one-shot watches.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "keeper/keeper.hpp"
#include "net/fabric.hpp"

namespace volap {
namespace {

using namespace std::chrono_literals;

Message msg(std::uint16_t type, std::string from, Blob payload = {}) {
  Message m;
  m.type = type;
  m.from = std::move(from);
  m.payload = std::move(payload);
  return m;
}

TEST(Fabric, DeliversToBoundEndpoint) {
  Fabric f;
  auto a = f.bind("a");
  auto b = f.bind("b");
  EXPECT_TRUE(f.send("b", msg(7, "a", {1, 2, 3})));
  const auto m = b->recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, 7);
  EXPECT_EQ(m->from, "a");
  EXPECT_EQ(m->payload, (Blob{1, 2, 3}));
  EXPECT_EQ(a->pending(), 0u);
}

TEST(Fabric, SendToUnknownEndpointFails) {
  Fabric f;
  EXPECT_FALSE(f.send("ghost", msg(1, "x")));
}

TEST(Fabric, UnbindClosesMailbox) {
  Fabric f;
  auto a = f.bind("a");
  f.unbind("a");
  EXPECT_FALSE(f.send("a", msg(1, "x")));
  EXPECT_FALSE(a->recv().has_value());
}

TEST(Fabric, CrashedNodeSendsNothing) {
  // A crashed node's threads may still be winding down; nothing they send
  // may reach a live node.
  Fabric f;
  auto observer = f.bind("observer");
  f.bind("worker/3");
  f.bind("worker/3/zk");
  f.bind("worker/30");
  f.crash("worker/3");
  EXPECT_FALSE(f.send("observer", msg(1, "worker/3")));
  EXPECT_FALSE(f.send("observer", msg(2, "worker/3/zk")));
  EXPECT_TRUE(f.send("observer", msg(3, "worker/30")));
  const auto m = observer->recvFor(100ms);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, 3);
  EXPECT_FALSE(observer->recvFor(50ms).has_value());
}

TEST(Fabric, BindIsIdempotent) {
  Fabric f;
  auto a1 = f.bind("a");
  auto a2 = f.bind("a");
  EXPECT_EQ(a1.get(), a2.get());
}

TEST(Fabric, RecvForTimesOut) {
  Fabric f;
  auto a = f.bind("a");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(a->recvFor(20ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 15ms);
}

TEST(Fabric, LatencyDelaysDelivery) {
  FabricOptions opts;
  opts.latencyMeanNanos = 20'000'000;  // 20ms
  Fabric f(opts);
  auto b = f.bind("b");
  f.bind("a");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(f.send("b", msg(1, "a")));
  EXPECT_FALSE(b->tryRecv().has_value()) << "message arrived synchronously";
  const auto m = b->recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 18ms);
}

TEST(Fabric, LatencyPreservesPerDestinationOrderingForEqualDelay) {
  FabricOptions opts;
  opts.latencyMeanNanos = 2'000'000;
  Fabric f(opts);
  auto b = f.bind("b");
  for (std::uint16_t i = 0; i < 50; ++i) f.send("b", msg(i, "a"));
  for (std::uint16_t i = 0; i < 50; ++i) {
    const auto m = b->recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->type, i);
  }
}

TEST(Fabric, DelayedDeliveryFollowsDueTimeOrderNotSendOrder) {
  FabricOptions opts;
  opts.latencyMeanNanos = 1'000'000;     // 1ms floor
  opts.latencyJitterNanos = 30'000'000;  // jitter >> mean: due times shuffle
  opts.seed = 42;
  Fabric f(opts);
  auto b = f.bind("b");
  constexpr std::uint16_t kMsgs = 200;
  for (std::uint16_t i = 0; i < kMsgs; ++i) f.send("b", msg(i, "a"));
  // Every message arrives exactly once, sorted by its jittered due time —
  // which with this much jitter must reorder at least one pair relative to
  // send order (a pure-FIFO delay queue would never invert).
  std::vector<bool> seen(kMsgs, false);
  bool inverted = false;
  std::uint16_t prev = 0;
  for (std::uint16_t i = 0; i < kMsgs; ++i) {
    const auto m = b->recv();
    ASSERT_TRUE(m.has_value());
    ASSERT_LT(m->type, kMsgs);
    EXPECT_FALSE(seen[m->type]) << "duplicate delivery of " << m->type;
    seen[m->type] = true;
    if (i > 0 && m->type < prev) inverted = true;
    prev = m->type;
  }
  EXPECT_TRUE(inverted);
  EXPECT_EQ(b->pending(), 0u);
}

TEST(Fabric, DestructionDiscardsInFlightDelayedMessages) {
  std::shared_ptr<Mailbox> b;
  {
    FabricOptions opts;
    opts.latencyMeanNanos = 50'000'000;  // far beyond the fabric's lifetime
    Fabric f(opts);
    b = f.bind("b");
    for (std::uint16_t i = 0; i < 64; ++i)
      EXPECT_TRUE(f.send("b", msg(i, "a")));
  }  // joins the delay thread and flushes its heap; must not crash or hang
  EXPECT_TRUE(b->closed());
  EXPECT_FALSE(b->recv().has_value()) << "receiver must be released";
  EXPECT_EQ(b->pending(), 0u);
}

TEST(Fabric, UnbindDropsDelayedMessagesToOldIncarnation) {
  FabricOptions opts;
  opts.latencyMeanNanos = 20'000'000;  // 20ms
  Fabric f(opts);
  auto old = f.bind("x");
  for (std::uint16_t i = 0; i < 32; ++i)
    EXPECT_TRUE(f.send("x", msg(i, "a")));
  f.unbind("x");             // in-flight messages now target a dead mailbox
  auto fresh = f.bind("x");  // rebinding reuses the name, not the mailbox
  ASSERT_NE(old.get(), fresh.get());
  EXPECT_TRUE(old->closed());
  // Traffic sent after the rebind reaches the new incarnation...
  EXPECT_TRUE(f.send("x", msg(999, "a")));
  const auto m = fresh->recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, 999);
  // ...while the pre-unbind burst dies with the old one instead of leaking
  // into the namesake.
  std::this_thread::sleep_for(60ms);
  EXPECT_EQ(fresh->pending(), 0u);
  EXPECT_FALSE(fresh->tryRecv().has_value());
}

TEST(Fabric, DropRateEatsMessages) {
  FabricOptions opts;
  opts.dropRate = 1.0;
  Fabric f(opts);
  auto b = f.bind("b");
  EXPECT_TRUE(f.send("b", msg(1, "a")));  // eaten silently, like UDP
  EXPECT_EQ(f.droppedCount(), 1u);
  EXPECT_FALSE(b->tryRecv().has_value());
  f.setDropRate(0.0);
  EXPECT_TRUE(f.send("b", msg(2, "a")));
  EXPECT_TRUE(b->recv().has_value());
}

class KeeperTest : public ::testing::Test {
 protected:
  KeeperTest() : server_(fabric_), client_(fabric_, "tester", "watcher") {
    watcher_ = fabric_.bind("watcher");
  }
  Fabric fabric_;
  KeeperServer server_;
  KeeperClient client_;
  std::shared_ptr<Mailbox> watcher_;
};

TEST_F(KeeperTest, CreateGetSetRoundTrip) {
  EXPECT_TRUE(client_.create("/volap", {}).has_value());
  EXPECT_TRUE(client_.create("/volap/a", {1, 2}).has_value());
  auto g = client_.get("/volap/a");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->data, (Blob{1, 2}));
  EXPECT_EQ(g->version, 0);
  auto v = client_.set("/volap/a", {3});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  g = client_.get("/volap/a");
  EXPECT_EQ(g->data, (Blob{3}));
  EXPECT_EQ(g->version, 1);
}

TEST_F(KeeperTest, CreateRequiresParent) {
  EXPECT_FALSE(client_.create("/no/parent", {}).has_value());
  EXPECT_TRUE(client_.create("/no", {}).has_value());
  EXPECT_TRUE(client_.create("/no/parent", {}).has_value());
}

TEST_F(KeeperTest, CreateRejectsDuplicates) {
  ASSERT_TRUE(client_.create("/x", {}).has_value());
  EXPECT_FALSE(client_.create("/x", {}).has_value());
}

TEST_F(KeeperTest, CompareAndSetEnforcesVersions) {
  ASSERT_TRUE(client_.create("/cas", {1}).has_value());
  EXPECT_TRUE(client_.set("/cas", {2}, 0).has_value());
  EXPECT_FALSE(client_.set("/cas", {9}, 0).has_value()) << "stale version";
  EXPECT_TRUE(client_.set("/cas", {3}, 1).has_value());
  EXPECT_EQ(client_.get("/cas")->data, (Blob{3}));
}

TEST_F(KeeperTest, SetOnMissingNodeFails) {
  EXPECT_FALSE(client_.set("/missing", {1}).has_value());
}

TEST_F(KeeperTest, SequentialNodesGetUniqueOrderedNames) {
  ASSERT_TRUE(client_.create("/q", {}).has_value());
  auto p1 = client_.create("/q/item", {}, /*sequential=*/true);
  auto p2 = client_.create("/q/item", {}, /*sequential=*/true);
  ASSERT_TRUE(p1.has_value() && p2.has_value());
  EXPECT_NE(*p1, *p2);
  EXPECT_LT(*p1, *p2);
  auto kids = client_.children("/q");
  ASSERT_TRUE(kids.has_value());
  EXPECT_EQ(kids->size(), 2u);
}

TEST_F(KeeperTest, ChildrenListsDirectChildrenOnly) {
  ASSERT_TRUE(client_.create("/top", {}).has_value());
  ASSERT_TRUE(client_.create("/top/a", {}).has_value());
  ASSERT_TRUE(client_.create("/top/b", {}).has_value());
  ASSERT_TRUE(client_.create("/top/a/deep", {}).has_value());
  auto kids = client_.children("/top");
  ASSERT_TRUE(kids.has_value());
  EXPECT_EQ(kids->size(), 2u);
  EXPECT_TRUE(std::count(kids->begin(), kids->end(), "a") == 1);
  EXPECT_TRUE(std::count(kids->begin(), kids->end(), "b") == 1);
}

TEST_F(KeeperTest, DataWatchFiresOnceOnSet) {
  ASSERT_TRUE(client_.create("/w", {1}).has_value());
  ASSERT_TRUE(client_.get("/w", /*watch=*/true).has_value());
  ASSERT_TRUE(client_.set("/w", {2}).has_value());
  auto ev = watcher_->recvFor(500ms);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->type, static_cast<std::uint16_t>(KeeperOp::kWatchEvent));
  ByteReader r(ev->payload);
  const WatchEvent we = WatchEvent::deserialize(r);
  EXPECT_EQ(we.kind, WatchEvent::Kind::kData);
  EXPECT_EQ(we.path, "/w");
  // One-shot: the next set must not fire again without re-arming.
  ASSERT_TRUE(client_.set("/w", {3}).has_value());
  EXPECT_FALSE(watcher_->recvFor(50ms).has_value());
}

TEST_F(KeeperTest, ChildWatchFiresOnCreate) {
  ASSERT_TRUE(client_.create("/cw", {}).has_value());
  ASSERT_TRUE(client_.children("/cw", /*watch=*/true).has_value());
  ASSERT_TRUE(client_.create("/cw/kid", {}).has_value());
  auto ev = watcher_->recvFor(500ms);
  ASSERT_TRUE(ev.has_value());
  ByteReader r(ev->payload);
  const WatchEvent we = WatchEvent::deserialize(r);
  EXPECT_EQ(we.kind, WatchEvent::Kind::kChildren);
  EXPECT_EQ(we.path, "/cw");
}

TEST_F(KeeperTest, ExistsWatchFiresOnCreation) {
  EXPECT_FALSE(client_.exists("/later", /*watch=*/true));
  ASSERT_TRUE(client_.create("/later", {}).has_value());
  auto ev = watcher_->recvFor(500ms);
  ASSERT_TRUE(ev.has_value());
  ByteReader r(ev->payload);
  EXPECT_EQ(WatchEvent::deserialize(r).path, "/later");
}

TEST_F(KeeperTest, DeleteRemovesLeafNodesOnly) {
  ASSERT_TRUE(client_.create("/del", {}).has_value());
  ASSERT_TRUE(client_.create("/del/kid", {}).has_value());
  EXPECT_FALSE(client_.remove("/del")) << "non-empty node must not vanish";
  EXPECT_TRUE(client_.remove("/del/kid"));
  EXPECT_TRUE(client_.remove("/del"));
  EXPECT_FALSE(client_.exists("/del"));
}

TEST_F(KeeperTest, ConcurrentClientsSeeConsistentCounters) {
  ASSERT_TRUE(client_.create("/ctr", {0}).has_value());
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KeeperClient c(fabric_, "c" + std::to_string(t));
      for (int i = 0; i < kIncrements; ++i) {
        // CAS-increment loop: the pattern servers use to merge shard boxes.
        while (true) {
          auto g = c.get("/ctr");
          ASSERT_TRUE(g.has_value());
          Blob next = g->data;
          next[0] = static_cast<std::uint8_t>(next[0] + 1);
          if (c.set("/ctr", next, g->version).has_value()) break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(client_.get("/ctr")->data[0],
            static_cast<std::uint8_t>(kThreads * kIncrements));
}

}  // namespace
}  // namespace volap
