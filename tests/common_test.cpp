// Tests for the common substrate: serialization, RNG/Zipf samplers,
// latency histograms, the MPMC queue, the reader-writer spinlock, and the
// thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/histogram.hpp"
#include "common/mpmc_queue.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/wal.hpp"
#include "common/rwspin.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"

namespace volap {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.25);
  w.str("volap");
  w.varint(0);
  w.varint(127);
  w.varint(128);
  w.varint(~std::uint64_t{0});
  const Blob blob = w.take();
  ByteReader r(blob);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "volap");
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.varint(), 127u);
  EXPECT_EQ(r.varint(), 128u);
  EXPECT_EQ(r.varint(), ~std::uint64_t{0});
  EXPECT_TRUE(r.done());
}

TEST(Serialize, TruncatedBlobThrows) {
  ByteWriter w;
  w.u64(7);
  Blob blob = w.take();
  blob.resize(4);
  ByteReader r(blob);
  EXPECT_THROW(r.u64(), DeserializeError);
}

TEST(Serialize, MalformedVarintThrows) {
  const Blob blob(11, 0xff);  // 11 continuation bytes: > 64 bits
  ByteReader r(blob);
  EXPECT_THROW(r.varint(), DeserializeError);
}

TEST(Serialize, BytesRoundTrip) {
  ByteWriter w;
  const Blob payload = {9, 8, 7};
  w.bytes(payload);
  w.bytes({});
  const Blob blob = w.take();
  ByteReader r(blob);
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_TRUE(r.bytes().empty());
}

TEST(Rng, DeterministicAndWellDistributed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
  Rng r(7);
  std::vector<unsigned> buckets(10, 0);
  for (int i = 0; i < 100'000; ++i) ++buckets[r.below(10)];
  for (unsigned count : buckets) {
    EXPECT_GT(count, 9'000u);
    EXPECT_LT(count, 11'000u);
  }
}

TEST(Rng, BetweenIsInclusive) {
  Rng r(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    sawLo |= v == 3;
    sawHi |= v == 5;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 50'000; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / 50'000, 2.0, 0.05);
}

TEST(Zipf, SkewConcentratesMass) {
  Rng r(13);
  ZipfSampler zipf(1000, 1.0);
  std::vector<unsigned> counts(1000, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[zipf(r)];
  // Rank 0 must dominate and the top-10 should hold a large share.
  unsigned top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += counts[i];
  EXPECT_GT(counts[0], counts[99] * 10);
  // Theoretical top-10 share for Zipf(1.0) over 1000 is ~39%; accept the
  // sampler within a generous band (it feeds workload skew, not statistics).
  EXPECT_GT(top10, 25'000u);
  EXPECT_LT(top10, 55'000u);
}

TEST(Zipf, DegenerateDomains) {
  Rng r(15);
  ZipfSampler one(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(one(r), 0u);
  ZipfSampler two(2, 0.5);
  for (int i = 0; i < 100; ++i) EXPECT_LT(two(r), 2u);
}

TEST(Histogram, QuantilesOrderedAndBounded) {
  LatencyHistogram h;
  Rng r(17);
  std::uint64_t maxV = 0;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = r.between(100, 1'000'000);
    maxV = std::max(maxV, v);
    h.record(v);
  }
  EXPECT_EQ(h.count(), 10'000u);
  EXPECT_LE(h.quantileNanos(0.5), h.quantileNanos(0.9));
  EXPECT_LE(h.quantileNanos(0.9), h.quantileNanos(0.999));
  // Log-bucket error is bounded (~6.25% bucket width).
  EXPECT_LE(h.quantileNanos(1.0), maxV + maxV / 8);
  EXPECT_GE(h.meanNanos(), 100.0);
}

TEST(Histogram, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.record(100);
  b.record(10'000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.minNanos(), 100u);
  EXPECT_GE(a.maxNanos(), 10'000u);
}

TEST(Histogram, SampleReproducesDistributionRoughly) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(1'000);
  for (int i = 0; i < 1000; ++i) h.record(100'000);
  Rng r(19);
  unsigned low = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (h.sampleNanos(r.uniform()) < 10'000) ++low;
  }
  EXPECT_NEAR(low, 5'000u, 500u);
}

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop(), i);
  EXPECT_FALSE(q.tryPop().has_value());
}

TEST(MpmcQueue, CloseDrainsThenStops) {
  MpmcQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpmcQueue, ManyProducersManyConsumers) {
  MpmcQueue<int> q;
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 2'000;
  std::atomic<long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) sum.fetch_add(*v);
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t c = kProducers; c < threads.size(); ++c) threads[c].join();
  EXPECT_EQ(sum.load(),
            static_cast<long>(kProducers) * kPerProducer *
                (kPerProducer + 1) / 2);
}

TEST(RwSpin, ExclusionBetweenWriters) {
  RwSpinLock lock;
  long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5'000; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 20'000);
}

TEST(RwSpin, SharedReadersCoexist) {
  RwSpinLock lock;
  lock.lock_shared();
  lock.lock_shared();  // second reader must not block
  EXPECT_FALSE(lock.try_lock()) << "writer must wait for readers";
  lock.unlock_shared();
  lock.unlock_shared();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmittedTasksRun) {
  // Declared before the pool, so the pool's destructor joins its workers
  // before the condition variable they notify is destroyed.
  std::atomic<int> ran{0};
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool pool(2);
  for (int i = 0; i < 32; ++i) {
    pool.submit([&] {
      if (ran.fetch_add(1) + 1 == 32) {
        std::lock_guard lock(mu);
        cv.notify_one();
      }
    });
  }
  std::unique_lock lock(mu);
  cv.wait_for(lock, std::chrono::seconds(10), [&] { return ran == 32; });
  EXPECT_EQ(ran.load(), 32);
}

TEST(Retry, DelaySaturatesAtMaxTimeout) {
  RetryPolicy p{100, 1000, 0, 2.0, 50};
  Rng rng(1);
  EXPECT_EQ(retryDelayNanos(p, 1, rng), 100u);
  EXPECT_EQ(retryDelayNanos(p, 2, rng), 200u);
  EXPECT_EQ(retryDelayNanos(p, 3, rng), 400u);
  // Past the cap every further attempt pins to maxTimeoutNanos — including
  // attempt counts far beyond any sane policy.
  for (const unsigned a : {5u, 10u, 1000u, ~0u})
    EXPECT_EQ(retryDelayNanos(p, a, rng), 1000u) << "attempt " << a;
}

TEST(Retry, JitterStaysWithinItsBound) {
  RetryPolicy p{100, 1000, 50, 2.0, 8};
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t d = retryDelayNanos(p, 2, rng);
    EXPECT_GE(d, 200u);
    EXPECT_LE(d, 250u);
  }
}

TEST(Retry, ExtremePoliciesNeverOverflowToATinyDelay) {
  Rng rng(2);
  const std::uint64_t kMax = ~std::uint64_t{0};
  // Everything maxed out: the delay must saturate, not wrap around to a
  // near-zero value that would turn backoff into a hot retry loop.
  RetryPolicy allMax{kMax, kMax, kMax, 1e308, ~0u};
  for (const unsigned a : {1u, 2u, 64u, ~0u})
    EXPECT_GE(retryDelayNanos(allMax, a, rng), allMax.timeoutNanos);
  // A single backoff step that shoots past the cap (even to inf) must land
  // exactly on the cap instead of feeding an out-of-range double into an
  // integer cast.
  RetryPolicy spiky{1, kMax, 0, 1e308, 8};
  EXPECT_EQ(retryDelayNanos(spiky, 8, rng), kMax);
  // Degenerate backoff < 1 never escapes the first-attempt timeout.
  RetryPolicy shrinking{500, 1000, 0, 0.5, 8};
  EXPECT_LE(retryDelayNanos(shrinking, ~0u, rng), 500u);
}

namespace {
WalRecord rec(const std::string& from, std::uint64_t corr) {
  WalRecord r;
  r.from = from;
  r.corr = corr;
  r.ackOp = 0x230;
  return r;
}
}  // namespace

TEST(DurableLog, AppendIsFencedByEpoch) {
  DurableLog log;
  EXPECT_FALSE(log.knows(7));
  EXPECT_EQ(log.epochOf(7), 0u);
  EXPECT_TRUE(log.append(7, 0, rec("s", 1)));
  EXPECT_TRUE(log.append(7, 0, rec("s", 2)));
  EXPECT_TRUE(log.knows(7));
  EXPECT_EQ(log.walEntries(7), 2u);

  const auto snap = log.fence(7);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->epoch, 1u);
  EXPECT_EQ(snap->wal.size(), 2u);
  EXPECT_EQ(log.epochOf(7), 1u);

  // The fenced-out owner's appends fail; the new epoch's appends succeed.
  EXPECT_FALSE(log.append(7, 0, rec("s", 3)));
  EXPECT_EQ(log.walEntries(7), 2u);
  EXPECT_TRUE(log.append(7, 1, rec("s", 3)));
  EXPECT_EQ(log.walEntries(7), 3u);
}

TEST(DurableLog, FenceOfUnknownShardIsEmpty) {
  DurableLog log;
  EXPECT_FALSE(log.fence(42).has_value());
  EXPECT_FALSE(log.knows(42));  // fence() probes must not create entries
}

TEST(DurableLog, CheckpointTruncatesWalAndRespectsFencing) {
  DurableLog log;
  EXPECT_TRUE(log.append(7, 0, rec("s", 1)));
  EXPECT_TRUE(log.saveCheckpoint(7, 0, /*owner=*/3, Blob{1, 2, 3}));
  EXPECT_EQ(log.walEntries(7), 0u);
  EXPECT_TRUE(log.hasCheckpoint(7));

  EXPECT_TRUE(log.append(7, 0, rec("s", 2)));
  const auto snap = log.fence(7);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->owner, 3u);
  EXPECT_EQ(snap->checkpoint.size(), 3u);
  ASSERT_EQ(snap->wal.size(), 1u);
  EXPECT_EQ(snap->wal[0].corr, 2u);

  // A checkpoint from the fenced-out owner must not clobber the snapshot.
  EXPECT_FALSE(log.saveCheckpoint(7, 0, 3, Blob{9}));
  EXPECT_EQ(log.fence(7)->checkpoint.size(), 3u);
}

// The regression behind this: a worker applies a batch, the ack is lost,
// a periodic checkpoint truncates the WAL, then the shard migrates. The
// new owner must still know the batch's (from, corr) — otherwise the
// sender's retransmission (routed to the new owner) re-applies every item.
TEST(DurableLog, CheckpointFoldsDedupIdentitiesIntoAppliedIndex) {
  DurableLog log;
  WalRecord r1 = rec("s", 1);
  r1.items = {9, 9};  // data is covered by the checkpoint blob...
  EXPECT_TRUE(log.append(7, 0, std::move(r1)));
  EXPECT_TRUE(log.saveCheckpoint(7, 0, /*owner=*/3, Blob{1}));
  EXPECT_EQ(log.walEntries(7), 0u);

  // ...so the folded identity keeps only the dedup/ack fields.
  EXPECT_TRUE(log.append(7, 0, rec("s", 2)));
  const auto tail = log.dedupTail(7);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].corr, 1u);
  EXPECT_TRUE(tail[0].items.empty());
  EXPECT_EQ(tail[1].corr, 2u);

  // The fence snapshot carries the applied index too, so crash recovery
  // seeds pre-checkpoint corrs just like a migration install does.
  const auto snap = log.fence(7);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->applied.size(), 1u);
  EXPECT_EQ(snap->applied[0].corr, 1u);
  ASSERT_EQ(snap->wal.size(), 1u);
  EXPECT_EQ(snap->wal[0].corr, 2u);
}

TEST(DurableLog, RollbackErasesExactlyOneAttempt) {
  DurableLog log;
  EXPECT_TRUE(log.append(7, 0, rec("a", 1)));
  EXPECT_TRUE(log.append(7, 0, rec("a", 2)));
  EXPECT_TRUE(log.append(7, 0, rec("b", 1)));
  log.rollback(7, "a", 1);
  const auto snap = log.fence(7);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->wal.size(), 2u);
  EXPECT_EQ(snap->wal[0].from, "a");
  EXPECT_EQ(snap->wal[0].corr, 2u);
  EXPECT_EQ(snap->wal[1].from, "b");
  EXPECT_EQ(snap->wal[1].corr, 1u);
}

TEST(DurableLog, WalRecordRoundTrips) {
  WalRecord r;
  r.from = "server/1";
  r.corr = 77;
  r.ackOp = 0x230;
  r.ackPayload = {1, 2};
  r.items = {3, 4, 5};
  ByteWriter w;
  r.serialize(w);
  const Blob b = w.take();
  ByteReader rd(b);
  const WalRecord back = WalRecord::deserialize(rd);
  EXPECT_EQ(back.from, r.from);
  EXPECT_EQ(back.corr, r.corr);
  EXPECT_EQ(back.ackOp, r.ackOp);
  EXPECT_EQ(back.ackPayload, r.ackPayload);
  EXPECT_EQ(back.items, r.items);
}

}  // namespace
}  // namespace volap
