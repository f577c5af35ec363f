// Public facade: one object that owns the whole VOLAP deployment — keeper,
// m servers, p workers, the manager — wired over an in-process fabric
// (DESIGN.md §2 explains the EC2 -> threads substitution). This is the
// entry point a downstream user starts from:
//
//   Schema schema = Schema::tpcds();
//   VolapCluster cluster(schema);
//   auto client = cluster.makeClient("me");
//   client->insert(point);
//   auto result = client->query(box);
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/manager.hpp"
#include "common/wal.hpp"
#include "cluster/server.hpp"
#include "cluster/types.hpp"
#include "cluster/worker.hpp"
#include "keeper/keeper.hpp"
#include "net/fabric.hpp"
#include "olap/schema.hpp"
#include "tree/shard.hpp"

namespace volap {

struct ClusterOptions {
  unsigned servers = 2;             // m
  unsigned workers = 4;             // p
  unsigned initialShardsPerWorker = 2;
  ShardKind shardKind = ShardKind::kHilbertPdcMds;
  WorkerConfig worker;
  ServerConfig server;
  ManagerConfig manager;
  FabricOptions net;
  /// Retry budget handed to every client session this cluster creates.
  RetryPolicy clientRetry;
  /// Distributed-trace sampling handed to every client this cluster
  /// creates: every Nth insert/query carries a trace id and per-hop
  /// timestamps (0 = tracing off). The default keeps the per-hop stamp
  /// cost to ~3% of requests while still filling the stage histograms.
  unsigned traceSampleEveryN = 32;
};

class VolapCluster {
 public:
  VolapCluster(const Schema& schema, ClusterOptions opts = ClusterOptions());
  ~VolapCluster();

  VolapCluster(const VolapCluster&) = delete;
  VolapCluster& operator=(const VolapCluster&) = delete;

  /// Create a client session attached to a server (round-robin when
  /// serverIdx is unset). Destroy clients before the cluster.
  std::unique_ptr<Client> makeClient(const std::string& name,
                                     int serverIdx = -1,
                                     unsigned maxOutstanding = 64);

  /// Elastic horizontal scale-up (paper SIII-E / Fig. 6): the new worker
  /// joins empty; the manager migrates shards onto it.
  WorkerId addWorker();

  /// Hard-crash worker `i` (see Worker::crash): its endpoints unbind, its
  /// threads stop, all in-memory state is lost. The manager's recovery
  /// supervisor re-hosts its shards from the DurableLog onto the
  /// survivors. The Worker object stays in place (stopped) so
  /// indices remain stable. Idempotent.
  void crashWorker(unsigned i) { workers_[i]->crash(); }

  /// The cluster's durable store (the simulated disk shared by workers and
  /// the manager): inserts are write-ahead logged before their acks,
  /// shards are checkpointed periodically, and the manager fences it to
  /// re-host a crashed worker's shards or to hand a shard over.
  DurableLog& durable() { return durable_; }

  unsigned serverCount() const {
    return static_cast<unsigned>(servers_.size());
  }
  unsigned workerCount() const {
    return static_cast<unsigned>(workers_.size());
  }

  Server& server(unsigned i) { return *servers_[i]; }
  Worker& worker(unsigned i) { return *workers_[i]; }
  Manager& manager() { return *manager_; }
  Fabric& fabric() { return *fabric_; }
  const Schema& schema() const { return schema_; }

  /// Per-worker item counts (direct reads; the Fig. 6 min/max series).
  std::vector<std::uint64_t> workerLoads() const;
  std::uint64_t totalItems() const;

  /// Every scrapeable endpoint in this cluster: servers, workers, and the
  /// manager (crashed workers are still listed; a scrape simply times out
  /// on them and omits their reply).
  std::vector<std::string> statsEndpoints() const;

 private:
  const Schema& schema_;
  ClusterOptions opts_;
  // Declared before the fabric and nodes: workers and the manager hold
  // references to it, so it must outlive them all (like a disk would).
  DurableLog durable_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<KeeperServer> keeper_;
  std::unique_ptr<KeeperClient> bootZk_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::unique_ptr<Manager> manager_;
  ShardId nextShardId_ = 1;
  unsigned nextClientServer_ = 0;
  std::shared_ptr<Mailbox> bootInbox_;
};

}  // namespace volap
