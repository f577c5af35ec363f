#include "volap/volap.hpp"

#include <stdexcept>

#include "cluster/protocol.hpp"

namespace volap {

VolapCluster::VolapCluster(const Schema& schema, ClusterOptions opts)
    : schema_(schema), opts_(opts) {
  if (opts_.servers == 0 || opts_.workers == 0)
    throw std::invalid_argument("cluster needs >=1 server and worker");

  fabric_ = std::make_unique<Fabric>(opts_.net);
  keeper_ = std::make_unique<KeeperServer>(*fabric_);
  bootInbox_ = fabric_->bind("boot");
  bootZk_ = std::make_unique<KeeperClient>(*fabric_, "boot");

  bootZk_->create("/volap", {});
  bootZk_->create(shardsPath(), {});
  bootZk_->create(workersPath(), {});
  bootZk_->create(serversPath(), {});
  bootZk_->create(alivesPath(), {});

  for (unsigned w = 0; w < opts_.workers; ++w)
    workers_.push_back(std::make_unique<Worker>(*fabric_, schema_, w,
                                                durable_, opts_.worker));

  // Seed every worker with empty shards so the first inserts have routing
  // targets; boxes start empty and grow with the data.
  for (unsigned w = 0; w < opts_.workers; ++w) {
    for (unsigned i = 0; i < opts_.initialShardsPerWorker; ++i) {
      const ShardId id = nextShardId_++;
      CreateShard req;
      req.shard = id;
      req.kind = opts_.shardKind;
      fabric_->send(workerEndpoint(w),
                    makeMessage(Op::kCreateShard, id, "boot", req.encode()));
      while (auto m = bootInbox_->recv()) {
        if (m->type == static_cast<std::uint16_t>(Op::kCreateShardAck) &&
            m->corr == id)
          break;
      }
      ShardInfo info;
      info.id = id;
      info.worker = w;
      ByteWriter wtr;
      info.serialize(wtr);
      bootZk_->create(shardPath(id), wtr.take());
    }
  }

  for (unsigned s = 0; s < opts_.servers; ++s)
    servers_.push_back(std::make_unique<Server>(*fabric_, schema_, s,
                                                opts_.server));

  manager_ = std::make_unique<Manager>(*fabric_, schema_, opts_.manager,
                                       nextShardId_, durable_);
}

VolapCluster::~VolapCluster() {
  // Teardown order mirrors the dependency graph: the manager stops issuing
  // plans, servers stop routing, workers stop serving, keeper last.
  manager_.reset();
  for (auto& s : servers_) s->stop();
  servers_.clear();
  for (auto& w : workers_) w->stop();
  workers_.clear();
  keeper_.reset();
  fabric_.reset();
}

std::unique_ptr<Client> VolapCluster::makeClient(const std::string& name,
                                                 int serverIdx,
                                                 unsigned maxOutstanding) {
  unsigned idx;
  if (serverIdx >= 0) {
    idx = static_cast<unsigned>(serverIdx) % serverCount();
  } else {
    idx = nextClientServer_++ % serverCount();
  }
  auto client = std::make_unique<Client>(*fabric_, name, serverEndpoint(idx),
                                         maxOutstanding, opts_.clientRetry);
  client->setTraceSampling(opts_.traceSampleEveryN);
  return client;
}

WorkerId VolapCluster::addWorker() {
  const WorkerId id = static_cast<WorkerId>(workers_.size());
  workers_.push_back(std::make_unique<Worker>(*fabric_, schema_, id,
                                              durable_, opts_.worker));
  return id;
}

std::vector<std::uint64_t> VolapCluster::workerLoads() const {
  std::vector<std::uint64_t> loads;
  loads.reserve(workers_.size());
  for (const auto& w : workers_) loads.push_back(w->itemsHeld());
  return loads;
}

std::uint64_t VolapCluster::totalItems() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->itemsHeld();
  return total;
}

std::vector<std::string> VolapCluster::statsEndpoints() const {
  std::vector<std::string> eps;
  eps.reserve(servers_.size() + workers_.size() + 1);
  for (unsigned i = 0; i < servers_.size(); ++i)
    eps.push_back(serverEndpoint(i));
  for (unsigned i = 0; i < workers_.size(); ++i)
    eps.push_back(workerEndpoint(static_cast<WorkerId>(i)));
  eps.push_back(managerEndpoint());
  return eps;
}

}  // namespace volap
