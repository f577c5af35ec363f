// Failure diagnostics shared by the failover and recovery tests: when an
// exact-count check fails, name the seeds that replay the run, what every
// worker holds (live slots and chain mirrors), and the manager's takeover
// and repair counters, so the message says which path lost an item.
#pragma once

#include <cstdint>
#include <string>

#include "volap/volap.hpp"

namespace volap {

inline std::string clusterDump(VolapCluster& cluster, std::uint64_t netSeed,
                               std::uint64_t streamSeed) {
  std::string out = "net seed " + std::to_string(netSeed) + ", stream seed " +
                    std::to_string(streamSeed) + "\n";
  for (unsigned w = 0; w < cluster.workerCount(); ++w)
    out += "  worker " + std::to_string(w) + ": itemsHeld=" +
           std::to_string(cluster.worker(w).itemsHeld()) + " mirrors=" +
           std::to_string(cluster.worker(w).replicaShardCount()) + "\n";
  Manager& mgr = cluster.manager();
  out += "  manager: promotions=" + std::to_string(mgr.promotionsDone()) +
         " recoveries=" + std::to_string(mgr.recoveriesDone()) +
         " chainRepairs=" + std::to_string(mgr.chainRepairsDone()) +
         " opsTimedOut=" + std::to_string(mgr.opsTimedOut()) + "\n";
  return out;
}

}  // namespace volap
