// DsmCluster: the in-process deployment. Every host gets its own memory
// object, views, protections, and server thread inside one process; hosts
// exchange minipage copies over the in-process transport. Application code
// runs one thread per host and takes genuine SIGSEGV faults on protected
// vpages — the protocol is exactly the one a multi-machine deployment runs.

#ifndef SRC_DSM_CLUSTER_H_
#define SRC_DSM_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/stats.h"
#include "src/dsm/node.h"
#include "src/net/inproc_transport.h"

namespace millipage {

class DsmCluster {
 public:
  static Result<std::unique_ptr<DsmCluster>> Create(const DsmConfig& config);
  ~DsmCluster();

  DsmCluster(const DsmCluster&) = delete;
  DsmCluster& operator=(const DsmCluster&) = delete;

  uint16_t num_hosts() const { return config_.num_hosts; }
  DsmNode& node(HostId h) { return *nodes_[h]; }
  DsmNode& manager() { return *nodes_[kManagerHost]; }
  const DsmConfig& config() const { return config_; }

  // Runs `fn(node, host)` on one application thread per host and joins them.
  // The thread's current node is bound so GlobalPtr resolves correctly.
  void RunParallel(const std::function<void(DsmNode&, HostId)>& fn);

  // Convenience for setup code on the manager host (binds/unbinds TLS).
  void RunOnManager(const std::function<void(DsmNode&)>& fn);

  HostCounters TotalCounters() const;

  // Cluster-wide metric aggregation: every node's SnapshotMetrics merged
  // with the process-global registry (fault handler, standalone transports).
  MetricsSnapshot SnapshotMetrics() const;

 private:
  explicit DsmCluster(const DsmConfig& config) : config_(config) {}

  static bool FaultTrampoline(void* ctx, void* addr, bool is_write);
  bool DispatchFault(void* addr, bool is_write);

  struct Region {
    uintptr_t base = 0;
    size_t len = 0;
    DsmNode* node = nullptr;
    uint32_t view = 0;
  };

  DsmConfig config_;
  std::unique_ptr<InProcTransport> transport_;
  std::vector<std::unique_ptr<DsmNode>> nodes_;
  std::vector<Region> regions_;  // sorted by base; immutable after Create
  int fault_slot_ = -1;
};

}  // namespace millipage

#endif  // SRC_DSM_CLUSTER_H_
