// InProcCluster: the in-process deployment. Every host gets its own memory
// object, views, protections, and server thread inside one process; hosts
// exchange minipage copies over the in-process transport. Application code
// runs one thread per host and takes genuine SIGSEGV faults on protected
// vpages — the protocol is exactly the one a multi-machine deployment runs.
//
// One template serves every protocol: DsmCluster runs millipage's DsmNode,
// LrcCluster (src/lrc/lrc_cluster.h) the LRC variant's LrcNode. A node type
// provides Create(config, host, transport), Start, Stop, views, OnFault,
// counters and SnapshotMetrics.

#ifndef SRC_DSM_CLUSTER_H_
#define SRC_DSM_CLUSTER_H_

#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/dsm/node.h"
#include "src/multiview/fault_index.h"
#include "src/net/inproc_transport.h"
#include "src/os/fault_handler.h"

namespace millipage {

// The host bound to the calling thread, one binding per node type:
// CurrentNode() (global_ptr.h) reads DsmNode's.
template <typename Node>
inline thread_local Node* tls_current_node = nullptr;

template <typename Node>
class InProcCluster {
 public:
  using Counters = decltype(std::declval<const Node&>().counters());

  static Result<std::unique_ptr<InProcCluster>> Create(const DsmConfig& config) {
    auto cluster = std::unique_ptr<InProcCluster>(new InProcCluster(config));
    // Install the fault backend BEFORE creating any node: each node's
    // ViewSet wires its views to whichever backend is active at creation
    // time (and Install falls back to sigsegv when userfaultfd is
    // unsupported).
    MP_RETURN_IF_ERROR(FaultHandler::Instance().Install(config.fault_backend));
    if (config.fault_backend == FaultBackend::kUserfaultfd &&
        FaultHandler::Instance().active_backend() != FaultBackend::kUserfaultfd) {
      MP_LOG(Error) << "userfaultfd backend unavailable; falling back to sigsegv";
    }
    cluster->transport_ = std::make_unique<InProcTransport>(config.num_hosts);
    cluster->nodes_.reserve(config.num_hosts);
    for (uint16_t h = 0; h < config.num_hosts; ++h) {
      MP_ASSIGN_OR_RETURN(std::unique_ptr<Node> node,
                          Node::Create(config, h, cluster->transport_.get()));
      cluster->faults_.Add(node.get(), node->views());
      cluster->nodes_.push_back(std::move(node));
    }
    MP_RETURN_IF_ERROR(cluster->faults_.Register());
    for (auto& node : cluster->nodes_) {
      node->Start();
    }
    return cluster;
  }

  ~InProcCluster() {
    for (auto& node : nodes_) {
      node->Stop();
    }
  }

  InProcCluster(const InProcCluster&) = delete;
  InProcCluster& operator=(const InProcCluster&) = delete;

  uint16_t num_hosts() const { return config_.num_hosts; }
  Node& node(HostId h) { return *nodes_[h]; }
  Node& manager() { return *nodes_[kManagerHost]; }
  const DsmConfig& config() const { return config_; }

  // Runs `fn(node, host)` on one application thread per host and joins them.
  // The thread's current node is bound so GlobalPtr resolves correctly.
  void RunParallel(const std::function<void(Node&, HostId)>& fn) {
    std::vector<std::thread> threads;
    threads.reserve(config_.num_hosts);
    for (uint16_t h = 0; h < config_.num_hosts; ++h) {
      threads.emplace_back([this, &fn, h] {
        tls_current_node<Node> = nodes_[h].get();
        fn(*nodes_[h], h);
        tls_current_node<Node> = nullptr;
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }

  // Convenience for setup code on the manager host (binds/unbinds TLS).
  void RunOnManager(const std::function<void(Node&)>& fn) {
    Node* const prev = std::exchange(tls_current_node<Node>, nodes_[kManagerHost].get());
    fn(*nodes_[kManagerHost]);
    tls_current_node<Node> = prev;
  }

  Counters TotalCounters() const {
    Counters total;
    for (const auto& node : nodes_) {
      total += node->counters();
    }
    return total;
  }

  // Cluster-wide metric aggregation: every node's SnapshotMetrics merged
  // with the process-global registry (fault handler, standalone transports).
  MetricsSnapshot SnapshotMetrics() const {
    MetricsSnapshot total;
    for (const auto& node : nodes_) {
      total.Merge(node->SnapshotMetrics());
    }
    total.Merge(MetricsRegistry::Global().Snapshot());
    return total;
  }

 private:
  explicit InProcCluster(const DsmConfig& config) : config_(config) {}

  DsmConfig config_;
  std::unique_ptr<InProcTransport> transport_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Declared last: it unregisters before the nodes' views go away.
  FaultIndex<Node> faults_;
};

using DsmCluster = InProcCluster<DsmNode>;
extern template class InProcCluster<DsmNode>;

}  // namespace millipage

#endif  // SRC_DSM_CLUSTER_H_
