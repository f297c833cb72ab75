#include "src/dsm/cluster.h"

#include <algorithm>
#include <thread>

#include "src/common/logging.h"
#include "src/os/fault_handler.h"

namespace millipage {

namespace {
thread_local DsmNode* tls_current_node = nullptr;
}  // namespace

void SetCurrentNode(DsmNode* node) { tls_current_node = node; }

DsmNode* CurrentNode() {
  MP_CHECK(tls_current_node != nullptr)
      << "no DSM host bound to this thread (use RunParallel/RunOnManager)";
  return tls_current_node;
}

Result<std::unique_ptr<DsmCluster>> DsmCluster::Create(const DsmConfig& config) {
  auto cluster = std::unique_ptr<DsmCluster>(new DsmCluster(config));
  // Install the fault backend BEFORE creating any node: each node's ViewSet
  // wires its views to whichever backend is active at creation time (and
  // Install falls back to sigsegv when userfaultfd is unsupported).
  MP_RETURN_IF_ERROR(FaultHandler::Instance().Install(config.fault_backend));
  if (config.fault_backend == FaultBackend::kUserfaultfd &&
      FaultHandler::Instance().active_backend() != FaultBackend::kUserfaultfd) {
    MP_LOG(Error) << "userfaultfd backend unavailable; falling back to sigsegv";
  }
  cluster->transport_ = std::make_unique<InProcTransport>(config.num_hosts);
  cluster->nodes_.reserve(config.num_hosts);
  for (uint16_t h = 0; h < config.num_hosts; ++h) {
    MP_ASSIGN_OR_RETURN(std::unique_ptr<DsmNode> node,
                        DsmNode::Create(config, h, cluster->transport_.get()));
    cluster->nodes_.push_back(std::move(node));
  }
  // Build the immutable fault-region index over every application view of
  // every host.
  for (auto& node : cluster->nodes_) {
    ViewSet& vs = node->views();
    for (uint32_t v = 0; v < vs.num_app_views(); ++v) {
      Region r;
      r.base = reinterpret_cast<uintptr_t>(vs.app_base(v));
      r.len = vs.object_size();
      r.node = node.get();
      r.view = v;
      cluster->regions_.push_back(r);
    }
  }
  std::sort(cluster->regions_.begin(), cluster->regions_.end(),
            [](const Region& a, const Region& b) { return a.base < b.base; });

  cluster->fault_slot_ = FaultHandler::Instance().Register(&FaultTrampoline, cluster.get());
  if (cluster->fault_slot_ < 0) {
    return Status::Exhausted("no free fault-handler slots");
  }
  for (auto& node : cluster->nodes_) {
    node->Start();
  }
  return cluster;
}

DsmCluster::~DsmCluster() {
  for (auto& node : nodes_) {
    node->Stop();
  }
  if (fault_slot_ >= 0) {
    FaultHandler::Instance().Unregister(fault_slot_);
  }
}

bool DsmCluster::FaultTrampoline(void* ctx, void* addr, bool is_write) {
  return static_cast<DsmCluster*>(ctx)->DispatchFault(addr, is_write);
}

bool DsmCluster::DispatchFault(void* addr, bool is_write) {
  const auto a = reinterpret_cast<uintptr_t>(addr);
  // Binary search over sorted, non-overlapping regions.
  size_t lo = 0;
  size_t hi = regions_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (regions_[mid].base <= a) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) {
    fprintf(stderr, "[millipage] fault %p below all %zu regions (first base %p)\n", addr,
            regions_.size(), reinterpret_cast<void*>(regions_.empty() ? 0 : regions_[0].base));
    return false;
  }
  const Region& r = regions_[lo - 1];
  if (a >= r.base + r.len) {
    fprintf(stderr,
            "[millipage] fault %p in gap after region base %p len %zx (host %u view %u)\n",
            addr, reinterpret_cast<void*>(r.base), r.len, r.node->id(), r.view);
    return false;
  }
  return r.node->OnFault(r.view, a - r.base, is_write);
}

void DsmCluster::RunParallel(const std::function<void(DsmNode&, HostId)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(config_.num_hosts);
  for (uint16_t h = 0; h < config_.num_hosts; ++h) {
    threads.emplace_back([this, &fn, h] {
      SetCurrentNode(nodes_[h].get());
      fn(*nodes_[h], h);
      SetCurrentNode(nullptr);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

void DsmCluster::RunOnManager(const std::function<void(DsmNode&)>& fn) {
  DsmNode* prev = tls_current_node;
  SetCurrentNode(nodes_[kManagerHost].get());
  fn(*nodes_[kManagerHost]);
  SetCurrentNode(prev);
}

HostCounters DsmCluster::TotalCounters() const {
  HostCounters total;
  for (const auto& node : nodes_) {
    total += node->counters();
  }
  return total;
}

MetricsSnapshot DsmCluster::SnapshotMetrics() const {
  MetricsSnapshot total;
  for (const auto& node : nodes_) {
    total.Merge(node->SnapshotMetrics());
  }
  total.Merge(MetricsRegistry::Global().Snapshot());
  return total;
}

}  // namespace millipage
