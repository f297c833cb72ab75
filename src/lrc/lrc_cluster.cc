#include "src/lrc/lrc_cluster.h"

#include <algorithm>
#include <thread>

#include "src/common/logging.h"
#include "src/os/fault_handler.h"

namespace millipage {

namespace {
thread_local LrcNode* tls_current_lrc = nullptr;
}  // namespace

void SetCurrentLrcNode(LrcNode* node) { tls_current_lrc = node; }

LrcNode* CurrentLrcNode() {
  MP_CHECK(tls_current_lrc != nullptr) << "no LRC host bound to this thread";
  return tls_current_lrc;
}

Result<std::unique_ptr<LrcCluster>> LrcCluster::Create(const DsmConfig& config) {
  auto cluster = std::unique_ptr<LrcCluster>(new LrcCluster(config));
  cluster->transport_ = std::make_unique<InProcTransport>(config.num_hosts);
  for (uint16_t h = 0; h < config.num_hosts; ++h) {
    MP_ASSIGN_OR_RETURN(std::unique_ptr<LrcNode> node,
                        LrcNode::Create(config, h, cluster->transport_.get()));
    cluster->nodes_.push_back(std::move(node));
  }
  for (auto& node : cluster->nodes_) {
    ViewSet& vs = node->views();
    for (uint32_t v = 0; v < vs.num_app_views(); ++v) {
      cluster->regions_.push_back(Region{reinterpret_cast<uintptr_t>(vs.app_base(v)),
                                         vs.object_size(), node.get(), v});
    }
  }
  std::sort(cluster->regions_.begin(), cluster->regions_.end(),
            [](const Region& a, const Region& b) { return a.base < b.base; });
  MP_RETURN_IF_ERROR(FaultHandler::Instance().Install());
  cluster->fault_slot_ = FaultHandler::Instance().Register(&FaultTrampoline, cluster.get());
  if (cluster->fault_slot_ < 0) {
    return Status::Exhausted("no free fault-handler slots");
  }
  for (auto& node : cluster->nodes_) {
    node->Start();
  }
  return cluster;
}

LrcCluster::~LrcCluster() {
  for (auto& node : nodes_) {
    node->Stop();
  }
  if (fault_slot_ >= 0) {
    FaultHandler::Instance().Unregister(fault_slot_);
  }
}

bool LrcCluster::FaultTrampoline(void* ctx, void* addr, bool is_write) {
  return static_cast<LrcCluster*>(ctx)->DispatchFault(addr, is_write);
}

bool LrcCluster::DispatchFault(void* addr, bool is_write) {
  const auto a = reinterpret_cast<uintptr_t>(addr);
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
    return false;
  }
  const Region& r = regions_[lo - 1];
  if (a >= r.base + r.len) {
    return false;
  }
  return r.node->OnFault(r.view, a - r.base, is_write);
}

void LrcCluster::RunParallel(const std::function<void(LrcNode&, HostId)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(config_.num_hosts);
  for (uint16_t h = 0; h < config_.num_hosts; ++h) {
    threads.emplace_back([this, &fn, h] {
      SetCurrentLrcNode(nodes_[h].get());
      fn(*nodes_[h], h);
      SetCurrentLrcNode(nullptr);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

void LrcCluster::RunOnManager(const std::function<void(LrcNode&)>& fn) {
  LrcNode* prev = tls_current_lrc;
  SetCurrentLrcNode(nodes_[kManagerHost].get());
  fn(*nodes_[kManagerHost]);
  SetCurrentLrcNode(prev);
}

LrcCounters LrcCluster::TotalCounters() const {
  LrcCounters total;
  for (const auto& node : nodes_) {
    total += node->counters();
  }
  return total;
}

}  // namespace millipage
