#include "perfbench/src/spans.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "src/common/time_util.h"
#include "src/os/fault_handler.h"

namespace perfbench {

using millipage::MonotonicNowNs;

namespace {

// Trivially initialized so that the first touch can happen inside the fault
// handler without running a TLS constructor.
thread_local uint32_t tls_tid = 0;
thread_local int32_t tls_open_span = -1;
std::atomic<uint32_t> g_next_tid{1};

uint32_t ThreadId() {
  if (tls_tid == 0) {
    tls_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_tid;
}

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAppRun:
      return "apps.run";
    case SpanKind::kAccess:
      return "apps.access";
    case SpanKind::kBarrier:
      return "dsm.barrier";
    case SpanKind::kLock:
      return "dsm.lock";
    case SpanKind::kSharedMalloc:
      return "multiview.shared_malloc";
    case SpanKind::kFaultService:
      return "dsm.fault_service";
    case SpanKind::kSend:
      return "net.send";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

SpanRecorder::SpanRecorder(size_t capacity) : spans_(capacity) {}

int32_t SpanRecorder::Open() {
  const uint32_t i = next_.fetch_add(1, std::memory_order_relaxed);
  return i < spans_.size() ? static_cast<int32_t>(i) : -1;
}

double SpanRecorder::MeanUs(SpanKind kind) const {
  const uint64_t n = Count(kind);
  return n == 0 ? 0.0
                : static_cast<double>(sum_ns_[static_cast<int>(kind)].load()) / 1000.0 /
                      static_cast<double>(n);
}

uint64_t SpanRecorder::Count(SpanKind kind) const {
  return count_[static_cast<int>(kind)].load(std::memory_order_relaxed);
}

uint64_t SpanRecorder::dropped() const {
  const uint64_t opened = next_.load(std::memory_order_relaxed);
  return opened > spans_.size() ? opened - spans_.size() : 0;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t n = std::min<size_t>(next_.load(), spans_.size());
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) {
      continue;  // opened by a thread that never closed it
    }
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,"
                 "\"tid\":%u,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 first ? "" : ",", SpanName(s.kind), static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.host, s.tid, i, s.parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, SpanKind kind, HostId host)
    : recorder_(recorder), kind_(kind), host_(host) {
  if (recorder_ == nullptr) {
    return;
  }
  slot_ = recorder_->Open();
  saved_parent_ = tls_open_span;
  if (slot_ >= 0) {
    tls_open_span = slot_;
  }
  start_ns_ = MonotonicNowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) {
    return;
  }
  const uint64_t end_ns = MonotonicNowNs();
  const int k = static_cast<int>(kind_);
  recorder_->sum_ns_[k].fetch_add(end_ns - start_ns_, std::memory_order_relaxed);
  recorder_->count_[k].fetch_add(1, std::memory_order_relaxed);
  if (slot_ >= 0) {
    SpanRecorder::Span& s = recorder_->spans_[slot_];
    s.start_ns = start_ns_;
    s.end_ns = end_ns;
    s.parent = saved_parent_;
    s.tid = ThreadId();
    s.host = host_;
    s.kind = kind_;
  }
  tls_open_span = saved_parent_;
}

// Forwards every call to the shared in-process transport, timing Send.
class TracedCluster::SpanTransport : public millipage::Transport {
 public:
  SpanTransport(millipage::Transport* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  millipage::Status Send(HostId to, millipage::MsgHeader h, const void* payload,
                         size_t len) override {
    ScopedSpan span(recorder_, SpanKind::kSend, static_cast<HostId>(h.from & 0xffffu));
    return inner_->Send(to, h, payload, len);
  }
  millipage::Result<bool> Poll(HostId me, millipage::MsgHeader* h,
                               const millipage::PayloadSink& sink,
                               uint64_t timeout_us) override {
    return inner_->Poll(me, h, sink, timeout_us);
  }
  uint16_t num_hosts() const override { return inner_->num_hosts(); }
  void BeginBurst() override { inner_->BeginBurst(); }
  void EndBurst() override { inner_->EndBurst(); }
  void SetPeerDownHandler(PeerDownHandler handler) override {
    inner_->SetPeerDownHandler(std::move(handler));
  }

 private:
  millipage::Transport* const inner_;
  SpanRecorder* const recorder_;
};

millipage::Result<std::unique_ptr<TracedCluster>> TracedCluster::Create(const DsmConfig& config,
                                                                        SpanRecorder* recorder) {
  auto cluster = std::unique_ptr<TracedCluster>(new TracedCluster(config, recorder));
  // As in DsmCluster::Create: the fault backend goes in before any node
  // wires its views to it.
  MP_RETURN_IF_ERROR(millipage::FaultHandler::Instance().Install(config.fault_backend));
  cluster->inner_ = std::make_unique<millipage::InProcTransport>(config.num_hosts);
  cluster->transport_ = std::make_unique<SpanTransport>(cluster->inner_.get(), recorder);
  for (uint16_t h = 0; h < config.num_hosts; ++h) {
    MP_ASSIGN_OR_RETURN(std::unique_ptr<DsmNode> node,
                        DsmNode::Create(config, h, cluster->transport_.get()));
    cluster->nodes_.push_back(std::move(node));
  }
  for (auto& node : cluster->nodes_) {
    millipage::ViewSet& vs = node->views();
    for (uint32_t v = 0; v < vs.num_app_views(); ++v) {
      cluster->regions_.push_back(
          Region{reinterpret_cast<uintptr_t>(vs.app_base(v)), vs.object_size(), node.get(), v});
    }
  }
  std::sort(cluster->regions_.begin(), cluster->regions_.end(),
            [](const Region& a, const Region& b) { return a.base < b.base; });
  cluster->fault_slot_ =
      millipage::FaultHandler::Instance().Register(&FaultTrampoline, cluster.get());
  if (cluster->fault_slot_ < 0) {
    return millipage::Status::Exhausted("no free fault-handler slots");
  }
  for (auto& node : cluster->nodes_) {
    node->Start();
  }
  return cluster;
}

TracedCluster::~TracedCluster() {
  for (auto& node : nodes_) {
    node->Stop();
  }
  if (fault_slot_ >= 0) {
    millipage::FaultHandler::Instance().Unregister(fault_slot_);
  }
}

bool TracedCluster::FaultTrampoline(void* ctx, void* addr, bool is_write) {
  auto* self = static_cast<TracedCluster*>(ctx);
  const auto a = reinterpret_cast<uintptr_t>(addr);
  auto it = std::upper_bound(self->regions_.begin(), self->regions_.end(), a,
                             [](uintptr_t x, const Region& r) { return x < r.base; });
  if (it == self->regions_.begin()) {
    return false;
  }
  const Region& r = *(it - 1);
  if (a >= r.base + r.len) {
    return false;
  }
  ScopedSpan span(self->recorder_, SpanKind::kFaultService, r.node->id());
  return r.node->OnFault(r.view, a - r.base, is_write);
}

void TracedCluster::RunParallel(const std::function<void(DsmNode&, HostId)>& fn) {
  std::vector<std::thread> threads;
  for (uint16_t h = 0; h < config_.num_hosts; ++h) {
    threads.emplace_back([this, &fn, h] {
      millipage::SetCurrentNode(nodes_[h].get());
      fn(*nodes_[h], h);
      millipage::SetCurrentNode(nullptr);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

void TracedCluster::RunOnManager(const std::function<void(DsmNode&)>& fn) {
  millipage::SetCurrentNode(nodes_[millipage::kManagerHost].get());
  fn(*nodes_[millipage::kManagerHost]);
  millipage::SetCurrentNode(nullptr);
}

millipage::MetricsSnapshot TracedCluster::SnapshotMetrics() const {
  millipage::MetricsSnapshot total;
  for (const auto& node : nodes_) {
    total.Merge(node->SnapshotMetrics());
  }
  total.Merge(millipage::MetricsRegistry::Global().Snapshot());
  return total;
}

millipage::HostCounters TracedCluster::TotalCounters() const {
  millipage::HostCounters total;
  for (const auto& node : nodes_) {
    total += node->counters();
  }
  return total;
}

}  // namespace perfbench
