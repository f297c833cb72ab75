// Benchmark-side tracing: spans recorded around the public calls into each
// layer, and TracedCluster, an in-process cluster whose transport and fault
// callback are wrapped so that sends and fault services get spans too.
//
// Spans live in a fixed, preallocated array (a fault's OnFault span is
// recorded at signal depth, so recording never allocates or locks) and are
// written out as Chrome trace-event JSON when the run ends. Per-kind
// duration sums are kept separately, so the per-layer means stay exact even
// after the array fills up.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/net/inproc_transport.h"

namespace perfbench {

using millipage::DsmConfig;
using millipage::DsmNode;
using millipage::HostId;

enum class SpanKind : uint8_t {
  kAppRun,        // apps: one worker's whole parallel phase
  kAccess,        // apps: one probe load/store on shared memory
  kBarrier,       // dsm: TryBarrier
  kLock,          // dsm: TryLock + Unlock
  kSharedMalloc,  // multiview: SharedMalloc
  kFaultService,  // dsm: DsmNode::OnFault, called from the fault callback
  kSend,          // net: Transport::Send
  kCount,
};

const char* SpanName(SpanKind kind);

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Mean duration of every span of `kind` recorded so far, in microseconds
  // (0 when none was recorded).
  double MeanUs(SpanKind kind) const;
  uint64_t Count(SpanKind kind) const;
  uint64_t dropped() const;

  // Writes the stored spans as {"traceEvents":[...]}: ts/dur in µs, pid =
  // host, tid = recording thread, args = {id, parent}. Returns false when the
  // file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  friend class ScopedSpan;

  struct Span {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int32_t parent = -1;
    uint32_t tid = 0;
    uint16_t host = 0;
    SpanKind kind = SpanKind::kCount;
  };

  // Reserves a slot; -1 when the array is full.
  int32_t Open();

  std::vector<Span> spans_;
  std::atomic<uint32_t> next_{0};
  std::atomic<uint64_t> sum_ns_[static_cast<int>(SpanKind::kCount)] = {};
  std::atomic<uint64_t> count_[static_cast<int>(SpanKind::kCount)] = {};
};

// Records one span on the calling thread. Nested spans on the same thread
// name the enclosing one as their parent. A null recorder makes it inert.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanKind kind, HostId host);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* const recorder_;
  const SpanKind kind_;
  const HostId host_;
  uint64_t start_ns_ = 0;
  int32_t slot_ = -1;
  int32_t saved_parent_ = -1;
};

// The in-process deployment of DsmCluster, rebuilt from public parts so the
// transport and the fault callback can carry spans: nodes share one
// InProcTransport behind a span-recording decorator, and the fault callback
// wraps DsmNode::OnFault in a kFaultService span. Protocol behaviour is
// DsmCluster's; only the added span bookkeeping differs, and that is what
// the traced run's trace_overhead measures.
class TracedCluster {
 public:
  static millipage::Result<std::unique_ptr<TracedCluster>> Create(const DsmConfig& config,
                                                                  SpanRecorder* recorder);
  ~TracedCluster();

  TracedCluster(const TracedCluster&) = delete;
  TracedCluster& operator=(const TracedCluster&) = delete;

  uint16_t num_hosts() const { return config_.num_hosts; }
  DsmNode& node(HostId h) { return *nodes_[h]; }
  void RunParallel(const std::function<void(DsmNode&, HostId)>& fn);
  void RunOnManager(const std::function<void(DsmNode&)>& fn);
  millipage::MetricsSnapshot SnapshotMetrics() const;
  millipage::HostCounters TotalCounters() const;

 private:
  class SpanTransport;
  struct Region {
    uintptr_t base = 0;
    size_t len = 0;
    DsmNode* node = nullptr;
    uint32_t view = 0;
  };

  TracedCluster(const DsmConfig& config, SpanRecorder* recorder)
      : config_(config), recorder_(recorder) {}

  static bool FaultTrampoline(void* ctx, void* addr, bool is_write);

  const DsmConfig config_;
  SpanRecorder* const recorder_;
  std::unique_ptr<millipage::InProcTransport> inner_;
  std::unique_ptr<millipage::Transport> transport_;  // a SpanTransport over inner_
  std::vector<std::unique_ptr<DsmNode>> nodes_;
  std::vector<Region> regions_;  // sorted by base; immutable after Create
  int fault_slot_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
