// Lock-cheap observability substrate: named relaxed-atomic counters and
// fixed-bucket latency histograms grouped in registries, RAII scoped timers,
// snapshot/merge types, and a JSON emitter. A node's registry is the only
// place its counters live (src/common/stats.h reads them out as typed
// blocks). Designed for the protocol hot paths (SIGSEGV service,
// request/reply, transport syscalls, mprotect):
//   * every update is a handful of relaxed atomic ops — no locks, no
//     allocation, safe from signal handlers;
//   * counters always count; the metrics switch gates only what pays for a
//     clock read or a bucket walk — histograms and scoped timers, which skip
//     their clock reads entirely when disabled;
//   * registration (name lookup) takes a mutex, so call sites register once
//     up front and keep the returned pointer, which stays valid for the
//     registry's lifetime.

#ifndef SRC_COMMON_METRICS_H_
#define SRC_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/time_util.h"

namespace millipage {

namespace metrics_internal {
extern std::atomic<bool> g_enabled;
}  // namespace metrics_internal

// Process-wide switch for histograms and scoped timers, default on
// (MILLIPAGE_METRICS=0 in the environment starts the process disabled).
// Counters ignore it.
inline bool MetricsEnabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

// Named counter owned by a MetricsRegistry: one relaxed atomic. Counts in
// every mode — the protocol counts that the cost model, the epochs and the
// tests read must not depend on the metrics switch, and an increment pays no
// clock read.
class Counter {
 public:
  void Inc(uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Value-independent snapshot of a histogram (nanoseconds for timers, bytes
// for size distributions). Plain data: merge freely, serialize, compare.
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;

  uint64_t buckets[kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when empty
  uint64_t max = 0;

  double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  // Approximate quantile (bucket upper bound), q in [0,1].
  uint64_t Quantile(double q) const;
  void Merge(const HistogramSnapshot& o);
};

// Fixed-bucket latency/size histogram: 64 power-of-two buckets (bucket i
// covers (2^(i-1), 2^i]), all state in relaxed atomics so recording is safe
// from any thread and from signal handlers. Record is gated on the metrics
// switch; RecordAlways skips the gate for callers that checked it already
// (and, with it, already paid for the value being recorded — e.g. a clock
// read).
class Histogram {
 public:
  void Record(uint64_t v) {
    if (MetricsEnabled()) {
      RecordAlways(v);
    }
  }
  void RecordAlways(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  static int BucketFor(uint64_t v) {
    if (v <= 1) {
      return 0;
    }
    const int b = 64 - __builtin_clzll(v - 1);
    return b >= HistogramSnapshot::kBuckets ? HistogramSnapshot::kBuckets - 1 : b;
  }

  std::atomic<uint64_t> buckets_[HistogramSnapshot::kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ULL};
  std::atomic<uint64_t> max_{0};
};

// RAII latency probe: records the scope's wall time into `h` on destruction.
// When metrics are disabled at construction the timer is inert — no clock
// reads at either end.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : h_(MetricsEnabled() ? h : nullptr), t0_(h_ != nullptr ? MonotonicNowNs() : 0) {}
  ~ScopedTimer() {
    if (h_ != nullptr) {
      h_->RecordAlways(MonotonicNowNs() - t0_);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* const h_;
  const uint64_t t0_;
};

// Flat, name-keyed snapshot of a registry (or a merge of several): the unit
// of aggregation — per node, per cluster, per bench run.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  void Merge(const MetricsSnapshot& o);
  // {"counters":{name:value,...},"histograms":{name:{count,sum,min,max,
  //  mean,p50,p95,p99},...}} — sorted by name, no trailing newline.
  std::string DumpJson() const;
};

// Owns named metrics. GetCounter/GetHistogram create on first use and return
// a stable pointer (registration locks; updates through the pointer never
// do). One registry per DsmNode for per-host attribution, plus a process
// Global() for singletons — the fault handler, standalone transports and
// view sets.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  // Zeroes every registered metric (pointers stay valid). Test/bench helper.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace millipage

#endif  // SRC_COMMON_METRICS_H_
