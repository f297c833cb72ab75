// Google-benchmark micro-suite over the substrate primitives: protection
// control, MPT translation scaling, allocator throughput, diff costs by
// size and dirtiness, address packing, the metrics layer's own overhead
// (enabled vs disabled — the acceptance budget is <2% on fast paths), the
// protection tax of yielding sibling threads and of concurrent protecting
// threads under both fault backends, and the wait-slot reply handoff,
// parked vs polling.
// Complements the paper-table benches with statistically robust per-op
// numbers.

#include <benchmark/benchmark.h>

#include <sched.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/poll_window.h"
#include "src/diff/diff.h"
#include "src/dsm/wait_slots.h"
#include "src/multiview/allocator.h"
#include "src/multiview/minipage.h"
#include "src/multiview/view_set.h"
#include "src/net/message.h"
#include "src/os/fault_handler.h"
#include "src/os/page.h"

namespace millipage {
namespace {

void BM_SetProtection(benchmark::State& state) {
  auto vs = ViewSet::Create(64 * PageSize(), 8);
  MP_CHECK(vs.ok());
  Minipage mp;
  mp.view = 1;
  mp.offset = 3 * PageSize();
  mp.length = static_cast<uint64_t>(state.range(0));
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    MP_CHECK_OK(
        (*vs)->SetProtection(mp, flip ? Protection::kReadOnly : Protection::kReadWrite));
  }
}
BENCHMARK(BM_SetProtection)->Arg(128)->Arg(4096)->Arg(16384);

// Binds the view sets created next to `backend` (0 = sigsegv/mprotect,
// 1 = userfaultfd). False, with the row skipped, when the kernel lacks it.
// Rows that call it end with RestoreBackend(), so the rows that never choose
// one keep measuring mprotect.
bool UseBackend(benchmark::State& state, int64_t arg) {
  const auto backend = static_cast<FaultBackend>(arg);
  FaultHandler& fh = FaultHandler::Instance();
  MP_CHECK_OK(fh.Install(backend));
  if (fh.active_backend() != backend) {
    state.SkipWithError("userfaultfd backend unavailable on this kernel");
    return false;
  }
  return true;
}

void RestoreBackend() { MP_CHECK_OK(FaultHandler::Instance().Install(FaultBackend::kSigsegv)); }

// One touched 4 KB vpage toggled RW -> RO -> RW per iteration.
void ToggleLoop(benchmark::State& state, ViewSet& vs) {
  Minipage mp;
  mp.view = 1;
  mp.offset = 3 * PageSize();
  mp.length = PageSize();
  MP_CHECK_OK(vs.SetProtection(mp, Protection::kReadWrite));
  volatile std::byte* page = vs.AppAddr(mp.view, mp.offset);
  for (auto _ : state) {
    *page = std::byte{1};  // a live pte, as on a DSM page in use
    MP_CHECK_OK(vs.SetProtection(mp, Protection::kReadOnly));
    MP_CHECK_OK(vs.SetProtection(mp, Protection::kReadWrite));
  }
}

// The in-process protection tax: the toggle while `siblings` threads loop
// on sched_yield(), the shape of a cluster's pollers, under each backend.
// Every host of an in-process cluster shares one mm, so each downgrade's
// TLB shootdown reaches every vCPU a sibling runs on.
void BM_SetProtectionSiblings(benchmark::State& state) {
  if (!UseBackend(state, state.range(1))) {
    return;
  }
  auto vs = ViewSet::Create(64 * PageSize(), 8);
  MP_CHECK(vs.ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> siblings;
  for (int64_t i = 0; i < state.range(0); ++i) {
    siblings.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        sched_yield();
      }
    });
  }
  ToggleLoop(state, **vs);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : siblings) {
    t.join();
  }
  RestoreBackend();
}
BENCHMARK(BM_SetProtectionSiblings)
    ->ArgsProduct({{0, 3}, {0, 1}})
    ->ArgNames({"siblings", "uffd"})
    ->UseRealTime();

// Four threads toggling their own view sets at once, as the hosts of an
// in-process cluster do. mprotect takes the process-wide mmap lock for
// writing and splits a VMA, so the threads queue behind each other; the
// userfaultfd pte operations take it shared.
void BM_SetProtectionConcurrent(benchmark::State& state) {
  if (!UseBackend(state, state.range(0))) {
    return;
  }
  auto vs = ViewSet::Create(64 * PageSize(), 8);
  MP_CHECK(vs.ok());
  ToggleLoop(state, **vs);
  RestoreBackend();
}
BENCHMARK(BM_SetProtectionConcurrent)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("uffd")
    ->Threads(4)
    ->UseRealTime();

void BM_GetProtection(benchmark::State& state) {
  auto vs = ViewSet::Create(64 * PageSize(), 8);
  MP_CHECK(vs.ok());
  Minipage mp;
  mp.view = 2;
  mp.offset = 5 * PageSize();
  mp.length = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*vs)->GetProtection(mp));
  }
}
BENCHMARK(BM_GetProtection);

void BM_MptLookup(benchmark::State& state) {
  const size_t entries = static_cast<size_t>(state.range(0));
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, entries * 512, 16);
  for (size_t i = 0; i < entries; ++i) {
    MP_CHECK(alloc.Allocate(256).ok());
  }
  uint64_t probe = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mpt.Lookup(static_cast<uint32_t>(probe % 16), (probe * 7919) % (entries * 256)));
    probe++;
  }
}
BENCHMARK(BM_MptLookup)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_AllocatorThroughput(benchmark::State& state) {
  const uint32_t chunking = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    MinipageTable mpt;
    AllocatorOptions opts;
    opts.chunking_level = chunking;
    MinipageAllocator alloc(&mpt, 64 << 20, 16, opts);
    state.ResumeTiming();
    for (int i = 0; i < 4096; ++i) {
      MP_CHECK(alloc.Allocate(160).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AllocatorThroughput)->Arg(1)->Arg(4);

void BM_DiffCreate(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  const int dirty_permille = static_cast<int>(state.range(1));
  std::vector<char> page(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    page[i] = static_cast<char>(i);
  }
  Twin twin(page.data(), bytes);
  for (size_t i = 0; i < bytes; ++i) {
    if (static_cast<int>((i * 997) % 1000) < dirty_permille) {
      page[i] = static_cast<char>(page[i] + 1);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(CreateDiff(twin, page.data(), bytes));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_DiffCreate)
    ->Args({4096, 0})
    ->Args({4096, 100})
    ->Args({4096, 500})
    ->Args({16384, 100});

void BM_DiffApply(benchmark::State& state) {
  const size_t bytes = 4096;
  std::vector<char> page(bytes, 0);
  Twin twin(page.data(), bytes);
  for (size_t i = 0; i < bytes; i += 8) {
    page[i] = 1;
  }
  const Diff d = CreateDiff(twin, page.data(), bytes);
  std::vector<char> target(bytes, 0);
  for (auto _ : state) {
    MP_CHECK_OK(ApplyDiff(d, target.data(), bytes));
  }
}
BENCHMARK(BM_DiffApply);

void BM_TwinCreate(benchmark::State& state) {
  std::vector<char> page(4096, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Twin(page.data(), page.size()));
  }
}
BENCHMARK(BM_TwinCreate);

void BM_GlobalAddrPack(benchmark::State& state) {
  uint64_t x = 0;
  for (auto _ : state) {
    const GlobalAddr a{static_cast<uint32_t>(x % 16), x % (1ULL << 40)};
    benchmark::DoNotOptimize(GlobalAddr::Unpack(a.Pack()));
    x += 1234577;
  }
}
BENCHMARK(BM_GlobalAddrPack);

// --- metrics layer overhead ------------------------------------------------
// BM_SetProtection above runs with the ViewSet's counters live (the Global
// registry is wired in ViewSet::Create). Counters ignore the metrics switch,
// and this path records no histogram, so BM_SetProtectionMetricsOff should
// match it: a gap means the switch gates work on the hottest instrumented
// syscall path again.

void BM_SetProtectionMetricsOff(benchmark::State& state) {
  SetMetricsEnabled(false);
  auto vs = ViewSet::Create(64 * PageSize(), 8);
  MP_CHECK(vs.ok());
  Minipage mp;
  mp.view = 1;
  mp.offset = 3 * PageSize();
  mp.length = static_cast<uint64_t>(state.range(0));
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    MP_CHECK_OK(
        (*vs)->SetProtection(mp, flip ? Protection::kReadOnly : Protection::kReadWrite));
  }
  SetMetricsEnabled(true);
}
BENCHMARK(BM_SetProtectionMetricsOff)->Arg(128)->Arg(4096);

void BM_MetricsCounterInc(benchmark::State& state) {
  Counter c;
  for (auto _ : state) {
    c.Inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  Histogram h;
  uint64_t v = 1;
  for (auto _ : state) {
    h.Record(v);
    v = (v * 2621 + 37) & 0xffff;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_MetricsScopedTimer(benchmark::State& state) {
  Histogram h;
  for (auto _ : state) {
    ScopedTimer t(&h);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_MetricsScopedTimer);

void BM_MetricsScopedTimerDisabled(benchmark::State& state) {
  SetMetricsEnabled(false);
  Histogram h;
  for (auto _ : state) {
    ScopedTimer t(&h);
    benchmark::ClobberMemory();
  }
  SetMetricsEnabled(true);
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_MetricsScopedTimerDisabled);

// --- reply handoff ----------------------------------------------------------
// A cross-thread Post -> resume ping-pong over two wait slots: one iteration
// is a round trip, i.e. two handoffs. The arg is the poll window both sides
// wait with: 0 parks on the semaphore at once, so every handoff is a futex
// wake; kPollWindowUs polls first, as fault and lock waits do.

void BM_WaitSlotsPingPong(benchmark::State& state) {
  const uint64_t poll_us = static_cast<uint64_t>(state.range(0));
  WaitSlots slots;
  const uint32_t ping = slots.Acquire();
  const uint32_t pong = slots.Acquire();
  constexpr uint32_t kStop = 1;
  std::thread echo([&] {
    for (;;) {
      const MsgHeader h = *slots.WaitFor(ping, 0, poll_us);
      slots.Post(pong, h);
      if (h.seq == kStop) {
        return;
      }
    }
  });
  MsgHeader msg;
  for (auto _ : state) {
    slots.Post(ping, msg);
    benchmark::DoNotOptimize(slots.WaitFor(pong, 0, poll_us));
  }
  msg.seq = kStop;
  slots.Post(ping, msg);
  (void)slots.Wait(pong);
  echo.join();
}
BENCHMARK(BM_WaitSlotsPingPong)->ArgName("poll_us")->Arg(0)->Arg(kPollWindowUs)->UseRealTime();

// Forwards console output unchanged while copying each run into the
// BenchReporter so --bench_json emits the same rows CI consumes.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(BenchReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) {
        continue;
      }
      BenchResult r;
      r.name = run.benchmark_name();
      r.iterations = static_cast<uint64_t>(run.iterations);
      r.ns_per_op = run.GetAdjustedRealTime();  // default time unit is ns
      out_->Add(std::move(r));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchReporter* out_;
};

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  // Rebuild argv without our flags (google-benchmark rejects unknown ones)
  // and with a short min_time in smoke mode.
  std::vector<char*> bm_argv;
  bm_argv.push_back(argv[0]);
  char min_time[] = "--benchmark_min_time=0.01";
  if (env.smoke()) {
    bm_argv.push_back(min_time);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") != 0 &&
        std::strncmp(argv[i], "--bench_json=", 13) != 0) {
      bm_argv.push_back(argv[i]);
    }
  }
  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_argv.data())) {
    return 1;
  }
  BenchReporter reporter("bench_micro_primitives", env);
  CaptureReporter console(&reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  return reporter.Finish();
}
