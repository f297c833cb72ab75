// Fault-service latency by delivery backend: end-to-end service time (fault
// entry to access retry) for read faults and write faults, under the
// mprotect + SIGSEGV fallback vs the default userfaultfd + SIGBUS backend, in
// one process.
//
// Workload: `hosts` hosts share `arrays` single-minipage int arrays. Each
// round a rotating writer stores to every array (write faults: upgrade or
// fetch-for-write, invalidating all other copies), then every host reads
// every array back (read faults rebuilding the copysets). All faults are
// real kernel faults through the application views, delivered as a signal
// on the faulting thread under both backends — the numbers include what the
// backend choice changes: mprotect (mmap lock taken for writing, VMA split
// and merge) vs one userfaultfd pte operation (mmap lock taken shared).
//
// Reported per backend: p50/p99/mean of the read- and write-fault service
// histograms merged across hosts, plus ranged protection calls per fault
// (mv.prot_sets / faults) — the coalescing figure of merit. The userfaultfd
// section is skipped (with a note) on kernels without the backend's
// features.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/metrics.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/os/fault_handler.h"

namespace millipage {
namespace {

int g_rounds = 40;
constexpr int kArrays = 32;
constexpr uint16_t kHosts = 4;

DsmConfig Cfg(FaultBackend backend) {
  DsmConfig cfg;
  cfg.num_hosts = kHosts;
  cfg.object_size = 1 << 20;
  cfg.num_views = 8;
  cfg.fault_backend = backend;
  return cfg;
}

struct FaultServiceResult {
  HistogramSnapshot read;
  HistogramSnapshot write;
  uint64_t prot_sets = 0;
  double wall_ms = 0;
};

FaultServiceResult RunFaultService(FaultBackend backend) {
  auto cluster = DsmCluster::Create(Cfg(backend));
  MP_CHECK(cluster.ok()) << cluster.status().ToString();
  std::vector<GlobalPtr<int>> ptrs(kArrays);
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int a = 0; a < kArrays; ++a) {
      ptrs[a] = SharedAlloc<int>(16);
      ptrs[a][0] = a;
    }
  });

  const uint64_t t0 = MonotonicNowNs();
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    for (int r = 0; r < g_rounds; ++r) {
      if (host == static_cast<HostId>(r % kHosts)) {
        for (int a = 0; a < kArrays; ++a) {
          ptrs[a][0] = ptrs[a][0] + 1;
        }
      }
      node.Barrier();
      for (int a = 0; a < kArrays; ++a) {
        volatile int sink = ptrs[a][0];
        (void)sink;
      }
      node.Barrier();
    }
  });

  FaultServiceResult out;
  out.wall_ms = static_cast<double>(MonotonicNowNs() - t0) / 1e6;
  for (uint16_t h = 0; h < kHosts; ++h) {
    out.read.Merge((*cluster)->node(h).read_fault_latency());
    out.write.Merge((*cluster)->node(h).write_fault_latency());
    const MetricsSnapshot s = (*cluster)->node(h).SnapshotMetrics();
    const auto it = s.counters.find("mv.prot_sets");
    if (it != s.counters.end()) {
      out.prot_sets += it->second;
    }
  }
  return out;
}

void Report(BenchReporter& reporter, FaultBackend backend) {
  const FaultServiceResult r = RunFaultService(backend);
  const char* name = FaultBackendName(backend);
  const uint64_t faults = r.read.count + r.write.count;
  const double prot_per_fault =
      faults > 0 ? static_cast<double>(r.prot_sets) / static_cast<double>(faults) : 0.0;
  std::printf("  %-10s %-6s %8lu %9.1f %9.1f %9.1f %9.1f %11.2f\n", name, "read",
              static_cast<unsigned long>(r.read.count),
              static_cast<double>(r.read.Quantile(0.5)) / 1e3,
              static_cast<double>(r.read.Quantile(0.99)) / 1e3, r.read.mean() / 1e3,
              r.wall_ms, prot_per_fault);
  std::printf("  %-10s %-6s %8lu %9.1f %9.1f %9.1f %9s %11s\n", name, "write",
              static_cast<unsigned long>(r.write.count),
              static_cast<double>(r.write.Quantile(0.5)) / 1e3,
              static_cast<double>(r.write.Quantile(0.99)) / 1e3, r.write.mean() / 1e3,
              "", "");
  for (const char* kind : {"read", "write"}) {
    const HistogramSnapshot& h = kind[0] == 'r' ? r.read : r.write;
    BenchResult row;
    row.name = "fault_service";
    row.params = std::string("backend=") + name + " kind=" + kind;
    row.iterations = h.count;
    row.ns_per_op = h.mean();
    row.values["p50_ns"] = static_cast<double>(h.Quantile(0.5));
    row.values["p99_ns"] = static_cast<double>(h.Quantile(0.99));
    row.values["prot_sets_per_fault"] = prot_per_fault;
    reporter.Add(std::move(row));
  }
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_fault_service", env);
  g_rounds = env.Scaled(40, 5);
  setvbuf(stdout, nullptr, _IONBF, 0);
  PrintHeader("Fault-service latency by delivery backend (us)");
  std::printf("  %-10s %-6s %8s %9s %9s %9s %9s %11s\n", "backend", "kind", "faults",
              "p50 us", "p99 us", "mean us", "wall ms", "prot/fault");
  Report(reporter, FaultBackend::kSigsegv);
  if (FaultHandler::Instance().UffdSupported()) {
    Report(reporter, FaultBackend::kUserfaultfd);
  } else {
    std::printf("  userfaultfd: kernel lacks the backend's features; section skipped\n");
  }
  reporter.Finish();
  return 0;
}
