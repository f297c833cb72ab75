// Section 4.2 reproduction: end-to-end DSM operation costs measured on the
// live protocol — read/write fault service for 128 B and 4 KB minipages,
// write faults vs number of read copies to invalidate, barrier cost vs host
// count, lock+unlock, shared allocation, and the run-length diff cost the
// thin-layer design avoids (250 us per 4 KB page on the paper's hardware,
// linear in size).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/diff/diff.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"

namespace millipage {
namespace {

DsmConfig Cfg(uint16_t hosts) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 4 << 20;
  cfg.num_views = 8;
  return cfg;
}

// The median of `ns`.
double P50(std::vector<uint64_t> ns) {
  MP_CHECK(!ns.empty());
  std::sort(ns.begin(), ns.end());
  const size_t n = ns.size();
  return n % 2 == 1 ? static_cast<double>(ns[n / 2])
                    : (static_cast<double>(ns[n / 2 - 1]) + static_cast<double>(ns[n / 2])) / 2;
}

// Ping-pong: host 0 writes (invalidating host 1's copy), host 1 re-reads.
// Host 1's read-fault latency histogram gives the service time. Each row's
// ns_per_op is the histogram's mean; its values carry the p50 of the timed
// accesses (the histogram's power-of-two buckets are too coarse for it),
// which the §4.2 shape gate compares: one multi-ms outlier in a 20-round
// smoke run moves a mean 10x.
void MeasureFaults(BenchReporter& reporter, int rounds, size_t minipage_bytes,
                   const char* paper_read, const char* paper_write) {
  auto cluster = DsmCluster::Create(Cfg(2));
  MP_CHECK(cluster.ok());
  GlobalPtr<char> p;
  (*cluster)->RunOnManager([&](DsmNode& node) {
    auto a = node.SharedMalloc(minipage_bytes);
    MP_CHECK(a.ok());
    p = GlobalPtr<char>(*a);
  });
  // Each written by one host's thread. Round 0's write hits the copy the
  // allocation left on host 0 and takes no fault, so it is not timed.
  std::vector<uint64_t> read_ns;
  std::vector<uint64_t> write_ns;
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    for (int r = 0; r < rounds; ++r) {
      if (host == 0) {
        const uint64_t t0 = MonotonicNowNs();
        p[0] = static_cast<char>(r);  // write fault (invalidates reader)
        if (r > 0) {
          write_ns.push_back(MonotonicNowNs() - t0);
        }
      }
      node.Barrier();
      if (host == 1) {
        const uint64_t t0 = MonotonicNowNs();
        volatile char c = p[0];  // read fault (fetches the minipage)
        (void)c;
        read_ns.push_back(MonotonicNowNs() - t0);
      }
      node.Barrier();
    }
  });
  const HistogramSnapshot rd = (*cluster)->node(1).read_fault_latency();
  const HistogramSnapshot wr = (*cluster)->node(0).write_fault_latency();
  const MetricsSnapshot snap = (*cluster)->SnapshotMetrics();
  const uint64_t predicted = snap.counters.at("dsm.rmw_predicted");
  const uint64_t groups = snap.counters.at("dsm.readahead_groups");
  const auto add_row = [&](const char* label, const HistogramSnapshot& h,
                           const std::vector<uint64_t>& access_ns, const char* paper,
                           bool read_fault_row) {
    PrintRow(label, h.mean() / 1000.0, paper);
    BenchResult row;
    row.name = label;
    row.params = "minipage_bytes=" + std::to_string(minipage_bytes);
    row.iterations = h.count;
    row.ns_per_op = h.mean();
    row.values["p50_ns"] = P50(access_ns);
    reporter.Add(std::move(row));
    reporter.RecordRmwPredicted(predicted, read_fault_row);
    reporter.RecordReadAhead(groups, /*single_fault_row=*/true);
  };
  char label[96];
  std::snprintf(label, sizeof(label), "read fault, %zu-byte minipage", minipage_bytes);
  add_row(label, rd, read_ns, paper_read, /*read_fault_row=*/true);
  std::snprintf(label, sizeof(label), "write fault, %zu-byte minipage (1 reader)",
                minipage_bytes);
  add_row(label, wr, write_ns, paper_write, /*read_fault_row=*/false);
  if (minipage_bytes == 4096) {
    // One representative cluster-wide snapshot in the JSON: the full metric
    // surface as EXPERIMENTS.md documents it.
    reporter.AttachMetrics((*cluster)->SnapshotMetrics());
  }
}

// Write-fault cost as a function of the number of read copies invalidated.
void MeasureInvalidationScaling(BenchReporter& reporter, int rounds,
                                const std::vector<uint16_t>& host_counts) {
  for (uint16_t hosts : host_counts) {
    auto cluster = DsmCluster::Create(Cfg(hosts));
    MP_CHECK(cluster.ok());
    GlobalPtr<int> p;
    (*cluster)->RunOnManager([&](DsmNode& node) {
      (void)node;
      p = SharedAlloc<int>(32);
    });
    (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
      for (int r = 0; r < rounds; ++r) {
        volatile int v = p[0];  // every host takes a read copy
        (void)v;
        node.Barrier();
        if (host == 1 % node.num_hosts()) {
          p[0] = r;  // invalidates hosts-1 read copies
        }
        node.Barrier();
      }
    });
    const HistogramSnapshot wr = (*cluster)->node(1 % hosts).write_fault_latency();
    char label[96];
    std::snprintf(label, sizeof(label), "write fault invalidating %u read copies", hosts - 1);
    PrintRow(label, wr.mean() / 1000.0, "212-366 (more copies = slower)");
    reporter.AddUs(label, "hosts=" + std::to_string(hosts), wr.mean() / 1000.0, wr.count);
    const MetricsSnapshot snap = (*cluster)->SnapshotMetrics();
    reporter.RecordRmwPredicted(snap.counters.at("dsm.rmw_predicted"),
                                /*read_fault_row=*/false);
    reporter.RecordReadAhead(snap.counters.at("dsm.readahead_groups"),
                             /*single_fault_row=*/true);
  }
}

void MeasureBarriers(BenchReporter& reporter, int rounds,
                     const std::vector<uint16_t>& host_counts) {
  for (uint16_t hosts : host_counts) {
    auto cluster = DsmCluster::Create(Cfg(hosts));
    MP_CHECK(cluster.ok());
    std::vector<double> per_host_us(hosts, 0);
    (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
      node.Barrier();  // align
      const uint64_t t0 = MonotonicNowNs();
      for (int r = 0; r < rounds; ++r) {
        node.Barrier();
      }
      per_host_us[host] = static_cast<double>(MonotonicNowNs() - t0) / 1000.0 / rounds;
    });
    char label[64];
    std::snprintf(label, sizeof(label), "barrier, %u hosts", hosts);
    PrintRow(label, per_host_us[0], "59-153 (linear in hosts)");
    reporter.AddUs(label, "hosts=" + std::to_string(hosts), per_host_us[0],
                   static_cast<uint64_t>(rounds));
  }
}

void MeasureLocks(BenchReporter& reporter, int iters) {
  auto cluster = DsmCluster::Create(Cfg(2));
  MP_CHECK(cluster.ok());
  double us = 0;
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      us = MeasureUs(
          [&] {
            node.Lock(1);
            node.Unlock(1);
          },
          iters);
    }
    node.Barrier();
  });
  PrintRow("lock + unlock (uncontended, remote manager)", us, "67-80");
  reporter.AddUs("lock + unlock (uncontended, remote manager)", "", us,
                 static_cast<uint64_t>(iters));
}

// Shared allocation on a started 4-host cluster: the mean of 256 back-to-back
// 672-byte SharedMalloc calls (a WATER molecule) on host 0, which allocates
// inline, and on another host, which asks host 0 and polls for the reply;
// then the mean first call on host 0 of `fresh` fresh clusters.
void MeasureSharedMalloc(BenchReporter& reporter, int fresh) {
  constexpr int kCalls = 256;
  constexpr uint64_t kBytes = 672;
  const auto malloc_us = [](DsmNode& node, int calls) {
    const uint64_t t0 = MonotonicNowNs();
    for (int i = 0; i < calls; ++i) {
      MP_CHECK(node.SharedMalloc(kBytes).ok());
    }
    return static_cast<double>(MonotonicNowNs() - t0) / 1000.0 / calls;
  };
  auto cluster = DsmCluster::Create(Cfg(4));
  MP_CHECK(cluster.ok());
  double host0_us = 0;
  double other_us = 0;
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 0) {
      host0_us = malloc_us(node, kCalls);
    }
    node.Barrier();
    if (host == 1) {
      other_us = malloc_us(node, kCalls);
    }
  });
  double first_us = 0;
  for (int i = 0; i < fresh; ++i) {
    auto fresh_cluster = DsmCluster::Create(Cfg(4));
    MP_CHECK(fresh_cluster.ok());
    (*fresh_cluster)->RunOnManager([&](DsmNode& node) { first_us += malloc_us(node, 1); });
  }
  first_us /= fresh;
  const std::string params = "hosts=4 bytes=" + std::to_string(kBytes);
  PrintRow("shared malloc, allocator host", host0_us, "n/a (manager-served malloc)");
  reporter.AddUs("shared malloc, allocator host", params, host0_us, kCalls);
  PrintRow("shared malloc, other host", other_us, "n/a (manager-served malloc)");
  reporter.AddUs("shared malloc, other host", params, other_us, kCalls);
  PrintRow("shared malloc, first call on a fresh cluster", first_us,
           "n/a (manager-served malloc)");
  reporter.AddUs("shared malloc, first call on a fresh cluster", params, first_us,
                 static_cast<uint64_t>(fresh));
}

void MeasureDiffs(BenchReporter& reporter, int iters) {
  for (size_t bytes : {1024UL, 4096UL, 16384UL}) {
    std::vector<char> page(bytes);
    for (size_t i = 0; i < bytes; ++i) {
      page[i] = static_cast<char>(i * 13);
    }
    Twin twin(page.data(), bytes);
    // Dirty ~25% of the page in scattered words (typical write pattern).
    for (size_t i = 0; i < bytes; i += 16) {
      page[i] = static_cast<char>(page[i] + 1);
    }
    const double create_us =
        MeasureUs([&] { (void)CreateDiff(twin, page.data(), bytes); }, iters);
    char label[64];
    std::snprintf(label, sizeof(label), "run-length diff creation, %zu-byte page", bytes);
    PrintRow(label, create_us, bytes == 4096 ? "250 (linear in size)" : "linear in size");
    reporter.AddUs(label, "bytes=" + std::to_string(bytes), create_us,
                   static_cast<uint64_t>(iters));
  }
  PrintNote("the thin-layer protocol never pays this cost: no twins, no diffs.");
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_sec42_dsm_costs", env);
  PrintHeader("Section 4.2: DSM operation costs (live protocol)");
  const int fault_rounds = env.Scaled(300, 20);
  MeasureFaults(reporter, fault_rounds, 128, "204", "212-366");
  MeasureFaults(reporter, fault_rounds, 4096, "314", "327-480");
  const std::vector<uint16_t> inval_hosts =
      env.smoke() ? std::vector<uint16_t>{2, 4} : std::vector<uint16_t>{2, 4, 8};
  MeasureInvalidationScaling(reporter, env.Scaled(150, 10), inval_hosts);
  const std::vector<uint16_t> barrier_hosts =
      env.smoke() ? std::vector<uint16_t>{1, 2, 4} : std::vector<uint16_t>{1, 2, 4, 8};
  MeasureBarriers(reporter, env.Scaled(400, 30), barrier_hosts);
  MeasureLocks(reporter, env.Scaled(500, 50));
  MeasureSharedMalloc(reporter, env.Scaled(20, 5));
  MeasureDiffs(reporter, env.Scaled(2000, 100));
  PrintNote("paper values include Myrinet latency + the NT timer/polling delay; shapes to");
  PrintNote("check: 4 KB faults cost more than 128 B; write cost grows with copyset size;");
  PrintNote("barriers grow linearly with hosts; diff cost grows linearly with page size.");
  return reporter.Finish();
}
