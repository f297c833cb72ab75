// Membership-epoch overhead on the no-failure fast path. Every datagram now
// carries an epoch tag packed into the wire `from` field and every receive
// runs the stale-epoch gate, so the recovery subsystem taxes all traffic —
// this bench prices that tax:
//
//   * epoch_tag_ops: the pure header arithmetic (pack + unpack + staleness
//     test), the per-message cost with no protocol around it;
//   * read_fault / lock_roundtrip: end-to-end operation latency on a healthy
//     sharded cluster with recovery enabled — the paths CI gates via
//     ci/check_bench.py so an epoch-check regression on the hot path fails
//     the perf smoke, not a reviewer's eyeball.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/net/message.h"

namespace millipage {
namespace {

// Header-only epoch arithmetic: what every single send and receive pays.
void BenchTagOps(BenchReporter& reporter, const BenchEnv& env) {
  const int iters = env.Scaled(2'000'000, 50'000);
  volatile uint32_t sink = 0;
  const double us = MeasureUs(
      [&] {
        // One send-side pack plus the receive-side unpack and staleness gate,
        // over a rolling epoch so the wraparound comparison is exercised.
        const uint32_t epoch = sink & 0x7ffu;
        const uint16_t from = WireCodec::Pack(3, epoch);
        const uint32_t tag = WireCodec::EpochTag(from);
        sink = sink + WireCodec::Host(from) +
               (WireCodec::TagStale(tag, epoch & WireCodec::kEpochMask) ? 1u : 0u);
      },
      iters, 3);
  PrintRow("epoch tag pack+unpack+stale check", us, "n/a (new subsystem)");
  BenchResult row;
  row.name = "epoch_tag_ops";
  row.params = "pack+unpack+stale";
  row.iterations = static_cast<uint64_t>(iters);
  row.ns_per_op = us * 1000.0;
  reporter.Add(std::move(row));
}

// Healthy-cluster operation latency with the epoch gate on every message.
void BenchNoFailurePaths(BenchReporter& reporter, const BenchEnv& env) {
  DsmConfig cfg;
  cfg.num_hosts = 2;
  cfg.object_size = 1 << 20;
  cfg.num_views = 8;
  cfg.manager_policy = ManagerPolicy::kSharded;  // the recovery-capable shape
  auto cluster = DsmCluster::Create(cfg);
  MP_CHECK(cluster.ok()) << cluster.status().ToString();

  const int rounds = env.Scaled(400, 40);
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(8);
    *p = 0;
  });
  // Ping-pong write/read: every round is a remote fault pair, each message
  // stamped and gate-checked. Wall time per round prices the full path.
  const uint64_t t0 = MonotonicNowNs();
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    for (int r = 0; r < rounds; ++r) {
      if (host == static_cast<HostId>(r % 2)) {
        p[0] = r;
      }
      node.Barrier();
    }
  });
  const double fault_ns = static_cast<double>(MonotonicNowNs() - t0) / rounds;

  const uint64_t t1 = MonotonicNowNs();
  (*cluster)->RunParallel([&](DsmNode& node, HostId) {
    for (int r = 0; r < rounds; ++r) {
      node.Lock(1);
      node.Unlock(1);
    }
  });
  const double lock_ns = static_cast<double>(MonotonicNowNs() - t1) / rounds;

  PrintRow("sharded fault round (epoch gate on)", fault_ns / 1000.0, "n/a");
  PrintRow("sharded lock round (epoch gate on)", lock_ns / 1000.0, "n/a");
  BenchResult fault_row;
  fault_row.name = "no_failure_fault_round";
  fault_row.params = "hosts=2 sharded recovery=on";
  fault_row.iterations = static_cast<uint64_t>(rounds);
  fault_row.ns_per_op = fault_ns;
  reporter.Add(std::move(fault_row));
  BenchResult lock_row;
  lock_row.name = "no_failure_lock_round";
  lock_row.params = "hosts=2 sharded recovery=on";
  lock_row.iterations = static_cast<uint64_t>(rounds);
  lock_row.ns_per_op = lock_ns;
  reporter.Add(std::move(lock_row));
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_epoch", env);
  setvbuf(stdout, nullptr, _IONBF, 0);
  PrintHeader("Membership-epoch overhead on the no-failure path");
  BenchTagOps(reporter, env);
  BenchNoFailurePaths(reporter, env);
  PrintNote("the epoch tag rides in previously-unused high bits of the wire `from`");
  PrintNote("field, so the header stays 32 bytes and the no-failure cost is the");
  PrintNote("pack/unpack arithmetic plus one predictable branch per receive.");
  return reporter.Finish();
}
