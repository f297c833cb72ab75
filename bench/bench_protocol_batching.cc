// Coherence-protocol batching: datagrams and bytes per write-invalidation
// round, batched (DsmConfig::batch_coherence, multi-record frames behind
// kFlagBatched) vs the paper's one-datagram-per-minipage protocol.
//
// Workload: `hosts` hosts share hosts·hosts single-minipage arrays. Each
// round, every host reads every array (building an all-host copyset per
// array, fan-out = hosts - 1 ≥ 5), then every host write-faults its own
// block of `hosts` arrays simultaneously. The concurrent write bursts put
// many invalidation rounds in flight at the same manager, so the coalescer
// can fold same-destination invalidate requests — and their replies, and
// the completion ACKs — into multi-record frames. The block size equals the
// host count on purpose: array a is written by host a/hosts but served by
// shard a mod hosts, so at write step k every writer is in a round at shard
// k mod hosts — the full writer population stacks at one shard at a time.
// The coalescer sends every open batch when the server's mailbox drains, so
// a frame folds only the records already queued together at that moment:
// the measured records/frame is the depth the concurrent rounds themselves
// produce, with no wait added to deepen it. (A worker blocks inside each
// fault, so one writer alone can never put two rounds in the air; depth
// comes only from distinct writers.)
//
// Reported per (policy, batching) cell: wall time, write-segment datagrams
// and bytes per write op (one host's write of one array — i.e., one
// invalidation round), multi-record frames and the records they carried, and
// records/frame — the per-datagram compression of the invalidation path.
// The msgs/op ratio of the off/on cells is the end-to-end datagram saving.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"

namespace millipage {
namespace {

int g_rounds = 30;

// Arrays written per host per burst. Equal to the host count so lockstep
// writers converge on one shard per step (see the header comment): the
// concurrent-round depth available for folding is then `hosts` under both
// manager policies, instead of gcd(block, hosts) writers per shard.
int ArraysPerHost(uint16_t hosts) { return hosts; }

DsmConfig Cfg(uint16_t hosts, ManagerPolicy policy, bool batch) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 1 << 20;
  cfg.num_views = 8;
  cfg.manager_policy = policy;
  cfg.batch_coherence = batch;
  return cfg;
}

struct BatchingResult {
  double wall_ms = 0;
  uint64_t write_ops = 0;      // write faults measured (rounds × arrays)
  uint64_t write_msgs = 0;     // datagrams sent during the write segments
  uint64_t write_bytes = 0;
  uint64_t batch_frames = 0;   // multi-record frames among them
  uint64_t batch_records = 0;  // records those frames carried
  uint64_t inv_msgs = 0;       // datagrams on the invalidation round paths
  uint64_t inv_records = 0;    // protocol records those datagrams carried
};

BatchingResult RunBatching(uint16_t hosts, ManagerPolicy policy, bool batch) {
  auto cluster = DsmCluster::Create(Cfg(hosts, policy, batch));
  MP_CHECK(cluster.ok()) << cluster.status().ToString();
  const int arrays = ArraysPerHost(hosts) * hosts;
  std::vector<GlobalPtr<int>> ptrs(arrays);
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int a = 0; a < arrays; ++a) {
      ptrs[a] = SharedAlloc<int>(16);
      ptrs[a][0] = 0;
    }
  });

  // Per-host counter snapshots bracketing the write segments, taken by each
  // host on its own node between barriers.
  std::vector<uint64_t> msgs0(hosts), msgs1(hosts), bytes0(hosts), bytes1(hosts);
  std::vector<uint64_t> frames0(hosts), frames1(hosts), recs0(hosts), recs1(hosts);
  std::vector<uint64_t> cmsgs0(hosts), cmsgs1(hosts), crecs0(hosts), crecs1(hosts);

  const uint64_t t0 = MonotonicNowNs();
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    for (int r = 0; r < g_rounds; ++r) {
      // Read phase: every array's copyset grows to all hosts.
      for (int a = 0; a < arrays; ++a) {
        volatile int sink = ptrs[a][0];
        (void)sink;
      }
      node.Barrier();
      {
        const HostCounters c = node.counters();
        msgs0[host] = c.messages_sent;
        bytes0[host] = c.bytes_sent;
        frames0[host] = c.batch_frames_sent;
        recs0[host] = c.batch_records_sent;
        cmsgs0[host] = c.coalesced_msgs_sent;
        crecs0[host] = c.coalesced_records;
        if (r == 0) {
          msgs1[host] = bytes1[host] = frames1[host] = recs1[host] = 0;
          cmsgs1[host] = crecs1[host] = 0;
        }
      }
      node.Barrier();
      // Write burst: every host invalidates the full copyset of its two
      // arrays, concurrently with every other host's burst.
      for (int a = ArraysPerHost(hosts) * host; a < ArraysPerHost(hosts) * (host + 1); ++a) {
        ptrs[a][0] = ptrs[a][0] + r + 1;
      }
      node.Barrier();
      {
        const HostCounters c = node.counters();
        msgs1[host] += c.messages_sent - msgs0[host];
        bytes1[host] += c.bytes_sent - bytes0[host];
        frames1[host] += c.batch_frames_sent - frames0[host];
        recs1[host] += c.batch_records_sent - recs0[host];
        cmsgs1[host] += c.coalesced_msgs_sent - cmsgs0[host];
        crecs1[host] += c.coalesced_records - crecs0[host];
      }
      node.Barrier();
    }
  });

  BatchingResult out;
  out.wall_ms = static_cast<double>(MonotonicNowNs() - t0) / 1e6;
  out.write_ops = static_cast<uint64_t>(g_rounds) * static_cast<uint64_t>(arrays);
  for (uint16_t h = 0; h < hosts; ++h) {
    out.write_msgs += msgs1[h];
    out.write_bytes += bytes1[h];
    out.batch_frames += frames1[h];
    out.batch_records += recs1[h];
    out.inv_msgs += cmsgs1[h];
    out.inv_records += crecs1[h];
  }
  return out;
}

void Report(BenchReporter& reporter, uint16_t hosts, ManagerPolicy policy, bool batch,
            double* msgs_per_op_out, double* inv_msgs_per_op_out) {
  const BatchingResult r = RunBatching(hosts, policy, batch);
  const char* policy_name = policy == ManagerPolicy::kSharded ? "sharded" : "centralized";
  const double msgs_per_op =
      static_cast<double>(r.write_msgs) / static_cast<double>(r.write_ops);
  const double bytes_per_op =
      static_cast<double>(r.write_bytes) / static_cast<double>(r.write_ops);
  const double inv_msgs_per_op =
      static_cast<double>(r.inv_msgs) / static_cast<double>(r.write_ops);
  const double recs_per_frame =
      r.batch_frames > 0
          ? static_cast<double>(r.batch_records) / static_cast<double>(r.batch_frames)
          : 0.0;
  std::printf("  %-8u %-12s %-8s %9.1f %10.2f %11.0f %11.2f %8lu %9lu %11.2f\n", hosts,
              policy_name, batch ? "on" : "off", r.wall_ms, msgs_per_op, bytes_per_op,
              inv_msgs_per_op, static_cast<unsigned long>(r.batch_frames),
              static_cast<unsigned long>(r.batch_records), recs_per_frame);
  BenchResult row;
  row.name = "write_invalidation_round";
  row.params = "hosts=" + std::to_string(hosts) + " policy=" + policy_name +
               " batch=" + (batch ? std::string("on") : std::string("off"));
  row.iterations = r.write_ops;
  row.ns_per_op = r.wall_ms * 1e6 / static_cast<double>(r.write_ops);
  row.values["msgs_per_op"] = msgs_per_op;
  row.values["bytes_per_op"] = bytes_per_op;
  row.values["batch_frames"] = static_cast<double>(r.batch_frames);
  row.values["batch_records"] = static_cast<double>(r.batch_records);
  row.values["records_per_frame"] = recs_per_frame;
  row.values["inv_msgs_per_op"] = inv_msgs_per_op;
  row.values["inv_records_per_op"] =
      static_cast<double>(r.inv_records) / static_cast<double>(r.write_ops);
  row.values["fanout"] = hosts - 1;
  reporter.Add(std::move(row));
  if (msgs_per_op_out != nullptr) {
    *msgs_per_op_out = msgs_per_op;
  }
  if (inv_msgs_per_op_out != nullptr) {
    *inv_msgs_per_op_out = inv_msgs_per_op;
  }
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_protocol_batching", env);
  g_rounds = env.Scaled(30, 5);
  setvbuf(stdout, nullptr, _IONBF, 0);
  PrintHeader("Coherence batching: datagrams per write-invalidation round");
  std::printf("  %-8s %-12s %-8s %9s %10s %11s %11s %8s %9s %11s\n", "hosts",
              "policy", "batch", "wall ms", "msgs/op", "bytes/op", "inv msgs/op",
              "frames", "records", "recs/frame");
  const uint16_t hosts = env.smoke() ? 6 : 10;  // fan-out 5 (smoke) / 9 (full)
  for (const ManagerPolicy policy :
       {ManagerPolicy::kCentralized, ManagerPolicy::kSharded}) {
    double on = 0, off = 0, inv_on = 0, inv_off = 0;
    Report(reporter, hosts, policy, /*batch=*/true, &on, &inv_on);
    Report(reporter, hosts, policy, /*batch=*/false, &off, &inv_off);
    if (on > 0 && inv_on > 0) {
      std::printf(
          "  %-8s %-12s datagram reduction: %.2fx fewer msgs/op end-to-end, "
          "%.2fx on the invalidation round\n",
          "", policy == ManagerPolicy::kSharded ? "sharded" : "centralized",
          off / on, inv_off / inv_on);
    }
  }
  return reporter.Finish();
}
