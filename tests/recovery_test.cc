// Host-death recovery on the threaded stack: hand-assembled nodes over one
// InProcTransport, each behind its own FaultyTransport so a test can declare
// a peer dead exactly when the cluster is quiescent. Each scenario kills
// non-zero hosts and asserts the recovery subsystem's contract:
// survivors bump the membership epoch (never abort), an adopting shard
// rebuilds and serves the dead shard's minipages, and a minipage whose sole
// copy died surfaces as a per-access kNotFound — not a cluster failure.
//
// Kills are injected only at quiescent points (no request in flight touching
// the victim), mirroring the fail-stop model the recovery layer assumes; the
// deterministic simulator (sim_test) covers deaths at arbitrary points in
// the schedule.

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/time_util.h"
#include "src/dsm/node.h"
#include "src/net/faulty_transport.h"
#include "src/net/inproc_transport.h"

namespace millipage {
namespace {

// Epoch bumps propagate through the server threads; every wait below must
// resolve well inside this budget or the recovery path has stalled.
constexpr uint64_t kRecoverBudgetMs = 5000;

DsmConfig RecoveryConfig(uint32_t num_hosts = 3) {
  DsmConfig cfg;
  cfg.num_hosts = num_hosts;
  cfg.object_size = 1 << 20;
  cfg.manager_policy = ManagerPolicy::kSharded;  // recovery requires shards
  cfg.request_timeout_ms = 200;
  cfg.max_request_retries = 3;
  cfg.sync_timeout_ms = 5000;
  return cfg;
}

// cfg.num_hosts nodes, each behind its own FaultyTransport. Killing host V
// means calling KillPeer(V) on every survivor's decorator: each raises
// peer-down locally, and the epoch-bump broadcast reconciles whoever learns
// second.
struct FaultyCluster {
  InProcTransport inner;
  std::vector<std::unique_ptr<FaultyTransport>> transports;
  std::vector<std::unique_ptr<DsmNode>> nodes;

  explicit FaultyCluster(const DsmConfig& cfg) : inner(cfg.num_hosts) {
    for (HostId h = 0; h < cfg.num_hosts; ++h) {
      transports.push_back(std::make_unique<FaultyTransport>(&inner));
      Result<std::unique_ptr<DsmNode>> r = DsmNode::Create(cfg, h, transports.back().get());
      MP_CHECK(r.ok()) << r.status().ToString();
      nodes.push_back(std::move(*r));
    }
    for (auto& n : nodes) {
      n->Start();
    }
  }
  ~FaultyCluster() {
    for (auto& n : nodes) {
      n->BeginShutdown();
    }
    for (auto n = nodes.rbegin(); n != nodes.rend(); ++n) {
      (*n)->Stop();
    }
  }

  DsmNode& node(HostId h) { return *nodes[h]; }

  // Declares `victim` dead on every survivor's transport.
  void Kill(HostId victim) {
    for (HostId h = 0; h < transports.size(); ++h) {
      if (h != victim) {
        transports[h]->KillPeer(victim);
      }
    }
  }

  // Waits until `host`'s membership epoch reaches `epoch`.
  [[nodiscard]] bool AwaitEpoch(HostId host, uint32_t epoch) {
    const uint64_t start = MonotonicNowNs();
    while (node(host).member_epoch() < epoch) {
      if ((MonotonicNowNs() - start) / 1000000 > kRecoverBudgetMs) {
        return false;
      }
      ::usleep(1000);
    }
    return true;
  }
};

// ---- Epoch bump: death is recovery, not abort ------------------------------

TEST(Recovery, PeerDeathBumpsEpochAndSurvivorsStayLive) {
  FaultyCluster trio(RecoveryConfig());
  trio.Kill(2);
  ASSERT_TRUE(trio.AwaitEpoch(0, 1)) << "host 0 never bumped";
  ASSERT_TRUE(trio.AwaitEpoch(1, 1)) << "host 1 never bumped";
  for (const HostId h : {HostId{0}, HostId{1}}) {
    EXPECT_EQ(trio.node(h).dead_set(), HostSet::Single(2)) << "host " << h;
    EXPECT_GE(trio.node(h).epoch_bumps(), 1u) << "host " << h;
    // Recovery, not the sticky abort: the node is still fully operational.
    EXPECT_TRUE(trio.node(h).health().ok()) << trio.node(h).health().ToString();
  }
  // Survivors can still synchronize. With three hosts the barrier shard
  // (kBarrierShardId mod 3) is host 2 — the victim — so this barrier only
  // completes if a survivor adopted the barrier queue and releases on the
  // two-host live quorum.
  Status st0, st1;
  std::thread b0([&] { st0 = trio.node(0).TryBarrier(); });
  std::thread b1([&] { st1 = trio.node(1).TryBarrier(); });
  b0.join();
  b1.join();
  EXPECT_TRUE(st0.ok()) << st0.ToString();
  EXPECT_TRUE(st1.ok()) << st1.ToString();
}

// Two deaths: each bump datagram carries one dead host id, so a host that
// learns of both deaths only from a peer's bumps still converges on the full
// dead set.
TEST(Recovery, SecondDeathReachesPeerThroughPerHostBumps) {
  FaultyCluster cluster(RecoveryConfig(4));
  DsmNode& n0 = cluster.node(0);
  DsmNode& n1 = cluster.node(1);
  Result<GlobalAddr> a = n0.SharedMalloc(16 * sizeof(int));  // id 0, shard 0
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  n0.CloseChunk();
  ASSERT_TRUE(n0.FaultService(a->view, a->offset, /*is_write=*/true).ok());
  reinterpret_cast<int*>(n0.AppPtr(*a))[0] = 4242;
  ::usleep(100 * 1000);  // quiesce: no transaction in flight at the kill

  cluster.Kill(2);
  for (const HostId h : {HostId{0}, HostId{1}, HostId{3}}) {
    ASSERT_TRUE(cluster.AwaitEpoch(h, 1)) << "host " << h << " never bumped";
  }
  // Only host 0 detects the second death; host 1 hears of it from host 0.
  cluster.transports[0]->KillPeer(3);
  ASSERT_TRUE(cluster.AwaitEpoch(1, 2)) << "host 1 never reached epoch 2";
  HostSet both = HostSet::Single(2);
  both.Add(3);
  const uint64_t start = MonotonicNowNs();
  while (n1.dead_set() != both && (MonotonicNowNs() - start) / 1000000 < kRecoverBudgetMs) {
    ::usleep(1000);
  }
  EXPECT_EQ(n1.dead_set(), both);
  EXPECT_EQ(n1.member_epoch(), 2u);

  const Status read = n1.FaultService(a->view, a->offset, /*is_write=*/false);
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(reinterpret_cast<const int*>(n1.AppPtr(*a))[0], 4242);
  EXPECT_TRUE(n1.health().ok()) << n1.health().ToString();
}

// ---- Shard failover: an adopter serves the dead shard's minipages ----------

TEST(Recovery, AdoptedShardRebuildsAndServesDeadShardsMinipage) {
  FaultyCluster trio(RecoveryConfig());
  DsmNode& n0 = trio.node(0);
  DsmNode& n2 = trio.node(2);

  // Two single-minipage allocations: id 0 hashes to shard 0, id 1 to shard 1.
  Result<GlobalAddr> a = n0.SharedMalloc(16 * sizeof(int));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  n0.CloseChunk();
  Result<GlobalAddr> b = n0.SharedMalloc(16 * sizeof(int));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  n0.CloseChunk();

  // Host 0 takes write access to shard 1's minipage and fills it, so when
  // shard 1 dies the *directory* is gone but a live copy survives on host 0.
  ASSERT_TRUE(n0.FaultService(b->view, b->offset, /*is_write=*/true).ok());
  int* data0 = reinterpret_cast<int*>(n0.AppPtr(*b));
  for (int i = 0; i < 16; ++i) {
    data0[i] = 9100 + i;
  }
  ::usleep(100 * 1000);  // quiesce: no transaction in flight at the kill

  trio.Kill(1);
  ASSERT_TRUE(trio.AwaitEpoch(0, 1));
  ASSERT_TRUE(trio.AwaitEpoch(2, 1));

  // Host 2 reads the adopted minipage: the surviving shard that now owns id 1
  // has no directory entry for it, rebuilds one by querying the live hosts
  // (finding host 0's copy), and forwards the fetch.
  const Status fetch = n2.FaultService(b->view, b->offset, /*is_write=*/false);
  ASSERT_TRUE(fetch.ok()) << fetch.ToString();
  const int* data2 = reinterpret_cast<const int*>(n2.AppPtr(*b));
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(data2[i], 9100 + i) << "index " << i;
  }
  EXPECT_GE(n0.shards_adopted() + n2.shards_adopted(), 1u)
      << "no survivor recorded adopting the dead shard's id";
}

// ---- Copyset repair: sole-copy loss is a per-minipage error ----------------

TEST(Recovery, SoleCopyLossIsPerMinipageNotFound) {
  FaultyCluster trio(RecoveryConfig());
  DsmNode& n0 = trio.node(0);
  DsmNode& n1 = trio.node(1);
  DsmNode& n2 = trio.node(2);

  Result<GlobalAddr> a = n0.SharedMalloc(16 * sizeof(int));  // id 0, shard 0
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  n0.CloseChunk();
  Result<GlobalAddr> b = n0.SharedMalloc(16 * sizeof(int));  // id 1, shard 1
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  n0.CloseChunk();

  // Host 2 write-faults id 1: the write invalidates host 0's copy, leaving
  // host 2 the minipage's only replica. Its shard (host 1) survives the kill,
  // so what dies with host 2 is purely the data.
  ASSERT_TRUE(n2.FaultService(b->view, b->offset, /*is_write=*/true).ok());
  ::usleep(100 * 1000);  // let the invalidation round fully retire

  trio.Kill(2);
  ASSERT_TRUE(trio.AwaitEpoch(0, 1));
  ASSERT_TRUE(trio.AwaitEpoch(1, 1));

  // A survivor touching the minipage gets a per-access error, not a hang or
  // a cluster abort...
  const Status lost = n0.FaultService(b->view, b->offset, /*is_write=*/false);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.code(), StatusCode::kNotFound) << lost.ToString();
  EXPECT_TRUE(n0.IsLost(1));
  // ...because the shard declared it lost during copyset repair. Checked only
  // now: the epoch is published before the repair runs, so AwaitEpoch alone
  // can return mid-repair, while the shard's reply above comes after it.
  EXPECT_GE(n1.minipages_lost(), 1u);

  // The loss is scoped to that one minipage: id 0 still reads and writes.
  EXPECT_TRUE(n0.FaultService(a->view, a->offset, /*is_write=*/true).ok());
  EXPECT_TRUE(n1.FaultService(a->view, a->offset, /*is_write=*/false).ok());
  EXPECT_TRUE(n0.health().ok());
  EXPECT_TRUE(n1.health().ok());
}

// ---- Survivor poll: what only the survivors' answers can settle ------------

// The adopted id's home shard was also its only holder: the adopter's poll
// finds no live copy, so the id is declared lost at the adopter instead of
// waiting for a copy that no longer exists.
TEST(Recovery, AdoptedIdWithNoLiveCopyIsNotFound) {
  FaultyCluster trio(RecoveryConfig());
  DsmNode& n0 = trio.node(0);
  DsmNode& n1 = trio.node(1);
  DsmNode& n2 = trio.node(2);

  Result<GlobalAddr> a = n0.SharedMalloc(16 * sizeof(int));  // id 0, shard 0
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  n0.CloseChunk();
  Result<GlobalAddr> b = n0.SharedMalloc(16 * sizeof(int));  // id 1, shard 1
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  n0.CloseChunk();

  // Host 1 write-faults its own shard's minipage: the write invalidates host
  // 0's copy, so host 1 is both id 1's home shard and its only holder.
  ASSERT_TRUE(n1.FaultService(b->view, b->offset, /*is_write=*/true).ok());
  ::usleep(100 * 1000);  // let the invalidation round fully retire

  trio.Kill(1);
  ASSERT_TRUE(trio.AwaitEpoch(0, 1));
  ASSERT_TRUE(trio.AwaitEpoch(2, 1));

  // Id 1 rehashes to host 2, which has no entry for it. Its poll asks host 0,
  // which holds no copy either, so the id is lost: the fault fails per access
  // instead of hanging.
  const Status lost = n0.FaultService(b->view, b->offset, /*is_write=*/false);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.code(), StatusCode::kNotFound) << lost.ToString();
  EXPECT_TRUE(n0.IsLost(1));
  EXPECT_GE(n2.minipages_lost(), 1u);

  // The loss is scoped to that one minipage.
  EXPECT_TRUE(n2.FaultService(a->view, a->offset, /*is_write=*/false).ok());
  EXPECT_TRUE(n0.health().ok());
  EXPECT_TRUE(n2.health().ok());
}

// With three hosts the barrier shard is host 2. Host 0's release for round 0
// is lost, so host 0 is still waiting when host 2 dies, while host 1 has
// completed the round and enters no further barrier. Host 0 adopts the
// barrier and re-sends its round-0 entry. Only host 1's poll answer (one
// round completed) proves that round 0 met its quorum at the dead shard:
// without it the entry would wait for host 1 until sync_timeout_ms.
TEST(Recovery, AdoptedBarrierReleasesStragglerOnPollAnswer) {
  const DsmConfig cfg = RecoveryConfig();
  FaultyCluster trio(cfg);
  // A release keeps its entry's header, sender field included, so the rule
  // matches any sender.
  trio.transports[0]->DropReceives(kAnyHost, MsgType::kBarrierRelease, 1);

  Status st0, st1, st2;
  uint64_t released_ns = 0;
  std::thread straggler([&] {
    st0 = trio.node(0).TryBarrier();
    released_ns = MonotonicNowNs();
  });
  std::thread b1([&] { st1 = trio.node(1).TryBarrier(); });
  std::thread b2([&] { st2 = trio.node(2).TryBarrier(); });
  b1.join();
  b2.join();
  const uint64_t start = MonotonicNowNs();
  while (trio.transports[0]->receives_dropped() == 0 &&
         (MonotonicNowNs() - start) / 1000000 < kRecoverBudgetMs) {
    ::usleep(1000);
  }
  const uint64_t dropped = trio.transports[0]->receives_dropped();

  const uint64_t kill_ns = MonotonicNowNs();
  trio.Kill(2);
  straggler.join();
  ASSERT_TRUE(st1.ok()) << st1.ToString();
  ASSERT_TRUE(st2.ok()) << st2.ToString();
  ASSERT_EQ(dropped, 1u) << "host 0's round-0 release was not dropped";
  EXPECT_TRUE(st0.ok()) << st0.ToString();
  EXPECT_LT((released_ns - kill_ns) / 1000000, cfg.sync_timeout_ms / 5)
      << "the straggler waited for a quorum instead of the poll answer";
  EXPECT_EQ(trio.node(0).shards_adopted(), 1u);
  EXPECT_TRUE(trio.node(0).health().ok());
  EXPECT_TRUE(trio.node(1).health().ok());
}

// ---- Metrics: the recovery counters are exported --------------------------

TEST(Recovery, RecoveryCountersAppearInMetricsSnapshot) {
  FaultyCluster trio(RecoveryConfig());
  trio.Kill(2);
  ASSERT_TRUE(trio.AwaitEpoch(0, 1));

  MetricsSnapshot snap = trio.node(0).SnapshotMetrics();
  const std::string json = snap.DumpJson();
  for (const char* key : {"dsm.epoch_bumps", "dsm.shards_adopted",
                          "dsm.copyset_repairs", "dsm.minipages_lost"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_GE(snap.counters.at("dsm.epoch_bumps"), 1u);
  // The detect-to-done recovery latency histogram recorded the repair.
  EXPECT_NE(json.find("dsm.recovery_ns"), std::string::npos);
}

}  // namespace
}  // namespace millipage
