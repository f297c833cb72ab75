// Sharded minipage management (ManagerPolicy::kSharded): each host runs a
// directory shard and services the minipage, lock, and barrier ids that hash
// to it; host 0 keeps the MPT and routes translated requests to the owning
// shard. These tests verify the results match the centralized manager, that
// request service genuinely spreads across hosts, and the copyset hardening
// (empty-copyset PickReplica, 64-host mask limit) the sharded paths rely on.

#include <gtest/gtest.h>

#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/time_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/directory.h"
#include "src/dsm/global_ptr.h"
#include "src/dsm/node.h"
#include "src/lrc/lrc_cluster.h"
#include "src/net/faulty_transport.h"
#include "src/net/inproc_transport.h"

namespace millipage {
namespace {

DsmConfig ShardedCfg(uint16_t hosts) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 1 << 20;
  cfg.num_views = 8;
  cfg.manager_policy = ManagerPolicy::kSharded;
  // MILLIPAGE_FAULT_BACKEND=sigsegv re-runs the suite on the mprotect
  // fallback (unset is the userfaultfd default).
  cfg.fault_backend = FaultBackendFromEnv();
  return cfg;
}

// The same deterministic workload — disjoint writers, full cross-reads —
// must produce identical shared-memory contents whether the directory is
// centralized or sharded.
TEST(Sharded, ValuesMatchCentralized) {
  constexpr uint16_t kHosts = 4;
  constexpr int kArrays = 8;
  for (ManagerPolicy policy : {ManagerPolicy::kCentralized, ManagerPolicy::kSharded}) {
    DsmConfig cfg = ShardedCfg(kHosts);
    cfg.manager_policy = policy;
    auto cluster = DsmCluster::Create(cfg);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    std::vector<GlobalPtr<int>> arrays(kArrays);
    (*cluster)->RunOnManager([&](DsmNode&) {
      for (int a = 0; a < kArrays; ++a) {
        arrays[a] = SharedAlloc<int>(16);
        arrays[a][0] = 0;
      }
    });
    (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
      node.Barrier();
      for (int a = 0; a < kArrays; ++a) {
        if (a % kHosts == host) {
          arrays[a][0] = 1000 + a;  // each array has exactly one writer
        }
      }
      node.Barrier();
      for (int a = 0; a < kArrays; ++a) {
        EXPECT_EQ(arrays[a][0], 1000 + a) << "host " << host << " array " << a;
      }
      node.Barrier();
    });
  }
}

// With writers spread over many minipages, every host's shard must service
// requests — and only host 0 (the MPT host) routes translated requests away.
TEST(Sharded, RequestsSpreadAcrossShards) {
  constexpr uint16_t kHosts = 4;
  constexpr int kArrays = 12;
  auto cluster = DsmCluster::Create(ShardedCfg(kHosts));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  std::vector<GlobalPtr<int>> arrays(kArrays);
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int a = 0; a < kArrays; ++a) {
      arrays[a] = SharedAlloc<int>(16);
      arrays[a][0] = a;
    }
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    for (int round = 0; round < 3; ++round) {
      for (int a = 0; a < kArrays; ++a) {
        if ((a + round) % kHosts == host) {
          arrays[a][0] = arrays[a][0] + 1;  // rotating exclusive writer
        }
      }
      node.Barrier();
    }
  });
  uint64_t total_served = 0;
  for (uint16_t h = 0; h < kHosts; ++h) {
    Directory* dir = (*cluster)->node(h).directory();
    ASSERT_NE(dir, nullptr) << "sharded node " << h << " has no directory shard";
    const uint64_t served = dir->requests_served().value();
    EXPECT_GT(served, 0u) << "shard " << h << " serviced nothing";
    total_served += served;
    if (h != kManagerHost) {
      EXPECT_EQ(dir->remote_routed().value(), 0u) << "only the MPT host routes";
    }
  }
  EXPECT_GT((*cluster)->node(kManagerHost).directory()->remote_routed().value(), 0u)
      << "host 0 never handed a translated request to another shard";
  EXPECT_EQ((*cluster)->SnapshotMetrics().counters.at("mgr.requests_served"), total_served);
}

// The merged snapshot is the one place counters are read by name: every
// name the benchmark harness reads is there, each equal to the typed
// read-out it mirrors, and the coalescer pair is not exported as host.*
// (the harness adds those two from HostCounters itself).
TEST(Sharded, SnapshotCounterNamesMatchTypedReadOuts) {
  constexpr uint16_t kHosts = 4;
  auto cluster = DsmCluster::Create(ShardedCfg(kHosts));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  std::vector<GlobalPtr<int>> arrays(kHosts);
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (auto& a : arrays) {
      a = SharedAlloc<int>(16);
      a[0] = 0;
    }
  });
  GlobalPtr<int> total;
  (*cluster)->RunOnManager([&](DsmNode&) {
    total = SharedAlloc<int>(1);
    *total = 0;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    int sum = 0;
    for (const auto& a : arrays) {
      sum += a[0];  // read faults on every array
    }
    EXPECT_EQ(sum, 0);
    node.Barrier();
    arrays[host][0] = static_cast<int>(host) + 1;  // write faults, invalidation rounds
    node.Lock(7);
    *total = *total + 1;
    node.Unlock(7);
    node.Barrier();
  });
  for (uint16_t h = 0; h < kHosts; ++h) {
    (*cluster)->node(h).Stop();  // quiesce: no counter moves past this point
  }

  uint64_t fault_retries = 0, timeout_retries = 0, stale_replies = 0, bounced = 0;
  uint64_t invalidation_rounds = 0, mpt_lookups = 0, remote_routed = 0;
  for (uint16_t h = 0; h < kHosts; ++h) {
    DsmNode& node = (*cluster)->node(h);
    fault_retries += node.fault_retries();
    timeout_retries += node.timeout_retries();
    stale_replies += node.stale_replies();
    bounced += node.bounced_requests();
    const Directory* dir = node.directory();
    ASSERT_NE(dir, nullptr);
    invalidation_rounds += dir->invalidation_rounds().value();
    mpt_lookups += dir->mpt_lookups().value();
    remote_routed += dir->remote_routed().value();
  }
  const HostCounters c = (*cluster)->TotalCounters();
  const std::map<std::string, uint64_t> want = {
      {"host.read_faults", c.read_faults},
      {"host.write_faults", c.write_faults},
      {"host.competing_requests", c.competing_requests},
      {"host.batch_frames_sent", c.batch_frames_sent},
      {"host.batch_records_sent", c.batch_records_sent},
      {"dsm.fault_retries", fault_retries},
      {"dsm.timeout_retries", timeout_retries},
      {"dsm.stale_replies", stale_replies},
      {"dsm.bounced_requests", bounced},
      {"mgr.invalidation_rounds", invalidation_rounds},
      {"mgr.mpt_lookups", mpt_lookups},
      {"mgr.remote_routed", remote_routed},
  };
  const MetricsSnapshot s = (*cluster)->SnapshotMetrics();
  for (const auto& [name, value] : want) {
    auto it = s.counters.find(name);
    ASSERT_NE(it, s.counters.end()) << name << " missing from the snapshot";
    EXPECT_EQ(it->second, value) << name;
  }
  EXPECT_GT(c.read_faults, 0u);
  EXPECT_GT(c.write_faults, 0u);
  EXPECT_GT(invalidation_rounds, 0u);
  EXPECT_GT(remote_routed, 0u);
  for (const auto& [name, value] : s.counters) {
    EXPECT_NE(name.rfind("host.coalesced_", 0), 0u) << name << " would be counted twice";
  }
  EXPECT_EQ(s.counters.at("dsm.coalesced_msgs_sent"), c.coalesced_msgs_sent);
  EXPECT_EQ(s.counters.at("dsm.coalesced_records"), c.coalesced_records);
}

// A lock-protected counter per lock id, with ids hashing to every shard:
// exclusion and hand-off must hold when lock service is distributed.
TEST(Sharded, LocksHashAcrossShards) {
  constexpr uint16_t kHosts = 3;
  constexpr int kLocks = 6;
  constexpr int kRounds = 4;
  auto cluster = DsmCluster::Create(ShardedCfg(kHosts));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  GlobalPtr<int> counters;
  (*cluster)->RunOnManager([&](DsmNode&) {
    counters = SharedAlloc<int>(kLocks);
    for (int i = 0; i < kLocks; ++i) {
      counters[i] = 0;
    }
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId) {
    node.Barrier();
    for (int r = 0; r < kRounds; ++r) {
      for (int l = 0; l < kLocks; ++l) {
        node.Lock(l);
        counters[l] = counters[l] + 1;
        node.Unlock(l);
      }
    }
    node.Barrier();
  });
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int l = 0; l < kLocks; ++l) {
      EXPECT_EQ(counters[l], kHosts * kRounds) << "lock " << l;
    }
  });
}

// Routing regression for the zero-copy privileged-view path: when the owning
// shard itself holds the serving replica, it serves the request inline from
// its privileged view. Host 1 takes ownership of a minipage on shard 1, then
// host 0 faults it back — the request crosses translate → shard → requester.
TEST(Sharded, OwningShardServesItsOwnReplica) {
  auto cluster = DsmCluster::Create(ShardedCfg(2));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  GlobalPtr<int> a;
  GlobalPtr<int> b;
  (*cluster)->RunOnManager([&](DsmNode&) {
    a = SharedAlloc<int>(16);  // minipage 0 -> shard 0
    b = SharedAlloc<int>(16);  // minipage 1 -> shard 1
    a[0] = 1;
    b[0] = 2;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    if (host == 1) {
      b[0] = 22;  // host 1 becomes the sole holder of shard 1's minipage
    }
    node.Barrier();
    if (host == 0) {
      // Shard 1 is both manager and replica for b: the read is served inline
      // from its privileged view.
      EXPECT_EQ(b[0], 22);
    }
    node.Barrier();
  });
  Directory* shard1 = (*cluster)->node(1).directory();
  ASSERT_NE(shard1, nullptr);
  EXPECT_GT(shard1->requests_served().value(), 0u);
}

// LRC variant: sharded lock/barrier service under the relaxed protocol.
TEST(Sharded, LrcLocksAndBarriers) {
  constexpr uint16_t kHosts = 3;
  constexpr int kLocks = 5;
  constexpr int kRounds = 3;
  auto cluster = LrcCluster::Create(ShardedCfg(kHosts));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  LrcPtr<int> counters;
  (*cluster)->RunOnManager([&](LrcNode&) {
    counters = LrcAlloc<int>(kLocks);
    for (int i = 0; i < kLocks; ++i) {
      counters[i] = 0;
    }
  });
  (*cluster)->RunParallel([&](LrcNode& node, HostId) {
    node.Barrier();
    for (int r = 0; r < kRounds; ++r) {
      for (int l = 0; l < kLocks; ++l) {
        node.Lock(l);
        counters[l] = counters[l] + 1;
        node.Unlock(l);  // release: the diff reaches the home before hand-off
      }
    }
    node.Barrier();
  });
  (*cluster)->RunOnManager([&](LrcNode& node) {
    node.Lock(0);
    for (int l = 0; l < kLocks; ++l) {
      EXPECT_EQ(counters[l], kHosts * kRounds) << "lock " << l;
    }
    node.Unlock(0);
  });
}

// ---- Failover: a survivor adopts the dead shard's lock and barrier queues --

// Host 2 is both lock 2's shard (2 mod 3) and the barrier shard
// (kBarrierShardId mod 3). It dies while host 0 holds the lock and host 1 is
// queued waiting for it; the adopting shard must reconstruct the holder by
// probing the live hosts, adopt the re-sent waiter, and hand the lock over on
// release — then run a full barrier round for the two-host live quorum.
TEST(Sharded, AdoptsDeadShardLockAndBarrierQueues) {
  DsmConfig cfg = ShardedCfg(3);
  cfg.request_timeout_ms = 200;
  cfg.max_request_retries = 3;
  cfg.sync_timeout_ms = 5000;
  InProcTransport inner(3);
  FaultyTransport t0(&inner);
  FaultyTransport t1(&inner);
  FaultyTransport t2(&inner);
  FaultyTransport* ts[3] = {&t0, &t1, &t2};
  std::unique_ptr<DsmNode> nodes[3];
  for (HostId h = 0; h < 3; ++h) {
    Result<std::unique_ptr<DsmNode>> r = DsmNode::Create(cfg, h, ts[h]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    nodes[h] = std::move(*r);
    nodes[h]->Start();
  }

  constexpr uint32_t kLock = 2;  // 2 mod 3 == 2: serviced by the doomed shard
  ASSERT_TRUE(nodes[0]->TryLock(kLock).ok());

  // Host 1 queues at shard 2 for the held lock, then the shard dies under it.
  // The membership kick re-sends the acquire to the adopter, which probes the
  // live hosts, finds host 0 holding, and re-queues host 1.
  Status waiter_st;
  std::thread waiter([&] { waiter_st = nodes[1]->TryLock(kLock); });
  ::usleep(100 * 1000);  // let the acquire reach shard 2's queue
  t0.KillPeer(2);
  t1.KillPeer(2);
  const uint64_t start = MonotonicNowNs();
  while (nodes[0]->member_epoch() < 1 || nodes[1]->member_epoch() < 1) {
    ASSERT_LT((MonotonicNowNs() - start) / 1000000, 5000u) << "no epoch bump";
    ::usleep(1000);
  }
  ::usleep(50 * 1000);  // give the adopter's holder probe time to resolve
  nodes[0]->Unlock(kLock);  // release routes to the adopter, not the corpse
  waiter.join();
  EXPECT_TRUE(waiter_st.ok()) << waiter_st.ToString();
  nodes[1]->Unlock(kLock);

  // The barrier queue moved too: a full round completes on the live quorum.
  Status b0, b1;
  std::thread h0([&] { b0 = nodes[0]->TryBarrier(); });
  std::thread h1([&] { b1 = nodes[1]->TryBarrier(); });
  h0.join();
  h1.join();
  EXPECT_TRUE(b0.ok()) << b0.ToString();
  EXPECT_TRUE(b1.ok()) << b1.ToString();
  EXPECT_TRUE(nodes[0]->health().ok());
  EXPECT_TRUE(nodes[1]->health().ok());

  for (auto& n : nodes) {
    n->BeginShutdown();
  }
  for (int h = 2; h >= 0; --h) {
    nodes[h]->Stop();
  }
}

// ---- Copyset hardening (the bugs sharding exposed) -------------------------

// PickReplica on an empty copyset used to divide by zero (hint % 0) and feed
// ctzll(0) — both UB returning a garbage host. It must die loudly instead.
TEST(ShardedDeathTest, PickReplicaOnEmptyCopysetDies) {
  DirEntry e;
  ASSERT_TRUE(e.copyset.Empty());
  EXPECT_DEATH((void)e.PickReplica(0), "empty copyset");
}

// Host ids >= kMaxHosts exceed the wire format's 10-bit host field (a corrupt
// id, not a big cluster). The accessors reject them loudly — ids in
// [64, kMaxHosts) are now valid and spill into the HostSet bitmap...
TEST(ShardedDeathTest, CopysetHostIdPastMaxDies) {
  DirEntry e;
  e.AddCopy(64);  // used to be fatal: now a legal large-cluster id
  e.AddCopy(1023);
  EXPECT_TRUE(e.HasCopy(64));
  EXPECT_TRUE(e.HasCopy(1023));
  EXPECT_EQ(e.CopyCount(), 2);
  EXPECT_DEATH(e.AddCopy(kMaxHosts), "out of range");
  EXPECT_DEATH((void)e.HasCopy(2000), "out of range");
  EXPECT_DEATH(e.RemoveCopy(kMaxHosts), "out of range");
}

// ...and cluster construction refuses deployments that could produce them.
TEST(Sharded, RejectsMoreThanMaxHosts) {
  DsmConfig cfg = ShardedCfg(static_cast<uint16_t>(kMaxHosts + 1));
  cfg.num_views = 1;
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_FALSE(cluster.ok());
  EXPECT_EQ(cluster.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace millipage
