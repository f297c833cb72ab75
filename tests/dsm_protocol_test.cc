// Protocol-level DSM tests: directory state, competing requests, prefetch,
// push updates, locks, barriers, epochs, allocation failure, service modes,
// and a sequential-consistency stress.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/failpoint.h"
#include "src/common/time_util.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/dsm/node.h"
#include "src/multiview/fault_index.h"
#include "src/net/faulty_transport.h"
#include "src/net/inproc_transport.h"
#include "src/os/fault_handler.h"
#include "src/os/page.h"

namespace millipage {
namespace {

DsmConfig Cfg(uint16_t hosts) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 1 << 20;
  cfg.num_views = 8;
  // MILLIPAGE_MANAGER_POLICY=sharded re-runs the whole suite with the
  // directory sharded across hosts (the CI matrix sets it).
  const char* policy = std::getenv("MILLIPAGE_MANAGER_POLICY");
  if (policy != nullptr && std::string(policy) == "sharded") {
    cfg.manager_policy = ManagerPolicy::kSharded;
  }
  // MILLIPAGE_FAULT_BACKEND=sigsegv likewise re-runs the suite on the
  // mprotect fallback (unset is the userfaultfd default).
  cfg.fault_backend = FaultBackendFromEnv();
  return cfg;
}

TEST(Protocol, UpgradeWriteAfterRead) {
  // A host holding the sole read copy upgrades in place: the write grant
  // carries no payload.
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 5;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      EXPECT_EQ(*p, 5);   // read fault: copy arrives
      *p = 6;             // manager still has a copy -> invalidation round
      EXPECT_EQ(*p, 6);
    }
    node.Barrier();
  });
  const HostCounters c1 = (*cluster)->node(1).counters();
  EXPECT_EQ(c1.read_faults, 1u);
  EXPECT_EQ(c1.write_faults, 1u);
  // The write was an upgrade (requester already held a copy): no data moved.
  EXPECT_EQ(c1.write_fault_bytes, 0u);
  // The manager's copy was invalidated.
  EXPECT_EQ((*cluster)->node(0).counters().invalidations_received, 1u);
}

TEST(Protocol, WriteMovesDataWhenRequesterHasNoCopy) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(16);
    p[3] = 33;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      p[0] = 1;  // write fault without prior copy: data must travel
      EXPECT_EQ(p[3], 33) << "rest of the minipage must arrive with the grant";
    }
    node.Barrier();
  });
  const HostCounters c1 = (*cluster)->node(1).counters();
  EXPECT_EQ(c1.write_faults, 1u);
  EXPECT_EQ(c1.write_fault_bytes, 64u);
}

TEST(Protocol, CompetingRequestsAreCountedAndServed) {
  // Many hosts read-fault the same minipage at once; the manager serves them
  // one at a time (ACK-serialized) and counts the queued ones.
  auto cluster = DsmCluster::Create(Cfg(6));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 1234;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId) {
    node.Barrier();  // line everyone up
    EXPECT_EQ(*p, 1234);
    node.Barrier();
  });
  EXPECT_GE((*cluster)->SnapshotMetrics().counters.at("mgr.requests_served"), 5u);
  // At least some of the simultaneous faults must have queued: each host
  // faults on its own thread under either backend.
  EXPECT_GE(uint64_t{(*cluster)->TotalCounters().competing_requests}, 1u);
}

TEST(Protocol, PrefetchAvoidsBlockingFault) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(64);
    p[7] = 77;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      node.Prefetch(p.addr());
      // Wait (up to 5 s, so a loaded machine cannot turn this into a fault)
      // for the asynchronous fetch to land; the access then must not fault.
      const uint64_t vpage = p.addr().offset / 4096;
      const uint64_t deadline = MonotonicNowNs() + 5'000'000'000ull;
      while (node.views().GetVpageProtection(p.addr().view, vpage) == Protection::kNoAccess &&
             MonotonicNowNs() < deadline) {
        std::this_thread::yield();
      }
      EXPECT_EQ(p[7], 77);
    }
    node.Barrier();
  });
  const HostCounters c1 = (*cluster)->node(1).counters();
  EXPECT_EQ(c1.prefetches, 1u);
  EXPECT_GE(c1.prefetch_bytes, 256u);
  EXPECT_EQ(c1.read_faults, 0u);
}

TEST(Protocol, FetchGroupBatchesReads) {
  // Composed-view coarse read (Section 5): one split-transaction call pulls
  // a group of minipages; subsequent reads take no faults.
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  std::vector<GlobalPtr<int>> cells;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < 12; ++i) {
      cells.push_back(SharedAlloc<int>(8));
      cells.back()[0] = 10 * i;
    }
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      std::vector<GlobalAddr> addrs;
      for (const auto& c : cells) {
        addrs.push_back(c.addr());
      }
      const size_t fetched = node.FetchGroup(addrs.data(), addrs.size());
      EXPECT_EQ(fetched, 12u);
      for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(cells[static_cast<size_t>(i)][0], 10 * i);  // no faults now
      }
      EXPECT_EQ(node.counters().read_faults, 0u);
      EXPECT_EQ(node.counters().prefetches, 12u);
      // Idempotent: a second group fetch finds everything present.
      EXPECT_EQ(node.FetchGroup(addrs.data(), addrs.size()), 0u);
    }
    node.Barrier();
  });
}

TEST(Protocol, FetchGroupWithDuplicatesAndWriterInterference) {
  auto cluster = DsmCluster::Create(Cfg(3));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> a;
  GlobalPtr<int> b;
  (*cluster)->RunOnManager([&](DsmNode&) {
    a = SharedAlloc<int>(4);
    b = SharedAlloc<int>(4);
    a[0] = 1;
    b[0] = 2;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    if (host == 1) {
      // Duplicate addresses into the same minipage are tolerated.
      GlobalAddr addrs[4] = {a.addr(), (a + 1).addr(), b.addr(), (b + 2).addr()};
      (void)node.FetchGroup(addrs, 4);
      EXPECT_EQ(a[0], 1);
      EXPECT_EQ(b[0], 2);
    }
    if (host == 2) {
      a[1] = 99;  // concurrent writer on the same minipage group
    }
    node.Barrier();
    EXPECT_EQ(a[1], 99);
    node.Barrier();
  });
}

// Without the ACK nothing holds a group member behind its minipage's service,
// so an invalidation crossing a member's reply could leave a stale readable
// copy: FetchGroup fetches nothing, as Prefetch does, and the reads fault.
TEST(Protocol, FetchGroupWithoutTheAckFetchesNothing) {
  DsmConfig cfg = Cfg(2);
  cfg.enable_ack = false;
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  std::vector<GlobalPtr<int>> cells;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < 12; ++i) {
      cells.push_back(SharedAlloc<int>(8));
      cells.back()[0] = 10 * i;
    }
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      std::vector<GlobalAddr> addrs;
      for (const auto& c : cells) {
        addrs.push_back(c.addr());
      }
      EXPECT_EQ(node.FetchGroup(addrs.data(), addrs.size()), 0u);
      EXPECT_EQ(node.counters().prefetches, 0u);
      for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(cells[static_cast<size_t>(i)][0], 10 * i);
      }
      EXPECT_EQ(node.counters().read_faults, 12u);
      EXPECT_EQ(node.counters().prefetch_bytes, 0u);
    }
    node.Barrier();
  });
}

// Two hosts fetch the same 80 one-int minipages and one two-page minipage at
// once, in opposite orders, each in a group wider than one 64-record frame.
// Every reply is ACKed as it is installed, so neither group holds a minipage
// the other is queued behind; a stall would run a reply wait out to the
// (short) request timeout and return short. The two-page minipage is
// requested once per page, and its second request is served after the first
// reply's ACK, but it counts once: 81 minipages for 82 addresses.
TEST(Protocol, OpposedFetchGroupsWiderThanAFrameBothComplete) {
  for (const ManagerPolicy policy : {ManagerPolicy::kCentralized, ManagerPolicy::kSharded}) {
    SCOPED_TRACE(policy == ManagerPolicy::kSharded ? "sharded" : "centralized");
    DsmConfig cfg = Cfg(3);
    cfg.manager_policy = policy;
    cfg.request_timeout_ms = 1000;
    auto cluster = DsmCluster::Create(cfg);
    ASSERT_TRUE(cluster.ok());
    constexpr int kInts = 80;
    const size_t per_page = PageSize() / sizeof(int);
    std::vector<GlobalPtr<int>> cells;  // one per address, in fetch order
    std::vector<int> want;
    (*cluster)->RunOnManager([&](DsmNode&) {
      const auto add = [&](GlobalPtr<int> c, int v) {
        *c = v;
        cells.push_back(c);
        want.push_back(v);
      };
      for (int i = 0; i < kInts; ++i) {
        add(SharedAlloc<int>(1), 100 + i);
        if (i == kInts / 2) {
          const GlobalPtr<int> two_pages = SharedAlloc<int>(2 * per_page);
          add(two_pages, 7);
          add(two_pages + static_cast<ptrdiff_t>(per_page), 8);
        }
      }
    });
    (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
      node.Barrier();
      if (host != 0) {
        std::vector<GlobalAddr> addrs;
        for (const auto& c : cells) {
          addrs.push_back(c.addr());
        }
        if (host == 2) {
          std::reverse(addrs.begin(), addrs.end());
        }
        EXPECT_EQ(node.FetchGroup(addrs.data(), addrs.size()), cells.size() - 1)
            << "host " << host;
        for (size_t i = 0; i < cells.size(); ++i) {
          EXPECT_EQ(*cells[i], want[i]) << "host " << host << " cell " << i;
        }
        EXPECT_EQ(node.counters().read_faults, 0u) << "host " << host;
      }
      node.Barrier();
    });
  }
}

TEST(Protocol, PushUpdateDistributesReadCopies) {
  auto cluster = DsmCluster::Create(Cfg(4));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 0;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    if (host == 2) {
      *p = 42;
      node.PushToAll(p.addr());
    }
    node.Barrier();
    // A fresh value must be readable; with the push the copy is already
    // local on every host.
    EXPECT_EQ(*p, 42);
    node.Barrier();
  });
  // After the push, reads hit local read-only copies. A host racing past the
  // barrier before its pushed copy lands may still fault once, so allow a
  // small number — without the push every host would fault.
  uint64_t read_faults_after = 0;
  for (uint16_t h = 0; h < 4; ++h) {
    read_faults_after += (*cluster)->node(h).counters().read_faults;
  }
  EXPECT_LE(read_faults_after, 3u) << "push must have installed copies everywhere";
}

TEST(Protocol, LocksAreExclusiveAndFifo) {
  auto cluster = DsmCluster::Create(Cfg(4));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(2);
    p[0] = 0;
    p[1] = 0;  // max-in-section marker
  });
  constexpr int kPerHost = 25;
  (*cluster)->RunParallel([&](DsmNode& node, HostId) {
    for (int i = 0; i < kPerHost; ++i) {
      node.Lock(3);
      const int in_section = p[1] + 1;
      p[1] = in_section;
      EXPECT_EQ(in_section, 1) << "two holders inside the critical section";
      p[0] = p[0] + 1;
      p[1] = in_section - 1;
      node.Unlock(3);
    }
    node.Barrier();
  });
  (*cluster)->RunOnManager([&](DsmNode&) { EXPECT_EQ(p[0], 4 * kPerHost); });
}

// A lock excludes threads, not just hosts: two threads of one host contend
// for it like two hosts do. The shard tells them apart by wait slot; a
// re-grant to the holding host alone would let both inside at once.
TEST(Protocol, LockExcludesThreadsOfOneHost) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  constexpr int kPerThread = 2000;
  std::atomic<int> in_section{0};
  std::atomic<int> overlaps{0};
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      const auto loop = [&] {
        for (int i = 0; i < kPerThread; ++i) {
          node.Lock(4);
          if (in_section.fetch_add(1) != 0) {
            overlaps.fetch_add(1);
          }
          in_section.fetch_sub(1);
          node.Unlock(4);
        }
      };
      std::thread second(loop);
      loop();
      second.join();
    }
    node.Barrier();
  });
  EXPECT_EQ(overlaps.load(), 0) << "of " << 2 * kPerThread << " lock entries";
}

TEST(Protocol, BarriersReusableAcrossGenerations) {
  auto cluster = DsmCluster::Create(Cfg(3));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 0;
  });
  constexpr int kGenerations = 30;
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    for (int g = 0; g < kGenerations; ++g) {
      if (host == static_cast<HostId>(g % 3)) {
        *p = g;
      }
      node.Barrier();
      EXPECT_EQ(*p, g);
      node.Barrier();
    }
  });
  for (uint16_t h = 0; h < 3; ++h) {
    EXPECT_EQ((*cluster)->node(h).counters().barriers, 2u * kGenerations);
  }
}

TEST(Protocol, EpochRecordsTrackPerBarrierDeltas) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 0;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.AddWorkUnits(100);
    node.Barrier();  // epoch 0 closes
    if (host == 1) {
      EXPECT_EQ(*p, 0);  // one read fault in epoch 1
    }
    node.AddWorkUnits(50);
    node.Barrier();  // epoch 1 closes
  });
  const auto epochs1 = (*cluster)->node(1).epochs();
  ASSERT_EQ(epochs1.size(), 2u);
  EXPECT_EQ(epochs1[0].delta.work_units, 100u);
  EXPECT_EQ(epochs1[0].delta.read_faults, 0u);
  EXPECT_EQ(epochs1[1].delta.work_units, 50u);
  EXPECT_EQ(epochs1[1].delta.read_faults, 1u);
}

TEST(Protocol, AllocationFailureIsReported) {
  DsmConfig cfg = Cfg(1);
  cfg.object_size = 64 << 10;
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  (*cluster)->RunOnManager([](DsmNode& node) {
    auto ok = node.SharedMalloc(32 << 10);
    EXPECT_TRUE(ok.ok());
    auto too_big = node.SharedMalloc(1 << 20);
    EXPECT_FALSE(too_big.ok());
    EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
    // The DSM stays usable after a failed allocation.
    auto again = node.SharedMalloc(1 << 10);
    EXPECT_TRUE(again.ok());
  });
}

class ServiceModes : public ::testing::TestWithParam<ServiceMode> {};

TEST_P(ServiceModes, ProtocolWorksUnderEachServiceDiscipline) {
  DsmConfig cfg = Cfg(2);
  cfg.service_mode = GetParam();
  cfg.service_period_us = 200;
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 9;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      EXPECT_EQ(*p, 9);
      *p = 10;
    }
    node.Barrier();
    EXPECT_EQ(*p, 10);
    node.Barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, ServiceModes,
                         ::testing::Values(ServiceMode::kBlocking, ServiceMode::kPeriodic),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case ServiceMode::kBlocking:
                               return "blocking";
                             case ServiceMode::kPeriodic:
                               return "periodic";
                           }
                           return "unknown";
                         });

// Regression: a reply that arrives after the requester has timed out and
// retried carries a stale generation. The requester must (a) discard it —
// not complete the fault with it — and (b) still ACK it, because in ACK mode
// the manager keeps the minipage in service until the outstanding reply is
// acknowledged; swallowing the ACK would wedge that minipage forever.
TEST(Protocol, StaleReplyAfterRetryIsDiscardedAndAcked) {
  DsmConfig cfg = Cfg(2);
  cfg.request_timeout_ms = 300;
  cfg.max_request_retries = 2;
  cfg.sync_timeout_ms = 5000;
  ASSERT_TRUE(cfg.enable_ack) << "the regression targets ACK-mode serialization";

  // Hand-assembled pair so the manager's reply can be delayed in flight.
  InProcTransport inner{2};
  FaultyTransport t0{&inner};
  FaultyTransport t1{&inner};
  Result<std::unique_ptr<DsmNode>> r0 = DsmNode::Create(cfg, 0, &t0);
  Result<std::unique_ptr<DsmNode>> r1 = DsmNode::Create(cfg, 1, &t1);
  ASSERT_TRUE(r0.ok() && r1.ok());
  std::unique_ptr<DsmNode> n0 = std::move(*r0);
  std::unique_ptr<DsmNode> n1 = std::move(*r1);
  n0->Start();
  n1->Start();

  Result<GlobalAddr> addr = n0->SharedMalloc(16 * sizeof(int));
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  int* data0 = reinterpret_cast<int*>(n0->AppPtr(*addr));
  for (int i = 0; i < 16; ++i) {
    data0[i] = 900 + i;
  }

  // The manager's FIRST read reply to host 1 limps for 450 ms — past the
  // 300 ms request timeout (so host 1 abandons the attempt and re-sends with
  // a fresh generation before the original reply lands) but well inside the
  // retry's own 300 ms window (so the retry itself does not time out while
  // the manager's send thread is parked in the delay). One-shot: the
  // re-served reply travels at full speed.
  t0.DelaySends(1, MsgType::kReadReply, 450 * 1000, /*count=*/1);
  ASSERT_TRUE(n1->OnFault(addr->view, addr->offset, /*is_write=*/false));

  EXPECT_EQ(n1->timeout_retries(), 1u);
  EXPECT_EQ(n1->stale_replies(), 1u) << "the late reply must be discarded by generation";
  const int* data1 = reinterpret_cast<const int*>(n1->AppPtr(*addr));
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(data1[i], 900 + i) << "index " << i;
  }

  // The discarded reply was still ACKed: the manager's per-minipage
  // transaction is closed, so a fresh operation on the SAME minipage
  // completes promptly instead of queueing behind a wedged service.
  const uint64_t t_write = MonotonicNowNs();
  ASSERT_TRUE(n1->OnFault(addr->view, addr->offset, /*is_write=*/true));
  const uint64_t write_ms = (MonotonicNowNs() - t_write) / 1000000;
  EXPECT_LT(write_ms, cfg.request_timeout_ms) << "minipage service left open";
  EXPECT_EQ(n1->timeout_retries(), 1u) << "the follow-up write must not retry";
  EXPECT_TRUE(n1->health().ok());
  EXPECT_TRUE(n0->health().ok());

  n0->BeginShutdown();
  n1->BeginShutdown();
  n1->Stop();
  n0->Stop();
}

// Regression (fault-path degradation): a protection change failing INSIDE
// fault service — on the grant install, the one protect whose failure is
// recoverable — must degrade that single access to kNotFound, the same
// policy as sole-copy host death, instead of aborting the cluster. The
// requester renounces the grant (abort-flagged ACK) so the directory drops
// it from the copyset and the minipage stays serveable from the old holder.
TEST(Protocol, GrantInstallFailureDegradesAccessNotCluster) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> ctl;
  GlobalPtr<int> victim;
  (*cluster)->RunOnManager([&](DsmNode&) {
    ctl = SharedAlloc<int>(4);
    victim = SharedAlloc<int>(4);
    ctl[0] = 1;
    victim[0] = 2;
  });
  DsmNode& n1 = (*cluster)->node(1);
  const GlobalAddr va = victim.addr();

  {
    // skip=1 lets the holder's serve-side downgrade of its own copy pass;
    // times=1 then fails exactly one protect — the requester's install.
    FailpointAction fail;
    fail.kind = FailpointAction::Kind::kReturn;
    fail.skip = 1;
    fail.max_hits = 1;
    FailpointScope scope("os.mapping.protect", fail);
    const Status st = n1.FaultService(va.view, va.offset, /*is_write=*/false);
    ASSERT_FALSE(st.ok()) << "injected install failure must fail the access";
    EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
    EXPECT_EQ(FailpointRegistry::Instance().hits("os.mapping.protect"), 1u)
        << "the injection was meant to hit the grant install exactly once";
  }

  // The old holder kept its copy, so the directory never emptied: nothing
  // was declared lost cluster-wide, and the SAME access succeeds once the
  // (transient, one-shot) failure clears.
  EXPECT_EQ((*cluster)->node(0).minipages_lost(), 0u);
  const Status again = n1.FaultService(va.view, va.offset, /*is_write=*/false);
  ASSERT_TRUE(again.ok()) << again.ToString();
  EXPECT_EQ(*reinterpret_cast<const int*>(n1.AppPtr(va)), 2);

  // The degradation was per-access: other minipages were never affected,
  // and both hosts remain healthy — no cluster abort, no wedged service.
  const Status ctl_read = n1.FaultService(ctl.addr().view, ctl.addr().offset,
                                          /*is_write=*/false);
  ASSERT_TRUE(ctl_read.ok()) << ctl_read.ToString();
  EXPECT_EQ(*reinterpret_cast<const int*>(n1.AppPtr(ctl.addr())), 1);
  EXPECT_TRUE(n1.health().ok());
  EXPECT_TRUE((*cluster)->node(0).health().ok());
}

TEST(Protocol, SequentialConsistencyStress) {
  // Dekker-style litmus: two hosts set their flag then read the other's.
  // Under sequential consistency at least one host must observe the other's
  // flag in every round.
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> flag0;
  GlobalPtr<int> flag1;
  (*cluster)->RunOnManager([&](DsmNode&) {
    flag0 = SharedAlloc<int>(1);
    flag1 = SharedAlloc<int>(1);
  });
  constexpr int kRounds = 30;
  std::atomic<int> both_zero{0};
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    for (int r = 0; r < kRounds; ++r) {
      (host == 0 ? flag0 : flag1)[0] = 0;
      node.Barrier();
      if (host == 0) {
        *flag0 = 1;
        if (*flag1 == 0 && *flag0 == 0) {
          both_zero.fetch_add(1);
        }
      } else {
        *flag1 = 1;
        if (*flag0 == 0 && *flag1 == 0) {
          both_zero.fetch_add(1);
        }
      }
      node.Barrier();
      EXPECT_EQ(*flag0, 1);
      EXPECT_EQ(*flag1, 1);
      node.Barrier();
    }
  });
  EXPECT_EQ(both_zero.load(), 0) << "a host failed to observe its own write";
}

TEST(Protocol, ManyMinipagesManyHosts) {
  // Broad sweep: 4 hosts hammering 64 independent counters.
  auto cluster = DsmCluster::Create(Cfg(4));
  ASSERT_TRUE(cluster.ok());
  std::vector<GlobalPtr<int>> counters;
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < 64; ++i) {
      counters.push_back(SharedAlloc<int>(1));
      *counters.back() = 0;
    }
  });
  constexpr int kRounds = 8;
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    for (int r = 0; r < kRounds; ++r) {
      // Each round, each host owns a rotating disjoint quarter.
      for (int i = 0; i < 16; ++i) {
        const int idx = ((host + r) % 4) * 16 + i;
        *counters[idx] = *counters[idx] + 1;
      }
      node.Barrier();
    }
  });
  (*cluster)->RunOnManager([&](DsmNode&) {
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(*counters[i], kRounds) << "counter " << i;
    }
  });
}

TEST(Protocol, MetricsMoveAsProtocolRuns) {
  // The fault -> fetch -> grant pipeline must leave tracks in the metric
  // snapshot: host fault counters, per-node fault-latency histograms, the
  // manager's service counters, and the fault dispatcher itself.
  SetMetricsEnabled(true);
  const uint64_t dispatched_before = FaultHandler::Instance().faults_dispatched();
  auto cluster = DsmCluster::Create(Cfg(3));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(16);
    p[0] = 7;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    EXPECT_EQ(p[0], 7);   // read fault on hosts 1 and 2
    if (host == 1) {
      p[1] = 11;          // write fault: invalidation round + data grant
    }
    node.Barrier();
  });

  const MetricsSnapshot s = (*cluster)->SnapshotMetrics();
  EXPECT_GE(s.counters.at("host.read_faults"), 2u);
  EXPECT_GE(s.counters.at("host.write_faults"), 1u);
  EXPECT_GE(s.counters.at("mgr.requests_served"), 3u);
  EXPECT_GE(s.counters.at("mgr.mpt_lookups"), 3u);
  EXPECT_GE(s.counters.at("mgr.invalidation_rounds"), 1u);
  EXPECT_GE(s.counters.at("host.barriers"), 6u);
  // Every recorded fault latency corresponds to a counted fault.
  const HistogramSnapshot& rf = s.histograms.at("dsm.read_fault_ns");
  EXPECT_GE(rf.count, 2u);
  EXPECT_GT(rf.min, 0u);
  EXPECT_GE(s.histograms.at("dsm.write_fault_ns").count, 1u);
  EXPECT_GE(s.histograms.at("dsm.barrier_ns").count, 6u);
  // Signal-entry instrumentation (process-global registry).
  EXPECT_GT(FaultHandler::Instance().faults_dispatched(), dispatched_before);
  EXPECT_GE(s.histograms.at("fault.service_ns").count, 3u);
  // The per-host counter blocks agree with the flat snapshot.
  EXPECT_EQ(s.counters.at("host.read_faults"),
            uint64_t{(*cluster)->TotalCounters().read_faults});
  // And the emitter produces something a JSON consumer will accept.
  const std::string json = (*cluster)->SnapshotMetrics().DumpJson();
  EXPECT_NE(json.find("\"host.read_faults\""), std::string::npos);
  EXPECT_NE(json.find("\"dsm.read_fault_ns\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Protocol, DisabledMetricsStillCountFaultsAndEpochs) {
  // The metrics switch gates histograms and timers only: with it off, the
  // protocol counts the cost model and the epochs price still advance, and
  // the fault-latency histograms record nothing.
  SetMetricsEnabled(false);
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) {
    p = SharedAlloc<int>(1);
    *p = 1;
  });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      EXPECT_EQ(*p, 1);  // read fault
      *p = 2;            // write fault
    }
    node.Barrier();
  });
  SetMetricsEnabled(true);
  DsmNode& n1 = (*cluster)->node(1);
  const HostCounters c1 = n1.counters();
  EXPECT_GE(c1.read_faults, 1u);
  EXPECT_GE(c1.write_faults, 1u);
  const std::vector<EpochRecord> epochs = n1.epochs();
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].delta.read_faults, c1.read_faults);
  EXPECT_EQ(epochs[0].delta.write_faults, c1.write_faults);
  EXPECT_EQ(epochs[0].delta.barriers, 1u);
  EXPECT_EQ(n1.read_fault_latency().count, 0u);
  EXPECT_EQ(n1.write_fault_latency().count, 0u);
}

TEST(Protocol, IsolatedWriteFaultCostsAFewMessageLatencies) {
  // Section 4.2's shape: a write fault that invalidates one read copy is a
  // few message latencies, the same order as a read fault. Nothing else is in
  // flight, so a coalescer that holds records back waiting for a burst shows
  // up here as a write several times slower than a read.
  SetMetricsEnabled(true);
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) { p = SharedAlloc<int>(32); });
  constexpr int kRounds = 64;
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    for (int r = 0; r < kRounds; ++r) {
      if (host == 0) {
        p[0] = r;  // write fault: invalidates host 1's read copy
      }
      node.Barrier();
      if (host == 1) {
        EXPECT_EQ(p[0], r);  // read fault: fetches the minipage
      }
      node.Barrier();
    }
  });
  const HistogramSnapshot rd = (*cluster)->node(1).read_fault_latency();
  const HistogramSnapshot wr = (*cluster)->node(0).write_fault_latency();
  ASSERT_GE(rd.count, uint64_t{kRounds});
  ASSERT_GE(wr.count, uint64_t{kRounds - 1});
  // Quantiles are power-of-two bucket bounds, so the bound passes any true
  // ratio under 2× and fails any above 4×.
  const uint64_t rd_p50 = rd.Quantile(0.5);
  const uint64_t wr_p50 = wr.Quantile(0.5);
  EXPECT_LE(wr_p50, 3 * rd_p50) << "write p50 " << wr_p50 << " ns vs read p50 " << rd_p50
                                << " ns";
}

TEST(Protocol, IdleClusterDoesNotSpin) {
  // The server's receive wait polls only for a short window after its last
  // delivery, then parks. A window that never closed would keep all four
  // servers spinning through the idle sleep (~2 CPU-seconds over 500 ms on
  // four vCPUs); parked servers wake only on their 2 ms poll timeout.
  auto cluster = DsmCluster::Create(Cfg(4));
  ASSERT_TRUE(cluster.ok());
  GlobalPtr<int> p;
  (*cluster)->RunOnManager([&](DsmNode&) { p = SharedAlloc<int>(32); });
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    for (int r = 0; r < 8; ++r) {
      if (host == static_cast<HostId>(r % 4)) {
        p[0] = r;
      }
      node.Barrier();
      EXPECT_EQ(p[0], r);
      node.Barrier();
    }
  });
  const auto cpu_ms = [] {
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000.0 +
           (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1000.0;
  };
  const double before_ms = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double idle_ms = cpu_ms() - before_ms;
  EXPECT_LT(idle_ms, 250.0) << "process CPU while the cluster sat idle for 500 ms";
}

TEST(Protocol, BlockedLockWaiterParksAfterThePollWindow) {
  // A lock wait polls for its grant only for the poll window, then parks. A
  // waiter that never parked would burn a vCPU (~500 ms of process CPU) for
  // the whole 500 ms the holder keeps the lock.
  SetMetricsEnabled(true);
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  const auto cpu_ms = [] {
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000.0 +
           (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1000.0;
  };
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 0) {
      ASSERT_TRUE(node.TryLock(5).ok());
    }
    node.Barrier();
    if (host == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      node.Unlock(5);
    } else {
      const double before_ms = cpu_ms();
      const uint64_t t0 = MonotonicNowNs();
      ASSERT_TRUE(node.TryLock(5).ok());
      const uint64_t waited_ms = (MonotonicNowNs() - t0) / 1000000;
      const double wait_cpu_ms = cpu_ms() - before_ms;
      node.Unlock(5);
      EXPECT_GE(waited_ms, 300u) << "the lock was granted while its holder still held it";
      EXPECT_LT(wait_cpu_ms, 250.0) << "process CPU while a lock waiter sat blocked for "
                                    << waited_ms << " ms";
    }
    node.Barrier();
  });
  // The grant, like every reply, was timed from Post to the waiter's return.
  EXPECT_GE((*cluster)->SnapshotMetrics().histograms.at("dsm.reply_handoff_ns").count, 1u);
}

// ---- Write-intent prediction (src/dsm/rmw_predictor.h) ---------------------
// Every call of LoadInt faults at one load instruction and every call of
// StoreInt at one store, so each case's loads share a pc, as a loop's do.

__attribute__((noinline)) int LoadInt(const int* p) {
  return *static_cast<const volatile int*>(p);
}

__attribute__((noinline)) void StoreInt(int* p, int v) { *static_cast<volatile int*>(p) = v; }

// `n` one-int minipages, allocated and written (100 + i) by host 0.
std::vector<GlobalAddr> AllocInts(DsmCluster& cluster, int n) {
  std::vector<GlobalAddr> out;
  cluster.RunOnManager([&](DsmNode& node) {
    for (int i = 0; i < n; ++i) {
      Result<GlobalAddr> a = node.SharedMalloc(sizeof(int));
      MP_CHECK(a.ok()) << a.status().ToString();
      StoreInt(reinterpret_cast<int*>(node.AppPtr(*a)), 100 + i);
      out.push_back(*a);
    }
  });
  return out;
}

int* IntAt(DsmNode& node, GlobalAddr a) { return reinterpret_cast<int*>(node.AppPtr(a)); }

uint64_t Count(const DsmNode& node, const char* name) {
  return node.SnapshotMetrics().counters.at(name);
}

// A read-modify-write loop over minipages another host last wrote: the
// first load faults as a read and its store as a write, which marks the
// load; every later load asks for the write grant, and its store no longer
// faults.
TEST(RmwPrediction, ReadModifyWriteLoopTakesOneReadFault) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  constexpr int kN = 8;
  const std::vector<GlobalAddr> a = AllocInts(**cluster, kN);
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      for (const GlobalAddr& g : a) {
        int* p = IntAt(node, g);
        StoreInt(p, LoadInt(p) + 1);
      }
    }
    node.Barrier();
  });
  DsmNode& n1 = (*cluster)->node(1);
  EXPECT_EQ(n1.counters().read_faults, 1u);
  // Fault counters follow the request sent: the first store's fault plus
  // the N-1 predicted loads.
  EXPECT_EQ(n1.counters().write_faults, uint64_t{kN});
  EXPECT_EQ(Count(n1, "dsm.rmw_predicted"), uint64_t{kN - 1});
  EXPECT_EQ(Count(n1, "dsm.rmw_demoted"), 0u);
  (*cluster)->RunOnManager([&](DsmNode& node) {
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(LoadInt(IntAt(node, a[i])), 101 + i);
    }
  });
}

// A marked pc then used read-only: predictions continue only until the
// periodic re-check (every RmwPredictor::kRecheckEvery-th read at the pc)
// sees no store follow, which unmarks it. From there on the reads are plain
// and the other hosts keep their read copies.
TEST(RmwPrediction, ReadOnlyUseStopsPredictingWithinTheRecheckPeriod) {
  auto cluster = DsmCluster::Create(Cfg(3));
  ASSERT_TRUE(cluster.ok());
  const std::vector<GlobalAddr> rmw = AllocInts(**cluster, 2);
  constexpr int kReads = 16;
  const std::vector<GlobalAddr> ro = AllocInts(**cluster, kReads);
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      for (const GlobalAddr& g : rmw) {  // marks the load, then predicts once
        int* p = IntAt(node, g);
        StoreInt(p, LoadInt(p) + 1);
      }
    }
    node.Barrier();
    if (host == 2) {
      for (const GlobalAddr& g : ro) {
        (void)LoadInt(IntAt(node, g));
      }
    }
    node.Barrier();
    if (host == 1) {
      for (int i = 0; i < kReads; ++i) {
        EXPECT_EQ(LoadInt(IntAt(node, ro[i])), 100 + i);
      }
    }
    node.Barrier();
  });
  // The load's reads at the mark: #1 (rmw[1]) and #2-#7 (ro[0..5]) predict,
  // #8 (ro[6]) is the re-check, and ro[7]'s read fault is its miss.
  constexpr int kPredictedReads = static_cast<int>(RmwPredictor::kRecheckEvery) - 2;
  DsmNode& n1 = (*cluster)->node(1);
  EXPECT_EQ(Count(n1, "dsm.rmw_predicted"), uint64_t{1 + kPredictedReads});
  EXPECT_EQ(Count(n1, "dsm.rmw_demoted"), 1u);
  DsmNode& n2 = (*cluster)->node(2);
  for (int i = 0; i < kReads; ++i) {
    const Protection prot =
        n2.views().GetVpageProtection(ro[i].view, ro[i].offset / PageSize());
    if (i < kPredictedReads) {
      EXPECT_EQ(prot, Protection::kNoAccess) << "ro[" << i << "] was read for a write grant";
    } else {
      EXPECT_NE(prot, Protection::kNoAccess) << "ro[" << i << "]: read copy taken";
    }
  }
}

// The perfbench probe's shape: a load and a store to the same minipage with a
// Barrier between them never mark the load.
TEST(RmwPrediction, ReadAndWriteAcrossABarrierNeverPredict) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  constexpr int kN = 8;
  const std::vector<GlobalAddr> a = AllocInts(**cluster, kN);
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    for (const GlobalAddr& g : a) {
      int v = 0;
      if (host == 1) {
        v = LoadInt(IntAt(node, g));
      }
      node.Barrier();
      if (host == 1) {
        StoreInt(IntAt(node, g), v + 1);
      }
      node.Barrier();
    }
  });
  DsmNode& n1 = (*cluster)->node(1);
  EXPECT_EQ(n1.counters().read_faults, uint64_t{kN});
  EXPECT_EQ(n1.counters().write_faults, uint64_t{kN});
  EXPECT_EQ(Count(n1, "dsm.rmw_predicted"), 0u);
}

// Each thread has its own table: a pc one thread marked does not predict on
// another thread of the same host.
TEST(RmwPrediction, ThreadsOfOneHostKeepSeparateTables) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  const std::vector<GlobalAddr> rmw = AllocInts(**cluster, 2);
  constexpr int kReads = 4;
  const std::vector<GlobalAddr> ro = AllocInts(**cluster, kReads);
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      const auto rmw_at = [&](GlobalAddr g) {
        int* p = IntAt(node, g);
        StoreInt(p, LoadInt(p) + 1);
      };
      rmw_at(rmw[0]);  // marks the load in this thread's table
      std::thread other([&] {
        for (const GlobalAddr& g : ro) {
          (void)LoadInt(IntAt(node, g));  // plain reads: its own table is empty
        }
      });
      other.join();
      rmw_at(rmw[1]);  // predicted: this thread's mark is intact
    }
    node.Barrier();
  });
  DsmNode& n1 = (*cluster)->node(1);
  EXPECT_EQ(n1.counters().read_faults, uint64_t{1 + kReads});
  EXPECT_EQ(n1.counters().write_faults, 2u);
  EXPECT_EQ(Count(n1, "dsm.rmw_predicted"), 1u);
}

// ---- Stream read-ahead (src/dsm/stream_predictor.h) ------------------------

TEST(StreamPredictor, ContinuesAStreamOnTheNextMinipageOnly) {
  StreamPredictor p;
  constexpr uintptr_t kPc = 0x1000;
  EXPECT_EQ(p.Next(kPc, /*write=*/false, 0), kInvalidMinipage);
  p.Record(kPc, /*write=*/false, 7, 0);
  EXPECT_EQ(p.Next(kPc, /*write=*/false, 0), 8u);
  EXPECT_EQ(p.Next(kPc + 1, /*write=*/false, 0), kInvalidMinipage) << "another pc";
  p.Record(kPc, /*write=*/false, 16, 0);  // a group ended on 16
  EXPECT_EQ(p.Next(kPc, /*write=*/false, 0), 17u);
}

TEST(StreamPredictor, ASyncCallEndsEveryStream) {
  StreamPredictor p;
  p.Record(0x1000, /*write=*/false, 7, /*syncs=*/3);
  p.Record(0x2000, /*write=*/true, 9, /*syncs=*/3);
  EXPECT_EQ(p.Next(0x1000, false, 4), kInvalidMinipage);
  EXPECT_EQ(p.Next(0x2000, true, 4), kInvalidMinipage);
  EXPECT_EQ(p.Next(0x1000, false, 3), 8u);
}

TEST(StreamPredictor, ReadAndWriteStreamsOfOnePcAreSeparate) {
  StreamPredictor p;
  constexpr uintptr_t kPc = 0x1000;
  p.Record(kPc, /*write=*/true, 7, 0);
  EXPECT_EQ(p.Next(kPc, /*write=*/false, 0), kInvalidMinipage) << "a read after a write";
  p.Record(kPc, /*write=*/false, 20, 0);
  EXPECT_EQ(p.Next(kPc, /*write=*/true, 0), 8u);
  EXPECT_EQ(p.Next(kPc, /*write=*/false, 0), 21u);
}

TEST(StreamPredictor, KeepsTheMostRecentStreamsAndNeverStreamsPcZero) {
  StreamPredictor p;
  for (uintptr_t pc = 1; pc <= StreamPredictor::kEntries + 1; ++pc) {
    p.Record(pc, /*write=*/false, static_cast<MinipageId>(10 * pc), 0);
  }
  EXPECT_EQ(p.Next(1, false, 0), kInvalidMinipage) << "the least recent stream was replaced";
  for (uintptr_t pc = 2; pc <= StreamPredictor::kEntries + 1; ++pc) {
    EXPECT_EQ(p.Next(pc, false, 0), 10 * pc + 1);
  }
  p.Record(0, /*write=*/false, 5, 0);
  EXPECT_EQ(p.Next(0, false, 0), kInvalidMinipage);
}

// Cases over a cluster: host 1 reads `n` one-int minipages once (which
// teaches it their translations), host 0 then writes them all (taking host
// 1's copies away), and host 1 walks them again as `second_pass` says. Every
// read goes through LoadInt, so the walk's faults share one pc. Returns host
// 1's read faults in the second pass.
template <typename Walk>
uint64_t SecondPassReadFaults(DsmCluster& cluster, const std::vector<GlobalAddr>& a,
                              Walk second_pass) {
  uint64_t before = 0;
  cluster.RunParallel([&](DsmNode& node, HostId host) {
    if (host == 1) {
      for (const GlobalAddr& g : a) {
        (void)LoadInt(IntAt(node, g));
      }
    }
    node.Barrier();
    if (host == 0) {
      for (size_t i = 0; i < a.size(); ++i) {
        StoreInt(IntAt(node, a[i]), 200 + static_cast<int>(i));
      }
    }
    node.Barrier();
    if (host == 1) {
      before = node.counters().read_faults;
    }
    second_pass(node, host);
    node.Barrier();
  });
  return cluster.node(1).counters().read_faults - before;
}

// One instruction's walk over consecutive minipages this host has faulted on
// before: the first fault after the barrier is plain, the second starts a
// stream, and from there each fault fetches the next kDepth minipages with
// it.
TEST(ReadAhead, SecondPassOverConsecutiveMinipagesFaultsOncePerGroup) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  constexpr int kN = 64;
  const std::vector<GlobalAddr> a = AllocInts(**cluster, kN);
  const uint64_t faults = SecondPassReadFaults(**cluster, a, [&](DsmNode& node, HostId host) {
    if (host == 1) {
      for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(LoadInt(IntAt(node, a[i])), 200 + i);
      }
    }
  });
  EXPECT_LE(faults, uint64_t{kN / StreamPredictor::kDepth + 2});
  DsmNode& n1 = (*cluster)->node(1);
  EXPECT_GE(Count(n1, "dsm.readahead_groups"), 1u);
  EXPECT_EQ(Count(n1, "dsm.readahead_fetched"), kN - faults);
  EXPECT_EQ(n1.counters().write_faults, 0u);
}

// A Barrier or a Lock/Unlock between two faults of the walk ends the stream.
TEST(ReadAhead, ABarrierOrALockBetweenFaultsNeverReadsAhead) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  constexpr int kN = 16;
  const std::vector<GlobalAddr> a = AllocInts(**cluster, kN);
  const uint64_t faults = SecondPassReadFaults(**cluster, a, [&](DsmNode& node, HostId host) {
    for (int i = 0; i < kN; ++i) {
      if (host == 1) {
        EXPECT_EQ(LoadInt(IntAt(node, a[i])), 200 + i);
      }
      if (i % 2 == 0) {
        node.Barrier();
      } else if (host == 1) {
        node.Lock(1);
        node.Unlock(1);
      }
    }
  });
  EXPECT_EQ(faults, uint64_t{kN});
  EXPECT_EQ(Count((*cluster)->node(1), "dsm.readahead_groups"), 0u);
}

// Only a walk one minipage up continues a stream.
TEST(ReadAhead, StrideTwoAndDescendingWalksNeverReadAhead) {
  auto cluster = DsmCluster::Create(Cfg(2));
  ASSERT_TRUE(cluster.ok());
  constexpr int kN = 32;
  const std::vector<GlobalAddr> a = AllocInts(**cluster, kN);
  const uint64_t faults = SecondPassReadFaults(**cluster, a, [&](DsmNode& node, HostId host) {
    if (host == 1) {
      for (int i = 0; i < kN; i += 2) {
        EXPECT_EQ(LoadInt(IntAt(node, a[i])), 200 + i);
      }
    }
    node.Barrier();
    if (host == 1) {
      for (int i = kN - 1; i > 0; i -= 2) {
        EXPECT_EQ(LoadInt(IntAt(node, a[i])), 200 + i);
      }
    }
  });
  EXPECT_EQ(faults, uint64_t{kN});
  EXPECT_EQ(Count((*cluster)->node(1), "dsm.readahead_groups"), 0u);
}

// Without the ACK nothing holds a member behind its minipage's service, so
// read-ahead is off, as Prefetch is.
TEST(ReadAhead, WithoutTheAckNothingReadsAhead) {
  DsmConfig cfg = Cfg(2);
  cfg.enable_ack = false;
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  constexpr int kN = 32;
  const std::vector<GlobalAddr> a = AllocInts(**cluster, kN);
  const uint64_t faults = SecondPassReadFaults(**cluster, a, [&](DsmNode& node, HostId host) {
    if (host == 1) {
      for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(LoadInt(IntAt(node, a[i])), 200 + i);
      }
    }
  });
  EXPECT_EQ(faults, uint64_t{kN});
  EXPECT_EQ(Count((*cluster)->node(1), "dsm.readahead_groups"), 0u);
}

// The perfbench probe's shape (perfbench/src/probe.cc): a 128 B and a 4 KB
// minipage allocated back to back, roles rotating over 4 hosts, and a
// barrier between every sampled access. All loads and all stores share one
// pc each here, which is harsher than the probe, whose access sites differ.
TEST(ReadAhead, TheProbesAccessAndBarrierPatternNeverReadsAhead) {
  auto cluster = DsmCluster::Create(Cfg(4));
  ASSERT_TRUE(cluster.ok());
  GlobalAddr small_addr;
  GlobalAddr large_addr;
  (*cluster)->RunOnManager([&](DsmNode& node) {
    small_addr = *node.SharedMalloc(128);
    large_addr = *node.SharedMalloc(4096);
  });
  std::vector<std::array<HostId, 4>> perms;
  std::array<HostId, 4> p = {0, 1, 2, 3};
  do {
    perms.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  (*cluster)->RunParallel([&](DsmNode& node, HostId me) {
    int* small = IntAt(node, small_addr);
    int* large = IntAt(node, large_addr);
    int v = 0;
    for (int cycle = 0; cycle < 2; ++cycle) {
      for (const auto& roles : perms) {
        const auto [a, b, c, d] = roles;
        if (me == a) {
          (void)LoadInt(small);
          (void)LoadInt(large);
          StoreInt(small, ++v);
          StoreInt(large, v);
        }
        node.Barrier();
        for (int* at : {small, large}) {
          if (me == b) {
            (void)LoadInt(at);
          }
          node.Barrier();
        }
        if (me == a) {
          StoreInt(small, ++v);
        }
        node.Barrier();
        for (HostId reader : {b, c, d}) {
          if (me == reader) {
            (void)LoadInt(small);
          }
          node.Barrier();
        }
        if (me == b) {
          StoreInt(small, ++v);
        }
        node.Barrier();
        if (me == (c != 0 ? c : d)) {
          node.Lock(1);
          node.Unlock(1);
        }
        node.Barrier();
      }
    }
  });
  for (uint16_t h = 0; h < 4; ++h) {
    EXPECT_EQ(Count((*cluster)->node(h), "dsm.readahead_groups"), 0u) << "host " << h;
  }
}

// Three nodes whose application views take real faults, each behind its own
// FaultyTransport so a test can delay one host's replies in flight (a
// DsmCluster's transport cannot be scripted). Test threads bind to a host by
// touching its views: the fault callback finds the node by address.
class ScriptedTrio {
 public:
  explicit ScriptedTrio(const DsmConfig& cfg) {
    MP_CHECK_OK(FaultHandler::Instance().Install(cfg.fault_backend));
    for (HostId h = 0; h < 3; ++h) {
      t_[h] = std::make_unique<FaultyTransport>(&inner_);
      Result<std::unique_ptr<DsmNode>> r = DsmNode::Create(cfg, h, t_[h].get());
      MP_CHECK(r.ok()) << r.status().ToString();
      n_[h] = std::move(*r);
      faults_.Add(n_[h].get(), n_[h]->views());
    }
    MP_CHECK_OK(faults_.Register());
    for (auto& n : n_) {
      n->Start();
    }
  }
  ~ScriptedTrio() {
    for (auto& n : n_) {
      n->BeginShutdown();
    }
    for (int h = 2; h >= 0; --h) {
      n_[h]->Stop();
    }
  }

  DsmNode& node(HostId h) { return *n_[h]; }
  FaultyTransport& transport(HostId h) { return *t_[h]; }

 private:
  InProcTransport inner_{3};
  std::unique_ptr<FaultyTransport> t_[3];
  std::unique_ptr<DsmNode> n_[3];
  FaultIndex<DsmNode> faults_;  // unregisters before the nodes go
};

void OnThread(const std::function<void()>& fn) { std::thread(fn).join(); }

// A group member's reply that lands after its reply wait's deadline. Host 2
// last wrote member a[3], and its first read reply to host 1 limps for
// 500 ms, past the 300 ms request timeout. The group's fault returns its own
// data at the deadline and leaves the late reply behind; host 1's server
// thread installs and ACKs it when it lands, so host 0's write of a[3]
// completes within one request timeout. It does whether host 1's thread
// waits again (a read of y, which host 2 also serves, so its reply follows
// the late one and the wait discards the late reply by generation) or exits
// right after the group and never waits on the node again.
TEST(ReadAhead, AMemberReplyPastTheDeadlineIsAckedByItsInstaller) {
  for (const bool waits_again : {true, false}) {
    SCOPED_TRACE(waits_again ? "host 1 waits again" : "host 1's thread exits");
    DsmConfig cfg = Cfg(3);
    cfg.request_timeout_ms = 300;
    cfg.max_request_retries = 2;
    cfg.sync_timeout_ms = 5000;
    ScriptedTrio trio(cfg);
    DsmNode& n0 = trio.node(0);
    DsmNode& n1 = trio.node(1);
    DsmNode& n2 = trio.node(2);
    constexpr int kN = 12;
    constexpr int kLate = 3;
    std::vector<GlobalAddr> a;
    for (int i = 0; i < kN; ++i) {
      a.push_back(*n0.SharedMalloc(sizeof(int)));
      StoreInt(IntAt(n0, a[i]), 100 + i);
    }
    const GlobalAddr y = *n0.SharedMalloc(sizeof(int));
    StoreInt(IntAt(n0, y), 7);
    OnThread([&] {  // host 1 learns the translations
      for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(LoadInt(IntAt(n1, a[i])), 100 + i);
      }
    });
    OnThread([&] {  // host 2 takes a[kLate] and y
      StoreInt(IntAt(n2, a[kLate]), 555);
      StoreInt(IntAt(n2, y), 77);
    });
    for (int i = 0; i < kN; ++i) {
      if (i != kLate) {
        StoreInt(IntAt(n0, a[i]), 200 + i);
      }
    }
    constexpr std::chrono::microseconds kDelay{500 * 1000};
    trio.transport(2).DelaySends(1, MsgType::kReadReply, kDelay.count(), /*count=*/1);
    OnThread([&] {
      const auto t0 = std::chrono::steady_clock::now();
      EXPECT_EQ(LoadInt(IntAt(n1, a[0])), 200);
      EXPECT_EQ(LoadInt(IntAt(n1, a[1])), 201);  // the stream's group, a[1] to a[9]
      EXPECT_EQ(Count(n1, "dsm.readahead_groups"), 1u);
      EXPECT_EQ(n1.stale_replies(), 0u);
      if (!waits_again) {
        return;
      }
      // Past the delay, so y's reply (queued behind the late one on host 2's
      // server thread) does not itself run into the deadline.
      std::this_thread::sleep_until(t0 + kDelay);
      EXPECT_EQ(*static_cast<volatile int*>(IntAt(n1, y)), 77);
      EXPECT_GE(n1.stale_replies(), 1u) << "the late member reply was not discarded";
    });
    const uint64_t t_write = MonotonicNowNs();
    ASSERT_TRUE(n0.FaultService(a[kLate].view, a[kLate].offset, /*is_write=*/true).ok());
    EXPECT_LT((MonotonicNowNs() - t_write) / 1000000, cfg.request_timeout_ms)
        << "a[kLate] stayed in service";
    StoreInt(IntAt(n0, a[kLate]), 999);
    EXPECT_EQ(n0.timeout_retries(), 0u);
    OnThread([&] { EXPECT_EQ(LoadInt(IntAt(n1, a[kLate])), 999); });
    EXPECT_EQ(n1.timeout_retries(), 0u);
    EXPECT_TRUE(n0.health().ok() && n1.health().ok() && n2.health().ok());
  }
}

}  // namespace
}  // namespace millipage
