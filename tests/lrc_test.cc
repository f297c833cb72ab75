// Tests for the home-based release-consistency extension (the paper's
// Section 5 "Reduced-Consistency Protocols" direction): correctness at
// synchronization points, concurrent-writer merging through diffs, and the
// false-sharing tolerance that motivates the protocol.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/common/host_set.h"
#include "src/lrc/lrc_cluster.h"
#include "src/net/inproc_transport.h"

namespace millipage {
namespace {

DsmConfig LrcConfig(uint16_t hosts, uint32_t chunking = 1, bool page_based = false) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 2 << 20;
  cfg.num_views = 8;
  cfg.chunking_level = chunking;
  cfg.page_based = page_based;
  // MILLIPAGE_MANAGER_POLICY=sharded re-runs the suite with the lock and
  // barrier service sharded across hosts (the CI matrix sets it).
  const char* policy = std::getenv("MILLIPAGE_MANAGER_POLICY");
  if (policy != nullptr && std::string(policy) == "sharded") {
    cfg.manager_policy = ManagerPolicy::kSharded;
  }
  return cfg;
}

TEST(Lrc, SingleHostReadWrite) {
  auto cluster = LrcCluster::Create(LrcConfig(1));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  (*cluster)->RunOnManager([](LrcNode& node) {
    LrcPtr<int> p = LrcAlloc<int>(4);
    p[0] = 11;
    p[3] = 44;
    node.Barrier();
    EXPECT_EQ(p[0], 11);
    EXPECT_EQ(p[3], 44);
  });
}

TEST(Lrc, WritesVisibleAfterBarrier) {
  auto cluster = LrcCluster::Create(LrcConfig(3));
  ASSERT_TRUE(cluster.ok());
  LrcPtr<int> p;
  (*cluster)->RunOnManager([&](LrcNode&) {
    p = LrcAlloc<int>(8);
    for (int i = 0; i < 8; ++i) {
      p[i] = 0;
    }
  });
  (*cluster)->RunParallel([&](LrcNode& node, HostId host) {
    node.Barrier();
    p[host] = 100 + host;  // disjoint writers, possibly same minipage
    node.Barrier();        // release: diffs flushed; acquire: caches dropped
    for (int h = 0; h < 3; ++h) {
      EXPECT_EQ(p[h], 100 + h) << "host " << host << " reading slot " << h;
    }
    node.Barrier();
  });
}

TEST(Lrc, ConcurrentWritersOnOneMinipageMerge) {
  // The LRC selling point: multiple hosts write different words of the SAME
  // minipage between barriers; run-length diffs merge at the home.
  auto cluster = LrcCluster::Create(LrcConfig(4, /*chunking=*/1, /*page_based=*/true));
  ASSERT_TRUE(cluster.ok());
  LrcPtr<int> p;
  (*cluster)->RunOnManager([&](LrcNode&) {
    p = LrcAlloc<int>(256);  // one full page, one minipage
    for (int i = 0; i < 256; ++i) {
      p[i] = 0;
    }
  });
  constexpr int kRounds = 5;
  (*cluster)->RunParallel([&](LrcNode& node, HostId host) {
    node.Barrier();
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < 64; ++i) {
        const int idx = host * 64 + i;  // disjoint quarters of the page
        p[idx] = p[idx] + idx;
      }
      node.Barrier();
    }
  });
  (*cluster)->RunOnManager([&](LrcNode&) {
    for (int i = 0; i < 256; ++i) {
      EXPECT_EQ(p[i], kRounds * i) << "slot " << i;
    }
  });
  // No write ever invalidated another host's copy mid-epoch: each host
  // upgraded locally after its first fetch of the round.
  const LrcCounters totals = (*cluster)->TotalCounters();
  EXPECT_GT(totals.diffs_flushed, 0u);
  EXPECT_EQ(totals.diffs_flushed, totals.diffs_applied);
}

TEST(Lrc, LockProtectedCounter) {
  auto cluster = LrcCluster::Create(LrcConfig(3));
  ASSERT_TRUE(cluster.ok());
  LrcPtr<int> counter;
  (*cluster)->RunOnManager([&](LrcNode&) {
    counter = LrcAlloc<int>(1);
    *counter = 0;
  });
  constexpr int kPerHost = 20;
  (*cluster)->RunParallel([&](LrcNode& node, HostId) {
    for (int i = 0; i < kPerHost; ++i) {
      node.Lock(5);  // acquire: drop caches -> reads see the latest master
      *counter = *counter + 1;
      node.Unlock(5);  // release: flush the diff home
    }
    node.Barrier();
  });
  (*cluster)->RunOnManager([&](LrcNode&) { EXPECT_EQ(*counter, 3 * kPerHost); });
}

TEST(Lrc, HomeWritesNeedNoProtocol) {
  // A host writing minipages homed at itself never sends a message after
  // the initial grant.
  auto cluster = LrcCluster::Create(LrcConfig(2));
  ASSERT_TRUE(cluster.ok());
  // Allocate until we find a minipage homed at host 1.
  LrcPtr<int> homed1;
  (*cluster)->RunOnManager([&](LrcNode& node) {
    for (int i = 0; i < 4; ++i) {
      LrcPtr<int> p = LrcAlloc<int>(1);
      // Home is id % hosts; ids ascend with allocation order.
      if (node.HomeOf(static_cast<MinipageId>(i)) == 1) {
        homed1 = p;
      }
    }
  });
  (*cluster)->RunParallel([&](LrcNode& node, HostId host) {
    node.Barrier();
    if (host == 1) {
      const uint64_t before = node.counters().messages_sent;
      for (int i = 0; i < 100; ++i) {
        *homed1 = *homed1 + 1;  // first fault: home grant; then free
      }
      const uint64_t after = node.counters().messages_sent;
      EXPECT_LE(after - before, 2u) << "home writes must be message-free";
    }
    node.Barrier();
    EXPECT_EQ(*homed1, 100);
    node.Barrier();
  });
}

TEST(Lrc, FalseSharingCostGoneWithPageGranularity) {
  // The alternating-writers pattern that costs the SC page-based baseline a
  // steal per round costs LRC one diff per round and zero invalidations.
  constexpr int kRounds = 20;
  auto cluster = LrcCluster::Create(LrcConfig(2, 1, /*page_based=*/true));
  ASSERT_TRUE(cluster.ok());
  LrcPtr<int> a;
  LrcPtr<int> b;
  (*cluster)->RunOnManager([&](LrcNode&) {
    a = LrcAlloc<int>(1);
    b = LrcAlloc<int>(1);  // same page => same minipage
    *a = 0;
    *b = 0;
  });
  (*cluster)->RunParallel([&](LrcNode& node, HostId host) {
    node.Barrier();
    for (int r = 0; r < kRounds; ++r) {
      if (host == 0) {
        *a = *a + 1;
      } else {
        *b = *b + 1;
      }
      node.Barrier();
    }
    EXPECT_EQ(*a, kRounds);
    EXPECT_EQ(*b, kRounds);
    node.Barrier();
  });
  const LrcCounters totals = (*cluster)->TotalCounters();
  // Each host refetches the page once per epoch (acquire dropped it), but
  // writes never ping-pong ownership: fetch count ~= rounds per non-home
  // host, and every write after the fetch is local.
  EXPECT_GT(totals.local_upgrades + totals.twins_created, 0u);
  EXPECT_EQ(totals.diffs_flushed, totals.diffs_applied);
}

TEST(Lrc, ChunkedAllocationsShareMinipages) {
  auto cluster = LrcCluster::Create(LrcConfig(2, /*chunking=*/4));
  ASSERT_TRUE(cluster.ok());
  std::vector<LrcPtr<int>> cells;
  (*cluster)->RunOnManager([&](LrcNode&) {
    // Allocate first, initialize second: under LRC the initializing writes
    // fault (data is homed remotely), and any protocol traffic closes the
    // open aggregation chunk — interleaving would defeat chunking.
    for (int i = 0; i < 8; ++i) {
      cells.push_back(LrcAlloc<int>(1));
    }
    for (int i = 0; i < 8; ++i) {
      *cells[static_cast<size_t>(i)] = i;
    }
  });
  (*cluster)->RunParallel([&](LrcNode& node, HostId host) {
    node.Barrier();
    if (host == 1) {
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(*cells[static_cast<size_t>(i)], i);
      }
      // 8 allocations at chunking 4 = 2 minipages: reading all 8 cells takes
      // at most one fault per minipage (fetches counts serves at this host
      // in its home role, so only read_faults is the requester-side metric).
      EXPECT_LE(node.counters().read_faults, 2u);
    }
    node.Barrier();
  });
}

// LRC keeps no copyset, so its host count is bounded only by the wire's
// host-id range, the same [1, kMaxHosts] that DsmNode::Create checks.
TEST(Lrc, CreateAcceptsEveryWireHostCount) {
  InProcTransport transport(65);
  Result<std::unique_ptr<LrcNode>> node = LrcNode::Create(LrcConfig(65), 64, &transport);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_EQ((*node)->num_hosts(), 65);

  Result<std::unique_ptr<LrcNode>> too_many =
      LrcNode::Create(LrcConfig(static_cast<uint16_t>(kMaxHosts + 1)), 0, &transport);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument)
      << too_many.status().ToString();
}

}  // namespace
}  // namespace millipage
