// End-to-end smoke tests for the millipage DSM: genuine SIGSEGV faults,
// manager protocol, sequential consistency on an in-process cluster.

#include <gtest/gtest.h>

#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"

namespace millipage {
namespace {

DsmConfig SmallConfig(uint16_t hosts) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 1 << 20;
  cfg.num_views = 8;
  return cfg;
}

TEST(DsmSmoke, SingleHostAllocateAndWrite) {
  auto cluster = DsmCluster::Create(SmallConfig(1));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  (*cluster)->RunOnManager([](DsmNode& node) {
    Result<GlobalAddr> a = node.SharedMalloc(64);
    ASSERT_TRUE(a.ok());
    auto* p = reinterpret_cast<int*>(node.AppPtr(*a));
    p[0] = 42;  // manager holds the initial writable copy: no fault
    EXPECT_EQ(p[0], 42);
  });
  EXPECT_EQ((*cluster)->manager().counters().read_faults, 0u);
  EXPECT_EQ((*cluster)->manager().counters().write_faults, 0u);
}

TEST(DsmSmoke, TwoHostsReadFault) {
  auto cluster = DsmCluster::Create(SmallConfig(2));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  GlobalPtr<int> shared;
  (*cluster)->RunOnManager([&shared](DsmNode&) {
    shared = SharedAlloc<int>(16);
    for (int i = 0; i < 16; ++i) {
      shared[i] = i * i;
    }
  });
  (*cluster)->RunParallel([&shared](DsmNode& node, HostId host) {
    if (host == 1) {
      for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(shared[i], i * i);  // first access read-faults
      }
    }
    node.Barrier();
  });
  EXPECT_EQ((*cluster)->node(1).counters().read_faults, 1u);
  EXPECT_EQ((*cluster)->node(1).counters().read_fault_bytes, 64u);
}

TEST(DsmSmoke, WriteInvalidatesReaders) {
  auto cluster = DsmCluster::Create(SmallConfig(3));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  GlobalPtr<int> shared;
  (*cluster)->RunOnManager([&shared](DsmNode&) {
    shared = SharedAlloc<int>(1);
    *shared = 7;
  });
  (*cluster)->RunParallel([&shared](DsmNode& node, HostId host) {
    // Everyone reads the initial value.
    EXPECT_EQ(*shared, 7);
    node.Barrier();
    // Host 2 writes; all other copies must be invalidated.
    if (host == 2) {
      *shared = 99;
    }
    node.Barrier();
    // Everyone observes the new value (re-faulting as needed).
    EXPECT_EQ(*shared, 99);
    node.Barrier();
  });
  EXPECT_GE((*cluster)->node(2).counters().write_faults, 1u);
}

TEST(DsmSmoke, PingPongCounter) {
  auto cluster = DsmCluster::Create(SmallConfig(2));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  GlobalPtr<int> counter;
  (*cluster)->RunOnManager([&counter](DsmNode&) {
    counter = SharedAlloc<int>(1);
    *counter = 0;
  });
  constexpr int kRounds = 50;
  (*cluster)->RunParallel([&counter](DsmNode& node, HostId) {
    for (int r = 0; r < kRounds; ++r) {
      node.Lock(0);
      *counter = *counter + 1;
      node.Unlock(0);
    }
    node.Barrier();
    EXPECT_EQ(*counter, 2 * kRounds);
    node.Barrier();
  });
}

TEST(DsmSmoke, FalseSharingIsAvoided) {
  // Two ints in the same physical page but different minipages: concurrent
  // writers never steal each other's minipage.
  auto cluster = DsmCluster::Create(SmallConfig(2));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  GlobalPtr<int> a, b;
  (*cluster)->RunOnManager([&](DsmNode&) {
    a = SharedAlloc<int>(1);
    b = SharedAlloc<int>(1);
    *a = 0;
    *b = 0;
  });
  // The two allocations share a page but live in different views.
  EXPECT_EQ(a.addr().offset / 4096, b.addr().offset / 4096);
  EXPECT_NE(a.addr().view, b.addr().view);

  constexpr int kIters = 200;
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    node.Barrier();
    if (host == 0) {
      for (int i = 0; i < kIters; ++i) {
        *a = *a + 1;
      }
    } else {
      for (int i = 0; i < kIters; ++i) {
        *b = *b + 1;
      }
    }
    node.Barrier();
    EXPECT_EQ(*a, kIters);
    EXPECT_EQ(*b, kIters);
    node.Barrier();
  });
  // After the first write fault each host owns its own minipage: at most a
  // handful of faults, not one per iteration.
  EXPECT_LE((*cluster)->node(0).counters().write_faults, 3u);
  EXPECT_LE((*cluster)->node(1).counters().write_faults, 3u);
}

}  // namespace
}  // namespace millipage
