// Shared allocation on a started cluster: host 0, the allocator, allocates on
// the calling thread and sends no message; other hosts' requests poll for
// their reply; and inline allocation racing the server thread's translation
// never leaves host 0 ReadWrite over a minipage another host holds a copy of.

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/failpoint.h"
#include "src/dsm/cluster.h"
#include "src/dsm/global_ptr.h"
#include "src/dsm/node.h"

namespace millipage {
namespace {

DsmConfig Cfg(ManagerPolicy policy) {
  DsmConfig cfg;
  cfg.num_hosts = 4;
  cfg.object_size = 1 << 20;
  cfg.num_views = 8;
  cfg.manager_policy = policy;
  // MILLIPAGE_FAULT_BACKEND=sigsegv re-runs the suite on the mprotect
  // fallback (unset is the userfaultfd default).
  cfg.fault_backend = FaultBackendFromEnv();
  return cfg;
}

TEST(SharedAlloc, AllocatorHostSendsNoMessage) {
  SetMetricsEnabled(true);
  auto cluster = DsmCluster::Create(Cfg(ManagerPolicy::kCentralized));
  ASSERT_TRUE(cluster.ok());
  constexpr int kCalls = 64;
  (*cluster)->RunOnManager([&](DsmNode& node) {
    const uint64_t sent = node.counters().messages_sent;
    for (int i = 0; i < kCalls; ++i) {
      ASSERT_TRUE(node.SharedMalloc(672).ok());
    }
    EXPECT_EQ(node.counters().messages_sent, sent) << "host 0 sent a message to allocate";
  });
  Histogram* handoff = (*cluster)->node(2).metrics().GetHistogram("dsm.reply_handoff_ns");
  const uint64_t handoffs = handoff->Snapshot().count;
  (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
    if (host != 2) {
      return;
    }
    const uint64_t sent = node.counters().messages_sent;
    for (int i = 0; i < kCalls; ++i) {
      ASSERT_TRUE(node.SharedMalloc(672).ok());
    }
    EXPECT_EQ(node.counters().messages_sent, sent + kCalls) << "one request per call";
  });
  EXPECT_EQ(handoff->Snapshot().count, handoffs + kCalls)
      << "every reply was handed to the waiting caller";
}

struct AllocRace {
  ManagerPolicy policy;
  bool page_based;
};

class ConcurrentAlloc : public ::testing::TestWithParam<AllocRace> {};

// Host 0 allocates 256 chunked objects while hosts 1-3 already read and write
// the ones published to them, so translations close growing chunks (and, page
// based, re-present shared pages) while host 0's application thread extends
// them. Each object has one writing host besides host 0's initial write, so
// every owner read is checked against the last value written; reads of other
// hosts' objects are checked for the right object and a value not ahead of
// its writer.
TEST_P(ConcurrentAlloc, AllocationRacesTranslation) {
  DsmConfig cfg = Cfg(GetParam().policy);
  cfg.chunking_level = 4;
  cfg.page_based = GetParam().page_based;
  auto cluster = DsmCluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());

  constexpr uint32_t kObjects = 256;
  constexpr uint32_t kWords = 84;  // 672-byte objects: growing chunks cross vpages
  constexpr uint32_t kWindow = 6;  // newest objects each remote pass revisits
  std::vector<GlobalPtr<uint64_t>> objs(kObjects);
  std::vector<std::atomic<uint64_t>> last_written(kObjects);
  std::atomic<uint32_t> published{0};
  std::atomic<uint32_t> frontier{0};  // newest object index a remote host touched
  std::atomic<bool> alloc_done{false};
  const auto owner = [](uint32_t i) { return static_cast<HostId>(1 + i % 3); };
  // Object i holds (i << 32) | writes since its initial value.
  const auto value = [](uint32_t i, uint64_t count) { return (uint64_t{i} << 32) | count; };

  // Stretch half of all protection changes by 50 us, so a translation and
  // its service have time to run inside any window a grant might leave open.
  FailpointAction stretch;
  stretch.kind = FailpointAction::Kind::kDelayUs;
  stretch.arg = 50;
  stretch.probability = 0.5;
  {
    FailpointScope stretched("os.mapping.protect", stretch);
    (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
      if (host == kManagerHost) {
        for (uint32_t i = 0; i < kObjects; ++i) {
          // Stay a few objects ahead of the readers, so requests for the open
          // chunk arrive while it is still growing.
          while (i > frontier.load(std::memory_order_acquire) + 3) {
            sched_yield();
          }
          objs[i] = SharedAlloc<uint64_t>(kWords);
          objs[i][0] = value(i, 0);
          objs[i][kWords - 1] = value(i, 0);
          last_written[i].store(value(i, 0), std::memory_order_relaxed);
          published.store(i + 1, std::memory_order_release);
        }
        alloc_done.store(true, std::memory_order_release);
      }
      const auto visit = [&](uint32_t i) {
        if (owner(i) != host) {
          const uint64_t seen = objs[i][0];
          EXPECT_EQ(seen >> 32, i) << "host " << host << " read a foreign object";
          EXPECT_LE(seen, last_written[i].load(std::memory_order_acquire) + 1)
              << "host " << host << " read object " << i << " ahead of its writer";
          return;
        }
        const uint64_t want = last_written[i].load(std::memory_order_relaxed);
        ASSERT_EQ(objs[i][0], want) << "host " << host << " object " << i;
        ASSERT_EQ(objs[i][kWords - 1], want) << "host " << host << " object " << i;
        const uint64_t next = want + 1;
        objs[i][0] = next;
        objs[i][kWords - 1] = next;
        last_written[i].store(next, std::memory_order_release);
      };
      while (host != kManagerHost) {
        const bool done = alloc_done.load(std::memory_order_acquire);
        const uint32_t n = published.load(std::memory_order_acquire);
        if (n > 0) {
          visit(n - 1);  // the open chunk's newest member
          uint32_t f = frontier.load(std::memory_order_relaxed);
          while (f < n - 1 && !frontier.compare_exchange_weak(f, n - 1)) {
            // f now holds the current frontier; retry while it is behind.
          }
        }
        for (uint32_t i = n > kWindow ? n - kWindow : 0; i < n; ++i) {
          visit(i);
        }
        if (done) {
          break;
        }
      }
      node.Barrier();
      for (uint32_t i = 0; i < kObjects; ++i) {
        visit(i);
      }
    });
  }
  // Each object holds its last written value everywhere.
  (*cluster)->RunParallel([&](DsmNode&, HostId host) {
    for (uint32_t i = 0; i < kObjects; ++i) {
      EXPECT_EQ(objs[i][0], last_written[i].load()) << "host " << host << " object " << i;
    }
  });

  // Quiescent: a minipage any remote host holds a copy of is not ReadWrite
  // anywhere in host 0's shadow.
  DsmNode& mgr = (*cluster)->manager();
  const MinipageTable& mpt = *mgr.mpt();
  size_t shared = 0;
  for (MinipageId id = 0; id < mpt.size(); ++id) {
    const Minipage& mp = mpt.Get(id);
    bool remote_copy = false;
    for (HostId h = 1; h < cfg.num_hosts; ++h) {
      const Protection prot = (*cluster)->node(h).views().GetProtection(mp);
      remote_copy = remote_copy || prot != Protection::kNoAccess;
    }
    if (!remote_copy) {
      continue;
    }
    ++shared;
    for (uint64_t vp = mp.first_vpage(); vp <= mp.last_vpage(); ++vp) {
      EXPECT_NE(mgr.views().GetVpageProtection(mp.view, vp), Protection::kReadWrite)
          << "host 0 is ReadWrite on vpage " << vp << " of minipage " << id
          << " while a remote host holds a copy";
    }
  }
  EXPECT_GT(shared, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndLayouts, ConcurrentAlloc,
    ::testing::Values(AllocRace{ManagerPolicy::kCentralized, false},
                      AllocRace{ManagerPolicy::kSharded, false},
                      AllocRace{ManagerPolicy::kCentralized, true},
                      AllocRace{ManagerPolicy::kSharded, true}),
    [](const ::testing::TestParamInfo<AllocRace>& race) {
      const bool sharded = race.param.policy == ManagerPolicy::kSharded;
      return std::string(sharded ? "Sharded" : "Centralized") +
             (race.param.page_based ? "PageBased" : "Chunked");
    });

}  // namespace
}  // namespace millipage
