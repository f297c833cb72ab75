// Multi-process deployment test: one process per host over the SEQPACKET
// mesh — the paper's deployment shape. Shared state set up by the manager
// process is fetched by the others through genuine cross-process faults.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/time_util.h"
#include "src/dsm/global_ptr.h"
#include "src/dsm/process_cluster.h"
#include "src/os/fault_handler.h"

namespace millipage {
namespace {

// After RunForkedCluster returns, every child must be reaped: a further wait
// on any child must come back ECHILD (no zombies left behind).
void ExpectNoZombies() {
  int wstatus = 0;
  errno = 0;
  const pid_t r = ::waitpid(-1, &wstatus, WNOHANG);
  EXPECT_EQ(r, -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ProcessCluster, CrossProcessReadAndWrite) {
  DsmConfig cfg;
  // MILLIPAGE_TRANSPORT=uring re-runs the forked suite over the io_uring
  // transport (falls back to sockets on old kernels); the CI matrix sets it.
  // MILLIPAGE_FAULT_BACKEND=sigsegv likewise runs each forked host on the
  // mprotect fallback instead of its own userfaultfd.
  cfg.transport_backend = TransportBackendFromEnv();
  cfg.fault_backend = FaultBackendFromEnv();
  cfg.num_hosts = 3;
  cfg.object_size = 1 << 20;
  cfg.num_views = 8;
  const Status st = RunForkedCluster(cfg, [](DsmNode& node, HostId host) {
    GlobalPtr<int> data;
    GlobalPtr<GlobalAddr> mailbox;
    if (host == 0) {
      // The manager allocates a mailbox at a deterministic address (first
      // allocation) plus a payload, and publishes the payload's address
      // through the mailbox.
      mailbox = SharedAlloc<GlobalAddr>(1);
      data = SharedAlloc<int>(8);
      for (int i = 0; i < 8; ++i) {
        data[i] = 100 + i;
      }
      *mailbox = data.addr();
    }
    node.Barrier();
    if (host != 0) {
      // Non-managers learn the first allocation's address by allocating
      // nothing: the mailbox is by construction the first minipage, at the
      // offset/view the manager's allocator assigned. Hosts reconstruct it
      // via a second barrier-published convention: view 0, offset 0.
      GlobalPtr<GlobalAddr> mb(GlobalAddr{0, 0});
      const GlobalAddr payload = *mb;  // read fault across processes
      GlobalPtr<int> remote(payload);
      // Hosts 1 and 2 run concurrently and write slots 1 and 2; only the
      // untouched tail is guaranteed to hold the initial values here.
      for (int i = 3; i < 8; ++i) {
        if (remote[i] != 100 + i) {
          MP_LOG(Error) << "host " << host << " saw wrong value at " << i;
          _exit(3);
        }
      }
      // Write back host-specific values (exclusive-write protocol).
      remote[host] = 1000 + host;
    }
    node.Barrier();
    if (host == 0) {
      for (int h = 1; h < 3; ++h) {
        if (data[h] != 1000 + h) {
          MP_LOG(Error) << "manager saw wrong write-back from host " << h;
          _exit(4);
        }
      }
    }
    node.Barrier();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ProcessCluster, LocksAndBarriersAcrossProcesses) {
  DsmConfig cfg;
  cfg.transport_backend = TransportBackendFromEnv();
  cfg.fault_backend = FaultBackendFromEnv();
  cfg.num_hosts = 2;
  cfg.object_size = 1 << 20;
  const Status st = RunForkedCluster(cfg, [](DsmNode& node, HostId host) {
    GlobalPtr<int> counter(GlobalAddr{0, 0});
    if (host == 0) {
      GlobalPtr<int> c = SharedAlloc<int>(1);
      *c = 0;
      MP_CHECK(c.addr().offset == 0 && c.addr().view == 0);
    }
    node.Barrier();
    for (int i = 0; i < 10; ++i) {
      node.Lock(0);
      *counter = *counter + 1;
      node.Unlock(0);
    }
    node.Barrier();
    if (*counter != 20) {
      MP_LOG(Error) << "counter=" << *counter;
      _exit(5);
    }
    node.Barrier();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ProcessCluster, ChildFailureIsReported) {
  DsmConfig cfg;
  cfg.transport_backend = TransportBackendFromEnv();
  cfg.fault_backend = FaultBackendFromEnv();
  cfg.num_hosts = 2;
  cfg.object_size = 1 << 20;
  const Status st = RunForkedCluster(cfg, [](DsmNode& node, HostId host) {
    node.Barrier();
    if (host == 1) {
      _exit(7);  // simulated application failure
    }
    node.Barrier();  // host 0 would block forever without the runtime's
                     // final-barrier convention; host 1's exit breaks it
  });
  EXPECT_FALSE(st.ok());
  ExpectNoZombies();
}

TEST(ProcessCluster, NonZeroExitIsRecordedInOutcomes) {
  DsmConfig cfg;
  cfg.transport_backend = TransportBackendFromEnv();
  cfg.fault_backend = FaultBackendFromEnv();
  cfg.num_hosts = 2;
  cfg.object_size = 1 << 20;
  cfg.sync_timeout_ms = 3000;  // host 0's doomed final barrier fails promptly
  const uint64_t t0 = MonotonicNowNs();
  std::vector<HostOutcome> outcomes;
  const Status st = RunForkedCluster(
      cfg,
      [](DsmNode&, HostId host) {
        if (host == 1) {
          _exit(7);
        }
      },
      /*timeout_ms=*/60000, &outcomes);
  const uint64_t elapsed_ms = (MonotonicNowNs() - t0) / 1000000;
  EXPECT_FALSE(st.ok());
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[1].exited);
  EXPECT_FALSE(outcomes[1].signaled);
  EXPECT_EQ(outcomes[1].exit_code, 7);
  // Host 0 noticed the dead peer at the final barrier and exited on its own.
  EXPECT_TRUE(outcomes[0].exited);
  EXPECT_FALSE(outcomes[0].swept);
  EXPECT_EQ(outcomes[0].exit_code, kLivenessExitCode);
  EXPECT_LT(elapsed_ms, 10000u);
  ExpectNoZombies();
}

TEST(ProcessCluster, ChildKilledBySignalIsRecorded) {
  DsmConfig cfg;
  cfg.transport_backend = TransportBackendFromEnv();
  cfg.fault_backend = FaultBackendFromEnv();
  cfg.num_hosts = 3;
  cfg.object_size = 1 << 20;
  cfg.sync_timeout_ms = 3000;
  const uint64_t t0 = MonotonicNowNs();
  std::vector<HostOutcome> outcomes;
  const Status st = RunForkedCluster(
      cfg,
      [](DsmNode&, HostId host) {
        if (host == 2) {
          ::raise(SIGKILL);  // hard crash, no cleanup of any kind
        }
      },
      /*timeout_ms=*/60000, &outcomes);
  const uint64_t elapsed_ms = (MonotonicNowNs() - t0) / 1000000;
  EXPECT_FALSE(st.ok());
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[2].signaled);
  EXPECT_EQ(outcomes[2].term_signal, SIGKILL);
  for (int h = 0; h < 2; ++h) {
    EXPECT_TRUE(outcomes[h].exited) << "host " << h;
    EXPECT_FALSE(outcomes[h].signaled) << "host " << h;
    EXPECT_EQ(outcomes[h].exit_code, kLivenessExitCode) << "host " << h;
  }
  EXPECT_LT(elapsed_ms, 10000u);
  ExpectNoZombies();
}

}  // namespace
}  // namespace millipage
