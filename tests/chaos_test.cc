// Chaos suite: every scenario injects a failure the paper's runtime assumes
// away — a host dying mid-run, a manager reply that never arrives, a delayed
// ACK path — and asserts the liveness layer turns it into a prompt,
// diagnostic error on every surviving host instead of a hang.
//
// The forked scenarios run the paper's deployment shape (one process per
// host over the SEQPACKET mesh); the in-process scenarios assemble nodes by
// hand around FaultyTransport decorators so individual messages can be
// dropped or delayed deterministically.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "src/common/time_util.h"
#include "src/dsm/node.h"
#include "src/dsm/process_cluster.h"
#include "src/net/faulty_transport.h"
#include "src/net/inproc_transport.h"

namespace millipage {
namespace {

// Every surviving host must detect a fault and return a non-OK status within
// this budget (the acceptance bar; well under the 120 s watchdog sweep).
constexpr uint64_t kDetectBudgetMs = 5000;

DsmConfig ChaosConfig(uint16_t hosts) {
  DsmConfig cfg;
  // MILLIPAGE_TRANSPORT=uring re-runs the forked chaos scenarios over the
  // io_uring transport; the in-process FaultyPair/FaultyTrio shapes keep
  // their scripted InProcTransport regardless.
  cfg.transport_backend = TransportBackendFromEnv();
  cfg.num_hosts = hosts;
  cfg.object_size = 1 << 20;
  cfg.request_timeout_ms = 200;
  cfg.max_request_retries = 2;
  cfg.sync_timeout_ms = 2000;
  // MILLIPAGE_FAULT_BACKEND=sigsegv re-runs it on the mprotect fallback.
  cfg.fault_backend = FaultBackendFromEnv();
  return cfg;
}

// A hand-assembled in-process pair: two nodes over one InProcTransport, each
// behind its own FaultyTransport so tests can script that node's failures.
struct FaultyPair {
  InProcTransport inner{2};
  FaultyTransport t0{&inner};
  FaultyTransport t1{&inner};
  std::unique_ptr<DsmNode> n0;
  std::unique_ptr<DsmNode> n1;

  explicit FaultyPair(const DsmConfig& cfg) {
    Result<std::unique_ptr<DsmNode>> r0 = DsmNode::Create(cfg, 0, &t0);
    MP_CHECK(r0.ok());
    n0 = std::move(*r0);
    Result<std::unique_ptr<DsmNode>> r1 = DsmNode::Create(cfg, 1, &t1);
    MP_CHECK(r1.ok());
    n1 = std::move(*r1);
    n0->Start();
    n1->Start();
  }
  ~FaultyPair() {
    // In-process teardown: no peer actually dies, so silence the liveness
    // layer before the server threads go away.
    n0->BeginShutdown();
    n1->BeginShutdown();
    n1->Stop();
    n0->Stop();
  }
};

// Three nodes over one InProcTransport, same shape one host wider: the
// duplicate-delivery scenario needs a requester, a copy holder, and a
// manager that are three distinct hosts.
struct FaultyTrio {
  InProcTransport inner{3};
  FaultyTransport t0{&inner};
  FaultyTransport t1{&inner};
  FaultyTransport t2{&inner};
  std::unique_ptr<DsmNode> nodes[3];

  explicit FaultyTrio(const DsmConfig& cfg) {
    FaultyTransport* ts[3] = {&t0, &t1, &t2};
    for (HostId h = 0; h < 3; ++h) {
      Result<std::unique_ptr<DsmNode>> r = DsmNode::Create(cfg, h, ts[h]);
      MP_CHECK(r.ok()) << r.status().ToString();
      nodes[h] = std::move(*r);
    }
    for (auto& n : nodes) {
      n->Start();
    }
  }
  ~FaultyTrio() {
    for (auto& n : nodes) {
      n->BeginShutdown();
    }
    for (int h = 2; h >= 0; --h) {
      nodes[h]->Stop();
    }
  }

  DsmNode& node(HostId h) { return *nodes[h]; }
};

// ---- Forked: a host dies mid-run ------------------------------------------

TEST(Chaos, HostDeathMidRunFailsSurvivorsWithinBudget) {
  const DsmConfig cfg = ChaosConfig(3);
  const uint64_t t0 = MonotonicNowNs();
  std::vector<HostOutcome> outcomes;
  const Status st = RunForkedCluster(
      cfg,
      [](DsmNode& node, HostId host) {
        const Status b = node.TryBarrier();  // everyone reaches steady state
        MP_CHECK(b.ok()) << b.ToString();
        if (host == 1) {
          ::usleep(50 * 1000);
          ::raise(SIGKILL);  // die without any cleanup, mid-protocol
        }
        // Survivors head for the runtime's final barrier, which can never
        // complete — host 1 is gone. The liveness layer must fail it.
      },
      /*timeout_ms=*/60000, &outcomes);
  const uint64_t elapsed_ms = (MonotonicNowNs() - t0) / 1000000;

  EXPECT_FALSE(st.ok());
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[1].signaled);
  EXPECT_EQ(outcomes[1].term_signal, SIGKILL);
  for (const HostId h : {HostId{0}, HostId{2}}) {
    // Survivors detected the death themselves (peer-down EOF abort at the
    // final barrier) and self-exited — the watchdog never had to sweep them.
    EXPECT_TRUE(outcomes[h].exited) << "host " << h;
    EXPECT_FALSE(outcomes[h].swept) << "host " << h;
    EXPECT_FALSE(outcomes[h].signaled) << "host " << h;
    EXPECT_EQ(outcomes[h].exit_code, kLivenessExitCode) << "host " << h;
    EXPECT_LT(outcomes[h].reaped_at_ms, kDetectBudgetMs) << "host " << h;
  }
  EXPECT_LT(elapsed_ms, 2 * kDetectBudgetMs);
}

// ---- In-process: a manager reply is dropped --------------------------------

TEST(Chaos, DroppedLockGrantFailsWithDeadline) {
  FaultyPair pair(ChaosConfig(2));
  // Host 1's first (and only) lock grant evaporates in flight. (Replies keep
  // the requester in h.from, so the origin filter is the wildcard.)
  pair.t1.DropReceives(kAnyHost, MsgType::kLockGrant, 1);
  const uint64_t t0 = MonotonicNowNs();
  const Status st = pair.n1->TryLock(0);
  const uint64_t elapsed_ms = (MonotonicNowNs() - t0) / 1000000;
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_EQ(pair.t1.receives_dropped(), 1u);
  EXPECT_GE(elapsed_ms, pair.n1->config().sync_timeout_ms - 1);
  EXPECT_LT(elapsed_ms, kDetectBudgetMs);
}

TEST(Chaos, DroppedBarrierReleaseFailsOneHostOnly) {
  FaultyPair pair(ChaosConfig(2));
  pair.t1.DropReceives(kAnyHost, MsgType::kBarrierRelease, 1);
  Status st0, st1;
  const uint64_t t0 = MonotonicNowNs();
  std::thread host0([&] { st0 = pair.n0->TryBarrier(); });
  std::thread host1([&] { st1 = pair.n1->TryBarrier(); });
  host0.join();
  host1.join();
  const uint64_t elapsed_ms = (MonotonicNowNs() - t0) / 1000000;
  // The manager released both hosts; only host 1's release was lost.
  EXPECT_TRUE(st0.ok()) << st0.ToString();
  ASSERT_FALSE(st1.ok());
  EXPECT_EQ(st1.code(), StatusCode::kDeadlineExceeded) << st1.ToString();
  EXPECT_LT(elapsed_ms, kDetectBudgetMs);
}

// ---- In-process: a dropped data reply is retried and recovered -------------

TEST(Chaos, DroppedFetchReplyRecoversByRetry) {
  DsmConfig cfg = ChaosConfig(2);
  // Retries require the manager to re-serve the minipage, which ACK-mode
  // serialization forbids while the first transaction is open — so this
  // scenario runs the no-ACK ablation, where fetch service completes at the
  // manager immediately and a re-sent request is served from scratch.
  cfg.enable_ack = false;
  FaultyPair pair(cfg);

  Result<GlobalAddr> addr = pair.n0->SharedMalloc(64 * sizeof(int));
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  int* data0 = reinterpret_cast<int*>(pair.n0->AppPtr(*addr));
  for (int i = 0; i < 64; ++i) {
    data0[i] = 7000 + i;
  }

  // Host 1's first data reply is lost; the fault must time out, re-send, and
  // complete with correct contents on the second attempt.
  pair.t1.DropReceives(kAnyHost, MsgType::kReadReply, 1);
  const uint64_t t0 = MonotonicNowNs();
  ASSERT_TRUE(pair.n1->OnFault(addr->view, addr->offset, /*is_write=*/false));
  const uint64_t elapsed_ms = (MonotonicNowNs() - t0) / 1000000;

  EXPECT_EQ(pair.t1.receives_dropped(), 1u);
  EXPECT_EQ(pair.n1->timeout_retries(), 1u);
  const int* data1 = reinterpret_cast<const int*>(pair.n1->AppPtr(*addr));
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(data1[i], 7000 + i) << "index " << i;
  }
  EXPECT_GE(elapsed_ms, cfg.request_timeout_ms - 1);
  EXPECT_LT(elapsed_ms, kDetectBudgetMs);
  EXPECT_TRUE(pair.n1->health().ok());
}

// ---- Retry pacing: exponential backoff with seeded jitter ------------------

// The schedule is a pure function of (config, host, attempt): attempt 0 is
// the configured timeout exactly, later attempts grow by kRetryBackoffBase
// within ±kRetryJitterPct, the cap bounds every attempt, and the same seed
// always reproduces the same schedule.
TEST(Chaos, RetryBackoffScheduleIsExponentialSeededAndCapped) {
  DsmConfig cfg;
  cfg.request_timeout_ms = 2000;  // attempts 4 and up reach the 30 s cap

  // Attempt 0 carries no jitter: the common no-retry path keeps its exact
  // configured latency budget.
  EXPECT_EQ(DsmNode::RetryTimeoutMs(cfg, 0, 0), 2000u);
  EXPECT_EQ(DsmNode::RetryTimeoutMs(cfg, 5, 0), 2000u);

  // Later attempts double, give or take the jitter band, until the cap.
  uint64_t expected = 2000;
  for (uint32_t attempt = 1; attempt <= 6; ++attempt) {
    expected = std::min<uint64_t>(expected * 2, DsmNode::kRetryBackoffMaxMs);
    const uint64_t span = expected * DsmNode::kRetryJitterPct / 100;
    for (HostId host = 0; host < 8; ++host) {
      const uint64_t ms = DsmNode::RetryTimeoutMs(cfg, host, attempt);
      EXPECT_GE(ms, expected - span) << "host " << host << " attempt " << attempt;
      EXPECT_LE(ms, expected + span) << "host " << host << " attempt " << attempt;
      // Deterministic: the seeded stream replays identically.
      EXPECT_EQ(ms, DsmNode::RetryTimeoutMs(cfg, host, attempt));
    }
  }

  // The jitter decorrelates hosts: a cluster that timed out together must
  // not re-fire in lockstep. At least two of eight hosts disagree.
  bool differs = false;
  const uint64_t h0 = DsmNode::RetryTimeoutMs(cfg, 0, 1);
  for (HostId host = 1; host < 8 && !differs; ++host) {
    differs = DsmNode::RetryTimeoutMs(cfg, host, 1) != h0;
  }
  EXPECT_TRUE(differs) << "every host retries at the same instant";
}

// Failure-driven proof of the spacing: with two consecutive data replies
// dropped, the fault path must wait out attempt 0's full window, then
// attempt 1's doubled window, before the third send succeeds — so the
// end-to-end latency is bounded below by the sum of the first two windows.
TEST(Chaos, DroppedRepliesBackOffBeforeEachResend) {
  DsmConfig cfg = ChaosConfig(2);
  cfg.enable_ack = false;  // retries need the manager to re-serve (see above)
  cfg.request_timeout_ms = 100;
  cfg.max_request_retries = 3;
  FaultyPair pair(cfg);

  Result<GlobalAddr> addr = pair.n0->SharedMalloc(32 * sizeof(int));
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  int* data0 = reinterpret_cast<int*>(pair.n0->AppPtr(*addr));
  for (int i = 0; i < 32; ++i) {
    data0[i] = 8800 + i;
  }

  pair.t1.DropReceives(kAnyHost, MsgType::kReadReply, 2);
  const uint64_t t0 = MonotonicNowNs();
  ASSERT_TRUE(pair.n1->OnFault(addr->view, addr->offset, /*is_write=*/false));
  const uint64_t elapsed_ms = (MonotonicNowNs() - t0) / 1000000;

  EXPECT_EQ(pair.t1.receives_dropped(), 2u);
  EXPECT_EQ(pair.n1->timeout_retries(), 2u);
  const uint64_t floor_ms = DsmNode::RetryTimeoutMs(cfg, 1, 0) +
                            DsmNode::RetryTimeoutMs(cfg, 1, 1);  // 100 + (160..240)
  EXPECT_GE(elapsed_ms, floor_ms - 2) << "retries fired faster than the backoff";
  EXPECT_LT(elapsed_ms, kDetectBudgetMs);
  const int* data1 = reinterpret_cast<const int*>(pair.n1->AppPtr(*addr));
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(data1[i], 8800 + i) << "index " << i;
  }
  EXPECT_TRUE(pair.n1->health().ok());
}

// ---- In-process: a delayed ACK path must not trip liveness -----------------

TEST(Chaos, DelayedAckPathIsSlowButCorrect) {
  DsmConfig cfg = ChaosConfig(2);
  FaultyPair pair(cfg);

  Result<GlobalAddr> addr = pair.n0->SharedMalloc(16 * sizeof(int));
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  int* data0 = reinterpret_cast<int*>(pair.n0->AppPtr(*addr));
  for (int i = 0; i < 16; ++i) {
    data0[i] = 40 + i;
  }

  // Every ACK from host 1 limps to the manager well inside the deadline.
  pair.t1.DelaySends(kManagerHost, MsgType::kAck, 20 * 1000);
  ASSERT_TRUE(pair.n1->OnFault(addr->view, addr->offset, /*is_write=*/false));
  const int* data1 = reinterpret_cast<const int*>(pair.n1->AppPtr(*addr));
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(data1[i], 40 + i);
  }
  // Slow is not dead: no retries fired, no abort latched.
  EXPECT_EQ(pair.n1->timeout_retries(), 0u);
  EXPECT_EQ(pair.n1->stale_replies(), 0u);
  EXPECT_TRUE(pair.n1->health().ok());
  EXPECT_TRUE(pair.n0->health().ok());
}

// ---- In-process: injected peer death aborts blocked waiters ----------------

TEST(Chaos, InjectedPeerDeathAbortsBlockedBarrier) {
  FaultyPair pair(ChaosConfig(2));
  Status st1;
  std::thread host1([&] { st1 = pair.n1->TryBarrier(); });  // blocks: host 0 absent
  ::usleep(50 * 1000);
  pair.t1.KillPeer(0);  // the manager "dies" under host 1
  host1.join();
  ASSERT_FALSE(st1.ok());
  EXPECT_EQ(st1.code(), StatusCode::kUnavailable) << st1.ToString();
  EXPECT_EQ(pair.n1->peers_down_set(), HostSet::Single(0));
  // Sticky: everything after the abort fails fast, including fresh ops.
  const uint64_t t0 = MonotonicNowNs();
  EXPECT_FALSE(pair.n1->TryLock(3).ok());
  EXPECT_LT((MonotonicNowNs() - t0) / 1000000, 1000u);
  EXPECT_FALSE(pair.n1->health().ok());
  // The diagnostic snapshot names the failure state.
  const std::string report = pair.n1->LivenessReport();
  EXPECT_NE(report.find("peers_down{count=1 ids=0}"), std::string::npos) << report;
}

// ---- In-process: a duplicated invalidate reply is absorbed, not fatal ------

// A retransmitted or stray kInvalidateReply must be idempotent at the
// manager. Before the fix, the second delivery tripped a fatal MP_CHECK in
// MgrHandleInvalidateReply (write_pending / invalidates_pending already
// cleared), killing the manager's server thread mid-round; now it bumps
// dup_invalidate_replies and the write round completes normally.
TEST(Chaos, DuplicateInvalidateReplyIsAbsorbedByManager) {
  FaultyTrio trio(ChaosConfig(3));
  DsmNode& n0 = trio.node(0);
  DsmNode& n1 = trio.node(1);
  DsmNode& n2 = trio.node(2);

  Result<GlobalAddr> addr = n0.SharedMalloc(16 * sizeof(int));
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  int* data0 = reinterpret_cast<int*>(n0.AppPtr(*addr));
  for (int i = 0; i < 16; ++i) {
    data0[i] = 6100 + i;
  }

  // Host 1 takes a read copy, so host 2's upcoming write runs an
  // invalidation round: the manager keeps one replica as the data source and
  // invalidates the other (which of {0, 1} depends on the replica rotation).
  ASSERT_TRUE(n1.OnFault(addr->view, addr->offset, /*is_write=*/false));

  // Whoever replies, the manager hears the invalidate reply twice.
  trio.t0.DuplicateReceives(kAnyHost, MsgType::kInvalidateReply, 1);

  ASSERT_TRUE(n2.OnFault(addr->view, addr->offset, /*is_write=*/true));
  int* data2 = reinterpret_cast<int*>(n2.AppPtr(*addr));
  for (int i = 0; i < 16; ++i) {
    data2[i] = 6200 + i;
  }

  // The duplicate arrives on the manager's next poll; wait until it has been
  // counted (absorbed) rather than fatally checked.
  const uint64_t t0 = MonotonicNowNs();
  while (n0.counters().dup_invalidate_replies == 0) {
    ASSERT_LT((MonotonicNowNs() - t0) / 1000000, kDetectBudgetMs)
        << "duplicate reply never reached the idempotence path";
    ::usleep(1000);
  }
  EXPECT_EQ(trio.t0.receives_duplicated(), 1u);

  // The cluster stays fully operational: host 1 re-fetches host 2's values.
  ASSERT_TRUE(n1.OnFault(addr->view, addr->offset, /*is_write=*/false));
  const int* data1 = reinterpret_cast<const int*>(n1.AppPtr(*addr));
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(data1[i], 6200 + i) << "index " << i;
  }
  EXPECT_TRUE(n0.health().ok());
  EXPECT_TRUE(n1.health().ok());
  EXPECT_TRUE(n2.health().ok());
}

}  // namespace
}  // namespace millipage
