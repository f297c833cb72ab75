// Coherence-batching sweeps (`ctest -L batching`): the batched protocol
// (DsmConfig::batch_coherence, multi-record frames behind kFlagBatched) must
// be invisible to the application and to the consistency checker.
//
// Three claims, each swept over many seeds:
//   * equivalence — a phased script (disjoint writes, barrier, global reads,
//     barrier) produces a per-host application-event projection that is
//     byte-identical with batching on and off, under both manager policies;
//   * invariants — generated contended workloads stay checker-clean with
//     batching on, at 8 hosts (both policies) and at 128/256 hosts where
//     invalidation fan-out genuinely exceeds the old 64-host mask;
//   * crash-safety — kill-one-host schedules complete checker-clean with
//     batching on (batched frames to a dead destination are dropped whole,
//     copyset repair retires the round).
//
// Replay: MILLIPAGE_SIM_SEED=<seed> ./sim_test --gtest_filter='*ReplayEnvSeed*'

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/check/history_checker.h"
#include "src/check/sim_harness.h"

namespace millipage {
namespace {

// One round = every host writes its contiguous block of cells (host h owns
// cells [h·k, h·k+k) for k = cells/hosts), barrier, every host reads every
// cell, barrier. Within each phase the touched cells are disjoint (writes)
// or read-only (reads), so each host's sequence of application events — and
// every read's value — is fixed by the script, not by the message schedule.
// That is what makes the projection comparable across protocol variants
// that message differently.
//
// The block assignment (not residue classes) matters for sharding: shard s
// serves cells ≡ s mod hosts, so with k = 2 its two cells, s and s+hosts,
// are written by two *different* hosts (s/2 and s/2 + hosts/2). A worker
// blocks inside each write fault, so one writer never has two rounds in
// flight — only distinct concurrent writers can put two same-shard
// invalidation rounds in the air, the shape multi-record frames need.
std::vector<std::vector<SimOp>> PhasedScript(const SimWorkload& w) {
  const uint32_t k = w.cells / w.hosts;
  std::vector<std::vector<SimOp>> script(w.hosts);
  script[0].push_back({SimOpKind::kAlloc, 0});
  for (uint16_t h = 0; h < w.hosts; ++h) {
    script[h].push_back({SimOpKind::kBarrier, 0});
  }
  for (uint32_t round = 0; round < w.rounds; ++round) {
    for (uint16_t h = 0; h < w.hosts; ++h) {
      for (uint32_t c = h * k; c < (h + 1u) * k; ++c) {
        script[h].push_back({SimOpKind::kWrite, c});
      }
      script[h].push_back({SimOpKind::kBarrier, 0});
      for (uint32_t c = 0; c < w.cells; ++c) {
        script[h].push_back({SimOpKind::kRead, c});
      }
      script[h].push_back({SimOpKind::kBarrier, 0});
    }
  }
  return script;
}

// Per-host application-event projection: the ordered (op, cell, value)
// stream each host observed. Cross-host interleaving is schedule-dependent
// and deliberately excluded.
std::vector<std::string> AppProjection(const SimResult& r, uint16_t hosts) {
  std::vector<std::string> per_host(hosts);
  for (const TraceEvent& e : r.history) {
    if (e.kind != TraceEventKind::kAppRead && e.kind != TraceEventKind::kAppWrite) {
      continue;
    }
    per_host[e.host] += e.kind == TraceEventKind::kAppRead ? "R " : "W ";
    per_host[e.host] += std::to_string(e.minipage) + " = " + std::to_string(e.arg1) + "\n";
  }
  return per_host;
}

void CheckClean(uint64_t seed, const SimWorkload& w, const SimResult& r) {
  ASSERT_TRUE(r.status.ok()) << "seed " << seed << ": " << r.status.ToString() << "\n"
                             << r.FormattedHistory();
  ASSERT_GT(r.history.size(), 0u) << "seed " << seed << " recorded no events";
  const CheckReport report =
      CheckHistory(r.history, w.hosts, w.policy == ManagerPolicy::kSharded);
  ASSERT_TRUE(report.ok) << "seed " << seed << ":\n" << report.FormatViolation(r.history);
}

// ---- Equivalence: batching must not change what the application sees -------

void SweepEquivalence(ManagerPolicy policy) {
  SimWorkload w;
  w.hosts = 8;
  w.cells = 16;  // two cells per shard, so sharded runs can coalesce too
  w.rounds = 2;
  w.policy = policy;
  // MILLIPAGE_FAULT_BACKEND=sigsegv re-runs the sweep on the mprotect
  // fallback (the CI backend matrix sets it).
  w.backend = FaultBackendFromEnv();
  const std::vector<std::vector<SimOp>> script = PhasedScript(w);

  uint64_t batched_frames = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SimWorkload on = w;
    on.batch_coherence = true;
    SimWorkload off = w;
    off.batch_coherence = false;
    const SimResult a = RunScript(seed, on, script);
    const SimResult b = RunScript(seed, off, script);
    CheckClean(seed, on, a);
    CheckClean(seed, off, b);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    EXPECT_EQ(b.batch_frames, 0u) << "unbatched run sent a batched frame";
    batched_frames += a.batch_frames;
    const std::vector<std::string> pa = AppProjection(a, w.hosts);
    const std::vector<std::string> pb = AppProjection(b, w.hosts);
    for (uint16_t h = 0; h < w.hosts; ++h) {
      ASSERT_EQ(pa[h], pb[h])
          << "seed " << seed << ", host " << h
          << ": batching changed the application-visible history";
    }
  }
  // The sweep must actually exercise multi-record frames, or the equivalence
  // claim is vacuous.
  EXPECT_GT(batched_frames, 0u) << "no schedule ever coalesced a frame";
}

TEST(SimBatching, BatchedMatchesUnbatchedCentralized) {
  SweepEquivalence(ManagerPolicy::kCentralized);
}

TEST(SimBatching, BatchedMatchesUnbatchedSharded) {
  SweepEquivalence(ManagerPolicy::kSharded);
}

// Determinism is preserved with batching on: same seed, same history.
TEST(SimBatching, SameSeedSameHistoryWithBatching) {
  SimWorkload w;
  w.hosts = 8;
  w.cells = 4;
  w.rounds = 2;
  w.ops_per_round = 4;
  w.backend = FaultBackendFromEnv();
  for (uint64_t seed : {3ull, 17ull}) {
    const SimResult a = RunSim(seed, w);
    const SimResult b = RunSim(seed, w);
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    ASSERT_GT(a.history.size(), 0u);
    EXPECT_EQ(a.FormattedHistory(), b.FormattedHistory()) << "seed " << seed;
  }
}

// ---- Invariants: generated contended workloads, batching on ----------------

// `expect_frames`: whether the sweep's shape can plausibly coalesce at all.
// A wide sharded run with one cell per shard never puts two same-destination
// records in flight, so asserting frames there would only test the workload.
void SweepGenerated(uint16_t hosts, ManagerPolicy policy, uint64_t first_seed,
                    int seeds, bool expect_frames) {
  SimWorkload w;
  w.hosts = hosts;
  w.cells = hosts >= 128 ? 8 : 16;
  w.rounds = hosts >= 128 ? 1 : 2;
  w.ops_per_round = hosts >= 128 ? 2 : 4;
  w.use_locks = true;
  w.policy = policy;
  w.backend = FaultBackendFromEnv();
  uint64_t batched_frames = 0;
  for (uint64_t seed = first_seed; seed < first_seed + static_cast<uint64_t>(seeds);
       ++seed) {
    const SimResult r = RunSim(seed, w);
    CheckClean(seed, w, r);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    batched_frames += r.batch_frames;
  }
  if (expect_frames) {
    EXPECT_GT(batched_frames, 0u) << "no schedule ever coalesced a frame";
  }
}

TEST(SimBatching, TwentySeedsEightHostsCentralized) {
  SweepGenerated(8, ManagerPolicy::kCentralized, 1, 20, /*expect_frames=*/true);
}

// Random scripts rarely line up two concurrent writers on the same shard,
// so frame coverage for the sharded policy is pinned by the phased
// equivalence sweep above, not here.
TEST(SimBatching, TwentySeedsEightHostsSharded) {
  SweepGenerated(8, ManagerPolicy::kSharded, 1, 20, /*expect_frames=*/false);
}

// Wide clusters: invalidation fan-out past the old 64-host mask ceiling with
// the batched dispatch path live. (Kept to a few seeds — each run spins up
// one worker thread per host.)
TEST(SimBatchingWide, Sharded128Hosts) {
  SweepGenerated(128, ManagerPolicy::kSharded, 1, 5, /*expect_frames=*/false);
}

TEST(SimBatchingWide, Sharded256Hosts) {
  SweepGenerated(256, ManagerPolicy::kSharded, 1, 3, /*expect_frames=*/false);
}

// ---- Crash-safety: kill one host mid-run, batching on ----------------------

void SweepKill(uint16_t hosts, uint64_t first_seed, int seeds) {
  SimWorkload w;
  w.hosts = hosts;
  w.cells = hosts >= 128 ? 8 : 4;
  w.rounds = hosts >= 128 ? 1 : 2;
  w.ops_per_round = hosts >= 128 ? 2 : 3;
  w.use_locks = true;
  w.policy = ManagerPolicy::kSharded;  // failover needs a sharded directory
  w.kill_one_host = true;
  w.backend = FaultBackendFromEnv();
  for (uint64_t seed = first_seed; seed < first_seed + static_cast<uint64_t>(seeds);
       ++seed) {
    const SimResult r = RunSim(seed, w);
    ASSERT_TRUE(r.status.ok()) << "seed " << seed << ": " << r.status.ToString() << "\n"
                               << r.FormattedHistory();
    ASSERT_TRUE(r.killed) << "seed " << seed << ": the kill never fired";
    ASSERT_NE(r.killed_host, 0) << "seed " << seed << " killed the allocator host";
    const CheckReport report = CheckHistory(r.history, w.hosts, /*sharded=*/true);
    ASSERT_TRUE(report.ok) << "seed " << seed << " (killed host " << r.killed_host
                           << "):\n"
                           << report.FormatViolation(r.history);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(SimBatchingKill, TwentySeedsEightHosts) { SweepKill(8, 1, 20); }

TEST(SimBatchingKill, Sharded128Hosts) { SweepKill(128, 1, 3); }

}  // namespace
}  // namespace millipage
