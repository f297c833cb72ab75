// The isolated-fault probe: the Section 4.2 microworkload, run closed-loop
// with barriers between steps so the cluster has one fault or sync call in
// flight at a time. Every access and call is timed on the application
// thread, and every read is checked against the seeded value last written.
//
// One probe set, with roles (a, b, c, d) taken from a permutation of the
// four hosts:
//   0. a reads both objects (checking the previous set's values), then
//      writes v1 into them                                   (not sampled)
//   1. b reads the 128 B minipage                            read
//   2. b reads the 4 KB minipage                             read_4k
//   3. a writes v2; b's copy is the 1 read copy invalidated  write
//   4. b, c, d read the 128 B minipage one after another     read (x3)
//   5. b writes v3, invalidating the 3 copies of a, c, d     write_3copies
//   6. all four hosts enter one barrier                      barrier (x4)
//   7. c (d if c manages the lock) locks and unlocks a lock  lock
// Every step ends with a barrier that is not sampled. A round cycles
// through all permutations of the hosts in a seeded order, so every round
// weighs each (requester, owner, manager) placement equally. The first
// cycle of a round is run and checked but not sampled: it takes the
// kernel's first-touch faults on the fresh minipages, which would otherwise
// land in the tail percentiles.

#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"

namespace perfbench {

using millipage::GlobalAddr;

struct ProbeSet {
  std::array<HostId, 4> roles{};
  uint64_t v1 = 0;
  uint64_t v2 = 0;
  uint64_t v3 = 0;
};

struct ProbePlan {
  GlobalAddr small{};  // 128 B minipage
  GlobalAddr large{};  // 4 KB minipage
  uint32_t lock_id = 0;
  HostId lock_manager = 0;
  std::vector<ProbeSet> sets;
  size_t warmup_sets = 0;  // leading sets that are not sampled
};

// Per-host results; merged after the parallel phase. Latencies in ns.
struct ProbeSamples {
  std::vector<uint64_t> read;
  std::vector<uint64_t> read_4k;
  std::vector<uint64_t> write;
  std::vector<uint64_t> write_3copies;
  std::vector<uint64_t> barrier;
  std::vector<uint64_t> lock;
  // Accesses that took a fault, for the trap = access - service split.
  uint64_t fault_access_ns = 0;
  uint64_t fault_accesses = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Merge(const ProbeSamples& o);
};

// Fills plan->sets with one warm-up cycle plus `cycles` sampled cycles of
// role permutations, in the order drawn from `seed`, with written values
// drawn from (seed, round).
void PlanProbeSets(uint64_t seed, uint32_t round, uint32_t cycles, uint16_t num_hosts,
                   ProbePlan* plan);

// Allocates the probe's two minipages on the manager (each SharedMalloc in a
// multiview.shared_malloc span). Returns false if an allocation fails.
bool AllocProbeObjects(DsmNode& manager, SpanRecorder* recorder, ProbePlan* plan);

// One host's share of a probe round; runs inside RunParallel.
void ProbeWorker(DsmNode& node, HostId me, const ProbePlan& plan, SpanRecorder* recorder,
                 ProbeSamples* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
