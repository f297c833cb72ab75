#include "perfbench/src/probe.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/time_util.h"

namespace perfbench {

using millipage::MonotonicNowNs;

namespace {

constexpr size_t kSmallBytes = 128;
constexpr size_t kLargeBytes = 4096;
constexpr size_t kLargeLast = kLargeBytes / sizeof(uint64_t) - 1;
// Lock ids below 8 are free in every app (WATER's start at 8).
constexpr uint32_t kProbeLock = 1;

uint64_t FaultsTaken(const DsmNode& node) {
  const millipage::HostCounters c = node.counters();
  return c.read_faults + c.write_faults;
}

}  // namespace

void ProbeSamples::Merge(const ProbeSamples& o) {
  auto append = [](std::vector<uint64_t>& to, const std::vector<uint64_t>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(read, o.read);
  append(read_4k, o.read_4k);
  append(write, o.write);
  append(write_3copies, o.write_3copies);
  append(barrier, o.barrier);
  append(lock, o.lock);
  fault_access_ns += o.fault_access_ns;
  fault_accesses += o.fault_accesses;
  attempted += o.attempted;
  failed += o.failed;
  if (first_failure.empty()) {
    first_failure = o.first_failure;
  }
}

void PlanProbeSets(uint64_t seed, uint32_t round, uint32_t cycles, uint16_t num_hosts,
                   ProbePlan* plan) {
  MP_CHECK(num_hosts == 4) << "the probe's roles need exactly 4 hosts";
  std::vector<std::array<HostId, 4>> perms;
  std::array<HostId, 4> p = {0, 1, 2, 3};
  do {
    perms.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  // Seeded Fisher-Yates, written out so the order does not depend on the
  // standard library's distributions.
  millipage::Rng order(seed);
  for (size_t i = perms.size() - 1; i > 0; --i) {
    std::swap(perms[i], perms[order.Below(i + 1)]);
  }
  millipage::Rng values(seed * 0x9e3779b97f4a7c15ULL + round + 1);
  std::vector<ProbeSet>& sets = plan->sets;
  sets.clear();
  plan->warmup_sets = perms.size();
  for (size_t i = 0; i < (cycles + 1) * perms.size(); ++i) {
    ProbeSet s;
    s.roles = perms[i % perms.size()];
    // Odd values: never equal to the zero a fresh minipage holds.
    s.v1 = values.Next() | 1;
    s.v2 = values.Next() | 1;
    s.v3 = values.Next() | 1;
    sets.push_back(s);
  }
}

bool AllocProbeObjects(DsmNode& manager, SpanRecorder* recorder, ProbePlan* plan) {
  for (auto [size, addr] : {std::pair{kSmallBytes, &plan->small},
                            std::pair{kLargeBytes, &plan->large}}) {
    ScopedSpan span(recorder, SpanKind::kSharedMalloc, manager.id());
    millipage::Result<GlobalAddr> a = manager.SharedMalloc(size);
    if (!a.ok()) {
      return false;
    }
    *addr = *a;
  }
  plan->lock_id = kProbeLock;
  plan->lock_manager = manager.config().ManagerOf(kProbeLock);
  return true;
}

void ProbeWorker(DsmNode& node, HostId me, const ProbePlan& plan, SpanRecorder* recorder,
                 ProbeSamples* out) {
  auto* small = reinterpret_cast<volatile uint64_t*>(node.AppPtr(plan.small));
  auto* large = reinterpret_cast<volatile uint64_t*>(node.AppPtr(plan.large));

  auto fail = [out](const std::string& why) {
    out->failed++;
    if (out->first_failure.empty()) {
      out->first_failure = why;
    }
  };
  // Times one access that may fault; a faulting one also feeds the trap
  // tally. The span encloses the timed interval, so span bookkeeping stays
  // out of the sample.
  auto timed = [&](auto&& access) {
    const uint64_t faults_before = FaultsTaken(node);
    uint64_t ns = 0;
    {
      ScopedSpan span(recorder, SpanKind::kAccess, me);
      const uint64_t t0 = MonotonicNowNs();
      access();
      ns = MonotonicNowNs() - t0;
    }
    out->attempted++;
    if (FaultsTaken(node) != faults_before) {
      out->fault_access_ns += ns;
      out->fault_accesses++;
    }
    return ns;
  };
  auto check = [&](uint64_t got, uint64_t want, const char* what) {
    if (got != want) {
      fail(std::string("stale read of ") + what + " on host " + std::to_string(me));
    }
  };
  auto sync = [&]() {
    out->attempted++;
    const millipage::Status st = node.TryBarrier();
    if (!st.ok()) {
      fail("barrier: " + st.ToString());
    }
    return st.ok();
  };

  uint64_t small_val = 0;
  uint64_t large_val = 0;
  std::vector<uint64_t> discard;
  for (size_t i = 0; i < plan.sets.size(); ++i) {
    const ProbeSet& s = plan.sets[i];
    const bool sampled = i >= plan.warmup_sets;
    auto sample = [&](std::vector<uint64_t>& v) -> std::vector<uint64_t>& {
      return sampled ? v : discard;
    };
    const HostId a = s.roles[0];
    const HostId b = s.roles[1];
    const HostId c = s.roles[2];
    const HostId d = s.roles[3];
    uint64_t got = 0;
    if (me == a) {
      timed([&] { got = small[0]; });
      check(got, small_val, "128 B minipage");
      timed([&] { got = large[0]; });
      check(got, large_val, "4 KB minipage");
      timed([&] { small[0] = s.v1; });
      timed([&] { large[0] = s.v1; });
      large[kLargeLast] = s.v1;
    }
    small_val = large_val = s.v1;
    if (!sync()) {
      return;
    }
    if (me == b) {
      sample(out->read).push_back(timed([&] { got = small[0]; }));
      check(got, small_val, "128 B minipage");
    }
    if (!sync()) {
      return;
    }
    if (me == b) {
      sample(out->read_4k).push_back(timed([&] { got = large[0]; }));
      check(got, large_val, "4 KB minipage");
      check(large[kLargeLast], large_val, "4 KB minipage tail");
    }
    if (!sync()) {
      return;
    }
    if (me == a) {
      sample(out->write).push_back(timed([&] { small[0] = s.v2; }));
    }
    small_val = s.v2;
    if (!sync()) {
      return;
    }
    for (HostId reader : {b, c, d}) {
      if (me == reader) {
        sample(out->read).push_back(timed([&] { got = small[0]; }));
        check(got, small_val, "128 B minipage");
      }
      if (!sync()) {
        return;
      }
    }
    if (me == b) {
      sample(out->write_3copies).push_back(timed([&] { small[0] = s.v3; }));
    }
    small_val = s.v3;
    if (!sync()) {
      return;
    }
    {
      ScopedSpan span(recorder, SpanKind::kBarrier, me);
      const uint64_t t0 = MonotonicNowNs();
      if (!sync()) {
        return;
      }
      sample(out->barrier).push_back(MonotonicNowNs() - t0);
    }
    if (me == (c != plan.lock_manager ? c : d)) {
      ScopedSpan span(recorder, SpanKind::kLock, me);
      const uint64_t t0 = MonotonicNowNs();
      out->attempted++;
      const millipage::Status st = node.TryLock(plan.lock_id);
      if (st.ok()) {
        node.Unlock(plan.lock_id);
        sample(out->lock).push_back(MonotonicNowNs() - t0);
      } else {
        fail("lock: " + st.ToString());
      }
    }
    if (!sync()) {
      return;
    }
  }
}

}  // namespace perfbench
