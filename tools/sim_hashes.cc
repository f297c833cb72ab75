// sim_hashes: fingerprints the deterministic simulator's histories, so a
// change that must not alter protocol behaviour can be checked against its
// parent commit.
//
// Runs RunSim over 3/4/5/8 hosts x {centralized, sharded, sharded with one
// host killed} x batching {on, off} x seeds 1-4 (96 runs) and prints one line
// per run: the configuration, the FNV-1a hash of FormattedHistory(), the
// batch frame and record counts, the driver step count, and whether the kill
// fired. Build and run it on both commits and diff the outputs:
//
//   ./build/tools/sim_hashes > before.txt   # parent commit
//   ./build/tools/sim_hashes > after.txt    # the change
//   diff before.txt after.txt               # must print nothing
//
// Exits 1 if any run's driver status is not OK (the line still prints).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/check/sim_harness.h"

namespace millipage {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct PolicyCase {
  const char* name;
  ManagerPolicy policy;
  bool kill_one_host;
};

int Run() {
  constexpr uint16_t kHosts[] = {3, 4, 5, 8};
  constexpr PolicyCase kPolicies[] = {
      {"centralized", ManagerPolicy::kCentralized, false},
      {"sharded", ManagerPolicy::kSharded, false},
      {"sharded+kill", ManagerPolicy::kSharded, true},
  };
  int failures = 0;
  for (const uint16_t hosts : kHosts) {
    for (const PolicyCase& p : kPolicies) {
      for (const bool batching : {true, false}) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
          SimWorkload w;
          w.hosts = hosts;
          w.policy = p.policy;
          w.kill_one_host = p.kill_one_host;
          w.batch_coherence = batching;
          const SimResult r = RunSim(seed, w);
          const std::string status = r.status.ok() ? "" : " status=" + r.status.ToString();
          std::printf("hosts=%u policy=%s batching=%d seed=%" PRIu64 " hash=%016" PRIx64
                      " batch_frames=%" PRIu64 " batch_records=%" PRIu64 " steps=%" PRIu64
                      " killed=%d%s\n",
                      hosts, p.name, batching ? 1 : 0, seed, Fnv1a(r.FormattedHistory()),
                      r.batch_frames, r.batch_records, r.steps, r.killed ? 1 : 0,
                      status.c_str());
          failures += r.status.ok() ? 0 : 1;
        }
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace millipage

int main() { return millipage::Run(); }
