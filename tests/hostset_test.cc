// HostSet property and unit tests: the scalable copyset/membership set that
// replaced the fixed uint64_t host masks. The inline (≤64-host) fast path,
// the spill bitmap, and the ascending iteration/selection order PickReplica
// rotation depends on are all pinned here, against a std::set reference
// model and with deterministic pseudo-random operation streams.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/host_set.h"
#include "src/common/rng.h"
#include "src/dsm/directory.h"
#include "src/dsm/node.h"
#include "src/net/inproc_transport.h"

namespace millipage {
namespace {

std::vector<uint32_t> Members(const HostSet& s) {
  std::vector<uint32_t> v;
  s.ForEach([&](uint32_t h) { v.push_back(h); });
  return v;
}

// Insert/erase/contains round-trips against a std::set reference, across the
// inline word, the spill boundary, and the full id range.
TEST(HostSet, RandomOpsMatchReferenceModel) {
  for (const uint32_t universe : {5u, 64u, 65u, 100u, 1000u, kMaxHosts}) {
    Rng rng(0x5e7 + universe);
    HostSet s;
    std::set<uint32_t> ref;
    for (int op = 0; op < 4000; ++op) {
      const uint32_t h = static_cast<uint32_t>(rng.Below(universe));
      switch (rng.Below(3)) {
        case 0:
          s.Add(h);
          ref.insert(h);
          break;
        case 1:
          s.Remove(h);
          ref.erase(h);
          break;
        default:
          ASSERT_EQ(s.Contains(h), ref.count(h) != 0)
              << "universe " << universe << " host " << h;
          break;
      }
    }
    EXPECT_EQ(s.Count(), static_cast<int>(ref.size())) << "universe " << universe;
    EXPECT_EQ(s.Empty(), ref.empty());
    // Iteration is ascending and complete.
    const std::vector<uint32_t> got = Members(s);
    const std::vector<uint32_t> want(ref.begin(), ref.end());
    EXPECT_EQ(got, want) << "universe " << universe;
    // SelectNth agrees with iteration order.
    for (int n = 0; n < s.Count(); ++n) {
      EXPECT_EQ(s.SelectNth(n), want[static_cast<size_t>(n)]);
    }
    // First() is the minimum.
    EXPECT_EQ(s.First(), ref.empty() ? -1 : static_cast<int>(*ref.begin()));
  }
}

TEST(HostSet, SetAlgebraMatchesReferenceModel) {
  Rng rng(42);
  for (int round = 0; round < 200; ++round) {
    HostSet a, b;
    std::set<uint32_t> ra, rb;
    // Mixed small/large ids so one side may spill while the other stays
    // inline — the absent-spill-words-are-zero case.
    const uint32_t limit_a = round % 2 == 0 ? 64 : kMaxHosts;
    const uint32_t limit_b = round % 3 == 0 ? 64 : kMaxHosts;
    for (int i = 0; i < 40; ++i) {
      uint32_t h = static_cast<uint32_t>(rng.Below(limit_a));
      a.Add(h);
      ra.insert(h);
      h = static_cast<uint32_t>(rng.Below(limit_b));
      b.Add(h);
      rb.insert(h);
    }
    HostSet u = a;
    u.UnionWith(b);
    HostSet i = a;
    i.IntersectWith(b);
    HostSet d = a;
    d.SubtractAll(b);
    std::set<uint32_t> ru = ra, ri, rd = ra;
    ru.insert(rb.begin(), rb.end());
    for (uint32_t h : ra) {
      if (rb.count(h)) {
        ri.insert(h);
      }
    }
    for (uint32_t h : rb) {
      rd.erase(h);
    }
    EXPECT_EQ(Members(u), std::vector<uint32_t>(ru.begin(), ru.end()));
    EXPECT_EQ(Members(i), std::vector<uint32_t>(ri.begin(), ri.end()));
    EXPECT_EQ(Members(d), std::vector<uint32_t>(rd.begin(), rd.end()));
    EXPECT_EQ(a.Intersects(b), !ri.empty());
    EXPECT_EQ(a.ContainsAll(i), true);
    EXPECT_EQ(u.ContainsAll(a) && u.ContainsAll(b), true);
    EXPECT_EQ(a.ContainsAll(u), Members(u) == Members(a));
  }
}

// Sets that grew past 64 and shrank back must equal sets that never spilled:
// trailing zero spill words are not part of the value.
TEST(HostSet, InlineAndSpilledRepresentationsCompareEqual) {
  HostSet spilled;
  spilled.Add(3);
  spilled.Add(900);
  spilled.Remove(900);
  HostSet inline_only;
  inline_only.Add(3);
  EXPECT_EQ(spilled, inline_only);
  EXPECT_EQ(inline_only, spilled);
  EXPECT_TRUE(spilled.ContainsAll(inline_only));
  EXPECT_TRUE(inline_only.ContainsAll(spilled));
  EXPECT_EQ(spilled.Count(), 1);
  spilled.Clear();
  EXPECT_EQ(spilled, HostSet());
  EXPECT_TRUE(spilled.Empty());
}

TEST(HostSet, AllBelowAndSingle) {
  for (const uint32_t n : {0u, 1u, 5u, 63u, 64u, 65u, 100u, 128u, 1000u, kMaxHosts}) {
    const HostSet s = HostSet::AllBelow(n);
    EXPECT_EQ(s.Count(), static_cast<int>(n));
    if (n > 0) {
      EXPECT_TRUE(s.Contains(0));
      EXPECT_TRUE(s.Contains(n - 1));
    }
    if (n < kMaxHosts) {
      EXPECT_FALSE(s.Contains(n));
    }
  }
  EXPECT_EQ(HostSet::AllBelow(5).LowWord(), 0b11111u);
  EXPECT_EQ(HostSet::Single(700).First(), 700);
  EXPECT_EQ(HostSet::Single(700).Count(), 1);
}

// PickReplica rotation fairness: with a hint that rotates, every copyset
// member (minus the avoided host) is picked, and picks are near-uniform —
// the re-route-until-stable-copy loop relies on full coverage.
TEST(HostSet, PickReplicaRotatesFairlyAcrossThousandHosts) {
  DirEntry e;
  constexpr uint32_t kHosts = 1000;
  for (uint32_t h = 0; h < kHosts; ++h) {
    e.AddCopy(static_cast<HostId>(h));
  }
  const HostId avoid = 123;
  std::vector<uint32_t> picks(kHosts, 0);
  for (uint32_t hint = 0; hint < 3 * kHosts; ++hint) {
    picks[e.PickReplica(avoid, hint)]++;
  }
  EXPECT_EQ(picks[avoid], 0u) << "avoided host was picked";
  for (uint32_t h = 0; h < kHosts; ++h) {
    if (h == avoid) {
      continue;
    }
    // 3 * kHosts rotating hints over (kHosts - 1) candidates: each member is
    // hit 3 or 4 times.
    EXPECT_GE(picks[h], 3u) << "host " << h << " never picked (rotation hole)";
    EXPECT_LE(picks[h], 4u) << "host " << h << " over-picked";
  }
  // When the only member is the avoided host, it is still returned.
  DirEntry sole;
  sole.AddCopy(avoid);
  EXPECT_EQ(sole.PickReplica(avoid, 7), avoid);
}

TEST(HostSetDeathTest, CorruptIdsFailLoudly) {
  HostSet s;
  EXPECT_DEATH(s.Add(kMaxHosts), "out of range");
  EXPECT_DEATH(s.Add(0xffffu), "out of range");
  EXPECT_DEATH((void)s.Contains(kMaxHosts), "out of range");
  EXPECT_DEATH(s.Remove(kMaxHosts + 5), "out of range");
  EXPECT_DEATH((void)HostSet::AllBelow(kMaxHosts + 1), "above kMaxHosts");
}

// Node construction accepts any size up to kMaxHosts and rejects beyond —
// the old num_hosts > 64 ceiling is gone.
TEST(HostSet, NodeCreateHonorsMaxHosts) {
  DsmConfig cfg;
  cfg.object_size = 1 << 20;
  cfg.num_views = 1;
  cfg.num_hosts = 128;  // above the old 64-host ceiling
  {
    InProcTransport t(128);
    auto node = DsmNode::Create(cfg, 5, &t);
    EXPECT_TRUE(node.ok()) << node.status().ToString();
    if (node.ok()) {
      (*node)->BeginShutdown();
      (*node)->Stop();
    }
  }
  InProcTransport t1(2);
  cfg.num_hosts = static_cast<uint16_t>(kMaxHosts + 1);
  EXPECT_FALSE(DsmNode::Create(cfg, 0, &t1).ok());
  cfg.num_hosts = 0;
  EXPECT_FALSE(DsmNode::Create(cfg, 0, &t1).ok());
}

}  // namespace
}  // namespace millipage
