// Integration tests: the five paper applications run correctly on the DSM
// at several host counts (parameterized), validated against serial
// references.

#include <gtest/gtest.h>

#include "src/apps/is.h"
#include "src/apps/lu.h"
#include "src/apps/sor.h"
#include "src/apps/tsp.h"
#include "src/apps/water.h"

namespace millipage {
namespace {

DsmConfig AppConfig(uint16_t hosts, uint32_t chunking = 1, bool page_based = false) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.object_size = 8 << 20;
  cfg.num_views = 16;
  cfg.chunking_level = chunking;
  cfg.page_based = page_based;
  return cfg;
}

class AppsAtHostCount : public ::testing::TestWithParam<uint16_t> {};

TEST_P(AppsAtHostCount, SorConverges) {
  auto cluster = DsmCluster::Create(AppConfig(GetParam()));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  SorConfig cfg;
  cfg.rows = 64;
  cfg.cols = 64;
  cfg.iterations = 4;
  SorApp app(cfg);
  AppRunResult result = RunApp(**cluster, app);
  EXPECT_TRUE(result.validation.ok()) << result.validation.ToString();
  EXPECT_EQ(result.granularity_desc, "a row, 256 bytes");
}

TEST_P(AppsAtHostCount, LuFactorsCorrectly) {
  auto cluster = DsmCluster::Create(AppConfig(GetParam()));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  LuConfig cfg;
  cfg.n = 128;
  cfg.block = 32;
  LuApp app(cfg);
  AppRunResult result = RunApp(**cluster, app);
  EXPECT_TRUE(result.validation.ok()) << result.validation.ToString();
  // 4 KB blocks are full-page minipages: a single view suffices (Table 2).
  EXPECT_EQ(result.num_views, 1u);
}

TEST_P(AppsAtHostCount, IsCountsAllKeys) {
  auto cluster = DsmCluster::Create(AppConfig(GetParam()));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  IsConfig cfg;
  cfg.num_keys = 1 << 12;
  cfg.iterations = 3;
  IsApp app(cfg);
  AppRunResult result = RunApp(**cluster, app);
  EXPECT_TRUE(result.validation.ok()) << result.validation.ToString();
}

TEST_P(AppsAtHostCount, TspFindsOptimum) {
  auto cluster = DsmCluster::Create(AppConfig(GetParam()));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  TspConfig cfg;
  cfg.num_cities = 9;
  cfg.prefix_depth = 3;
  TspApp app(cfg);
  AppRunResult result = RunApp(**cluster, app);
  EXPECT_TRUE(result.validation.ok()) << result.validation.ToString();
  EXPECT_GT(app.best_length(), 0);
}

TEST_P(AppsAtHostCount, WaterConservesChecksum) {
  auto cluster = DsmCluster::Create(AppConfig(GetParam()));
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  WaterConfig cfg;
  cfg.num_molecules = 24;
  cfg.iterations = 2;
  WaterApp app(cfg);
  AppRunResult result = RunApp(**cluster, app);
  EXPECT_TRUE(result.validation.ok()) << result.validation.ToString();
}

INSTANTIATE_TEST_SUITE_P(HostCounts, AppsAtHostCount, ::testing::Values(1, 2, 4),
                         [](const auto& param_info) {
                           return "hosts" + std::to_string(param_info.param);
                         });

TEST(AppsChunking, WaterRunsAtEveryChunkingLevel) {
  for (uint32_t level : {1u, 2u, 4u, 6u}) {
    auto cluster = DsmCluster::Create(AppConfig(2, level));
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    WaterConfig cfg;
    cfg.num_molecules = 18;
    cfg.iterations = 2;
    WaterApp app(cfg);
    AppRunResult result = RunApp(**cluster, app);
    EXPECT_TRUE(result.validation.ok())
        << "chunking level " << level << ": " << result.validation.ToString();
    // Higher chunking -> fewer, larger minipages.
    if (level > 1) {
      EXPECT_LT(result.num_minipages, cfg.num_molecules + 2u);
    }
  }
}

TEST(AppsPageBased, IsStillCorrectWithFullPageSharing) {
  // The Ivy-style baseline false-shares the 2 KB histogram page; results
  // must still be correct, just coarser.
  auto fine = DsmCluster::Create(AppConfig(2));
  auto coarse = DsmCluster::Create(AppConfig(2, 1, /*page_based=*/true));
  ASSERT_TRUE(fine.ok() && coarse.ok());
  IsConfig cfg;
  cfg.num_keys = 1 << 10;
  cfg.iterations = 3;
  IsApp app_fine(cfg);
  IsApp app_coarse(cfg);
  AppRunResult fine_result = RunApp(**fine, app_fine);
  AppRunResult coarse_result = RunApp(**coarse, app_coarse);
  EXPECT_TRUE(fine_result.validation.ok()) << fine_result.validation.ToString();
  EXPECT_TRUE(coarse_result.validation.ok()) << coarse_result.validation.ToString();
  // Structure: fine-grain gives each region its own sub-page minipage;
  // page-based collapses both regions onto one full-page sharing unit.
  EXPECT_GT(fine_result.num_minipages, coarse_result.num_minipages);
}

TEST(AppsPageBased, AlternatingWritersPayForFalseSharing) {
  // Deterministic false-sharing cost: two hosts alternately (barrier-forced)
  // write two different variables on the same physical page. Page-based:
  // the page bounces on every round. Fine-grain: one fault each, ever.
  constexpr int kRounds = 20;
  auto run = [](bool page_based) {
    auto cluster = DsmCluster::Create(AppConfig(2, 1, page_based));
    MP_CHECK(cluster.ok());
    GlobalPtr<int> a;
    GlobalPtr<int> b;
    (*cluster)->RunOnManager([&](DsmNode&) {
      a = SharedAlloc<int>(1);
      b = SharedAlloc<int>(1);
      *a = 0;
      *b = 0;
    });
    (*cluster)->RunParallel([&](DsmNode& node, HostId host) {
      node.Barrier();
      for (int r = 0; r < kRounds; ++r) {
        if (host == 0) {
          *a = *a + 1;
        } else {
          *b = *b + 1;
        }
        node.Barrier();
      }
    });
    return (*cluster)->TotalCounters().write_faults;
  };
  const uint64_t fine_faults = run(false);
  const uint64_t coarse_faults = run(true);
  EXPECT_LE(fine_faults, 4u);
  // Every round forces a page steal in the Ivy-style baseline.
  EXPECT_GE(coarse_faults, static_cast<uint64_t>(kRounds));
}

}  // namespace
}  // namespace millipage
