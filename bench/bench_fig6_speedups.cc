// Figure 6 reproduction: speedups of the five applications on 1-8 hosts
// (left chart) and the execution-time breakdown at 8 hosts (right chart).
//
// Protocol events (faults, bytes, invalidations, barriers, locks) are
// measured from real executions on the in-process cluster; times are
// modeled with the paper-calibrated cost model (Table 1 / Section 4.2
// parameters, including the ~500 us polling-delay the paper describes in
// Section 3.5.1). Expected shape: IS and SOR near-linear; LU good (thin
// protocol + prefetch); WATER decent with chunking; TSP good.

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/app_bench_util.h"
#include "bench/bench_util.h"
#include "src/apps/is.h"
#include "src/apps/lu.h"
#include "src/apps/sor.h"
#include "src/apps/tsp.h"
#include "src/apps/water.h"
#include "src/model/cost_model.h"

namespace millipage {
namespace {

struct AppSpec {
  const char* name;
  uint32_t chunking;
  std::function<std::unique_ptr<App>()> make;
  const char* paper_shape;
};

std::vector<AppSpec> Suite(const BenchEnv& env) {
  return {
      {"SOR", 1,
       [&env] {
         SorConfig cfg;  // the paper's input: 32768x64 floats, 256 B rows
         // Smoke runs 16384 rows: host 0 then computes ~8K rows before it
         // reaches the band boundary, long after host 1 has left the
         // boundary row. At 512 rows host 0 got there while host 1 was still
         // faulting on it, and whether the row ping-ponged (75 ms modeled
         // against ~10 ms) depended on thread timing.
         cfg.rows = env.Scaled(32768, 16384);
         cfg.cols = 64;
         cfg.iterations = env.Scaled(10, 2);
         return std::make_unique<SorApp>(cfg);
       },
       "close to linear"},
      {"LU", 1,
       [&env] {
         LuConfig cfg;  // paper: 1024x1024; 768 keeps the same block grain
         cfg.n = env.Scaled(768, 128);
         cfg.block = 32;
         return std::make_unique<LuApp>(cfg);
       },
       "good (thin layer + prefetch)"},
      {"WATER", 4,
       [&env] {
         WaterConfig cfg;  // the paper's input: 512 molecules
         cfg.num_molecules = env.Scaled(512, 64);
         cfg.iterations = env.Scaled(3, 1);
         return std::make_unique<WaterApp>(cfg);
       },
       "comparable to relaxed-consistency systems (chunked)"},
      {"IS", 1,
       [&env] {
         IsConfig cfg;  // the paper's input: 2^23 keys, 2^9 values
         cfg.num_keys = 1 << env.Scaled(23, 13);
         cfg.iterations = env.Scaled(5, 2);
         return std::make_unique<IsApp>(cfg);
       },
       "close to linear"},
      {"TSP", 1,
       [&env] {
         TspConfig cfg;  // paper: 19 cities, depth 12; same tasks-per-host
         cfg.num_cities = env.Scaled(13, 9);  // shape with a tractable search space
         cfg.prefix_depth = 3;  // ~130 coarse tasks: compute-dominated, as
                                // the paper's depth-12/19-city input is
         return std::make_unique<TspApp>(cfg);
       },
       "good"},
  };
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_fig6_speedups", env);
  const CostModel model;
  const std::vector<uint16_t> host_counts =
      env.smoke() ? std::vector<uint16_t>{1, 2} : std::vector<uint16_t>{1, 2, 4, 8};
  const uint16_t max_hosts = host_counts.back();

  PrintHeader("Figure 6 (left): speedups on 1-8 hosts (modeled from measured events)");
  std::printf("  %-7s", "app");
  for (uint16_t h : host_counts) {
    std::printf("   p=%-5u", h);
  }
  std::printf("  paper shape\n");

  std::vector<std::pair<std::string, Breakdown>> breakdowns;
  std::vector<std::pair<std::string, std::pair<double, double>>> fast_predictions;
  const CostModel fast = model.WithFastService();
  for (const AppSpec& spec : Suite(env)) {
    std::printf("  %-7s", spec.name);
    double serial_us = 0;
    double serial_fast_us = 0;
    for (uint16_t hosts : host_counts) {
      auto app = spec.make();
      const AppRunResult r = RunAppOnCluster(AppBenchConfig(hosts, spec.chunking), *app);
      const ModeledRun run = ModelRun(model, r.timing);
      const ModeledRun run_fast = ModelRun(fast, r.timing);
      double speedup = 1.0;
      if (hosts == 1) {
        serial_us = run.total_us;
        serial_fast_us = run_fast.total_us;
      } else {
        speedup = serial_us / run.total_us;
      }
      std::printf("   %6.2f", speedup);
      BenchResult row;
      row.name = spec.name;
      row.params = "hosts=" + std::to_string(hosts) +
                   " chunking=" + std::to_string(spec.chunking);
      row.iterations = 1;
      row.ns_per_op = run.total_us * 1000.0;  // modeled run time
      row.values["speedup"] = speedup;
      row.values["speedup_fast_service"] = serial_fast_us / run_fast.total_us;
      reporter.Add(std::move(row));
      if (hosts == max_hosts) {
        breakdowns.emplace_back(spec.name, run.breakdown);
        fast_predictions.emplace_back(
            spec.name,
            std::make_pair(serial_us / run.total_us, serial_fast_us / run_fast.total_us));
      }
    }
    std::printf("  %s\n", spec.paper_shape);
  }

  PrintHeader("Figure 6 (right): breakdown at " + std::to_string(max_hosts) +
              " hosts (% of modeled time)");
  for (const auto& [name, b] : breakdowns) {
    std::printf("  %-7s %s\n", name.c_str(), b.ToString().c_str());
  }
  PrintNote("paper: computation dominates SOR/IS/TSP; LU shows a visible prefetch slice;");
  PrintNote("WATER carries the largest fault+synch share.");

  PrintHeader("Section 3.5 prediction: speedups once the polling problem is solved");
  std::printf("  %-7s %18s %22s\n", "app", "p=N (as measured)", "p=N (fast service)");
  for (const auto& [name, pair] : fast_predictions) {
    std::printf("  %-7s %18.2f %22.2f\n", name.c_str(), pair.first, pair.second);
  }
  PrintNote("the paper expects the fault-service delay (timer/polling) to shrink once");
  PrintNote("resolved; same measured events priced without the ~500 us response delay.");
  return reporter.Finish();
}
