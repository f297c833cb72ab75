// Millipage benchmark binary: runs one workload on a 4-host in-process
// cluster for a fixed time, checks every result, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as named values with
// units. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload isolated_faults|water_sharded|is_barriers
//             --seed N --seconds S --trace 0|1 [--size full|tiny]
//             [--trace-out FILE]
//
// Exit status: 0 on a correct run, 1 when a check failed, 2 on bad usage.
// See perfbench/README.md for what each workload and metric is for.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/probe.h"
#include "perfbench/src/spans.h"
#include "src/apps/is.h"
#include "src/apps/water.h"
#include "src/common/time_util.h"
#include "src/dsm/cluster.h"

namespace perfbench {
namespace {

using millipage::DsmCluster;
using millipage::HostCounters;
using millipage::MetricsSnapshot;
using millipage::MonotonicNowNs;

enum class Workload { kIsolatedFaults, kWaterSharded, kIsBarriers };

struct Options {
  Workload workload = Workload::kIsolatedFaults;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = true;
      if (value == "isolated_faults") {
        o->workload = Workload::kIsolatedFaults;
      } else if (value == "water_sharded") {
        o->workload = Workload::kWaterSharded;
      } else if (value == "is_barriers") {
        o->workload = Workload::kIsBarriers;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        return false;
      }
      o->tiny = value == "tiny";
    } else if (flag == "--trace-out") {
      o->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && o->seconds > 0;
}

// How much work one round does, and how many rounds and samples a run needs.
struct Sizing {
  millipage::DsmConfig config;        // the workload's cluster
  millipage::DsmConfig probe_config;  // the probe's cluster: always the default
  uint32_t probe_cycles = 0;  // sampled probe cycles (24 sets) per round
  uint32_t min_rounds = 0;    // per kind of round (plain, traced)
  uint32_t water_molecules = 0;
  uint32_t water_iterations = 0;
  uint32_t is_keys = 0;
  uint32_t is_iterations = 0;
};

Sizing SizingFor(const Options& o) {
  Sizing s;
  s.config.num_hosts = 4;
  s.probe_config = s.config;
  if (o.workload == Workload::kWaterSharded) {
    s.config.manager_policy = millipage::ManagerPolicy::kSharded;
  }
  // 10 cycles = 240 sets, about 0.6 s: short rounds make many rounds, and a
  // median over many rounds rides out bursts of outside load. Five rounds
  // give the write p99 1200 samples.
  s.probe_cycles = o.tiny ? 1 : 10;
  s.min_rounds = o.tiny ? 1 : 5;
  s.water_molecules = o.tiny ? 16 : 512;
  s.water_iterations = o.tiny ? 1 : 3;
  s.is_keys = o.tiny ? 1u << 12 : 1u << 18;
  s.is_iterations = o.tiny ? 2 : 40;
  return s;
}

uint64_t RoundSeed(uint64_t seed, uint32_t round) {
  return seed * 0xbf58476d1ce4e5b9ULL + round;
}

// The app a round runs, with its seed drawn from (seed, round); null on the
// isolated-fault workload, whose timed phase is the probe itself.
std::unique_ptr<millipage::App> MakeApp(const Options& o, const Sizing& s, uint32_t round) {
  switch (o.workload) {
    case Workload::kWaterSharded: {
      millipage::WaterConfig c;
      c.num_molecules = s.water_molecules;
      c.iterations = s.water_iterations;
      c.seed = RoundSeed(o.seed, round);
      return std::make_unique<millipage::WaterApp>(c);
    }
    case Workload::kIsBarriers: {
      millipage::IsConfig c;
      c.num_keys = s.is_keys;
      c.key_log2 = 8;  // 256 buckets: one 256-byte region per host
      c.iterations = s.is_iterations;
      c.seed = RoundSeed(o.seed, round);
      return std::make_unique<millipage::IsApp>(c);
    }
    case Workload::kIsolatedFaults:
      break;
  }
  return nullptr;
}

// Sums of metric deltas over the phases a run measured: counters under
// their own names, histograms as "<name>.count" and "<name>.sum".
class Tally {
 public:
  void AddDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                const HostCounters& cbefore, const HostCounters& cafter) {
    for (const auto& [name, v] : after.counters) {
      auto it = before.counters.find(name);
      v_[name] += static_cast<double>(v - (it == before.counters.end() ? 0 : it->second));
    }
    for (const auto& [name, h] : after.histograms) {
      auto it = before.histograms.find(name);
      const bool had = it != before.histograms.end();
      v_[name + ".count"] += static_cast<double>(h.count - (had ? it->second.count : 0));
      v_[name + ".sum"] += static_cast<double>(h.sum - (had ? it->second.sum : 0));
    }
    // Coalescer datagram counts are in HostCounters but not in the snapshot.
    v_["host.coalesced_msgs_sent"] +=
        static_cast<double>(cafter.coalesced_msgs_sent - cbefore.coalesced_msgs_sent);
    v_["host.coalesced_records"] +=
        static_cast<double>(cafter.coalesced_records - cbefore.coalesced_records);
  }
  void Add(const Tally& o) {
    for (const auto& [k, v] : o.v_) {
      v_[k] += v;
    }
  }
  double Get(const std::string& key) const {
    auto it = v_.find(key);
    return it == v_.end() ? 0.0 : it->second;
  }
  // Histogram mean from sum/count, in microseconds.
  double MeanUs(const std::string& hist) const {
    const double n = Get(hist + ".count");
    return n == 0 ? 0.0 : Get(hist + ".sum") / n / 1000.0;
  }

 private:
  std::map<std::string, double> v_;
};

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

// Linear interpolation between order statistics; q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double QuantileUs(const std::vector<uint64_t>& ns, double q) {
  std::vector<double> us(ns.begin(), ns.end());
  for (double& x : us) {
    x /= 1000.0;
  }
  return Quantile(std::move(us), q);
}

// Each round's p50 latencies in µs, keyed by end-to-end metric name, with
// the number of samples each rests on; and every read and write sample of
// the run, for the p99s, which need more samples than one round takes.
struct RoundPercentiles {
  std::map<std::string, std::vector<double>> values;  // one entry per round
  std::map<std::string, size_t> samples;              // per round
  std::vector<uint64_t> all_reads;
  std::vector<uint64_t> all_writes;

  void Add(const ProbeSamples& p) {
    auto add = [this](const char* name, const std::vector<uint64_t>& ns) {
      values[name].push_back(QuantileUs(ns, 0.5));
      samples[name] = ns.size();
    };
    add("read_fault_p50_us", p.read);
    add("read_fault_4k_p50_us", p.read_4k);
    add("write_fault_p50_us", p.write);
    add("write_fault_3copies_p50_us", p.write_3copies);
    add("barrier_p50_us", p.barrier);
    add("lock_p50_us", p.lock);
    all_reads.insert(all_reads.end(), p.read.begin(), p.read.end());
    all_writes.insert(all_writes.end(), p.write.begin(), p.write.end());
  }
  double Median(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : Quantile(it->second, 0.5);
  }
};

struct RoundOut {
  double setup_s = 0;
  double run_s = 0;
  ProbeSamples samples;
  Tally run_tally;    // over the timed phase (app run, or the probe)
  Tally probe_tally;  // over the probe
};

template <class Cluster>
void Snapshot(const Cluster& cluster, MetricsSnapshot* m, HostCounters* c) {
  *m = cluster.SnapshotMetrics();
  *c = cluster.TotalCounters();
}

// Runs the probe plan on every host; returns the parallel phase's seconds.
template <class Cluster>
double RunProbe(Cluster& cluster, const ProbePlan& plan, SpanRecorder* recorder, RoundOut* out,
                Tally* tally) {
  std::vector<ProbeSamples> per_host(cluster.num_hosts());
  MetricsSnapshot m0, m1;
  HostCounters c0, c1;
  Snapshot(cluster, &m0, &c0);
  const uint64_t t0 = MonotonicNowNs();
  cluster.RunParallel([&](DsmNode& node, HostId h) {
    ProbeWorker(node, h, plan, recorder, &per_host[h]);
  });
  const double secs = static_cast<double>(MonotonicNowNs() - t0) / 1e9;
  Snapshot(cluster, &m1, &c1);
  tally->AddDelta(m0, m1, c0, c1);
  for (const ProbeSamples& p : per_host) {
    out->samples.Merge(p);
  }
  return secs;
}

// One round. On isolated_faults: create a cluster, allocate the probe's
// minipages (set-up), and run the probe (the timed phase). On an app
// workload: create the workload's cluster, App::Setup (set-up), run the
// workers (the timed phase), validate, and destroy the cluster; then run the
// probe on a fresh default-config cluster, so the latency metrics measure
// the same configuration on every workload. Returns false when a check
// failed; the failure is recorded in out->samples.
template <class Cluster, class CreateFn>
bool RunRound(const Options& o, const Sizing& s, uint32_t round, const CreateFn& create,
              SpanRecorder* recorder, RoundOut* out) {
  ProbeSamples& res = out->samples;
  auto fail = [&res](const std::string& why) {
    res.attempted++;
    res.failed++;
    if (res.first_failure.empty()) {
      res.first_failure = why;
    }
    return false;
  };
  std::unique_ptr<millipage::App> app = MakeApp(o, s, round);
  if (app != nullptr) {
    const uint64_t t0 = MonotonicNowNs();
    auto created = create(s.config);
    if (!created.ok()) {
      return fail("cluster create: " + created.status().ToString());
    }
    Cluster& cluster = **created;
    cluster.RunOnManager([&](DsmNode& m) { app->Setup(m); });
    out->setup_s = static_cast<double>(MonotonicNowNs() - t0) / 1e9;

    MetricsSnapshot m0, m1;
    HostCounters c0, c1;
    Snapshot(cluster, &m0, &c0);
    const uint64_t t1 = MonotonicNowNs();
    cluster.RunParallel([&](DsmNode& node, HostId h) {
      ScopedSpan span(recorder, SpanKind::kAppRun, h);
      app->Worker(node, h);
    });
    out->run_s = static_cast<double>(MonotonicNowNs() - t1) / 1e9;
    Snapshot(cluster, &m1, &c1);
    out->run_tally.AddDelta(m0, m1, c0, c1);

    millipage::Status valid = millipage::Status::Ok();
    cluster.RunOnManager([&](DsmNode& m) { valid = app->Validate(m); });
    if (!valid.ok()) {
      return fail(app->name() + " validation: " + valid.ToString());
    }
    res.attempted++;
  }

  const uint64_t t0 = MonotonicNowNs();
  auto created = create(s.probe_config);
  if (!created.ok()) {
    return fail("cluster create: " + created.status().ToString());
  }
  Cluster& cluster = **created;
  ProbePlan plan;
  bool alloc_ok = false;
  cluster.RunOnManager([&](DsmNode& m) { alloc_ok = AllocProbeObjects(m, recorder, &plan); });
  if (app == nullptr) {
    out->setup_s = static_cast<double>(MonotonicNowNs() - t0) / 1e9;
  }
  if (!alloc_ok) {
    return fail("probe allocation failed");
  }
  PlanProbeSets(o.seed, round, s.probe_cycles, cluster.num_hosts(), &plan);
  const double probe_s = RunProbe(cluster, plan, recorder, out, &out->probe_tally);
  if (app == nullptr) {
    out->run_s = probe_s;
    out->run_tally = out->probe_tally;
  }
  return res.failed == 0;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t rounds = 0;   // rounds the median is taken over; 0 = not a median
  size_t samples = 0;  // raw samples behind a percentile (per round in a median)
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.samples > 0 && m.rounds > 0) {
      std::printf("%-34s %14.4f %-6s (median of %zu rounds, n=%zu per round)\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.rounds, m.samples);
    } else if (m.samples > 0) {
      std::printf("%-34s %14.4f %-6s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    } else if (m.rounds > 0) {
      std::printf("%-34s %14.4f %-6s (median of %zu rounds)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.rounds);
    } else {
      std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(metrics[i].value) ? metrics[i].value
                                                                             : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Options& o) {
  const Sizing s = SizingFor(o);
  // A traced run keeps at most this many spans (32 bytes each) for the trace
  // file; per-kind means count every span regardless.
  std::unique_ptr<SpanRecorder> recorder =
      o.trace ? std::make_unique<SpanRecorder>(size_t{1} << 18) : nullptr;
  auto create_plain = [](const millipage::DsmConfig& c) { return DsmCluster::Create(c); };
  auto create_traced = [&](const millipage::DsmConfig& c) {
    return TracedCluster::Create(c, recorder.get());
  };

  // Plain rounds give the end-to-end metrics; a traced run alternates plain
  // and traced rounds, and takes its per-layer metrics from the traced ones.
  // Each end-to-end figure is a median over rounds of that round's value, so
  // a burst of outside load that hits a minority of rounds does not move it.
  std::vector<double> setup_s, run_s, traced_run_s;
  RoundPercentiles plain;
  Tally run_tally, probe_tally;
  double fault_access_ns = 0;  // traced probe accesses that took a fault
  double fault_accesses = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  bool ok = true;

  // Caps the run well inside the 180 s a run may take, whatever --seconds.
  const uint64_t start = MonotonicNowNs();
  const uint64_t hard_stop = start + 150ULL * 1000000000ULL;
  uint64_t deadline = 0;
  for (uint32_t round = 0;; ++round) {
    const bool is_traced = o.trace && round % 2 == 0 && round > 0;
    RoundOut r;
    ok = is_traced
             ? RunRound<TracedCluster>(o, s, round, create_traced, recorder.get(), &r)
             : RunRound<DsmCluster>(o, s, round, create_plain, nullptr, &r);
    attempted += r.samples.attempted;
    failed += r.samples.failed;
    if (!ok) {
      first_failure = r.samples.first_failure;
      break;
    }
    if (round == 0) {
      // Warm-up round: checked, not measured (first-touch page faults,
      // fault-handler installation).
      deadline = MonotonicNowNs() + static_cast<uint64_t>(o.seconds * 1e9);
      continue;
    }
    if (is_traced) {
      traced_run_s.push_back(r.run_s);
      fault_access_ns += static_cast<double>(r.samples.fault_access_ns);
      fault_accesses += static_cast<double>(r.samples.fault_accesses);
      run_tally.Add(r.run_tally);
      probe_tally.Add(r.probe_tally);
    } else {
      setup_s.push_back(r.setup_s);
      run_s.push_back(r.run_s);
      plain.Add(r.samples);
    }
    const uint64_t now = MonotonicNowNs();
    const bool enough = run_s.size() >= s.min_rounds &&
                        (!o.trace || traced_run_s.size() >= s.min_rounds);
    if ((now >= deadline && enough) || now >= hard_stop) {
      break;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", first_failure.c_str());
    PrintResult(false, attempted, failed, {});
    return 1;
  }
  std::vector<Metric> metrics;
  auto add = [&metrics](const std::string& name, double value, const std::string& unit,
                        size_t rounds = 0, size_t samples = 0) {
    metrics.push_back({name, value, unit, rounds, samples});
  };
  auto add_percentile = [&](const std::string& name) {
    add(name, plain.Median(name), "us", plain.values[name].size(), plain.samples[name]);
  };
  const double p50_read = plain.Median("read_fault_p50_us");
  const double p50_write = plain.Median("write_fault_p50_us");
  const double p50_write3 = plain.Median("write_fault_3copies_p50_us");
  if (!o.trace) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    add("setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());
    add("run_s", Quantile(run_s, 0.5), "s", run_s.size());
    add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    add("ok_op_ratio", Div(static_cast<double>(attempted - failed), attempted), "ratio");
    for (const char* name : {"read_fault_p50_us", "read_fault_4k_p50_us", "write_fault_p50_us",
                             "write_fault_3copies_p50_us", "barrier_p50_us", "lock_p50_us"}) {
      add_percentile(name);
    }
    PrintResult(true, attempted, failed, metrics);
    return 0;
  }

  const Tally& rt = run_tally;
  const double rounds = static_cast<double>(traced_run_s.size());
  const double faults = rt.Get("host.read_faults") + rt.Get("host.write_faults");
  double host_ns = 0;  // application-thread time in the traced timed phases
  for (double x : traced_run_s) {
    host_ns += x * 1e9 * s.config.num_hosts;
  }
  const double fault_share =
      Div(rt.Get("dsm.read_fault_ns.sum") + rt.Get("dsm.write_fault_ns.sum"), host_ns);
  const double barrier_share = Div(rt.Get("dsm.barrier_ns.sum"), host_ns);
  const double lock_share = Div(rt.Get("dsm.lock_ns.sum"), host_ns);
  const double frames = rt.Get("host.batch_frames_sent");

  add("os.fault_decode_us", rt.MeanUs("fault.decode_ns"), "us");
  add("os.fault_trap_us",
      Div(fault_access_ns, fault_accesses) / 1000.0 -
          probe_tally.MeanUs("fault.service_ns"),
      "us");
  add("multiview.prot_calls_per_fault", Div(rt.Get("mv.prot_sets"), faults), "ratio");
  add("multiview.prot_pages_per_call", Div(rt.Get("mv.prot_set_pages"), rt.Get("mv.prot_sets")),
      "ratio");
  add("multiview.mpt_lookups_per_fault", Div(rt.Get("mgr.mpt_lookups"), faults), "ratio");
  add("multiview.shared_malloc_us", recorder->MeanUs(SpanKind::kSharedMalloc), "us");
  add("net.msgs_per_fault", Div(rt.Get("net.send_bytes.count"), faults), "ratio");
  add("net.bytes_per_fault", Div(rt.Get("net.send_bytes.sum"), faults), "B");
  add("net.send_us", recorder->MeanUs(SpanKind::kSend), "us");
  add("dsm.read_service_us", rt.MeanUs("dsm.read_fault_ns"), "us");
  add("dsm.write_service_us", rt.MeanUs("dsm.write_fault_ns"), "us");
  add("dsm.records_per_frame", frames == 0 ? 1.0 : rt.Get("host.batch_records_sent") / frames,
      "ratio");
  add("dsm.coalesced_msgs_per_record",
      Div(rt.Get("host.coalesced_msgs_sent"), rt.Get("host.coalesced_records")), "ratio");
  add("dsm.competing_requests", Div(rt.Get("host.competing_requests"), rounds), "count");
  add("dsm.invalidation_rounds", Div(rt.Get("mgr.invalidation_rounds"), rounds), "count");
  add("dsm.remote_routed_share", Div(rt.Get("mgr.remote_routed"), rt.Get("mgr.mpt_lookups")),
      "ratio");
  add("dsm.barrier_us", rt.MeanUs("dsm.barrier_ns"), "us");
  add("dsm.barrier_share", barrier_share, "ratio");
  add("dsm.lock_us", rt.MeanUs("dsm.lock_ns"), "us");
  add("dsm.lock_share", lock_share, "ratio");
  add("dsm.fault_share", fault_share, "ratio");
  add("dsm.read_faults", Div(rt.Get("host.read_faults"), rounds), "count");
  add("dsm.write_faults", Div(rt.Get("host.write_faults"), rounds), "count");
  add("dsm.retries",
      Div(rt.Get("dsm.fault_retries") + rt.Get("dsm.timeout_retries") +
              rt.Get("dsm.stale_replies") + rt.Get("dsm.bounced_requests"),
          rounds),
      "count");
  add("apps.compute_share", 1.0 - fault_share - barrier_share - lock_share, "ratio");
  // The p99s rest on the plain rounds, like the shape ratios. They are not
  // end-to-end metrics: on a shared host their run-to-run spread is wider
  // than any bound the benchmark could hold them to.
  add("read_fault_p99_us", QuantileUs(plain.all_reads, 0.99), "us", 0, plain.all_reads.size());
  add("write_fault_p99_us", QuantileUs(plain.all_writes, 0.99), "us", 0,
      plain.all_writes.size());
  add("shape.write3_over_write1", Div(p50_write3, p50_write), "ratio");
  add("shape.write1_over_read", Div(p50_write, p50_read), "ratio");
  add("failed_op_ratio", Div(static_cast<double>(failed), attempted), "ratio");
  add("trace_overhead", Div(Quantile(traced_run_s, 0.5), Quantile(run_s, 0.5)) - 1.0, "ratio");

  if (!o.trace_out.empty()) {
    if (recorder->WriteChromeTrace(o.trace_out)) {
      std::printf("# trace: %s (%llu spans past the buffer not written)\n", o.trace_out.c_str(),
                  static_cast<unsigned long long>(recorder->dropped()));
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
    }
  }
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::ParseOptions(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload isolated_faults|water_sharded|is_barriers "
                 "--seed N --seconds S --trace 0|1 [--size full|tiny] [--trace-out FILE]\n");
    return 2;
  }
  return perfbench::Run(o);
}
