// Shared helpers for the paper-reproduction benchmark binaries: simple
// best-of-k timing, aligned table printing with paper-vs-measured columns,
// and a machine-readable reporting layer. Every bench binary accepts
//   --smoke              run at tiny sizes (CI shape check, not a measurement)
//   --bench_json=<path>  write structured results as JSON
// and routes its rows through a BenchReporter so `bench_smoke` can merge all
// binaries into one BENCH.json (schema in EXPERIMENTS.md).

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/time_util.h"

namespace millipage {

// Runs `fn` `iters` times and returns the average time per call in
// microseconds, taking the best of `repeats` batches to suppress scheduler
// noise.
inline double MeasureUs(const std::function<void()>& fn, int iters = 1000, int repeats = 3) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    const uint64_t t0 = MonotonicNowNs();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    const double us = static_cast<double>(MonotonicNowNs() - t0) / 1000.0 / iters;
    if (us < best) {
      best = us;
    }
  }
  return best;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::string& label, double measured_us, const char* paper) {
  std::printf("  %-44s %10.2f us   (paper: %s)\n", label.c_str(), measured_us, paper);
}

inline void PrintNote(const std::string& note) { std::printf("  %s\n", note.c_str()); }

// Command-line environment shared by all bench binaries.
class BenchEnv {
 public:
  static BenchEnv Parse(int argc, char** argv) {
    BenchEnv env;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--smoke") == 0) {
        env.smoke_ = true;
      } else if (std::strncmp(arg, "--bench_json=", 13) == 0) {
        env.json_path_ = arg + 13;
      }
    }
    return env;
  }

  bool smoke() const { return smoke_; }
  const std::string& json_path() const { return json_path_; }

  // Pick the full-run or smoke-run value for a size/iteration knob.
  int Scaled(int full, int smoke_value) const { return smoke_ ? smoke_value : full; }

 private:
  bool smoke_ = false;
  std::string json_path_;
};

// One measured row: what ran, at what size, and what it cost.
struct BenchResult {
  std::string name;
  std::string params;  // human-readable knob settings, e.g. "hosts=4 chunking=2"
  uint64_t iterations = 0;
  double ns_per_op = 0.0;
  std::map<std::string, double> values;  // extra named values (speedup, bytes, ...)
  std::string metrics_json;              // optional MetricsSnapshot::DumpJson()
};

namespace bench_internal {

inline void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

inline void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

}  // namespace bench_internal

// Collects BenchResults and writes the per-binary JSON document:
//   {"bench": <name>, "smoke": <bool>, "results": [...]}
// Call Finish() last; it returns the process exit code (nonzero if the JSON
// file could not be written), so mains end with `return reporter.Finish();`.
class BenchReporter {
 public:
  BenchReporter(std::string bench_name, const BenchEnv& env)
      : bench_name_(std::move(bench_name)), env_(env) {}

  void Add(BenchResult result) { results_.push_back(std::move(result)); }

  // Convenience for the common "one label, measured in us/op" row.
  void AddUs(const std::string& name, const std::string& params, double us_per_op,
             uint64_t iterations) {
    BenchResult r;
    r.name = name;
    r.params = params;
    r.iterations = iterations;
    r.ns_per_op = us_per_op * 1000.0;
    results_.push_back(std::move(r));
  }

  // Records in the most recently added result's values how many read faults
  // the write-intent prediction sent as write requests (dsm.rmw_predicted)
  // in the cluster it measured. A row that prices read faults must have
  // none, or it measured write grants: Finish() then fails the bench.
  void RecordRmwPredicted(uint64_t predicted, bool read_fault_row) {
    if (results_.empty()) {
      return;
    }
    BenchResult& r = results_.back();
    r.values["dsm.rmw_predicted"] = static_cast<double>(predicted);
    if (read_fault_row && predicted > 0) {
      std::fprintf(stderr,
                   "%s: read-fault row \"%s\" (%s) was served by %llu predicted write grants\n",
                   bench_name_.c_str(), r.name.c_str(), r.params.c_str(),
                   static_cast<unsigned long long>(predicted));
      failed_ = true;
    }
  }

  // Records in the most recently added result's values how many faults of
  // the cluster it measured read ahead (dsm.readahead_groups). A row that
  // prices single faults must have none, or it priced groups: Finish() then
  // fails the bench.
  void RecordReadAhead(uint64_t groups, bool single_fault_row) {
    if (results_.empty()) {
      return;
    }
    BenchResult& r = results_.back();
    r.values["dsm.readahead_groups"] = static_cast<double>(groups);
    if (single_fault_row && groups > 0) {
      std::fprintf(stderr, "%s: single-fault row \"%s\" (%s) read ahead in %llu groups\n",
                   bench_name_.c_str(), r.name.c_str(), r.params.c_str(),
                   static_cast<unsigned long long>(groups));
      failed_ = true;
    }
  }

  // Attach a metrics snapshot to the most recently added result.
  void AttachMetrics(const MetricsSnapshot& snapshot) {
    if (!results_.empty()) {
      results_.back().metrics_json = snapshot.DumpJson();
    }
  }

  std::string ToJson() const {
    std::string out = "{\"bench\":";
    bench_internal::AppendJsonString(&out, bench_name_);
    out += ",\"smoke\":";
    out += env_.smoke() ? "true" : "false";
    out += ",\"results\":[";
    bool first = true;
    for (const BenchResult& r : results_) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      out += "{\"name\":";
      bench_internal::AppendJsonString(&out, r.name);
      out += ",\"params\":";
      bench_internal::AppendJsonString(&out, r.params);
      out += ",\"iterations\":" + std::to_string(r.iterations);
      out += ",\"ns_per_op\":";
      bench_internal::AppendDouble(&out, r.ns_per_op);
      if (!r.values.empty()) {
        out += ",\"values\":{";
        bool vf = true;
        for (const auto& [k, v] : r.values) {
          if (!vf) {
            out.push_back(',');
          }
          vf = false;
          bench_internal::AppendJsonString(&out, k);
          out.push_back(':');
          bench_internal::AppendDouble(&out, v);
        }
        out.push_back('}');
      }
      if (!r.metrics_json.empty()) {
        out += ",\"metrics\":" + r.metrics_json;  // already-serialized JSON object
      }
      out.push_back('}');
    }
    out += "]}";
    return out;
  }

  // Writes the JSON file if --bench_json was given. Returns the exit code:
  // nonzero when the file could not be written or a row failed its check.
  int Finish() const {
    const int rc = failed_ ? 1 : 0;
    if (env_.json_path().empty()) {
      return rc;
    }
    std::FILE* f = std::fopen(env_.json_path().c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n", env_.json_path().c_str());
      return 1;
    }
    const std::string json = ToJson();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                    std::fputc('\n', f) != EOF;
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "bench: short write to %s\n", env_.json_path().c_str());
      return 1;
    }
    return rc;
  }

 private:
  std::string bench_name_;
  BenchEnv env_;
  std::vector<BenchResult> results_;
  bool failed_ = false;
};

}  // namespace millipage

#endif  // BENCH_BENCH_UTIL_H_
