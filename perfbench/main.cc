// xbench: the closed-loop benchmark program of the XSLT -> SQL/XML engine.
//
//   xbench --workload <xsltmark-warm|ingest-query>
//          --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// One client thread per workload; the seed fixes every generated input and
// the request order, and --seconds fixes how much work the timed phase
// does (calibrated to last about that long), so runs with the same
// arguments do identical work. --trace 0 prints the end-to-end metrics of
// one untraced phase, with times scaled to the reference host's speed by
// the SpeedProbe around every timed window (harness.h); --trace 1 runs the
// untraced phase and then a traced repeat with spans around every layer
// call, and prints the per-layer metrics. Every output is checked against
// an independent reference; any mismatch or failed operation makes the
// exit code non-zero.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: value}}
// holding the metrics this run measured. run.py turns it into the result:
// BENCHMARK.json owns the metric names and units.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>

#include "harness.h"

extern char** environ;

namespace xbench {
namespace {

// Behaviour-changing knobs of the library. The benchmark refuses to run
// while any XDB_* variable is set (some are read during static
// initialization, so clearing them here would be too late); run.py starts
// xbench with them removed.
constexpr const char* kPinnedEnv[] = {
    "XDB_THREADS",          "XDB_PARALLEL",    "XDB_MIN_PARALLEL_CHUNK",
    "XDB_DISABLE_OPT_RULES", "XDB_TIMEOUT_MS",  "XDB_MEM_BUDGET",
    "XDB_WAL_SYNC",         "XDB_CHECKPOINT_BYTES", "XDB_FAULT",
    "XDB_SEED"};

bool EnvironmentIsPinned() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "XDB_", 4) == 0) {
      std::fprintf(stderr, "xbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

void PrintEnvironment(const RunConfig& cfg) {
  std::printf("# workload=%s seed=%llu seconds=%d trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("# env");
  for (const char* name : kPinnedEnv) {
    const char* v = std::getenv(name);
    std::printf(" %s=%s", name, v != nullptr ? v : "<unset>");
  }
  std::printf("\n");
}

void PrintMetric(std::string* json, const std::string& name, double value) {
  std::printf("%-40s %16.6f\n", name.c_str(), value);
  char buf[512];
  std::snprintf(buf, sizeof buf, "%s\"%s\": %.9g", json->empty() ? "" : ", ",
                name.c_str(), value);
  *json += buf;
}

using WorkloadFn = Report (*)(const RunConfig&, Tracer*);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "xsltmark-warm") return RunXsltmarkWarm;
  if (name == "ingest-query") return RunIngestQuery;
  return nullptr;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      cfg.trace = std::atoi(value) != 0;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else {
      std::fprintf(stderr, "xbench: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (cfg.workload.empty() || cfg.seconds < 1 || cfg.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: xbench --workload W --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n");
    return 2;
  }
  const WorkloadFn run = FindWorkload(cfg.workload);
  if (run == nullptr) {
    std::fprintf(stderr, "xbench: unknown workload %s\n", cfg.workload.c_str());
    return 2;
  }
  if (!EnvironmentIsPinned()) return 2;
  cfg.work_seconds = cfg.trace ? cfg.seconds / 3.0 : cfg.seconds;
  PrintEnvironment(cfg);

  Report plain = run(cfg, nullptr);
  plain.SetLayer("core.cpu_per_wall",
                 plain.wall_s > 0 ? plain.cpu_s / plain.wall_s : 0);
  int64_t attempted = plain.attempted;
  int64_t failed = plain.failed;
  std::vector<std::string> errors = plain.errors;

  std::string json;
  if (!cfg.trace) {
    const size_t n = plain.latency_ms.size();
    std::printf("# requests=%zu checked_outputs=%lld wall_s=%.3f\n", n,
                static_cast<long long>(plain.checked), plain.wall_s);
    PrintMetric(&json, "setup_s", Median(plain.setup_s));
    PrintMetric(&json, "req_p50_ms", Quantile(plain.latency_ms, 0.50));
    PrintMetric(&json, "req_p99_ms", Quantile(plain.latency_ms, 0.99));
    PrintMetric(&json, "req_per_s", plain.ReqPerS());
    PrintMetric(&json, "req_geomean_ms", plain.ReqGeoMeanMs());
    PrintMetric(&json, "peak_rss_mb", PeakRssMb());
    for (const auto& [kind, samples] : plain.kind_latency_ms) {
      std::printf("# kind %-28s n=%zu median_ms=%.4f max_ms=%.4f\n",
                  kind.c_str(), samples.size(), Median(samples), Max(samples));
    }
    std::printf(
        "# unscaled req_p50_ms=%.4f req_p99_ms=%.4f req_per_s=%.2f; host "
        "speed factor over %zu windows: median %.4f, min %.4f, max %.4f\n",
        Quantile(plain.raw_latency_ms, 0.50),
        Quantile(plain.raw_latency_ms, 0.99),
        Median(plain.raw_window_req_per_s), plain.speed_factors.size(),
        Median(plain.speed_factors), Quantile(plain.speed_factors, 0),
        Quantile(plain.speed_factors, 1));
    if (n < 1000) {
      std::printf("# warning: %zu requests leave fewer than 10 beyond p99\n",
                  n);
    }
    std::printf("# error_rate %.6f\n",
                attempted > 0 ? static_cast<double>(failed) / attempted : 0);
  } else {
    Tracer tracer;
    Report traced = run(cfg, &tracer);
    attempted += traced.attempted;
    failed += traced.failed;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    std::string spans = cfg.work_dir + "/spans-" + cfg.workload + "-" +
                        std::to_string(cfg.seed) + ".tsv";
    if (tracer.WriteTsv(spans)) {
      std::printf("# spans=%zu written to %s\n", tracer.spans().size(),
                  spans.c_str());
    }
    // Metrics a workload can take without spans (per-case medians, CPU per
    // wall, ingest throughput) come from the untraced phase.
    std::map<std::string, double> layer = traced.layer;
    for (const auto& [name, value] : plain.layer) layer[name] = value;
    layer["trace.overhead_ratio"] =
        plain.ReqPerS() > 0 ? traced.ReqPerS() / plain.ReqPerS() : 0;
    layer["error_rate"] =
        attempted > 0 ? static_cast<double>(failed) / attempted : 0;
    for (const auto& [name, value] : layer) PrintMetric(&json, name, value);
  }
  for (const std::string& e : errors) std::printf("# error: %s\n", e.c_str());

  const bool correct = failed == 0 && attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xbench

int main(int argc, char** argv) { return xbench::Main(argc, argv); }
