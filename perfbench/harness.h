// Shared machinery of the xbench program: the run configuration, a clock,
// sample statistics, the span tracer of the traced run, and the report that
// every workload fills and main() prints.
//
// Nothing here reaches into the library: the workloads time the calls they
// make into each module's public functions and read the counters those
// functions already return.
#ifndef XBENCH_HARNESS_H_
#define XBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Work each timed phase does, in calibrated seconds: --seconds for an
  /// untraced run; a traced run splits --seconds over its untraced phase
  /// and its (slower) traced repeat.
  double work_seconds = 10;
  /// Scratch directory inside the checkout (durable databases live here).
  std::string work_dir;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: the benchmark's own seeded generator (request orders and
/// generated documents), identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform-enough value in [0, n) for the small n used here.
  uint64_t Below(uint64_t n) { return Next() % n; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// Median of `v` (0 when empty). Takes a copy: callers keep sample order.
double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> v, double q);
double Sum(const std::vector<double>& v);
double Max(const std::vector<double>& v);
/// Geometric mean of strictly positive values (0 when empty).
double GeoMean(const std::vector<double>& v);

/// Hash of a request's result rows: later requests must hash-equal the
/// output that was checked against the reference.
uint64_t HashRows(const std::vector<std::string>& rows);

/// Peak resident set size of this process, MiB.
double PeakRssMb();
/// User + system CPU time of this process, seconds.
double ProcessCpuSeconds();

/// Host speed. The shared host the bounds were set on changes speed over
/// minutes in two ways, and a run is shorter than either state: other
/// tenants load its memory system (everything that allocates and chases
/// pointers slows by up to 1.5x), and the host preempts busy vCPUs ("steal",
/// up to 40% of their time), which stalls a request that waits on two
/// engine threads far more than one running on a single thread.
///
/// A probe runs a fixed piece of work that uses no library code (short
/// strings hashed into a std::unordered_map, then sorted) on two threads at
/// once, three times. Each thread reads its own CPU clock, which does not
/// advance while its vCPU is preempted, and the wall clock. The probe keeps
/// the median CPU time (the memory system's speed) and the share of wall
/// time the threads did not run (steal). Every timed window lies between
/// two probes, and Report::Scale multiplies its times by Factor():
///   (kReferenceMs / cpu_ms) ^ cpu_sensitivity
///       * (1 - steal) ^ steal_sensitivity
/// where cpu_ms and steal are medians over the window's two probes and
/// kSmoothing probes on either side, so one disturbed probe does not move a
/// window. The sensitivities are each workload's regression slopes of log
/// window time on log cpu_ms and on -log(1 - steal), fitted over runs that
/// crossed both kinds of state (WriteWindowsTsv records what a refit
/// needs). Scaled times read as ms on the reference host; main() prints the
/// raw figures and the factors beside them.
class SpeedProbe {
 public:
  /// Scale of the factors: about the probe's CPU time (ms) on the
  /// reference host, a 4-vCPU VM, in its fast state.
  static constexpr double kReferenceMs = 1.9;
  static constexpr size_t kSmoothing = 3;

  SpeedProbe(double cpu_sensitivity, double steal_sensitivity)
      : cpu_sensitivity_(cpu_sensitivity),
        steal_sensitivity_(steal_sensitivity) {}
  /// Probes the host; returns the probe's index.
  size_t Probe();
  /// The factor that scales times measured between probes `begin` and
  /// `end` to the reference host.
  double Factor(size_t begin, size_t end) const;
  /// CPU time (ms) and steal share of probe `i`.
  double cpu_ms(size_t i) const { return probes_[i].cpu_ms; }
  double steal(size_t i) const { return probes_[i].steal; }

 private:
  struct Sample {
    double cpu_ms = 0;
    double steal = 0;
  };
  double cpu_sensitivity_;
  double steal_sensitivity_;
  std::vector<Sample> probes_;
};

/// Span recorder of the traced run. Spans stay in memory; WriteTsv dumps
/// them once the run is over (a span's self time is its duration minus its
/// children's, computable from the parent column). A null Tracer* means
/// tracing is off, and the ScopedSpan below then costs one pointer test.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 for a root span
    uint64_t request = 0;
  };

  /// Opens a span under the innermost open span.
  int Begin(std::string_view name);
  void End(int id);
  /// Starts a new request id; spans opened from now on carry it.
  void NextRequest() { ++request_; }

  const std::vector<Span>& spans() const { return spans_; }
  double DurationMs(int id) const {
    return (spans_[id].end_ns - spans_[id].start_ns) / 1e6;
  }
  /// Durations (ms) of every span with this name.
  std::vector<double> Durations(std::string_view name) const;

  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint64_t request_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early; returns its duration in ms (0 when off).
  double Close() {
    if (tracer_ == nullptr || id_ < 0) return 0;
    tracer_->End(id_);
    double ms = tracer_->DurationMs(id_);
    id_ = -1;
    return ms;
  }

 private:
  Tracer* tracer_;
  int id_;
};

/// What one phase (untraced or traced) of a workload measured.
struct Report {
  // -- end to end -------------------------------------------------------------
  // Times and rates are scaled to the reference host (see SpeedProbe).
  std::vector<double> setup_s;      ///< one entry per repeated set-up
  std::vector<double> latency_ms;   ///< every timed request
  /// Per request kind (the xsltmark case, the pool entry, the read kind).
  std::map<std::string, std::vector<double>> kind_latency_ms;
  /// Requests per second of each window of the timed phase (a round of
  /// xsltmark-warm, 12 steps of ingest-query); req_per_s is their median.
  std::vector<double> window_req_per_s;
  /// SpeedProbe factor of every window, set-ups included.
  std::vector<double> speed_factors;
  /// Unscaled counterparts of latency_ms and window_req_per_s.
  std::vector<double> raw_latency_ms;
  std::vector<double> raw_window_req_per_s;
  double wall_s = 0;                ///< timed phase wall time
  double cpu_s = 0;                 ///< process CPU over the timed phase
  int64_t attempted = 0;
  int64_t failed = 0;               ///< errors, refusals and wrong outputs
  int64_t checked = 0;              ///< outputs compared to a reference
  std::vector<std::string> errors;  ///< first few failure messages

  // -- per layer (filled by the traced phase) ---------------------------------
  /// Metric name -> value; names and units are those of BENCHMARK.json.
  std::map<std::string, double> layer;

  void Fail(std::string message);
  /// Records a timed window between probes `begin` and `end`: `wall_s`
  /// seconds and the latencies (raw ms, tagged by kind) of its requests.
  void AddWindow(size_t begin, size_t end, double wall_s,
                 std::vector<std::pair<std::string, double>> timed);
  /// Records a set-up of `raw_s` seconds between probes `begin` and `end`.
  void AddSetup(size_t begin, size_t end, double raw_s);
  /// Fills the end-to-end samples above from the recorded windows and
  /// set-ups, scaled by `probe`'s factors.
  void Scale(const SpeedProbe& probe);
  /// One line per window and set-up: its raw wall time, requests, median
  /// raw latency, and the probe readings and factor it was scaled by.
  bool WriteWindowsTsv(const std::string& path,
                       const SpeedProbe& probe) const;
  void SetLayer(const std::string& name, double value) { layer[name] = value; }
  double ReqPerS() const { return Median(window_req_per_s); }
  double ReqGeoMeanMs() const;

 private:
  /// A timed window or a set-up, as measured; Scale() turns it into the
  /// samples above.
  struct Window {
    size_t begin = 0, end = 0;  ///< the probes around it
    double wall_s = 0;
    bool setup = false;
    std::vector<std::pair<std::string, double>> timed;
  };
  std::vector<Window> windows_;
};

/// Work repeats per run, derived from --seconds so that every run with the
/// same arguments does identical work; `per_second` is calibrated so that
/// the timed phase lasts about --seconds on the reference host.
inline int64_t WorkUnits(const RunConfig& cfg, double per_second) {
  int64_t n = static_cast<int64_t>(cfg.work_seconds * per_second + 0.5);
  return n < 1 ? 1 : n;
}

/// A timed phase stops early once it has run 1.25 times its calibrated
/// length (the run then reports what it did): on a slow host or a slow
/// build every run still ends in bounded time.
inline double PhaseDeadlineS(const RunConfig& cfg) {
  return 1.25 * cfg.work_seconds + 1.0;
}

// The workloads. Each runs set-up (repeated), computes its references,
// checks outputs, and runs the timed phase; with `tracer` set it also
// replays the layer stages under spans and fills Report::layer.
Report RunXsltmarkWarm(const RunConfig& cfg, Tracer* tracer);
Report RunIngestQuery(const RunConfig& cfg, Tracer* tracer);

}  // namespace xbench

#endif  // XBENCH_HARNESS_H_
