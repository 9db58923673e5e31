#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace xbench {

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

uint64_t HashRows(const std::vector<std::string>& rows) {
  uint64_t h = rows.size();
  for (const std::string& r : rows) {
    h = h * 0x9e3779b97f4a7c15ull ^ std::hash<std::string_view>()(r);
  }
  return h;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

volatile uint64_t probe_sink;

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + ts.tv_nsec / 1e6;
}

// The probe's fixed work: 5 times, 1000 distinct short strings hashed into
// a fresh map and sorted. Sets its wall and thread CPU time in ms.
void ProbeWork(double* wall_ms, double* cpu_ms) {
  const double cpu0 = ThreadCpuMs();
  const int64_t t0 = NowNs();
  for (int rep = 0; rep < 5; ++rep) {
    std::unordered_map<std::string, int> counts;
    std::vector<std::string> keys;
    uint64_t x = 7;
    for (int i = 0; i < 1000; ++i) {
      x = x * 6364136223846793005ull + 1;
      std::string key = "k" + std::to_string(x >> 40) + "_" +
                        std::to_string(i & 255);
      counts[key] += i;
      keys.push_back(std::move(key));
    }
    std::sort(keys.begin(), keys.end());
    uint64_t h = 0;
    for (const std::string& k : keys) h += static_cast<uint64_t>(counts[k]);
    probe_sink = h;
  }
  *wall_ms = (NowNs() - t0) / 1e6;
  *cpu_ms = ThreadCpuMs() - cpu0;
}

}  // namespace

size_t SpeedProbe::Probe() {
  std::vector<double> cpu;
  double wall_sum = 0, cpu_sum = 0;
  for (int run = 0; run < 3; ++run) {
    double wall[2], used[2];
    std::thread helper(ProbeWork, &wall[1], &used[1]);
    ProbeWork(&wall[0], &used[0]);
    helper.join();
    for (int t = 0; t < 2; ++t) {
      cpu.push_back(used[t]);
      wall_sum += wall[t];
      cpu_sum += used[t];
    }
  }
  const double steal = std::clamp(1 - cpu_sum / wall_sum, 0.0, 0.9);
  probes_.push_back(Sample{Median(cpu), steal});
  return probes_.size() - 1;
}

double SpeedProbe::Factor(size_t begin, size_t end) const {
  const size_t lo = begin > kSmoothing ? begin - kSmoothing : 0;
  const size_t hi = std::min(end + kSmoothing + 1, probes_.size());
  std::vector<double> cpu, steal;
  for (size_t i = lo; i < hi; ++i) {
    cpu.push_back(probes_[i].cpu_ms);
    steal.push_back(probes_[i].steal);
  }
  return std::pow(kReferenceMs / Median(cpu), cpu_sensitivity_) *
         std::pow(1 - Median(steal), steal_sensitivity_);
}

int Tracer::Begin(std::string_view name) {
  Span s;
  s.name = std::string(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end_ns = NowNs();
  // Spans close innermost first; tolerate an early Close of an outer span.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(DurationMs(static_cast<int>(i)));
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%llu\t%s\t%lld\t%lld\n", i, s.parent,
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void Report::Fail(std::string message) {
  ++failed;
  if (errors.size() < 5) errors.push_back(std::move(message));
}

void Report::AddWindow(size_t begin, size_t end, double wall_s,
                       std::vector<std::pair<std::string, double>> timed) {
  windows_.push_back(Window{begin, end, wall_s, false, std::move(timed)});
}

void Report::AddSetup(size_t begin, size_t end, double raw_s) {
  windows_.push_back(Window{begin, end, raw_s, true, {}});
}

void Report::Scale(const SpeedProbe& probe) {
  for (const Window& w : windows_) {
    const double factor = probe.Factor(w.begin, w.end);
    speed_factors.push_back(factor);
    if (w.setup) {
      setup_s.push_back(w.wall_s * factor);
      continue;
    }
    if (w.wall_s > 0) {
      raw_window_req_per_s.push_back(
          static_cast<double>(w.timed.size()) / w.wall_s);
      window_req_per_s.push_back(raw_window_req_per_s.back() / factor);
    }
    for (const auto& [kind, ms] : w.timed) {
      raw_latency_ms.push_back(ms);
      latency_ms.push_back(ms * factor);
      kind_latency_ms[kind].push_back(ms * factor);
    }
  }
}

bool Report::WriteWindowsTsv(const std::string& path,
                             const SpeedProbe& probe) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "window\tsetup\twall_ms\trequests\tmedian_ms\tprobe_cpu_ms"
               "\tprobe_steal\tfactor\n");
  for (size_t i = 0; i < windows_.size(); ++i) {
    const Window& w = windows_[i];
    std::vector<double> ms;
    for (const auto& [kind, v] : w.timed) ms.push_back(v);
    std::fprintf(f, "%zu\t%d\t%.4f\t%zu\t%.4f\t%.4f\t%.4f\t%.4f\n", i,
                 w.setup ? 1 : 0, w.wall_s * 1e3, w.timed.size(), Median(ms),
                 (probe.cpu_ms(w.begin) + probe.cpu_ms(w.end)) / 2,
                 (probe.steal(w.begin) + probe.steal(w.end)) / 2,
                 probe.Factor(w.begin, w.end));
  }
  return std::fclose(f) == 0;
}

double Report::ReqGeoMeanMs() const {
  std::vector<double> medians;
  for (const auto& [kind, samples] : kind_latency_ms) {
    double m = Median(samples);
    if (m > 0) medians.push_back(m);
  }
  return GeoMean(medians);
}

}  // namespace xbench
