// xsltmark-warm: the paper's Fig. 3 suite with warm plans.
//
// All 40 xsltmark cases over their four dataset families at one fixed
// scale, prepared and run once (warm-up) during set-up. Each round runs the
// 40 cases in a seeded shuffled order; a request is PrepareTransform (a
// plan-cache hit) followed by Execute with 2 engine threads. Most of the
// time goes to execution: rel exec/publish, the XSLT VM, XPath, XQuery and
// serialization, with the parallel task graph at a fixed width.
#include <memory>

#include "layers.h"
#include "xsltmark/suite.h"

namespace xbench {
namespace {

using xdb::ExecOptions;
using xdb::ExecStats;
using xdb::ExecutionPath;
using xdb::XmlDb;

constexpr int kScale = 1000;
constexpr int kThreads = 2;
constexpr int kSetupRepeats = 9;
/// SpeedProbe sensitivities of this workload's round time (fitted).
constexpr double kCpuSensitivity = 1.3;
constexpr double kStealSensitivity = 3.0;
/// Rounds of 40 requests per --seconds (calibrated on the reference host).
constexpr double kRoundsPerSecond = 7;
constexpr const char* kFamilies[] = {"db", "product", "sales", "tree"};
constexpr const char* kNamedCases[] = {"dbonerow", "avts", "chart", "metric",
                                       "total"};

struct CaseState {
  const xdb::xsltmark::BenchCase* bench = nullptr;
  XmlDb* db = nullptr;
  std::string view;
  std::vector<std::string> warm_rows;  ///< the set-up pass's output
};

struct Setup {
  std::vector<std::unique_ptr<XmlDb>> dbs;
  std::vector<CaseState> cases;
};

ExecOptions RequestOptions() {
  ExecOptions o;
  o.threads = kThreads;
  o.parallel = true;
  return o;
}

// Families, prepared plans and the warm-up pass. Cold prepares are folded
// into `acc` (the traced run counts their optimizer-rule outcomes).
xdb::Status BuildSetup(Setup* s, LayerAccumulator* acc) {
  for (const char* family : kFamilies) {
    auto db = std::make_unique<XmlDb>();
    XDB_RETURN_NOT_OK(xdb::xsltmark::SetupFamily(db.get(), family, kScale));
    for (const auto& bench : xdb::xsltmark::AllCases()) {
      if (bench.family != family) continue;
      s->cases.push_back(CaseState{&bench, db.get(),
                                   xdb::xsltmark::FamilyViewName(family), {}});
    }
    s->dbs.push_back(std::move(db));
  }
  const ExecOptions options = RequestOptions();
  for (CaseState& c : s->cases) {
    ExecStats stats;
    int64_t t0 = NowNs();
    XDB_RETURN_NOT_OK(
        c.db->PrepareTransform(c.view, c.bench->stylesheet, options, &stats)
            .status());
    acc->AddPrepare(stats, (NowNs() - t0) / 1e6);
  }
  for (CaseState& c : s->cases) {
    XDB_ASSIGN_OR_RETURN(
        auto prepared,
        c.db->PrepareTransform(c.view, c.bench->stylesheet, options));
    XDB_ASSIGN_OR_RETURN(c.warm_rows, c.db->Execute(*prepared, options));
  }
  return xdb::Status::OK();
}

}  // namespace

Report RunXsltmarkWarm(const RunConfig& cfg, Tracer* tracer) {
  Report report;
  LayerAccumulator acc;
  Setup setup;
  SpeedProbe probe(kCpuSensitivity, kStealSensitivity);
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup = Setup();
    acc = LayerAccumulator();
    const size_t p0 = probe.Probe();
    int64_t t0 = NowNs();
    xdb::Status st = BuildSetup(&setup, &acc);
    const double raw_s = (NowNs() - t0) / 1e9;
    report.AddSetup(p0, probe.Probe(), raw_s);
    if (!st.ok()) {
      report.attempted = 1;
      report.Fail("set-up: " + st.ToString());
      return report;
    }
  }

  // References (outside set-up): the tree interpreter over each view's
  // materialized value; the warm-up outputs are the first checked outputs.
  OutputChecker checker;
  for (CaseState& c : setup.cases) {
    ++report.attempted;
    auto ref = InterpreterReference(c.db, c.view, c.bench->stylesheet);
    if (!ref.ok()) {
      report.Fail(c.bench->name + ": reference: " + ref.status().ToString());
      continue;
    }
    checker.SetReference(c.bench->name, std::move(*ref));
    std::string why;
    if (!checker.Check(c.bench->name, c.warm_rows, &why)) report.Fail(why);
  }

  const ExecOptions options = RequestOptions();
  const ExecOptions exec_options =
      tracer != nullptr ? WithCountingBudget(options) : options;
  std::vector<XmlDb*> dbs;
  for (auto& db : setup.dbs) dbs.push_back(db.get());
  const auto cache_before = SumCacheStats(dbs);

  Rng rng(cfg.seed);
  std::vector<size_t> order(setup.cases.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const int64_t rounds = WorkUnits(cfg, kRoundsPerSecond);
  const double cpu0 = ProcessCpuSeconds();
  size_t window_probe = probe.Probe();
  const int64_t start = NowNs();
  std::vector<std::pair<std::string, double>> timed;
  for (int64_t round = 0; round < rounds; ++round) {
    const int64_t round_start = NowNs();
    if ((round_start - start) / 1e9 > PhaseDeadlineS(cfg)) break;
    timed.clear();
    rng.Shuffle(&order);
    for (size_t idx : order) {
      CaseState& c = setup.cases[idx];
      ++report.attempted;
      if (tracer != nullptr) tracer->NextRequest();
      ScopedSpan request(tracer, "request");
      ExecStats pstats, estats;
      const int64_t t0 = NowNs();
      auto prepared =
          c.db->PrepareTransform(c.view, c.bench->stylesheet, options, &pstats);
      const int64_t t1 = NowNs();
      if (!prepared.ok()) {
        report.Fail(c.bench->name + ": " + prepared.status().ToString());
        continue;
      }
      auto rows = c.db->Execute(**prepared, exec_options, &estats);
      const int64_t t2 = NowNs();
      if (!rows.ok()) {
        report.Fail(c.bench->name + ": " + rows.status().ToString());
        continue;
      }
      timed.emplace_back(c.bench->name, (t2 - t0) / 1e6);
      std::string why;
      if (!checker.Check(c.bench->name, *rows, &why)) report.Fail(why);

      if (tracer != nullptr) {
        const double prepare_ms = (t1 - t0) / 1e6;
        const double execute_ms = (t2 - t1) / 1e6;
        acc.AddPrepare(pstats, prepare_ms);
        acc.AddExecute(estats, rows->size(), execute_ms);
        if (estats.path != ExecutionPath::kSqlRewritten) {
          std::vector<std::string> values;
          double staged = ReplayMaterialize(c.db, c.view, tracer, &values);
          acc.AddMaterializeRows(static_cast<double>(values.size()));
          if (estats.path == ExecutionPath::kFunctional) {
            staged += ReplayVmStages(**prepared, values, kThreads, tracer);
            acc.AddExecuteRemainder(execute_ms - staged);
          }
        }
      }
    }
    const double round_s = (NowNs() - round_start) / 1e9;
    const size_t p = probe.Probe();
    report.AddWindow(window_probe, p, round_s, std::move(timed));
    window_probe = p;
  }
  report.Scale(probe);
  if (tracer == nullptr) {
    report.WriteWindowsTsv(cfg.work_dir + "/windows-" + cfg.workload + "-" +
                               std::to_string(cfg.seed) + ".tsv",
                           probe);
  }
  report.wall_s = (NowNs() - start) / 1e9;
  report.cpu_s = ProcessCpuSeconds() - cpu0;
  report.checked = checker.checked();

  FillCacheDeltas(cache_before, SumCacheStats(dbs), &report);
  for (const char* name : kNamedCases) {
    report.SetLayer(std::string("xsltmark.case_ms.") + name,
                    Median(report.kind_latency_ms[name]));
  }
  if (tracer != nullptr) acc.Fill(*tracer, &report);
  return report;
}

}  // namespace xbench
