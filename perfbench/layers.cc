#include "layers.h"

#include <limits>

#include "core/task_graph.h"
#include "difftest/canonical.h"
#include "rel/optimizer.h"
#include "rewrite/xquery_rewriter.h"
#include "rewrite/xslt_rewriter.h"
#include "schema/sample_doc.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xslt/interpreter.h"
#include "xslt/stylesheet.h"
#include "xslt/vm.h"

namespace xbench {

using xdb::ExecStats;
using xdb::ExecutionPath;
using xdb::Result;

namespace {

constexpr const char* kRules[] = {
    xdb::rel::kRulePredicatePushdown, xdb::rel::kRuleJoinLowering,
    xdb::rel::kRuleIndexRangeScan,    xdb::rel::kRuleConstantFold,
    xdb::rel::kRuleColumnPruning,     xdb::rel::kRuleJoinAccessPath,
    xdb::rel::kRuleJoinOrder,         xdb::rel::kRuleSubplanDedup,
    xdb::rel::kRuleStructuralJoin};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

Result<std::vector<std::string>> CanonicalRows(
    const std::vector<std::string>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const std::string& row : rows) {
    XDB_ASSIGN_OR_RETURN(std::string canon,
                         xdb::difftest::CanonicalizeXml(row));
    out.push_back(std::move(canon));
  }
  return out;
}

Result<std::vector<std::string>> InterpreterReference(
    xdb::XmlDb* db, const std::string& view, const std::string& stylesheet) {
  XDB_ASSIGN_OR_RETURN(auto parsed, xdb::xslt::Stylesheet::Parse(stylesheet));
  XDB_ASSIGN_OR_RETURN(std::vector<std::string> values,
                       db->MaterializeView(view));
  xdb::xslt::Interpreter interp(*parsed);
  std::vector<std::string> rows;
  for (const std::string& value : values) {
    XDB_ASSIGN_OR_RETURN(auto doc, xdb::xml::ParseDocument(value));
    XDB_ASSIGN_OR_RETURN(auto out, interp.Transform(doc->root()));
    rows.push_back(xdb::xml::Serialize(out->root()));
  }
  return CanonicalRows(rows);
}

void OutputChecker::SetReference(const std::string& kind,
                                 std::vector<std::string> rows) {
  entries_[kind] = Entry{std::move(rows), false, 0};
}

bool OutputChecker::Check(const std::string& kind,
                          const std::vector<std::string>& rows,
                          std::string* why) {
  auto it = entries_.find(kind);
  if (it == entries_.end()) {
    *why = kind + ": no reference";
    return false;
  }
  Entry& e = it->second;
  if (e.verified) {
    if (HashRows(rows) == e.hash) return true;
    *why = kind + ": output differs from the checked output";
    return false;
  }
  ++checked_;
  auto canon = CanonicalRows(rows);
  if (!canon.ok()) {
    *why = kind + ": output not well-formed: " + canon.status().ToString();
    return false;
  }
  if (*canon != e.reference) {
    *why = kind + ": output differs from the reference";
    return false;
  }
  e.verified = true;
  e.hash = HashRows(rows);
  return true;
}

double ReplayPrepareStages(xdb::XmlDb* db, const std::string& view,
                           const std::string& stylesheet,
                           const xdb::ExecOptions& options, Tracer* tracer) {
  double total = 0;
  auto v = db->catalog()->GetView(view);
  if (!v.ok() || !(*v)->is_publishing()) return total;
  const xdb::rel::XmlView& pub = **v;

  ScopedSpan compile_span(tracer, "xslt.parse_compile");
  auto parsed = xdb::xslt::Stylesheet::Parse(stylesheet);
  if (!parsed.ok()) return total + compile_span.Close();
  auto compiled = xdb::xslt::CompiledStylesheet::Compile(**parsed);
  total += compile_span.Close();
  if (!compiled.ok() || !options.enable_rewrite) return total;

  {
    ScopedSpan span(tracer, "schema.sample_doc");
    auto sample = xdb::schema::GenerateSampleDocument(pub.info->structure);
  }

  ScopedSpan xquery_span(tracer, "rewrite.xslt_to_xquery");
  auto query = xdb::rewrite::RewriteXsltToXQuery(
      **compiled, &pub.info->structure, options.xslt, nullptr);
  total += xquery_span.Close();
  if (!query.ok() || !options.enable_sql_rewrite) return total;

  ScopedSpan sql_span(tracer, "rewrite.xquery_to_sql");
  auto sql = xdb::rewrite::RewriteXQueryToSql(*query, pub, *db->catalog());
  total += sql_span.Close();
  if (!sql.ok()) return total;

  ScopedSpan opt_span(tracer, "rel.optimize");
  xdb::rel::Optimizer optimizer(options.optimizer, db->catalog());
  auto optimized = optimizer.Run(std::move(sql->expr));
  return total + opt_span.Close();
}

double ReplayMaterialize(xdb::XmlDb* db, const std::string& view,
                         Tracer* tracer, std::vector<std::string>* values) {
  ScopedSpan span(tracer, "rel.materialize");
  auto materialized = db->MaterializeView(view);
  double ms = span.Close();
  if (materialized.ok()) *values = std::move(*materialized);
  return ms;
}

double ReplayVmStages(const xdb::core::PreparedTransform& prepared,
                      const std::vector<std::string>& values, int threads,
                      Tracer* tracer) {
  double total = 0;
  if (prepared.compiled == nullptr) return total;
  xdb::core::ParallelPolicy policy;
  policy.threads = threads;
  const xdb::core::ParallelPolicy* pp =
      threads > 1 && xdb::core::TaskScheduler::ParallelEnabled() ? &policy
                                                                  : nullptr;
  xdb::xslt::Vm vm(*prepared.compiled);
  for (const std::string& value : values) {
    std::unique_ptr<xdb::xml::Document> doc;
    {
      ScopedSpan span(tracer, "replay.parse_view_value");
      auto parsed = xdb::xml::ParseDocument(value);
      if (!parsed.ok()) return total;
      doc = std::move(*parsed);
    }
    ScopedSpan vm_span(tracer, "xslt.vm_transform");
    auto out = vm.Transform(doc->root(), {}, nullptr, pp);
    total += vm_span.Close();
    if (!out.ok()) return total;
    ScopedSpan ser_span(tracer, "xml.serialize");
    std::string text = xdb::xml::Serialize((*out)->root());
    total += ser_span.Close();
  }
  return total;
}

void LayerAccumulator::AddPrepare(const ExecStats& stats, double prepare_ms) {
  if (stats.cache_hit) {
    prepare_hit_us_.push_back(prepare_ms * 1000.0);
    return;
  }
  prepare_cold_ms_.push_back(prepare_ms);
  for (const xdb::rel::RuleTrace& t : stats.opt_trace) {
    if (t.nodes_before != t.nodes_after) ++rule_changed_[t.rule];
  }
}

void LayerAccumulator::AddExecute(const ExecStats& stats, size_t results,
                                  double execute_ms) {
  ++executes_;
  execute_ms_[stats.path].push_back(execute_ms);
  if (stats.path == ExecutionPath::kSqlRewritten) {
    ++plan_a_;
    if (stats.used_index) ++plan_a_indexed_;
  }
  results_ += results;
  ticks_ += stats.ticks;
  join_build_ += stats.join_build_rows;
  join_probe_ += stats.join_probe_rows;
  join_match_ += stats.join_match_rows;
  for (const xdb::rel::JoinChoice& j : stats.joins) {
    if (j.strategy == "hash" || j.strategy == "index-nl") {
      join_est_probe_ += j.est_probe_rows;
    }
  }
  structural_match_ += stats.structural_match_rows;
  structural_est_ += stats.structural_est_rows;
  par_tasks_ += stats.parallel_tasks;
  partitions_ += stats.partitions;
  threads_used_ += static_cast<uint64_t>(stats.threads_used);
  if (stats.mem_peak_bytes > mem_peak_bytes_) {
    mem_peak_bytes_ = stats.mem_peak_bytes;
  }
}

void LayerAccumulator::Fill(const Tracer& tracer, Report* r) const {
  auto median_span = [&](const char* span, const char* metric) {
    r->SetLayer(metric, Median(tracer.Durations(span)));
  };
  median_span("xml.serialize", "xml.serialize_ms");
  median_span("xslt.parse_compile", "xslt.parse_compile_ms");
  median_span("xslt.vm_transform", "xslt.vm_transform_ms");
  median_span("schema.sample_doc", "schema.sample_doc_ms");
  median_span("rewrite.xslt_to_xquery", "rewrite.xslt_to_xquery_ms");
  median_span("rewrite.xquery_to_sql", "rewrite.xquery_to_sql_ms");
  median_span("rel.optimize", "rel.optimize_ms");

  const double n = static_cast<double>(executes_);
  auto path_count = [&](ExecutionPath p) {
    auto it = execute_ms_.find(p);
    return it == execute_ms_.end() ? 0.0
                                   : static_cast<double>(it->second.size());
  };
  r->SetLayer("rewrite.plan_a_share",
              Ratio(path_count(ExecutionPath::kSqlRewritten), n));
  r->SetLayer("rewrite.plan_b_share",
              Ratio(path_count(ExecutionPath::kXQueryRewritten), n));
  r->SetLayer("rewrite.plan_c_share",
              Ratio(path_count(ExecutionPath::kFunctional), n));
  for (const char* rule : kRules) {
    auto it = rule_changed_.find(rule);
    const int64_t changed = it == rule_changed_.end() ? 0 : it->second;
    r->SetLayer(std::string("rel.rule_changed.") + rule,
                static_cast<double>(changed));
  }

  const std::vector<double> mat = tracer.Durations("rel.materialize");
  r->SetLayer("rel.materialize_ms", Ratio(Sum(mat), Sum(materialize_rows_)));
  r->SetLayer("rel.materialize_rows", Median(materialize_rows_));
  r->SetLayer("rel.join_build_rows", Ratio(join_build_, n));
  r->SetLayer("rel.join_probe_rows", Ratio(join_probe_, n));
  r->SetLayer("rel.join_match_rows", Ratio(join_match_, n));
  r->SetLayer("rel.join_est_probe_ratio", Ratio(join_est_probe_, join_probe_));
  r->SetLayer("rel.structural_match_rows", Ratio(structural_match_, n));
  r->SetLayer("rel.structural_est_ratio",
              Ratio(structural_est_, structural_match_));
  r->SetLayer("rel.index_use_share", Ratio(plan_a_indexed_, plan_a_));
  r->SetLayer("rel.ticks_per_result", Ratio(ticks_, results_));

  r->SetLayer("core.prepare_cold_ms", Median(prepare_cold_ms_));
  r->SetLayer("core.prepare_other_ms", Median(prepare_other_ms_));
  r->SetLayer("core.prepare_hit_us", Median(prepare_hit_us_));
  auto path_median = [&](ExecutionPath p) {
    auto it = execute_ms_.find(p);
    return it == execute_ms_.end() ? 0.0 : Median(it->second);
  };
  r->SetLayer("core.execute_ms.a", path_median(ExecutionPath::kSqlRewritten));
  r->SetLayer("core.execute_ms.b",
              path_median(ExecutionPath::kXQueryRewritten));
  r->SetLayer("core.execute_ms.c", path_median(ExecutionPath::kFunctional));
  r->SetLayer("core.execute_other_ms", Median(execute_other_ms_));
  r->SetLayer("core.par_tasks_per_req", Ratio(par_tasks_, n));
  r->SetLayer("core.par_partitions_per_req", Ratio(partitions_, n));
  r->SetLayer("core.threads_used", Ratio(threads_used_, n));
  r->SetLayer("governor.mem_peak_mb", mem_peak_bytes_ / (1024.0 * 1024.0));
}

xdb::core::PlanCache::Stats SumCacheStats(const std::vector<xdb::XmlDb*>& dbs) {
  xdb::core::PlanCache::Stats sum;
  for (xdb::XmlDb* db : dbs) {
    xdb::core::PlanCache::Stats s = db->plan_cache()->stats();
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.invalidations += s.invalidations;
    sum.entries += s.entries;
  }
  return sum;
}

void FillCacheDeltas(const xdb::core::PlanCache::Stats& before,
                     const xdb::core::PlanCache::Stats& after, Report* r) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  r->SetLayer("core.plan_cache_hit_ratio", Ratio(hits, hits + misses));
  r->SetLayer("core.plan_cache_evictions",
              static_cast<double>(after.evictions - before.evictions));
  r->SetLayer("core.plan_cache_invalidations",
              static_cast<double>(after.invalidations - before.invalidations));
}

xdb::ExecOptions WithCountingBudget(xdb::ExecOptions options) {
  options.tick_budget = std::numeric_limits<uint64_t>::max() / 4;
  return options;
}

}  // namespace xbench
