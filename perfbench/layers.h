// Per-layer measurement shared by the workloads: the reference checks, the
// stage replays of the traced run, and an accumulator over the counters the
// library's calls return.
#ifndef XBENCH_LAYERS_H_
#define XBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/xmldb.h"
#include "harness.h"

namespace xbench {

/// Canonical form (difftest::CanonicalizeXml) of every row; kParseError
/// when a row is not well-formed.
xdb::Result<std::vector<std::string>> CanonicalRows(
    const std::vector<std::string>& rows);

/// The independent reference of a transform over a view: the tree-walking
/// xslt::Interpreter over each materialized base-row value, canonicalized.
xdb::Result<std::vector<std::string>> InterpreterReference(
    xdb::XmlDb* db, const std::string& view, const std::string& stylesheet);

/// Output checking: the first output of each request kind is compared
/// canonically with its reference; every later output of the kind must
/// hash-equal that checked output.
class OutputChecker {
 public:
  /// Registers the canonical reference rows of `kind`.
  void SetReference(const std::string& kind, std::vector<std::string> rows);
  /// True when `rows` is the correct output of `kind`; on false, `why`
  /// says what differed.
  bool Check(const std::string& kind, const std::vector<std::string>& rows,
             std::string* why);
  int64_t checked() const { return checked_; }

 private:
  struct Entry {
    std::vector<std::string> reference;
    bool verified = false;
    uint64_t hash = 0;
  };
  std::map<std::string, Entry> entries_;
  int64_t checked_ = 0;
};

/// Replays the prepare stages of XmlDb::PrepareTransform on the same
/// inputs, each under its own span: stylesheet parse + compile, the sample
/// document, XSLT -> XQuery (which runs its own trace over a sample
/// document), XQuery -> SQL/XML and the optimizer. Stops at the first stage
/// that declines, like the pipeline's fallback does. Returns the summed
/// duration (ms) of the stages PrepareTransform itself runs (the sample
/// document is generated again inside XSLT -> XQuery, so it is not added).
double ReplayPrepareStages(xdb::XmlDb* db, const std::string& view,
                           const std::string& stylesheet,
                           const xdb::ExecOptions& options, Tracer* tracer);

/// Replays the view materialization of plans B and C under a span
/// (XmlDb::MaterializeView, one value per base row). Returns its ms.
double ReplayMaterialize(xdb::XmlDb* db, const std::string& view,
                         Tracer* tracer, std::vector<std::string>* values);

/// Replays the rest of plan C for a transform over materialized values:
/// the XSLTVM over each value, then serialization, each under a span.
/// Returns their summed ms; re-parsing the materialized text is
/// replay-only work and excluded.
double ReplayVmStages(const xdb::core::PreparedTransform& prepared,
                      const std::vector<std::string>& values, int threads,
                      Tracer* tracer);

/// Folds the ExecStats of prepares and executes into the per-layer counters.
class LayerAccumulator {
 public:
  void AddPrepare(const xdb::ExecStats& stats, double prepare_ms);
  void AddExecute(const xdb::ExecStats& stats, size_t results,
                  double execute_ms);
  /// Cold-prepare remainder: the real prepare minus its replayed stages.
  void AddPrepareRemainder(double ms) { prepare_other_ms_.push_back(ms); }
  /// Plan-C remainder: the real execute minus its replayed stages.
  void AddExecuteRemainder(double ms) { execute_other_ms_.push_back(ms); }
  void AddMaterializeRows(double rows) { materialize_rows_.push_back(rows); }

  /// Writes the accumulated per-layer metrics into `report` (span-derived
  /// timings come from `tracer`).
  void Fill(const Tracer& tracer, Report* report) const;

 private:
  std::map<std::string, int64_t> rule_changed_;
  std::vector<double> prepare_cold_ms_;
  std::vector<double> prepare_hit_us_;
  std::vector<double> prepare_other_ms_;
  std::vector<double> execute_other_ms_;
  std::vector<double> materialize_rows_;
  std::map<xdb::ExecutionPath, std::vector<double>> execute_ms_;
  int64_t executes_ = 0;
  int64_t plan_a_ = 0;
  int64_t plan_a_indexed_ = 0;
  uint64_t results_ = 0;
  uint64_t ticks_ = 0;
  uint64_t join_build_ = 0;
  uint64_t join_probe_ = 0;
  uint64_t join_match_ = 0;
  double join_est_probe_ = 0;
  uint64_t structural_match_ = 0;
  uint64_t structural_est_ = 0;
  uint64_t par_tasks_ = 0;
  uint64_t partitions_ = 0;
  uint64_t threads_used_ = 0;
  uint64_t mem_peak_bytes_ = 0;
};

/// Plan-cache counters summed over several databases.
xdb::core::PlanCache::Stats SumCacheStats(
    const std::vector<xdb::XmlDb*>& dbs);
/// Hit ratio, evictions and invalidations between two snapshots.
void FillCacheDeltas(const xdb::core::PlanCache::Stats& before,
                     const xdb::core::PlanCache::Stats& after, Report* report);

/// ExecOptions of a traced execute: a tick budget far beyond any request so
/// the governor counts ticks and tracked memory without ever tripping.
xdb::ExecOptions WithCountingBudget(xdb::ExecOptions options);

}  // namespace xbench

#endif  // XBENCH_LAYERS_H_
