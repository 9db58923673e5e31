// ingest-query: document loads beside reads, on a durable database.
//
// A run is a number of cycles (set by --seconds); each cycle does the same
// bounded amount of work on a fresh database, so the data the reads touch
// grows by a fixed amount per cycle whatever the run length. In a cycle, a
// server::SessionManager owns an XmlDb opened durable in the run's work
// directory with wal::SyncMode::kAlways (one fsync per commit) and a fixed
// checkpoint threshold. Four shredded views hold a base dataset loaded in
// set-up. Each step loads one fixed-shape document into one view (in turn),
// opens a fresh session — the new epoch forces every read to re-prepare —
// and runs five reads of four kinds with one engine thread:
//   probe       indexed value probe (plan A over a B+tree), for two keys
//   group-join  correlated nested for-each (a lowered group join)
//   structural  `.//sec` sweep over a recursive structure (interval join)
//   plan-b      count(customer/order), which falls back to plan B
// Five reads rather than four keep the median request inside one kind's
// latencies instead of in the gap between two kinds.
// Every read prepares cold, so this workload also carries the compile
// layers (stylesheet compile, partial-evaluation trace, both rewrites, the
// optimizer); xsltmark-warm is its plan-cache-hit counterpart.
// A request is one read (prepare + execute). Every output is compared with
// what the benchmark's own generator says it must be, and every read must
// take the execution path it is there to measure. After each cycle's
// timed steps the database is dropped, reopened from its directory, and
// every acknowledged load must be present.
#include <filesystem>
#include <map>
#include <memory>

#include "layers.h"
#include "server/session.h"
#include "shred/mapping.h"
#include "xml/parser.h"

namespace xbench {
namespace {

using xdb::ExecOptions;
using xdb::ExecStats;
using xdb::ExecutionPath;
using xdb::XmlDb;
using xdb::schema::StructureBuilder;

constexpr int kBaseDocsPerView = 16;
/// Load + 5-read steps per cycle: each view grows by a quarter of this.
constexpr int kStepsPerCycle = 120;
/// SpeedProbe sensitivities of this workload's read time (fitted).
constexpr double kCpuSensitivity = 1.4;
constexpr double kStealSensitivity = 0;
/// Steps per timed window (three loads into each view).
constexpr int kStepsPerWindow = 12;
/// Cycles per --seconds (calibrated on the reference host).
constexpr double kCyclesPerSecond = 0.85;
/// Auto-checkpoint threshold: a cycle's loads cross it a few times.
constexpr uint64_t kCheckpointBytes = 256ull << 10;

constexpr int kProbeRows = 48;      // rows per probe document
constexpr int kShopCustomers = 6;   // customers per group-join document
constexpr int kShopOrders = 6;      // orders per customer
constexpr int kSecFanout = 2;       // structural: children per section
constexpr int kSecDepth = 3;        // levels of nested sections
constexpr int kSecTop = 4;          // top-level sections per document
constexpr int kTallyCustomers = 3;  // plan-B documents stay small

constexpr const char* kXslHead =
    "<xsl:stylesheet version=\"1.0\" "
    "xmlns:xsl=\"http://www.w3.org/1999/XSL/Transform\">";

// A seeded 7-character token: every seed generates the same number of bytes.
std::string Token(Rng* rng, char prefix) {
  return prefix + std::to_string(100000 + rng->Below(900000));
}

// A generated document, with the output each read of its view must return
// for it and the rows it adds per shredded element table.
struct GeneratedDoc {
  std::string text;
  std::map<std::string, std::string> expected;  ///< read key -> output row
  std::map<std::string, int64_t> rows;  ///< element name -> rows added
};

// One view: its structure and the generator of its documents. `keys` are
// the keys of the view's reads ("" for a view read once per step).
struct ViewDef {
  std::string name;
  xdb::shred::ShredOptions options;
  xdb::schema::StructuralInfo (*structure)();
  GeneratedDoc (*generate)(Rng* rng, const std::vector<std::string>& keys);
  std::vector<std::string> keys;
};

// One read of a step: a stylesheet over a view, and the test that the read
// ran on the execution path its kind is there to measure.
struct ReadDef {
  size_t view = 0;
  std::string key;
  std::string kind;
  std::string stylesheet;
  bool (*on_path)(const ExecStats& stats) = nullptr;
  const char* path_desc = "";
};

xdb::schema::StructuralInfo ProbeStructure() {
  StructureBuilder b;
  auto* table = b.Element("table");
  auto* row = b.AddChild(table, "row", 0, -1);
  for (const char* leaf : {"id", "name", "score"}) {
    b.AddText(b.AddChild(row, leaf));
  }
  return b.Build(table);
}

GeneratedDoc ProbeDoc(Rng* rng, const std::vector<std::string>& keys) {
  GeneratedDoc d;
  d.text = "<table>";
  for (int i = 1; i <= kProbeRows; ++i) {
    std::string name = Token(rng, 'n');
    d.text += "<row><id>" + std::to_string(i) + "</id><name>" + name +
              "</name><score>" + std::to_string(100 + rng->Below(900)) +
              "</score></row>";
    for (const std::string& key : keys) {
      if (std::to_string(i) == key) {
        d.expected[key] = "<out><hit>" + name + "</hit></out>";
      }
    }
  }
  d.text += "</table>";
  d.rows = {{"table", 1}, {"row", kProbeRows}};
  return d;
}

xdb::schema::StructuralInfo ShopStructure() {
  StructureBuilder b;
  auto* shop = b.Element("shop");
  auto* customer = b.AddChild(shop, "customer", 0, -1);
  b.AddText(b.AddChild(customer, "name"));
  auto* order = b.AddChild(customer, "order", 0, -1);
  b.AddText(b.AddChild(order, "item"));
  return b.Build(shop);
}

GeneratedDoc ShopDoc(Rng* rng, const std::vector<std::string>&) {
  GeneratedDoc d;
  d.text = "<shop>";
  std::string& expected = d.expected[""];
  expected = "<out>";
  for (int c = 0; c < kShopCustomers; ++c) {
    std::string name = Token(rng, 'c');
    d.text += "<customer><name>" + name + "</name>";
    expected += "<c>" + name;
    for (int o = 0; o < kShopOrders; ++o) {
      std::string item = Token(rng, 'i');
      d.text += "<order><item>" + item + "</item></order>";
      expected += "<o>" + item + "</o>";
    }
    d.text += "</customer>";
    expected += "</c>";
  }
  d.text += "</shop>";
  expected += "</out>";
  d.rows = {{"shop", 1},
            {"customer", kShopCustomers},
            {"order", kShopCustomers * kShopOrders}};
  return d;
}

GeneratedDoc TallyDoc(Rng* rng, const std::vector<std::string>&) {
  GeneratedDoc d;
  d.text = "<shop>";
  int orders = 0;
  // Customers hold 1..kTallyCustomers orders in a seeded rotation: the
  // content varies with the seed, the amount of data does not.
  const uint64_t rotation = rng->Below(kTallyCustomers);
  for (int c = 0; c < kTallyCustomers; ++c) {
    d.text += "<customer><name>" + Token(rng, 'c') + "</name>";
    const int n = 1 + static_cast<int>((c + rotation) % kTallyCustomers);
    for (int o = 0; o < n; ++o) {
      d.text += "<order><item>" + Token(rng, 'i') + "</item></order>";
    }
    orders += n;
    d.text += "</customer>";
  }
  d.text += "</shop>";
  d.expected[""] = "<n>" + std::to_string(orders) + "</n>";
  d.rows = {{"shop", 1}, {"customer", kTallyCustomers}, {"order", orders}};
  return d;
}

xdb::schema::StructuralInfo SectionStructure() {
  StructureBuilder b;
  auto* doc = b.Element("doc");
  auto* sec = b.AddChild(doc, "sec", 0, -1);
  b.AddText(b.AddChild(sec, "title"));
  b.AddRecursiveChild(sec, sec);
  return b.Build(doc);
}

void AppendSections(Rng* rng, int depth, GeneratedDoc* d, int64_t* count) {
  std::string title = Token(rng, 't');
  ++*count;
  d->text += "<sec><title>" + title + "</title>";
  d->expected[""] += "<s>" + title + "</s>";  // document order = pre-order
  if (depth + 1 < kSecDepth) {
    for (int i = 0; i < kSecFanout; ++i) {
      AppendSections(rng, depth + 1, d, count);
    }
  }
  d->text += "</sec>";
}

GeneratedDoc SectionDoc(Rng* rng, const std::vector<std::string>&) {
  GeneratedDoc d;
  d.text = "<doc>";
  d.expected[""] = "<toc>";
  int64_t count = 0;
  for (int i = 0; i < kSecTop; ++i) AppendSections(rng, 0, &d, &count);
  d.text += "</doc>";
  d.expected[""] += "</toc>";
  d.rows = {{"doc", 1}, {"sec", count}};
  return d;
}

bool IndexedPlanA(const ExecStats& s) {
  return s.path == ExecutionPath::kSqlRewritten && s.used_index;
}
bool GroupJoinPlanA(const ExecStats& s) {
  return s.path == ExecutionPath::kSqlRewritten && !s.joins.empty() &&
         s.join_probe_rows > 0;
}
bool StructuralPlanA(const ExecStats& s) {
  return s.path == ExecutionPath::kSqlRewritten && s.structural_match_rows > 0;
}
bool PlanB(const ExecStats& s) {
  return s.path == ExecutionPath::kXQueryRewritten;
}

std::vector<ViewDef> MakeViews(uint64_t seed) {
  Rng rng(seed ^ 0x1e57ull);
  // Two distinct probed ids.
  const uint64_t k1 = rng.Below(kProbeRows);
  const uint64_t k2 = (k1 + 1 + rng.Below(kProbeRows - 1)) % kProbeRows;
  std::vector<ViewDef> views(4);
  views[0].name = "probe";
  views[0].options.value_indexes = {"row/id"};
  views[0].structure = ProbeStructure;
  views[0].generate = ProbeDoc;
  views[0].keys = {std::to_string(1 + k1), std::to_string(1 + k2)};
  views[1].name = "shop";
  views[1].structure = ShopStructure;
  views[1].generate = ShopDoc;
  views[2].name = "sections";
  views[2].structure = SectionStructure;
  views[2].generate = SectionDoc;
  views[3].name = "tally";
  views[3].structure = ShopStructure;
  views[3].generate = TallyDoc;
  for (size_t v = 1; v < views.size(); ++v) views[v].keys = {""};
  return views;
}

std::vector<ReadDef> MakeReads(const std::vector<ViewDef>& views) {
  std::vector<ReadDef> reads;
  for (const std::string& key : views[0].keys) {
    reads.push_back(ReadDef{
        0, key, "probe",
        std::string(kXslHead) +
            "<xsl:template match=\"table\"><out><xsl:apply-templates "
            "select=\"row[id = " + key + "]\"/></out></xsl:template>"
            "<xsl:template match=\"row\"><hit><xsl:value-of select=\"name\"/>"
            "</hit></xsl:template><xsl:template match=\"text()\"/>"
            "</xsl:stylesheet>",
        IndexedPlanA, "plan A with used_index"});
  }
  reads.push_back(ReadDef{
      1, "", "group-join",
      std::string(kXslHead) +
          "<xsl:template match=\"shop\"><out><xsl:for-each "
          "select=\"customer\"><c><xsl:value-of select=\"name\"/>"
          "<xsl:for-each select=\"order\"><o><xsl:value-of select=\"item\"/>"
          "</o></xsl:for-each></c></xsl:for-each></out></xsl:template>"
          "<xsl:template match=\"text()\"/></xsl:stylesheet>",
      GroupJoinPlanA, "plan A with a group join"});
  reads.push_back(ReadDef{
      2, "", "structural",
      std::string(kXslHead) +
          "<xsl:template match=\"doc\"><toc><xsl:apply-templates "
          "select=\".//sec\"/></toc></xsl:template>"
          "<xsl:template match=\"sec\"><s><xsl:value-of select=\"title\"/>"
          "</s></xsl:template><xsl:template match=\"text()\"/>"
          "</xsl:stylesheet>",
      StructuralPlanA, "plan A with a structural join"});
  reads.push_back(ReadDef{
      3, "", "plan-b",
      std::string(kXslHead) +
          "<xsl:template match=\"shop\"><n><xsl:value-of "
          "select=\"count(customer/order)\"/></n></xsl:template>"
          "</xsl:stylesheet>",
      PlanB, "plan B"});
  return reads;
}

// What the benchmark tracks per view: per read key, the expected output
// row of each loaded document (in load order); expected rows per element
// table.
struct Expected {
  std::map<std::string, std::vector<std::string>> outputs;
  std::map<std::string, int64_t> rows;
};

void Track(const GeneratedDoc& doc, Expected* e) {
  for (const auto& [key, out] : doc.expected) e->outputs[key].push_back(out);
  for (const auto& [elem, n] : doc.rows) e->rows[elem] += n;
}

struct Database {
  std::unique_ptr<XmlDb> db;
  std::unique_ptr<xdb::server::SessionManager> mgr;
  std::vector<Expected> expected;

  void Close() {
    mgr.reset();
    db.reset();
  }
};

xdb::server::SessionManager::Options SessionOptions() {
  xdb::server::SessionManager::Options o;
  o.max_sessions = 64;
  o.max_concurrent = 1;
  o.admission_queue = 64;
  return o;
}

ExecOptions ReadOptions() {
  ExecOptions o;
  o.threads = 1;
  o.parallel = false;
  return o;
}

// Compares one read's rows with the generator's expectation: byte-equal,
// or equal after canonicalization.
bool CheckRead(const std::vector<std::string>& rows,
               const std::vector<std::string>& expected, std::string* why) {
  if (rows == expected) return true;
  auto got = CanonicalRows(rows);
  auto want = CanonicalRows(expected);
  if (got.ok() && want.ok() && *got == *want) return true;
  *why = "read returned " + std::to_string(rows.size()) + " rows, expected " +
         std::to_string(expected.size()) +
         (rows.empty() ? std::string()
                       : "; first row: " + rows[0].substr(0, 200));
  return false;
}

// Table row counts of every shredded table against the tracked counts.
bool CheckRowCounts(XmlDb* db, const std::vector<ViewDef>& views,
                    const std::vector<Expected>& expected, std::string* why) {
  for (size_t v = 0; v < views.size(); ++v) {
    const xdb::shred::ShredMapping* mapping =
        db->shredded_mapping(views[v].name);
    if (mapping == nullptr) {
      *why = views[v].name + ": view missing";
      return false;
    }
    for (const auto& t : mapping->tables()) {
      auto table = db->catalog()->GetTable(t->name);
      auto it = expected[v].rows.find(t->elem->name);
      const int64_t want = it == expected[v].rows.end() ? 0 : it->second;
      const int64_t got =
          table.ok() ? static_cast<int64_t>((*table)->row_count()) : -1;
      if (got != want) {
        *why = t->name + ": " + std::to_string(got) + " rows, expected " +
               std::to_string(want);
        return false;
      }
    }
  }
  return true;
}

xdb::Status OpenDatabase(const std::string& dir, Database* d) {
  xdb::wal::DurabilityOptions durability;
  durability.data_dir = dir;
  durability.sync = xdb::wal::SyncMode::kAlways;
  durability.checkpoint_bytes = kCheckpointBytes;
  d->db = std::make_unique<XmlDb>();
  XDB_RETURN_NOT_OK(d->db->OpenDurable(durability));
  d->mgr = std::make_unique<xdb::server::SessionManager>(d->db.get(),
                                                         SessionOptions());
  return xdb::Status::OK();
}

// Timings of one session's reads: (read index, ms) per successful read.
struct ReadTiming {
  double begin_us = 0;
  std::vector<std::pair<size_t, double>> reads;
};

}  // namespace

Report RunIngestQuery(const RunConfig& cfg, Tracer* tracer) {
  Report report;
  const std::vector<ViewDef> views = MakeViews(cfg.seed);
  const std::vector<ReadDef> reads = MakeReads(views);
  const ExecOptions options = ReadOptions();
  const ExecOptions exec_options =
      tracer != nullptr ? WithCountingBudget(options) : options;
  uint64_t admission_queued = 0;

  // One fresh session, the five reads; fills `timing`, checks every output
  // and path, and counts failures in `report`.
  auto run_reads = [&](Database* d, LayerAccumulator* acc, ReadTiming* timing) {
    int64_t b0 = NowNs();
    auto session = d->mgr->Begin();
    timing->begin_us = (NowNs() - b0) / 1e3;
    ++report.attempted;
    if (!session.ok()) {
      report.Fail("begin: " + session.status().ToString());
      return;
    }
    for (size_t r = 0; r < reads.size(); ++r) {
      const ReadDef& read = reads[r];
      const std::string& view = views[read.view].name;
      ++report.attempted;
      if (tracer != nullptr) tracer->NextRequest();
      ScopedSpan request(tracer, "request");
      ExecStats pstats, estats;
      const int64_t t0 = NowNs();
      auto handle = (*session)->PrepareTransform(view, read.stylesheet,
                                                 options, &pstats);
      const int64_t t1 = NowNs();
      if (!handle.ok()) {
        report.Fail(read.kind + ": " + handle.status().ToString());
        continue;
      }
      auto rows = (*session)->Execute(*handle, exec_options, &estats);
      const int64_t t2 = NowNs();
      if (!rows.ok()) {
        report.Fail(read.kind + ": " + rows.status().ToString());
        continue;
      }
      timing->reads.emplace_back(r, (t2 - t0) / 1e6);
      std::string why;
      if (!CheckRead(*rows, d->expected[read.view].outputs[read.key], &why)) {
        report.Fail(read.kind + ": " + why);
      }
      if (!read.on_path(estats)) {
        report.Fail(read.kind + ": ran on " +
                    xdb::ExecutionPathName(estats.path) +
                    (estats.used_index ? " (index)" : "") + ", expected " +
                    read.path_desc);
      }
      ++report.checked;
      if (acc != nullptr) {
        const double prepare_ms = (t1 - t0) / 1e6;
        acc->AddPrepare(pstats, prepare_ms);
        acc->AddExecute(estats, rows->size(), (t2 - t1) / 1e6);
        if (!pstats.cache_hit) {
          // Every read after a publish prepares cold: replay its stages.
          const double staged = ReplayPrepareStages(
              d->db.get(), view, read.stylesheet, options, tracer);
          acc->AddPrepareRemainder(prepare_ms - staged);
        }
        admission_queued = std::max(admission_queued,
                                    estats.admission_queue_depth);
      }
    }
  };

  LayerAccumulator acc;
  Rng doc_rng(cfg.seed);
  std::vector<double> begin_us, first_read_ms, load_ms, shred_ms, insert_ms,
      recovery_ms;
  double input_bytes = 0, load_rows = 0, wal_bytes = 0, wal_fsyncs = 0,
         wal_commits = 0, wal_commit_us = 0;
  size_t live_epochs_max = 0;
  xdb::core::PlanCache::Stats cache_delta;
  const int64_t cycles = WorkUnits(cfg, kCyclesPerSecond);
  SpeedProbe probe(kCpuSensitivity, kStealSensitivity);
  const int64_t run_start = NowNs();
  for (int64_t cycle = 0; cycle < cycles; ++cycle) {
    if ((NowNs() - run_start) / 1e9 > PhaseDeadlineS(cfg)) break;
    // The benchmark's own inputs for this cycle (outside set-up).
    std::vector<std::vector<GeneratedDoc>> base(views.size());
    for (size_t v = 0; v < views.size(); ++v) {
      for (int i = 0; i < kBaseDocsPerView; ++i) {
        base[v].push_back(views[v].generate(&doc_rng, views[v].keys));
      }
    }
    std::vector<GeneratedDoc> step_docs;
    for (int s = 0; s < kStepsPerCycle; ++s) {
      const ViewDef& v = views[static_cast<size_t>(s) % views.size()];
      step_docs.push_back(v.generate(&doc_rng, v.keys));
    }
    const std::string dir = cfg.work_dir + "/ingest-" +
                            std::to_string(cfg.seed) +
                            (tracer != nullptr ? "-traced-" : "-") +
                            std::to_string(cycle);
    std::filesystem::remove_all(dir);

    // ---- set-up: open, register, base load, one warm-up round of reads ----
    Database db;
    db.expected.assign(views.size(), Expected{});
    const size_t setup_probe = probe.Probe();
    const int64_t t0 = NowNs();
    xdb::Status st = OpenDatabase(dir, &db);
    for (size_t v = 0; st.ok() && v < views.size(); ++v) {
      st = db.mgr->Apply([&] {
        return db.db->RegisterShreddedSchema(views[v].name,
                                             views[v].structure(),
                                             views[v].options);
      });
    }
    for (size_t v = 0; st.ok() && v < views.size(); ++v) {
      for (const GeneratedDoc& doc : base[v]) {
        st = db.mgr->LoadDocument(views[v].name, doc.text).status();
        if (!st.ok()) break;
        Track(doc, &db.expected[v]);
      }
    }
    ReadTiming warm;
    if (st.ok()) run_reads(&db, nullptr, &warm);
    const double setup_raw_s = (NowNs() - t0) / 1e9;
    size_t window_probe = probe.Probe();
    report.AddSetup(setup_probe, window_probe, setup_raw_s);
    if (!st.ok()) {
      ++report.attempted;
      report.Fail("set-up: " + st.ToString());
      break;
    }

    // ---- timed steps -------------------------------------------------------
    const xdb::wal::WalMetrics wal_before = db.db->wal_metrics();
    const auto cache_before = SumCacheStats({db.db.get()});
    const double cpu0 = ProcessCpuSeconds();
    const int64_t start = NowNs();
    int64_t window_start = start;
    std::vector<std::pair<std::string, double>> timed;
    for (int s = 0; s < kStepsPerCycle; ++s) {
      if (s % kStepsPerWindow == 0 && s > 0) {
        const double window_s = (NowNs() - window_start) / 1e9;
        const size_t p = probe.Probe();
        report.AddWindow(window_probe, p, window_s, std::move(timed));
        timed.clear();
        window_probe = p;
        window_start = NowNs();
      }
      const size_t v = static_cast<size_t>(s) % views.size();
      const GeneratedDoc& doc = step_docs[static_cast<size_t>(s)];
      ++report.attempted;
      xdb::Result<xdb::shred::LoadStats> loaded = xdb::shred::LoadStats{};
      const int64_t l0 = NowNs();
      if (tracer == nullptr) {
        loaded = db.mgr->LoadDocument(views[v].name, doc.text);
      } else {
        // Parse and load as separate calls, each under its own span.
        tracer->NextRequest();
        ScopedSpan parse_span(tracer, "xml.parse");
        auto parsed = xdb::xml::ParseDocument(doc.text);
        parse_span.Close();
        if (!parsed.ok()) {
          loaded = parsed.status();
        } else {
          ScopedSpan load_span(tracer, "shred.load");
          xdb::Status applied = db.mgr->Apply([&] {
            loaded =
                db.db->LoadParsedDocument(views[v].name, (*parsed)->root());
            return loaded.status();
          });
          if (loaded.ok() && !applied.ok()) loaded = applied;
        }
      }
      load_ms.push_back((NowNs() - l0) / 1e6);
      if (!loaded.ok()) {
        report.Fail("load " + views[v].name + ": " +
                    loaded.status().ToString());
        continue;
      }
      Track(doc, &db.expected[v]);
      input_bytes += static_cast<double>(doc.text.size());
      load_rows += static_cast<double>(loaded->rows);
      shred_ms.push_back(loaded->shred_ns / 1e6);
      insert_ms.push_back(loaded->insert_ns / 1e6);

      ReadTiming timing;
      run_reads(&db, tracer != nullptr ? &acc : nullptr, &timing);
      live_epochs_max = std::max(live_epochs_max, db.mgr->live_epochs());
      begin_us.push_back(timing.begin_us);
      if (!timing.reads.empty()) {
        first_read_ms.push_back(timing.reads[0].second);
      }
      for (const auto& [r, ms] : timing.reads) {
        timed.emplace_back(reads[r].kind, ms);
      }
      if (tracer != nullptr && v == 3) {
        // The plan-B read materializes the publishing value of every base
        // row; replay that stage on its own.
        std::vector<std::string> values;
        ReplayMaterialize(db.db.get(), views[v].name, tracer, &values);
        acc.AddMaterializeRows(static_cast<double>(values.size()));
      }
    }
    const double window_s = (NowNs() - window_start) / 1e9;
    report.AddWindow(window_probe, probe.Probe(), window_s, std::move(timed));
    report.wall_s += (NowNs() - start) / 1e9;
    report.cpu_s += ProcessCpuSeconds() - cpu0;
    const xdb::wal::WalMetrics wal_after = db.db->wal_metrics();
    wal_bytes +=
        static_cast<double>(wal_after.wal_bytes - wal_before.wal_bytes);
    wal_fsyncs += static_cast<double>(wal_after.fsyncs - wal_before.fsyncs);
    wal_commits += static_cast<double>(wal_after.commits - wal_before.commits);
    wal_commit_us += static_cast<double>(wal_after.commit_latency_us -
                                         wal_before.commit_latency_us);
    const auto cache_after = SumCacheStats({db.db.get()});
    cache_delta.hits += cache_after.hits - cache_before.hits;
    cache_delta.misses += cache_after.misses - cache_before.misses;
    cache_delta.evictions += cache_after.evictions - cache_before.evictions;
    cache_delta.invalidations +=
        cache_after.invalidations - cache_before.invalidations;

    // ---- durability: every acknowledged load survives a reopen -------------
    ++report.attempted;
    std::string why;
    if (!CheckRowCounts(db.db.get(), views, db.expected, &why)) {
      report.Fail("before reopen: " + why);
    }
    std::vector<Expected> tracked = std::move(db.expected);
    db.Close();
    Database reopened;
    const int64_t r0 = NowNs();
    st = OpenDatabase(dir, &reopened);
    recovery_ms.push_back((NowNs() - r0) / 1e6);
    ++report.attempted;
    if (!st.ok()) {
      report.Fail("reopen: " + st.ToString());
    } else if (!CheckRowCounts(reopened.db.get(), views, tracked, &why)) {
      report.Fail("after reopen: " + why);
    }
    reopened.Close();
    std::filesystem::remove_all(dir);
  }

  report.Scale(probe);
  if (tracer == nullptr) {
    report.WriteWindowsTsv(cfg.work_dir + "/windows-" + cfg.workload + "-" +
                               std::to_string(cfg.seed) + ".tsv",
                           probe);
  }
  FillCacheDeltas(xdb::core::PlanCache::Stats{}, cache_delta, &report);
  const double mb = input_bytes / (1024.0 * 1024.0);
  const double total_load_s = Sum(load_ms) / 1e3;
  report.SetLayer("ingest_mb_per_s", total_load_s > 0 ? mb / total_load_s : 0);
  if (tracer == nullptr) return report;

  acc.Fill(*tracer, &report);
  const double parse_s = Sum(tracer->Durations("xml.parse")) / 1e3;
  report.SetLayer("xml.parse_mb_per_s", parse_s > 0 ? mb / parse_s : 0);
  report.SetLayer("shred.load_ms_per_mb",
                  mb > 0 ? Sum(tracer->Durations("shred.load")) / mb : 0);
  report.SetLayer("shred.shred_ms", Median(shred_ms));
  report.SetLayer("shred.insert_ms", Median(insert_ms));
  report.SetLayer("shred.rows_per_mb", mb > 0 ? load_rows / mb : 0);
  report.SetLayer("wal.commit_us",
                  wal_commits > 0 ? wal_commit_us / wal_commits : 0);
  report.SetLayer("wal.bytes_per_input_byte",
                  input_bytes > 0 ? wal_bytes / input_bytes : 0);
  report.SetLayer("wal.fsyncs_per_commit",
                  wal_commits > 0 ? wal_fsyncs / wal_commits : 0);
  report.SetLayer("wal.recovery_ms", Median(recovery_ms));
  report.SetLayer("server.begin_us", Median(begin_us));
  report.SetLayer("server.first_exec_after_publish_ms", Median(first_read_ms));
  report.SetLayer("server.live_epochs_max",
                  static_cast<double>(live_epochs_max));
  report.SetLayer("server.admission_queued",
                  static_cast<double>(admission_queued));
  return report;
}

}  // namespace xbench
