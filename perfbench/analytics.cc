// analytics: one connection running a fixed rotation of read-only
// queries over a star schema (fact 400k rows; dimensions of 100, 1k and
// 10k rows) with intra-query parallelism at half the host's cores and a
// simulated host memory small enough that the fact table stays several
// times larger than the buffer pool. Every answer is checked against one
// computed here, in plain C++, from the generated rows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "obs/metric_names.h"
#include "os/stable_storage.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hdb::engine::Database;

constexpr int64_t kFactRows = 400'000;
constexpr int kDim1 = 100, kDim2 = 1'000, kDim3 = 10'000;
constexpr int kRegions = 10, kCategories = 50, kSegments = 20;
constexpr uint64_t kHostMemoryBytes = 12ull << 20;
// Where the pool governor settles on this host memory (about 7 MB). From
// the 1,024 frames it would start at by default, its first poll (10 s
// into a window) grows the pool, and a window would mix two regimes.
constexpr size_t kInitialPoolFrames = 1792;
constexpr int kSetups = 3;
constexpr int kProbeOps = 1000;  // per probe class
constexpr int64_t kRangeKeys = 100;

struct Data {
  explicit Data(uint64_t seed);
  std::vector<int32_t> d1, d2, d3, qty;
  std::vector<double> price;
  std::vector<int32_t> region, category, segment;  // dimension attributes
  std::vector<int32_t> note;  // model of fact.note, changed by the probes
};

Data::Data(uint64_t seed) {
  hdb::Rng rng(seed * 0x2545f4914f6cdd1dull + 3);
  d1.resize(kFactRows);
  d2.resize(kFactRows);
  d3.resize(kFactRows);
  qty.resize(kFactRows);
  price.resize(kFactRows);
  note.assign(kFactRows, 0);
  for (int64_t i = 0; i < kFactRows; ++i) {
    d1[i] = static_cast<int32_t>(rng.Uniform(kDim1));
    d2[i] = static_cast<int32_t>(rng.Uniform(kDim2));
    d3[i] = static_cast<int32_t>(rng.Uniform(kDim3));
    qty[i] = 1 + static_cast<int32_t>(rng.Uniform(50));
    price[i] = static_cast<double>(100 + rng.Uniform(100'000)) / 100.0;
  }
  for (int i = 0; i < kDim1; ++i) region.push_back(static_cast<int32_t>(rng.Uniform(kRegions)));
  for (int i = 0; i < kDim2; ++i) category.push_back(static_cast<int32_t>(rng.Uniform(kCategories)));
  for (int i = 0; i < kDim3; ++i) segment.push_back(static_cast<int32_t>(rng.Uniform(kSegments)));
}

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

hdb::engine::DatabaseOptions Options(
    std::shared_ptr<hdb::os::StableStorage> media, bool capture) {
  hdb::engine::DatabaseOptions o;
  o.media = std::move(media);
  o.physical_memory_bytes = kHostMemoryBytes;
  o.initial_pool_frames = kInitialPoolFrames;
  // Half the host's cores: each parallel query waits for its slowest
  // worker, and on a shared 4-vCPU host a crew as wide as the machine
  // measured the host's other tenants (with 4 workers, ten-run sets read
  // join and sort medians with quartile spreads of 0.18-0.41).
  o.parallel.max_workers = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency() / 2));
  // The parallel governor grants a statement no more workers than the
  // MPL has idle slots. At 3-4 queries/s the MPL controller hill-climbs on
  // one or two completions per interval and walks down to its default
  // floor of 2 at random, so with 4 workers a run got 4 to 5.3 workers
  // per query and its joins took 410 to 650 ms. A floor of max_workers + 1 keeps the
  // configured parallelism; the controller still adapts above it.
  o.mpl_controller.min_mpl = o.parallel.max_workers + 1;
  if (capture) o.statement_registry = CaptureAllStatements();
  return o;
}

struct Instance {
  std::shared_ptr<hdb::os::StableStorage> media;
  std::unique_ptr<Database> db;
  std::unique_ptr<hdb::engine::Connection> conn;
};

std::vector<hdb::table::Row> FactRows(const Data& d) {
  std::vector<hdb::table::Row> rows;
  rows.reserve(kFactRows);
  for (int64_t i = 0; i < kFactRows; ++i) {
    rows.push_back({Value::Int(static_cast<int32_t>(i)), Value::Int(d.d1[i]),
                    Value::Int(d.d2[i]), Value::Int(d.d3[i]),
                    Value::Int(d.qty[i]), Value::Double(d.price[i]),
                    Value::Int(d.note[i])});
  }
  return rows;
}

Instance Setup(const Data& d, bool capture) {
  Instance in;
  in.media = std::make_shared<hdb::os::StableStorage>(
      hdb::engine::DatabaseOptions{}.page_bytes);
  in.db = Must(Database::Open(Options(in.media, capture)), "open");
  in.conn = Must(in.db->Connect(), "connect");
  for (const char* ddl :
       {"CREATE TABLE fact (id INT NOT NULL, d1 INT NOT NULL, d2 INT NOT "
        "NULL, d3 INT NOT NULL, qty INT NOT NULL, price DOUBLE NOT NULL, "
        "note INT NOT NULL)",
        "CREATE INDEX fact_id ON fact (id)",
        "CREATE TABLE dim1 (id INT NOT NULL, region INT NOT NULL, name "
        "VARCHAR(16))",
        "CREATE TABLE dim2 (id INT NOT NULL, category INT NOT NULL, name "
        "VARCHAR(16))",
        "CREATE TABLE dim3 (id INT NOT NULL, segment INT NOT NULL, name "
        "VARCHAR(16))"}) {
    Must(in.conn->Execute(ddl), ddl);
  }
  Must(in.db->LoadTable("fact", FactRows(d)), "load fact");
  auto dim = [&](const char* table, const std::vector<int32_t>& attr) {
    std::vector<hdb::table::Row> rows;
    for (size_t i = 0; i < attr.size(); ++i) {
      rows.push_back({Value::Int(static_cast<int32_t>(i)), Value::Int(attr[i]),
                      Value::String(std::string(table) + "_" +
                                    std::to_string(i))});
    }
    Must(in.db->LoadTable(table, rows), std::string("load ") + table);
  };
  dim("dim1", d.region);
  dim("dim2", d.category);
  dim("dim3", d.segment);
  return in;
}

/// One round of the rotation: per-class times of this round, ms.
struct RoundTimes {
  double scan = 0, join = 0, aggregate = 0, sort = 0;
};

class Rotation {
 public:
  Rotation(Instance* in, const Data* d, uint64_t seed, Outcome* outcome,
           SpanTally* tally)
      : in_(in), d_(d), rng_(seed * 977 + 13), outcome_(outcome),
        tally_(tally), ticker_(in->db.get()) {}

  RoundTimes Round();
  uint64_t queries() const { return queries_; }

 private:
  Rows Timed(double* ms, const std::string& sql);
  void Scan(RoundTimes* t);
  void Join2(RoundTimes* t);
  void Join3(RoundTimes* t);
  void GroupBy(RoundTimes* t);
  void Distinct(RoundTimes* t);
  void Sort(RoundTimes* t);

  Instance* in_;
  const Data* d_;
  hdb::Rng rng_;
  Outcome* outcome_;
  SpanTally* tally_;
  Ticker ticker_;
  uint64_t queries_ = 0;
};

Rows Rotation::Timed(double* ms, const std::string& sql) {
  const Clock::time_point t0 = Clock::now();
  auto r = in_->conn->Execute(sql);
  *ms += MicrosSince(t0) / 1000.0;
  ++queries_;
  ticker_.Tick();
  if (tally_ != nullptr) tally_->Drain(in_->db->statement_registry());
  if (!r.ok()) {
    outcome_->Check(false, sql + ": " + r.status().ToString());
    return {};
  }
  return std::move(r->rows);
}

RoundTimes Rotation::Round() {
  RoundTimes t;
  Scan(&t);
  Join2(&t);
  Join3(&t);
  GroupBy(&t);
  Distinct(&t);
  Sort(&t);
  return t;
}

void Rotation::Scan(RoundTimes* t) {
  // Parameters move each query's window, never its width, so every seed
  // and round does the same amount of work.
  const int lo = 1 + static_cast<int>(rng_.Uniform(31));
  const int hi = lo + 19;
  const int dlo = static_cast<int>(rng_.Uniform(kDim2 / 2));
  const int dhi = dlo + kDim2 / 2 - 1;
  const Rows r = Timed(
      &t->scan, "SELECT COUNT(*), SUM(qty), SUM(price) FROM fact WHERE qty "
                "BETWEEN " + std::to_string(lo) + " AND " + std::to_string(hi) +
                    " AND d2 BETWEEN " + std::to_string(dlo) + " AND " +
                    std::to_string(dhi));
  int64_t count = 0, qty = 0;
  double price = 0;
  for (int64_t i = 0; i < kFactRows; ++i) {
    if (d_->qty[i] >= lo && d_->qty[i] <= hi && d_->d2[i] >= dlo &&
        d_->d2[i] <= dhi) {
      ++count;
      qty += d_->qty[i];
      price += d_->price[i];
    }
  }
  outcome_->Check(r.size() == 1 && r[0][0].AsInt() == count &&
                      r[0][1].AsInt() == qty && Near(r[0][2].AsDouble(), price),
                  "scan count/sums");
}

void Rotation::Join2(RoundTimes* t) {
  const int rlo = static_cast<int>(rng_.Uniform(kRegions / 2 + 1));
  const int rhi = rlo + kRegions / 2 - 1;
  const Rows r = Timed(
      &t->join, "SELECT dim1.region, COUNT(*), SUM(fact.qty) FROM fact, dim1 "
                "WHERE fact.d1 = dim1.id AND dim1.region BETWEEN " +
                    std::to_string(rlo) + " AND " + std::to_string(rhi) +
                    " GROUP BY dim1.region");
  std::map<int64_t, std::pair<int64_t, int64_t>> want;
  for (int64_t i = 0; i < kFactRows; ++i) {
    const int region = d_->region[d_->d1[i]];
    if (region >= rlo && region <= rhi) {
      auto& g = want[region];
      ++g.first;
      g.second += d_->qty[i];
    }
  }
  bool ok = r.size() == want.size();
  for (const auto& row : r) {
    const auto it = want.find(row[0].AsInt());
    ok = ok && it != want.end() && row[1].AsInt() == it->second.first &&
         row[2].AsInt() == it->second.second;
  }
  outcome_->Check(ok, "2-way join groups");
}

void Rotation::Join3(RoundTimes* t) {
  const int seg = static_cast<int>(rng_.Uniform(kSegments));
  const Rows r = Timed(
      &t->join,
      "SELECT dim2.category, COUNT(*), SUM(fact.price) FROM fact, dim2, dim3 "
      "WHERE fact.d2 = dim2.id AND fact.d3 = dim3.id AND dim3.segment = " +
          std::to_string(seg) + " GROUP BY dim2.category");
  std::map<int64_t, std::pair<int64_t, double>> want;
  for (int64_t i = 0; i < kFactRows; ++i) {
    if (d_->segment[d_->d3[i]] == seg) {
      auto& g = want[d_->category[d_->d2[i]]];
      ++g.first;
      g.second += d_->price[i];
    }
  }
  bool ok = r.size() == want.size();
  for (const auto& row : r) {
    const auto it = want.find(row[0].AsInt());
    ok = ok && it != want.end() && row[1].AsInt() == it->second.first &&
         Near(row[2].AsDouble(), it->second.second);
  }
  outcome_->Check(ok, "3-way join groups");
}

void Rotation::GroupBy(RoundTimes* t) {
  const int qlo = 1 + static_cast<int>(rng_.Uniform(26));
  const int qhi = qlo + 24;
  const Rows r = Timed(&t->aggregate,
                       "SELECT d3, COUNT(*), SUM(qty) FROM fact WHERE qty "
                       "BETWEEN " + std::to_string(qlo) + " AND " +
                           std::to_string(qhi) + " GROUP BY d3");
  std::vector<std::pair<int64_t, int64_t>> want(kDim3, {0, 0});
  size_t groups = 0;
  for (int64_t i = 0; i < kFactRows; ++i) {
    if (d_->qty[i] >= qlo && d_->qty[i] <= qhi) {
      auto& g = want[d_->d3[i]];
      groups += g.first == 0 ? 1 : 0;
      ++g.first;
      g.second += d_->qty[i];
    }
  }
  bool ok = r.size() == groups;
  for (const auto& row : r) {
    const int64_t key = row[0].AsInt();
    ok = ok && key >= 0 && key < kDim3 && want[key].first == row[1].AsInt() &&
         want[key].second == row[2].AsInt();
  }
  outcome_->Check(ok, "high-cardinality group-by");
}

void Rotation::Distinct(RoundTimes* t) {
  const int dlo = static_cast<int>(rng_.Uniform(kDim3 - 1000));
  const int dhi = dlo + 999;
  const Rows r = Timed(&t->aggregate, "SELECT DISTINCT d2, d1 FROM fact WHERE "
                                      "d3 BETWEEN " + std::to_string(dlo) +
                                          " AND " + std::to_string(dhi));
  std::set<std::pair<int64_t, int64_t>> want;
  for (int64_t i = 0; i < kFactRows; ++i) {
    if (d_->d3[i] >= dlo && d_->d3[i] <= dhi) {
      want.emplace(d_->d2[i], d_->d1[i]);
    }
  }
  std::set<std::pair<int64_t, int64_t>> got;
  for (const auto& row : r) got.emplace(row[0].AsInt(), row[1].AsInt());
  outcome_->Check(r.size() == want.size() && got == want, "DISTINCT set");
}

void Rotation::Sort(RoundTimes* t) {
  const int dim = static_cast<int>(rng_.Uniform(kDim1));
  const Rows r = Timed(&t->sort, "SELECT id, price FROM fact WHERE d1 = " +
                                     std::to_string(dim) +
                                     " ORDER BY price DESC, id LIMIT 20");
  std::vector<std::pair<double, int64_t>> want;  // (-price, id)
  for (int64_t i = 0; i < kFactRows; ++i) {
    if (d_->d1[i] == dim) want.emplace_back(-d_->price[i], i);
  }
  const size_t n = std::min<size_t>(20, want.size());
  std::partial_sort(want.begin(), want.begin() + n, want.end());
  bool ok = r.size() == n;
  for (size_t i = 0; ok && i < n; ++i) {
    ok = r[i][0].AsInt() == want[i].second &&
         r[i][1].AsDouble() == -want[i].first;
  }
  outcome_->Check(ok, "ORDER BY ... LIMIT top-20");
}

struct Window {
  std::vector<RoundTimes> rounds;
  // Queries per second of each round; the median is throughput, so a
  // stall of the host costs one round and not the window's rate.
  std::vector<double> round_rates;
  uint64_t queries = 0;
  double seconds = 0;
};

/// Whole rounds until `seconds` have passed.
Window RunWindow(Instance& in, const Data& d, uint64_t seed, double seconds,
                 SpanTally* tally, Outcome* outcome) {
  Rotation rotation(&in, &d, seed, outcome, tally);
  Window w;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    const uint64_t before = rotation.queries();
    w.rounds.push_back(rotation.Round());
    w.round_rates.push_back((rotation.queries() - before) / SecondsSince(t0));
  } while (SecondsSince(start) < seconds);
  w.seconds = SecondsSince(start);
  w.queries = rotation.queries();
  return w;
}

/// Probe leg: the point, range and write classes the rotation lacks, on
/// the fact table's indexed id.
struct Probes {
  Samples reads, writes, ranges;
};

Probes RunProbes(Instance& in, Data& d, uint64_t seed, SpanTally* tally,
                 Outcome* outcome) {
  Probes p;
  hdb::Rng rng(seed * 131 + 7);
  Ticker ticker(in.db.get());
  auto exec = [&](Samples* into, const std::string& sql) {
    const Clock::time_point t0 = Clock::now();
    auto r = in.conn->Execute(sql);
    into->Add(MicrosSince(t0));
    return r;
  };
  const int64_t stride = (kFactRows - kRangeKeys) / kProbeOps;
  for (int i = 0; i < kProbeOps; ++i) {
    const int64_t k = static_cast<int64_t>(SkewedRank(rng, kFactRows));
    auto r = exec(&p.reads, "SELECT qty, note FROM fact WHERE id = " +
                                std::to_string(k));
    outcome->Check(r.ok() && r->rows.size() == 1 &&
                       r->rows[0][0].AsInt() == d.qty[k] &&
                       r->rows[0][1].AsInt() == d.note[k],
                   "probe point read id=" + std::to_string(k));
    const int64_t w = static_cast<int64_t>(SkewedRank(rng, kFactRows));
    auto u = exec(&p.writes, "UPDATE fact SET note = note + 1 WHERE id = " +
                                 std::to_string(w));
    if (outcome->Check(u.ok() && u->rows_affected == 1,
                       "probe update id=" + std::to_string(w))) {
      ++d.note[w];
    }
    const int64_t lo = i * stride + static_cast<int64_t>(rng.Uniform(stride));
    auto g = exec(&p.ranges, "SELECT id, qty FROM fact WHERE id BETWEEN " +
                                 std::to_string(lo) + " AND " +
                                 std::to_string(lo + kRangeKeys - 1));
    outcome->Check(g.ok() && g->rows.size() == kRangeKeys,
                   "probe range [" + std::to_string(lo) + ", +100)");
    if (i % 64 == 0) {
      ticker.Tick();
      if (tally != nullptr) tally->Drain(in.db->statement_registry());
    }
  }
  if (tally != nullptr) tally->Drain(in.db->statement_registry());
  return p;
}

struct Run {
  Window window;
  Probes probes;
  Counters before, after;
  SpanTally tally;
  LayerTimes layers;
  double estimate_ratio = 0;
  double log_mb = 0;
  double restart_s = 0;
  double redo_records = 0;
};

void RunInstance(Instance& in, Data& d, const Args& args, double seconds,
                 bool traced, bool full, Outcome* outcome, Run* run) {
  SpanTally* tally = traced ? &run->tally : nullptr;
  if (tally != nullptr) tally->MarkSeen(in.db->statement_registry());
  run->before = Snapshot(*in.db);
  run->window = RunWindow(in, d, args.seed, seconds, tally, outcome);
  run->after = Snapshot(*in.db);
  std::fprintf(stderr,
               "perfbench: window %.1f s, %zu rounds, pool %.0f frames, %.2f "
               "workers per query, mpl %.0f (%.0f changes)\n",
               run->window.seconds, run->window.rounds.size(),
               Level(run->after, hdb::obs::kPoolCurrentFrames),
               Delta(run->before, run->after,
                     hdb::obs::kExecParallelWorkersStarted) /
                   static_cast<double>(run->window.queries),
               Level(run->after, hdb::obs::kMplCurrent),
               Delta(run->before, run->after, hdb::obs::kMplChanges));
  if (!full) return;
  run->probes = RunProbes(in, d, args.seed, tally, outcome);
  if (traced) {
    std::vector<hdb::table::Row> sample = FactRows(d);
    sample.resize(2000);
    hdb::Rng rng(args.seed + 99);
    run->layers = TimeLayers(*in.db, "fact", "fact_id", sample, kFactRows, rng);
    const int64_t lo = kFactRows / 2;
    const std::string plan = Must(
        in.conn->Explain("SELECT id, qty FROM fact WHERE id BETWEEN " +
                         std::to_string(lo) + " AND " +
                         std::to_string(lo + kRangeKeys - 1)),
        "explain");
    run->estimate_ratio = ExplainRows(plan) / kRangeKeys;
  }
  in.conn.reset();

  // Crash-restart: as in the OLTP workloads, nothing unsynced survives.
  run->log_mb = static_cast<double>(in.db->wal().log_bytes()) / 1e6;
  run->restart_s = CrashRestart(*in.media, in.db, Options(in.media, false),
                                &run->redo_records);
  in.conn = Must(in.db->Connect(), "connect after restart");
  auto r = Must(in.conn->Execute("SELECT id, qty, note FROM fact"),
                "read back after restart");
  // One value per row: qty (1..50) and the note counter together.
  std::map<int64_t, int64_t> got, want;
  for (const auto& row : r.rows) {
    got[row[0].AsInt()] = row[1].AsInt() + 64 * row[2].AsInt();
  }
  for (int64_t i = 0; i < kFactRows; ++i) want[i] = d.qty[i] + 64 * d.note[i];
  CheckReadBack(want, got, outcome);
}

double P50Of(const std::vector<RoundTimes>& rounds,
             double RoundTimes::*field) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(r.*field);
  return Median(v);
}

}  // namespace

void RunAnalytics(const Args& args, Report* report, Outcome* outcome) {
  if (!args.trace) {
    std::vector<double> setups;
    Instance in;
    std::unique_ptr<Data> data;
    for (int i = 0; i < kSetups; ++i) {
      in = Instance{};
      data.reset();
      const Clock::time_point t0 = Clock::now();
      data = std::make_unique<Data>(args.seed);
      in = Setup(*data, false);
      setups.push_back(SecondsSince(t0));
    }
    Run run;
    RunInstance(in, *data, args, args.seconds, false, true, outcome, &run);
    const Window& w = run.window;
    report->Add("setup_s", Median(setups), "s");
    report->Add("throughput", Median(w.round_rates), "stmt/s");
    report->Add("point_read_p50_us", run.probes.reads.Quantile(0.5), "us");
    report->Add("write_p50_us", run.probes.writes.Quantile(0.5), "us");
    report->Add("range_read_p50_us", run.probes.ranges.Quantile(0.5), "us");
    report->Add("scan_p50_ms", P50Of(w.rounds, &RoundTimes::scan), "ms");
    report->Add("join_p50_ms", P50Of(w.rounds, &RoundTimes::join), "ms");
    report->Add("aggregate_p50_ms", P50Of(w.rounds, &RoundTimes::aggregate),
                "ms");
    report->Add("sort_p50_ms", P50Of(w.rounds, &RoundTimes::sort), "ms");
    report->Add("restart_s", run.restart_s, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  double untraced_rate = 0;
  {
    Data data(args.seed);
    Instance in = Setup(data, false);
    Run run;
    RunInstance(in, data, args, args.seconds / 2.0, false, false, outcome,
                &run);
    untraced_rate = Median(run.window.round_rates);
  }
  Data data(args.seed);
  Instance in = Setup(data, true);
  Run run;
  RunInstance(in, data, args, args.seconds / 2.0, true, true, outcome, &run);
  LayerInputs li;
  li.before = &run.before;
  li.after = &run.after;
  li.spans = &run.tally;
  li.times = run.layers;
  li.estimate_ratio = run.estimate_ratio;
  li.log_mb = run.log_mb;
  li.redo_records = run.redo_records;
  const double traced_rate = Median(run.window.round_rates);
  li.overhead_pct = 100.0 * (untraced_rate - traced_rate) / untraced_rate;
  ReportLayers(li, report);
}

}  // namespace perfbench
