// oltp_embedded and oltp_wire: one durable database (in-memory
// StableStorage, write-ahead log) holding `kv`, keyed by an indexed INT,
// driven as a closed loop over kConnections sessions. One driver thread
// runs a round on each session in turn: on this host a 4-thread loop's
// throughput swung with the CPU time the machine lent the process (see
// README), so concurrency is left to the engine's own threads. Each
// session writes only its own key partition (k % 4), so no statement can
// hit a lock conflict, and the benchmark keeps its own model of every
// committed value to check what the program returns.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metric_names.h"
#include "os/stable_storage.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hdb::engine::Database;

constexpr int64_t kRows = 200'000;
constexpr int kConnections = 4;  // = nproc of the reference host
// A session's round: 7 point reads, 2 updates, 1 insert and, once the
// session holds kLiveInserts inserted rows, 1 delete of its oldest one,
// so kv's size and the work per statement do not grow with throughput.
constexpr int kRoundReads = 7;
constexpr int kRoundUpdates = 2;
constexpr size_t kLiveInserts = 16;
// oltp_wire: sessions 0-1 run point rounds, sessions 2-3 range rounds of
// this many 100-key range reads.
constexpr int kWirePointSessions = 2;
constexpr int kRangeRound = 1;
constexpr int64_t kRangeKeys = 100;
// oltp_wire's feedback phase, between set-up and the window: this many
// rounds of the two range sessions (2,000 range reads). Statistics
// feedback inflates the estimates of indexed ranges read by read (README,
// "Known faults"); on this pool the plans of most ranges flip to full
// scans between about 1,750 and 2,000 reads on every seed tried, so the
// window runs past the flip.
constexpr int kFeedbackRounds = 1000;
// Simulated host memory: the pool governor settles near 770 frames (about
// 3 MB), a quarter of kv's heap pages before its index, and the pool
// starts there. Point reads see misses, a full scan cycles the pool, and
// the cost model weighs the I/O of an index range against a scan's, so
// plans follow the row estimates.
constexpr uint64_t kHostMemoryBytes = 8ull << 20;
constexpr size_t kInitialPoolFrames = 768;
// Probe leg: classes that are not in the timed mix.
constexpr int kProbeRounds = 21;
// oltp_embedded's range reads, as many as analytics' probe leg runs per
// class. Its window has none, so its estimates start from the load.
constexpr int kProbeRanges = 1000;
constexpr int kSetups = 3;
constexpr double kThroughputSlice = 0.5;  // seconds

/// The benchmark's own record of every committed row.
struct Model {
  explicit Model(uint64_t seed);
  std::vector<int32_t> initial_v;
  std::vector<std::string> pad;
  // Committed v of key k < kRows; only the owning session writes it.
  std::vector<int32_t> v;
  // Live rows inserted by session s (key -> v), keys kRows + 4*i + s.
  std::map<int64_t, int32_t> inserted[kConnections];
  int64_t next_insert[kConnections] = {};
  // Key permutation for skew: rank r -> key (r * kRankStride + add) %
  // kRows. The stride is fixed, near kRows / golden ratio, so the hot ranks
  // fall as evenly over the keys (and the histogram's buckets) as any
  // stride allows, on every seed; the seed only shifts them.
  static constexpr uint64_t kRankStride = 123'607;  // coprime to 200,000
  uint64_t add = 0;

  int64_t KeyOfRank(uint64_t rank) const {
    return static_cast<int64_t>((rank * kRankStride + add) % kRows);
  }
  int64_t Count() const {
    int64_t n = kRows;
    for (const auto& ins : inserted) n += static_cast<int64_t>(ins.size());
    return n;
  }
  int64_t Sum() const {
    int64_t s = 0;
    for (int64_t k = 0; k < kRows; ++k) s += v[k];
    for (const auto& ins : inserted) {
      for (const auto& [k, x] : ins) s += x;
    }
    return s;
  }
  /// Every (k, v) the model holds, in key order.
  std::vector<std::pair<int64_t, int64_t>> All() const;
};

Model::Model(uint64_t seed) {
  hdb::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  initial_v.resize(kRows);
  pad.resize(kRows);
  for (int64_t k = 0; k < kRows; ++k) {
    initial_v[k] = static_cast<int32_t>(rng.Uniform(1000));
    pad[k].assign(16 + rng.Uniform(24), static_cast<char>('a' + k % 26));
  }
  v = initial_v;
  add = rng.Uniform(kRows);
}

std::vector<std::pair<int64_t, int64_t>> Model::All() const {
  std::vector<std::pair<int64_t, int64_t>> out;
  out.reserve(Count());
  for (int64_t k = 0; k < kRows; ++k) out.emplace_back(k, v[k]);
  for (const auto& ins : inserted) {
    for (const auto& [k, x] : ins) out.emplace_back(k, x);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Pad(const Model& m, int64_t k) { return m.pad[k % kRows]; }

/// One session through the embedded Connection API. Statements are
/// generated SQL text.
class EmbeddedSession {
 public:
  explicit EmbeddedSession(Database& db)
      : conn_(Must(db.Connect(), "connect")) {}

  hdb::Result<Rows> Query(const std::string& sql) {
    auto r = conn_->Execute(sql);
    if (!r.ok()) return r.status();
    return std::move(r->rows);
  }
  hdb::Result<Rows> PointRead(int64_t k) {
    return Query("SELECT v FROM kv WHERE k = " + std::to_string(k));
  }
  hdb::Result<Rows> RangeRead(int64_t lo, int64_t hi) {
    return Query("SELECT k, v FROM kv WHERE k BETWEEN " + std::to_string(lo) +
                 " AND " + std::to_string(hi));
  }
  hdb::Result<uint64_t> Update(int64_t k, int32_t delta) {
    return Affected("UPDATE kv SET v = v + " + std::to_string(delta) +
                    " WHERE k = " + std::to_string(k));
  }
  hdb::Result<uint64_t> Insert(int64_t k, int32_t p, int32_t v,
                               const std::string& pad) {
    return Affected("INSERT INTO kv VALUES (" + std::to_string(k) + ", " +
                    std::to_string(p) + ", " + std::to_string(v) + ", '" +
                    pad + "')");
  }
  hdb::Result<uint64_t> Delete(int64_t k) {
    return Affected("DELETE FROM kv WHERE k = " + std::to_string(k));
  }
  void Close() {}

 private:
  hdb::Result<uint64_t> Affected(const std::string& sql) {
    auto r = conn_->Execute(sql);
    if (!r.ok()) return r.status();
    return r->rows_affected;
  }
  std::unique_ptr<hdb::engine::Connection> conn_;
};

/// One session through net::Client with prepared statements.
class WireSession {
 public:
  explicit WireSession(uint16_t port)
      : client_(Must(hdb::net::Client::Connect("127.0.0.1", port),
                     "wire connect")) {
    point_ = Prepare("SELECT v FROM kv WHERE k = ?");
    range_ = Prepare("SELECT k, v FROM kv WHERE k BETWEEN ? AND ?");
    update_ = Prepare("UPDATE kv SET v = v + ? WHERE k = ?");
    insert_ = Prepare("INSERT INTO kv VALUES (?, ?, ?, ?)");
    delete_ = Prepare("DELETE FROM kv WHERE k = ?");
  }

  hdb::Result<Rows> Query(const std::string& sql) {
    auto r = client_->Query(sql);
    if (!r.ok()) return r.status();
    return std::move(r->rows);
  }
  hdb::Result<Rows> PointRead(int64_t k) {
    return Rows_(point_, {Int(k)});
  }
  hdb::Result<Rows> RangeRead(int64_t lo, int64_t hi) {
    return Rows_(range_, {Int(lo), Int(hi)});
  }
  hdb::Result<uint64_t> Update(int64_t k, int32_t delta) {
    return Affected(update_, {Value::Int(delta), Int(k)});
  }
  hdb::Result<uint64_t> Insert(int64_t k, int32_t p, int32_t v,
                               const std::string& pad) {
    return Affected(insert_,
                    {Int(k), Value::Int(p), Value::Int(v), Value::String(pad)});
  }
  hdb::Result<uint64_t> Delete(int64_t k) { return Affected(delete_, {Int(k)}); }
  void Close() { Must(client_->Close(), "wire close"); }

 private:
  static Value Int(int64_t k) { return Value::Int(static_cast<int32_t>(k)); }
  uint32_t Prepare(const std::string& sql) {
    return Must(client_->Prepare(sql), "prepare " + sql).stmt_id;
  }
  hdb::Result<hdb::net::NetResult> Run(uint32_t id,
                                      const std::vector<Value>& params) {
    const hdb::Status bound = client_->Bind(id, params);
    if (!bound.ok()) return bound;
    return client_->ExecutePrepared(id);
  }
  hdb::Result<Rows> Rows_(uint32_t id, const std::vector<Value>& params) {
    auto r = Run(id, params);
    if (!r.ok()) return r.status();
    return std::move(r->rows);
  }
  hdb::Result<uint64_t> Affected(uint32_t id,
                                 const std::vector<Value>& params) {
    auto r = Run(id, params);
    if (!r.ok()) return r.status();
    return r->rows_affected;
  }

  std::unique_ptr<hdb::net::Client> client_;
  uint32_t point_ = 0, range_ = 0, update_ = 0, insert_ = 0, delete_ = 0;
};

/// The timed-window samples of one session.
struct SessionLog {
  Samples reads, writes, ranges;
  uint64_t statements = 0;
};

/// Checks one 100-key range read that started at `lo`.
void CheckRange(const hdb::Result<Rows>& r, int64_t lo, Outcome* outcome) {
  if (!r.ok()) {
    outcome->Check(false, "range read: " + r.status().ToString());
    return;
  }
  int64_t key_sum = 0;
  bool in_range = true;
  for (const auto& row : *r) {
    const int64_t k = row[0].AsInt();
    key_sum += k;
    in_range = in_range && k >= lo && k < lo + kRangeKeys;
  }
  outcome->Check(
      r->size() == kRangeKeys && in_range &&
          key_sum == kRangeKeys * lo + kRangeKeys * (kRangeKeys - 1) / 2,
      "range [" + std::to_string(lo) + ", +100) returned " +
          std::to_string(r->size()) + " rows");
}

/// Start of a 100-key range at a skewed key.
int64_t RangeStart(const Model& model, hdb::Rng& rng) {
  return std::min<int64_t>(model.KeyOfRank(SkewedRank(rng, kRows)),
                           kRows - kRangeKeys);
}

/// Runs one round on session `id`; every result is checked against the
/// model.
template <typename Session>
void RunRound(Session& s, int id, bool range_session, Model& model,
              hdb::Rng& rng, Outcome* outcome, SessionLog* log) {
  // Times one statement into `into`.
  auto timed = [&](Samples* into, auto&& op) {
    const Clock::time_point t0 = Clock::now();
    auto r = op();
    into->Add(MicrosSince(t0));
    ++log->statements;
    return r;
  };
  auto write_ok = [&](const hdb::Result<uint64_t>& r, const std::string& what) {
    return outcome->Check(r.ok() && *r == 1,
                          what + ": " + (r.ok() ? std::to_string(*r) + " rows"
                                                : r.status().ToString()));
  };
  if (range_session) {
    for (int i = 0; i < kRangeRound; ++i) {
      const int64_t lo = RangeStart(model, rng);
      CheckRange(timed(&log->ranges,
                       [&] { return s.RangeRead(lo, lo + kRangeKeys - 1); }),
                 lo, outcome);
    }
    return;
  }
  for (int i = 0; i < kRoundReads; ++i) {
    const int64_t k = model.KeyOfRank(SkewedRank(rng, kRows));
    const int32_t floor = model.v[k];
    auto r = timed(&log->reads, [&] { return s.PointRead(k); });
    if (!r.ok()) {
      outcome->Check(false, "point read: " + r.status().ToString());
    } else {
      outcome->Check(r->size() == 1 && (*r)[0][0].AsInt() >= floor,
                     "point read k=" + std::to_string(k) + " returned " +
                         std::to_string(r->size()) + " rows");
    }
  }
  for (int i = 0; i < kRoundUpdates; ++i) {
    // Own partition: the skewed key moved to the session's residue.
    const int64_t base = model.KeyOfRank(SkewedRank(rng, kRows));
    const int64_t k = base - base % kConnections + id;
    const int32_t delta = 1 + static_cast<int32_t>(rng.Uniform(9));
    auto r = timed(&log->writes, [&] { return s.Update(k, delta); });
    if (write_ok(r, "update k=" + std::to_string(k))) {
      model.v[k] += delta;
    }
  }
  auto& mine = model.inserted[id];
  const int64_t k = kRows + kConnections * model.next_insert[id]++ + id;
  const int32_t v = static_cast<int32_t>(rng.Uniform(1000));
  auto ins = timed(&log->writes,
                   [&] { return s.Insert(k, id, v, Pad(model, k)); });
  if (!write_ok(ins, "insert k=" + std::to_string(k))) {
    Die("insert failed; the model can no longer name kv's keys");
  }
  mine[k] = v;
  if (mine.size() > kLiveInserts) {
    const int64_t oldest = mine.begin()->first;
    auto del = timed(&log->writes, [&] { return s.Delete(oldest); });
    if (!write_ok(del, "delete k=" + std::to_string(oldest))) {
      Die("delete failed; the model can no longer name kv's keys");
    }
    mine.erase(mine.begin());
  }
}

hdb::engine::DatabaseOptions Options(std::shared_ptr<hdb::os::StableStorage> media,
                                     bool capture) {
  hdb::engine::DatabaseOptions o;
  o.media = std::move(media);
  o.physical_memory_bytes = kHostMemoryBytes;
  o.initial_pool_frames = kInitialPoolFrames;
  // No more statements than connections can be in flight, so an MPL above
  // kConnections admits nothing more; but it shrinks every statement's
  // memory soft limit (pool frames / MPL). Left at the default ceiling of
  // 64, the MPL controller's hill-climbing walked on noise (to 8 and more
  // in some windows), and the probe leg's group-by then spilled on some
  // seeds and not others (84 against 197 ms on oltp_wire).
  o.mpl_controller.max_mpl = kConnections;
  if (capture) o.statement_registry = CaptureAllStatements();
  return o;
}

/// One loaded database (and, for oltp_wire, its server).
struct Instance {
  std::shared_ptr<hdb::os::StableStorage> media;
  std::unique_ptr<Database> db;
  std::unique_ptr<hdb::net::Server> server;
};

Instance Setup(const Model& model, bool wire, bool capture) {
  Instance in;
  in.media = std::make_shared<hdb::os::StableStorage>(
      hdb::engine::DatabaseOptions{}.page_bytes);
  in.db = Must(Database::Open(Options(in.media, capture)), "open");
  {
    auto conn = Must(in.db->Connect(), "connect");
    Must(conn->Execute("CREATE TABLE kv (k INT NOT NULL, p INT NOT NULL, "
                       "v INT NOT NULL, pad VARCHAR(40))"),
         "create kv");
    Must(conn->Execute("CREATE INDEX kv_k ON kv (k)"), "create index");
    Must(conn->Execute(
             "CREATE TABLE owner (p INT NOT NULL, name VARCHAR(16))"),
         "create owner");
  }
  std::vector<hdb::table::Row> rows;
  rows.reserve(kRows);
  for (int64_t k = 0; k < kRows; ++k) {
    rows.push_back({Value::Int(static_cast<int32_t>(k)),
                    Value::Int(static_cast<int32_t>(k % kConnections)),
                    Value::Int(model.initial_v[k]), Value::String(model.pad[k])});
  }
  Must(in.db->LoadTable("kv", rows), "load kv");
  std::vector<hdb::table::Row> owners;
  for (int p = 0; p < kConnections; ++p) {
    owners.push_back({Value::Int(p), Value::String("session" + std::to_string(p))});
  }
  Must(in.db->LoadTable("owner", owners), "load owner");
  if (wire) {
    in.server = Must(hdb::net::Server::Start(in.db.get(), {}), "start server");
  }
  return in;
}

struct WindowResult {
  Samples reads, writes, ranges;
  uint64_t statements = 0;
  double seconds = 0;
  // Statements per second of each kThroughputSlice of the window; the
  // median is throughput, so a stall of the host costs a few slices and
  // not the whole window's rate.
  std::vector<double> slice_rates;
  // Traced runs: wall time of the clock ticks that ran a checkpoint.
  double checkpoint_ms = 0;
  uint64_t checkpoints = 0;
};

/// The timed window: kConnections sessions, whole rounds, while this
/// thread advances the virtual clock (and drains traces when tracing).
template <typename Session>
WindowResult RunWindow(std::vector<std::unique_ptr<Session>>& sessions,
                       bool wire, Instance& in, Model& model,
                       const Args& args, double seconds, SpanTally* tally,
                       Outcome* outcome) {
  std::vector<SessionLog> logs(sessions.size());
  std::vector<hdb::Rng> rngs;
  for (size_t i = 0; i < sessions.size(); ++i) {
    rngs.emplace_back(args.seed * 1000003 + i * 7919 + 1);
  }
  Ticker ticker(in.db.get());
  WindowResult w;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_drain = start;
  Clock::time_point slice_start = start;
  uint64_t slice_statements = 0;
  while (SecondsSince(start) < seconds) {
    for (size_t i = 0; i < sessions.size(); ++i) {
      const bool ranges = wire && static_cast<int>(i) >= kWirePointSessions;
      const uint64_t before = logs[i].statements;
      RunRound(*sessions[i], static_cast<int>(i), ranges, model, rngs[i],
               outcome, &logs[i]);
      slice_statements += logs[i].statements - before;
    }
    if (SecondsSince(slice_start) >= kThroughputSlice) {
      w.slice_rates.push_back(slice_statements / SecondsSince(slice_start));
      slice_start = Clock::now();
      slice_statements = 0;
    }
    if (tally == nullptr) {
      ticker.Tick();
    } else {
      // The checkpoint governor times itself on the virtual clock, which
      // stands still inside Database::Tick, so its checkpoint.micros reads
      // 0; time the ticks that checkpointed from outside instead.
      auto& governor = in.db->checkpoint_governor();
      const uint64_t before = governor.stats().checkpoints;
      const Clock::time_point t0 = Clock::now();
      ticker.Tick();
      if (governor.stats().checkpoints != before) {
        w.checkpoint_ms += MicrosSince(t0) / 1e3;
        ++w.checkpoints;
      }
    }
    if (tally != nullptr && SecondsSince(last_drain) > 0.005) {
      tally->Drain(in.db->statement_registry());
      last_drain = Clock::now();
    }
  }
  w.seconds = SecondsSince(start);
  for (const auto& log : logs) {
    w.reads.Append(log.reads);
    w.writes.Append(log.writes);
    w.ranges.Append(log.ranges);
    w.statements += log.statements;
  }
  if (tally != nullptr) tally->Drain(in.db->statement_registry());
  return w;
}

/// oltp_wire's feedback phase: kFeedbackRounds rounds of the range
/// sessions, each read checked, with the virtual clock advancing.
template <typename Session>
void RunFeedbackPhase(std::vector<std::unique_ptr<Session>>& sessions,
                      Instance& in, const Model& model, uint64_t seed,
                      Outcome* outcome) {
  const Clock::time_point start = Clock::now();
  hdb::Rng rng(seed * 17 + 3);
  Ticker ticker(in.db.get());
  for (int round = 0; round < kFeedbackRounds; ++round) {
    for (size_t i = kWirePointSessions; i < sessions.size(); ++i) {
      const int64_t lo = RangeStart(model, rng);
      CheckRange(sessions[i]->RangeRead(lo, lo + kRangeKeys - 1), lo, outcome);
    }
    ticker.Tick();
  }
  LogPhase("feedback phase", start);
}

/// Probe leg: the classes the timed mix lacks, on the same data, with
/// no concurrent writer, so the model gives exact answers.
struct ProbeResult {
  Samples scan_ms, join_ms, aggregate_ms, sort_ms, ranges;
};

template <typename Session>
ProbeResult RunProbes(Session& s, bool wire, Model& model, uint64_t seed,
                      Ticker& ticker, SpanTally* tally, Database& db,
                      Outcome* outcome) {
  ProbeResult p;
  const Clock::time_point start = Clock::now();
  hdb::Rng rng(seed * 31 + 5);
  if (!wire) {
    // Range reads first, on the pool the window left, spread evenly over
    // the loaded keys (one per stride, at a seeded offset) so every seed
    // reads the same share of the table.
    const int64_t stride = (kRows - kRangeKeys) / kProbeRanges;
    for (int i = 0; i < kProbeRanges; ++i) {
      const int64_t lo = i * stride + static_cast<int64_t>(rng.Uniform(stride));
      const Clock::time_point t0 = Clock::now();
      auto r = s.RangeRead(lo, lo + kRangeKeys - 1);
      p.ranges.Add(MicrosSince(t0));
      CheckRange(r, lo, outcome);
      if (i % 64 == 0) {
        ticker.Tick();
        if (tally != nullptr) tally->Drain(db.statement_registry());
      }
    }
  }
  const auto all = model.All();
  auto timed = [&](Samples* into, const std::string& sql) {
    const Clock::time_point t0 = Clock::now();
    auto r = s.Query(sql);
    into->Add(MicrosSince(t0) / 1000.0);
    if (MicrosSince(t0) > 2e6) LogPhase(sql.c_str(), t0);
    ticker.Tick();
    if (tally != nullptr) tally->Drain(db.statement_registry());
    if (!r.ok()) {
      outcome->Check(false, sql + ": " + r.status().ToString());
      return Rows{};
    }
    return std::move(*r);
  };
  for (int round = 0; round < kProbeRounds; ++round) {
    // Parameters move each probe's window, never its width, so every
    // seed does the same amount of work.
    // Filtered scan + aggregate.
    const int64_t lo = static_cast<int64_t>(rng.Uniform(500));
    const int64_t hi = lo + 299;
    Rows r = timed(&p.scan_ms, "SELECT COUNT(*), SUM(v) FROM kv WHERE v BETWEEN " +
                                   std::to_string(lo) + " AND " +
                                   std::to_string(hi));
    int64_t count = 0, sum = 0;
    for (const auto& [k, v] : all) {
      if (v >= lo && v <= hi) ++count, sum += v;
    }
    outcome->Check(r.size() == 1 && r[0][0].AsInt() == count &&
                       r[0][1].AsInt() == sum,
                   "probe scan count/sum");
    // Hash join + group-by against the 4-row owner table.
    r = timed(&p.join_ms,
              "SELECT owner.name, COUNT(*), SUM(kv.v) FROM kv, owner "
              "WHERE kv.p = owner.p AND kv.v BETWEEN " + std::to_string(lo) +
                  " AND " + std::to_string(lo + 199) + " GROUP BY owner.name");
    int64_t part_count[kConnections] = {}, part_sum[kConnections] = {};
    for (const auto& [k, v] : all) {
      if (v >= lo && v <= lo + 199) {
        ++part_count[k % kConnections];
        part_sum[k % kConnections] += v;
      }
    }
    bool ok = r.size() == kConnections;
    for (const auto& row : r) {
      const std::string& name = row[0].AsString();
      const int part = name.empty() ? -1 : name.back() - '0';
      ok = ok && part >= 0 && part < kConnections &&
           row[1].AsInt() == part_count[part] && row[2].AsInt() == part_sum[part];
    }
    outcome->Check(ok, "probe join per-owner count/sum");
    // High-cardinality group-by. (The probe classes filter on unindexed
    // columns, so each reads all of kv as its class says.)
    const int64_t pmin = static_cast<int64_t>(rng.Uniform(kConnections / 2 + 1));
    const int64_t pmax = pmin + kConnections / 2 - 1;
    r = timed(&p.aggregate_ms,
              "SELECT v, COUNT(*) FROM kv WHERE p BETWEEN " +
                  std::to_string(pmin) + " AND " + std::to_string(pmax) +
                  " GROUP BY v");
    std::map<int64_t, int64_t> groups;
    for (const auto& [k, v] : all) {
      if (k % kConnections >= pmin && k % kConnections <= pmax) ++groups[v];
    }
    ok = r.size() == groups.size();
    for (const auto& row : r) {
      const auto it = groups.find(row[0].AsInt());
      ok = ok && it != groups.end() && it->second == row[1].AsInt();
    }
    outcome->Check(ok, "probe group-by groups");
    // ORDER BY ... LIMIT.
    const int64_t vlo = static_cast<int64_t>(rng.Uniform(800));
    const int64_t vhi = vlo + 199;
    r = timed(&p.sort_ms, "SELECT k, v FROM kv WHERE p = " +
                              std::to_string(round % kConnections) +
                              " AND v BETWEEN " + std::to_string(vlo) +
                              " AND " + std::to_string(vhi) +
                              " ORDER BY v DESC, k LIMIT 10");
    std::vector<std::pair<int64_t, int64_t>> top;  // (-v, k)
    for (const auto& [k, v] : all) {
      if (k % kConnections == round % kConnections && v >= vlo && v <= vhi) {
        top.emplace_back(-v, k);
      }
    }
    std::partial_sort(top.begin(), top.begin() + 10, top.end());
    ok = r.size() == 10;
    for (size_t i = 0; ok && i < r.size(); ++i) {
      ok = r[i][0].AsInt() == top[i].second && r[i][1].AsInt() == -top[i].first;
    }
    outcome->Check(ok, "probe top-10");
  }
  LogPhase("probe queries", start);
  return p;
}

/// Final check through the workload's own session: COUNT and SUM.
template <typename Session>
void CheckTotals(Session& s, const Model& model, const char* when,
                 Outcome* outcome) {
  auto r = s.Query("SELECT COUNT(*), SUM(v) FROM kv");
  outcome->Check(r.ok() && r->size() == 1 &&
                     (*r)[0][0].AsInt() == model.Count() &&
                     (*r)[0][1].AsInt() == model.Sum(),
                 std::string(when) + ": COUNT/SUM disagree with the model");
}

struct Run {
  WindowResult window;
  ProbeResult probe;
  Counters before, after;
  SpanTally tally;
  LayerTimes layers;
  double estimate_ratio = 0;
  double log_mb = 0;
  double restart_s = 0;
  double redo_records = 0;
};

template <typename Session>
std::vector<std::unique_ptr<Session>> OpenSessions(Instance& in) {
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kConnections; ++i) {
    if constexpr (std::is_same_v<Session, WireSession>) {
      sessions.push_back(std::make_unique<WireSession>(in.server->port()));
    } else {
      sessions.push_back(std::make_unique<EmbeddedSession>(*in.db));
    }
  }
  return sessions;
}

/// Window, probes, final checks and the crash-restart leg on one loaded
/// instance. `full` = false runs the window only (the untraced half of a
/// traced run's overhead comparison).
template <typename Session>
void RunInstance(Instance& in, std::vector<std::unique_ptr<Session>>& sessions,
                 Model& model, const Args& args, bool wire, double seconds,
                 bool traced, bool full, Outcome* outcome, Run* run) {
  SpanTally* tally = traced ? &run->tally : nullptr;
  if (wire) RunFeedbackPhase(sessions, in, model, args.seed, outcome);
  if (tally != nullptr) tally->MarkSeen(in.db->statement_registry());
  run->before = Snapshot(*in.db);
  run->window = RunWindow(sessions, wire, in, model, args, seconds, tally,
                          outcome);
  run->after = Snapshot(*in.db);
  const auto kv = Must(in.db->catalog().GetTable("kv"), "kv");
  std::fprintf(stderr,
               "perfbench: window %.1f s, %llu statements, mpl %.0f (%.0f "
               "changes), admission wait %.0f ms, pool %.0f frames, kv %llu "
               "heap pages, %.0f checkpoints\n",
               run->window.seconds,
               static_cast<unsigned long long>(run->window.statements),
               Level(run->after, hdb::obs::kMplCurrent),
               Delta(run->before, run->after, hdb::obs::kMplChanges),
               HistSumDelta(run->before, run->after, hdb::obs::kGateWaitMicros) / 1e3,
               Level(run->after, hdb::obs::kPoolCurrentFrames),
               static_cast<unsigned long long>(kv->page_count),
               Delta(run->before, run->after, hdb::obs::kCheckpointCount));
  if (!full) {
    for (auto& s : sessions) s->Close();
    return;
  }
  Ticker ticker(in.db.get());
  Clock::time_point phase = Clock::now();
  run->probe = RunProbes(*sessions[0], wire, model, args.seed, ticker, tally,
                         *in.db, outcome);
  CheckTotals(*sessions[0], model, "after the window", outcome);
  LogPhase("probe leg", phase);
  if (traced) {
    phase = Clock::now();
    std::vector<hdb::table::Row> sample;
    for (int64_t k = 0; k < 2000; ++k) {
      sample.push_back({Value::Int(static_cast<int32_t>(k)),
                        Value::Int(static_cast<int32_t>(k % kConnections)),
                        Value::Int(model.v[k]),
                        Value::String(model.pad[k])});
    }
    hdb::Rng rng(args.seed + 77);
    run->layers = TimeLayers(*in.db, "kv", "kv_k", sample, kRows, rng);
    // Estimated over true rows of the range at the hottest key.
    const int64_t lo = std::min<int64_t>(model.KeyOfRank(0), kRows - kRangeKeys);
    auto conn = Must(in.db->Connect(), "connect");
    const std::string plan = Must(
        conn->Explain("SELECT k, v FROM kv WHERE k BETWEEN " +
                      std::to_string(lo) + " AND " +
                      std::to_string(lo + kRangeKeys - 1)),
        "explain");
    run->estimate_ratio = ExplainRows(plan) / kRangeKeys;
    LogPhase("layer timers", phase);
  }
  for (auto& s : sessions) s->Close();
  sessions.clear();
  if (in.server != nullptr) in.server->Stop();
  in.server.reset();

  // Crash-restart: every acknowledged write must survive.
  run->log_mb = static_cast<double>(in.db->wal().log_bytes()) / 1e6;
  const Clock::time_point t0 = Clock::now();
  run->restart_s = CrashRestart(*in.media, in.db, Options(in.media, false),
                                &run->redo_records);
  auto conn = Must(in.db->Connect(), "connect after restart");
  auto r = Must(conn->Execute("SELECT k, v FROM kv"), "read back after restart");
  std::map<int64_t, int64_t> got, want;
  for (const auto& row : r.rows) got[row[0].AsInt()] = row[1].AsInt();
  for (const auto& [k, v] : model.All()) want[k] = v;
  CheckReadBack(want, got, outcome);
  LogPhase("crash-restart leg", t0);
}

template <typename Session>
void RunOltpWith(const Args& args, bool wire, Report* report,
                 Outcome* outcome) {
  if (!args.trace) {
    // Set-up is repeated; the median is setup_s and the last instance runs.
    std::vector<double> setups;
    Instance in;
    std::unique_ptr<Model> model;
    std::vector<std::unique_ptr<Session>> sessions;
    for (int i = 0; i < kSetups; ++i) {
      sessions.clear();
      in = Instance{};
      model.reset();
      const Clock::time_point t0 = Clock::now();
      model = std::make_unique<Model>(args.seed);
      in = Setup(*model, wire, false);
      sessions = OpenSessions<Session>(in);
      setups.push_back(SecondsSince(t0));
    }
    Run run;
    RunInstance(in, sessions, *model, args, wire, args.seconds, false, true,
                outcome, &run);
    const WindowResult& w = run.window;
    const Samples& ranges = wire ? w.ranges : run.probe.ranges;
    report->Add("setup_s", Median(setups), "s");
    report->Add("throughput", Median(w.slice_rates), "stmt/s");
    report->Add("point_read_p50_us", w.reads.Quantile(0.5), "us");
    report->Add("write_p50_us", w.writes.Quantile(0.5), "us");
    report->Add("range_read_p50_us", ranges.Quantile(0.5), "us");
    report->Add("scan_p50_ms", run.probe.scan_ms.Quantile(0.5), "ms");
    report->Add("join_p50_ms", run.probe.join_ms.Quantile(0.5), "ms");
    report->Add("aggregate_p50_ms", run.probe.aggregate_ms.Quantile(0.5), "ms");
    report->Add("sort_p50_ms", run.probe.sort_ms.Quantile(0.5), "ms");
    report->Add("restart_s", run.restart_s, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  // Traced run: an untraced and a traced instance each run half the
  // window from a fresh load; the traced one also runs the probe leg, the
  // layer timers and the crash-restart leg.
  double untraced_rate = 0;
  {
    Model model(args.seed);
    Instance in = Setup(model, wire, false);
    auto sessions = OpenSessions<Session>(in);
    Run run;
    RunInstance(in, sessions, model, args, wire, args.seconds / 2.0, false,
                false, outcome, &run);
    untraced_rate = Median(run.window.slice_rates);
  }
  Model model(args.seed);
  Instance in = Setup(model, wire, true);
  auto sessions = OpenSessions<Session>(in);
  Run run;
  RunInstance(in, sessions, model, args, wire, args.seconds / 2.0, true, true,
              outcome, &run);
  LayerInputs li;
  li.before = &run.before;
  li.after = &run.after;
  li.spans = &run.tally;
  li.times = run.layers;
  li.estimate_ratio = run.estimate_ratio;
  li.log_mb = run.log_mb;
  li.redo_records = run.redo_records;
  li.checkpoint_ms = run.window.checkpoints == 0
                         ? 0
                         : run.window.checkpoint_ms / run.window.checkpoints;
  const double traced_rate = Median(run.window.slice_rates);
  li.overhead_pct = 100.0 * (untraced_rate - traced_rate) / untraced_rate;
  ReportLayers(li, report);
}

}  // namespace

void RunOltp(const Args& args, bool wire, Report* report, Outcome* outcome) {
  if (wire) {
    RunOltpWith<WireSession>(args, wire, report, outcome);
  } else {
    RunOltpWith<EmbeddedSession>(args, wire, report, outcome);
  }
}

}  // namespace perfbench
