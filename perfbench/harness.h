#ifndef HDB_PERFBENCH_HARNESS_H_
#define HDB_PERFBENCH_HARNESS_H_

// Shared plumbing of the benchmark driver: argument handling, fatal
// checks, latency samples, the metric report, counter snapshots of
// Database::metrics(), the virtual-clock driver and the span tally that
// turns captured statement traces into per-layer times.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/value.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/stable_storage.h"

namespace perfbench {

using hdb::Value;
using Rows = std::vector<std::vector<Value>>;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Prints `what` to stderr and exits with status 2: a broken run must
/// never read as a slow one.
[[noreturn]] void Die(const std::string& what);

void Must(const hdb::Status& s, const std::string& what);
template <typename T>
T Must(hdb::Result<T> r, const std::string& what) {
  if (!r.ok()) Must(r.status(), what);
  return std::move(r).value();
}

double SecondsSince(Clock::time_point t);

/// Notes on stderr how long a phase of the run took (stdout stays for
/// the result line).
void LogPhase(const char* phase, Clock::time_point start);
double MicrosSince(Clock::time_point t);

/// Latency samples of one operation class.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  /// Nearest-rank quantile, 0 < q < 1.
  double Quantile(double q) const;

 private:
  std::vector<double> v_;
};

double Median(std::vector<double> v);

/// Power-law skewed rank in [0, n): rank = n * u^3, so about a fifth of
/// the draws land on the hottest 1% of ranks.
uint64_t SkewedRank(hdb::Rng& rng, uint64_t n);

/// End-of-run metric report, printed as the last stdout line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Operation outcome bookkeeping. Every checked operation is attempted;
/// one whose result disagrees with the benchmark's own model is failed,
/// and the first few are described on stderr.
class Outcome {
 public:
  /// Counts one checked operation, failed unless `ok`; returns `ok`.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(what);
    return ok;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void Fail(const std::string& what);

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Snapshot of the database's metrics registry, keyed by metric name.
using Counters = std::map<std::string, hdb::obs::MetricSample>;
Counters Snapshot(hdb::engine::Database& db);
/// Counter/gauge difference b - a (0 for an unknown name).
double Delta(const Counters& a, const Counters& b, const std::string& name);
/// Histogram differences: samples and summed microseconds.
double HistCountDelta(const Counters& a, const Counters& b,
                      const std::string& name);
double HistSumDelta(const Counters& a, const Counters& b,
                    const std::string& name);
/// Current counter/gauge value (0 for an unknown name).
double Level(const Counters& c, const std::string& name);

/// Virtual time runs this many times faster than wall time, so the pool
/// governor's 20 s fast poll fires every 10 s of a run and the MPL
/// controller adapts twice a second.
inline constexpr int64_t kVirtualSpeedup = 2;

/// Advances `db`'s virtual clock by kVirtualSpeedup x the wall time
/// elapsed since the previous call.
class Ticker {
 public:
  explicit Ticker(hdb::engine::Database* db) : db_(db), last_(Clock::now()) {}
  void Tick();

 private:
  hdb::engine::Database* db_;
  Clock::time_point last_;
};

/// Per-layer times from captured statement traces (traced runs only).
/// The registry is opened with a zero slow-statement floor, so every
/// finished statement passes through its capture ring; Drain() copies the
/// ring and keeps the statements its previous drain did not see. Statements the ring
/// overwrote between two drains are not counted, so the tallies are a
/// sample of the statements run.
class SpanTally {
 public:
  void Drain(hdb::obs::StatementRegistry& registry);
  /// Marks the statements now in the ring as seen without counting them,
  /// so the tally starts with the next statement.
  void MarkSeen(hdb::obs::StatementRegistry& registry);

  /// Mean duration (µs) of spans named `span` over the statements that
  /// have one; 0 when none had.
  double MeanSpanMicros(const char* span) const;
  /// Mean self time (µs: duration minus child operator spans; exchange
  /// worker spans count as their operator's own time) of spans named
  /// `span`, per statement that has at least one. op.hash_distinct spans
  /// count as op.hash_group_by.
  double MeanSelfMicros(const char* span) const;
  /// Total wait time of `cause` divided by the statements that had a
  /// span named `per_span` (all sampled statements when null).
  double WaitMicrosPer(hdb::obs::WaitCause cause, const char* per_span) const;

 private:
  struct SpanTotal {
    double micros = 0;
    double self_micros = 0;
    uint64_t statements = 0;
  };
  std::vector<uint64_t> seen_;  // statement ids of the previous drain
  uint64_t statements_ = 0;
  std::map<std::string, SpanTotal> spans_;
  std::array<double, hdb::obs::kWaitCauseCount> waits_{};
  // Per span name: wait totals of the statements that had that span.
  std::map<std::string, std::array<double, hdb::obs::kWaitCauseCount>>
      waits_by_span_;
};

/// Registry options of a traced run: capture every statement.
hdb::obs::StatementRegistryOptions CaptureAllStatements();

/// The crash-restart leg: the media fails from its next write, the
/// database is dropped without its shutdown checkpoint, power-cycling
/// discards every unsynced write, and the reopen (recovery of the
/// workload's log tail) is timed. Returns the reopen time; `redo_records`
/// gets the redo work of that recovery.
double CrashRestart(hdb::os::StableStorage& media,
                    std::unique_ptr<hdb::engine::Database>& db,
                    const hdb::engine::DatabaseOptions& options,
                    double* redo_records);

/// Crash-restart read-back: one checked operation per committed row
/// (`want`), failed when the restarted database (`got`) lacks it or
/// returns another value, and one failed operation per row it returns
/// that was never committed.
void CheckReadBack(const std::map<int64_t, int64_t>& want,
                   const std::map<int64_t, int64_t>& got, Outcome* outcome);

/// Peak resident set size of this process, MB.
double PeakRssMb();

/// Parses the estimated row count of the top plan node from EXPLAIN
/// output ("... (rows=N cost=...)").
double ExplainRows(const std::string& plan);

}  // namespace perfbench

#endif  // HDB_PERFBENCH_HARNESS_H_
