#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void Must(const hdb::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

void LogPhase(const char* phase, Clock::time_point start) {
  std::fprintf(stderr, "perfbench: %s took %.2f s\n", phase,
               SecondsSince(start));
}

double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  const size_t rank = std::min(
      s.size() - 1, static_cast<size_t>(std::ceil(q * s.size())) - 1);
  std::nth_element(s.begin(), s.begin() + rank, s.end());
  return s[rank];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t SkewedRank(hdb::Rng& rng, uint64_t n) {
  // 53 random bits as a double in [0, 1).
  const double u =
      static_cast<double>(rng.Next() >> 11) * (1.0 / 9007199254740992.0);
  return std::min<uint64_t>(n - 1, static_cast<uint64_t>(n * u * u * u));
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) Die("metric " + name + " is not finite");
  entries_.push_back({name, value, unit});
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << entries_[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << entries_[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void Outcome::Fail(const std::string& what) {
  if (failed_++ < 10) {
    std::fprintf(stderr, "perfbench: oracle mismatch: %s\n", what.c_str());
  }
}

Counters Snapshot(hdb::engine::Database& db) {
  Counters out;
  for (auto& s : db.metrics().Snapshot()) out[s.name] = s;
  return out;
}

double Level(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second.value;
}

double Delta(const Counters& a, const Counters& b, const std::string& name) {
  return Level(b, name) - Level(a, name);
}

double HistCountDelta(const Counters& a, const Counters& b,
                      const std::string& name) {
  const auto ia = a.find(name);
  const auto ib = b.find(name);
  if (ib == b.end()) return 0;
  return static_cast<double>(ib->second.count) -
         (ia == a.end() ? 0.0 : static_cast<double>(ia->second.count));
}

double HistSumDelta(const Counters& a, const Counters& b,
                    const std::string& name) {
  const auto ia = a.find(name);
  const auto ib = b.find(name);
  if (ib == b.end()) return 0;
  return static_cast<double>(ib->second.sum_micros) -
         (ia == a.end() ? 0.0 : static_cast<double>(ia->second.sum_micros));
}

void Ticker::Tick() {
  const Clock::time_point now = Clock::now();
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
                        now - last_)
                        .count();
  last_ = now;
  if (wall > 0) db_->Tick(wall * kVirtualSpeedup);
}

void SpanTally::Drain(hdb::obs::StatementRegistry& registry) {
  const std::vector<hdb::obs::SlowStatement> ring = registry.SlowSnapshot();
  std::vector<uint64_t> ids;
  ids.reserve(ring.size());
  for (const auto& st : ring) {
    ids.push_back(st.stmt_id);
    if (std::find(seen_.begin(), seen_.end(), st.stmt_id) != seen_.end()) {
      continue;
    }
    ++statements_;
    for (int c = 0; c < hdb::obs::kWaitCauseCount; ++c) {
      waits_[c] += static_cast<double>(st.wait_micros[c]);
    }
    // Per span name: summed duration and self time in this statement.
    std::map<std::string, std::pair<double, double>> per_name;
    for (const auto& span : st.spans) {
      if (span.end_micros < span.start_micros) continue;  // still open
      const double dur =
          static_cast<double>(span.end_micros - span.start_micros);
      double children = 0;
      for (const auto& child : st.spans) {
        // An exchange worker does its operator's own work (in parallel),
        // so only child operator spans leave the parent's self time.
        if (child.parent == span.id && child.end_micros >= child.start_micros &&
            child.name != std::string(hdb::obs::kSpanOpParallelWorker)) {
          children += static_cast<double>(child.end_micros - child.start_micros);
        }
      }
      // Hash DISTINCT is a group-by without aggregates: one category.
      const std::string name = span.name == std::string(hdb::obs::kSpanOpHashDistinct)
                                   ? hdb::obs::kSpanOpHashGroupBy
                                   : span.name;
      auto& t = per_name[name];
      t.first += dur;
      t.second += std::max(0.0, dur - children);
    }
    for (const auto& [name, t] : per_name) {
      SpanTotal& total = spans_[name];
      total.micros += t.first;
      total.self_micros += t.second;
      ++total.statements;
      auto& w = waits_by_span_[name];
      for (int c = 0; c < hdb::obs::kWaitCauseCount; ++c) {
        w[c] += static_cast<double>(st.wait_micros[c]);
      }
    }
  }
  seen_ = std::move(ids);
}

void SpanTally::MarkSeen(hdb::obs::StatementRegistry& registry) {
  seen_.clear();
  for (const auto& st : registry.SlowSnapshot()) seen_.push_back(st.stmt_id);
}

double SpanTally::MeanSpanMicros(const char* span) const {
  const auto it = spans_.find(span);
  if (it == spans_.end() || it->second.statements == 0) return 0;
  return it->second.micros / static_cast<double>(it->second.statements);
}

double SpanTally::MeanSelfMicros(const char* span) const {
  const auto it = spans_.find(span);
  if (it == spans_.end() || it->second.statements == 0) return 0;
  return it->second.self_micros / static_cast<double>(it->second.statements);
}

double SpanTally::WaitMicrosPer(hdb::obs::WaitCause cause,
                                const char* per_span) const {
  const int c = static_cast<int>(cause);
  if (per_span == nullptr) {
    return statements_ == 0 ? 0 : waits_[c] / static_cast<double>(statements_);
  }
  const auto it = spans_.find(per_span);
  if (it == spans_.end() || it->second.statements == 0) return 0;
  return waits_by_span_.at(per_span)[c] /
         static_cast<double>(it->second.statements);
}

hdb::obs::StatementRegistryOptions CaptureAllStatements() {
  hdb::obs::StatementRegistryOptions o;
  o.slow_ring_capacity = 256;
  o.slow_floor_micros = 0;
  // Keep the p99 rule from raising the threshold above the zero floor.
  o.min_samples_for_p99 = UINT64_MAX;
  return o;
}

double CrashRestart(hdb::os::StableStorage& media,
                    std::unique_ptr<hdb::engine::Database>& db,
                    const hdb::engine::DatabaseOptions& options,
                    double* redo_records) {
  media.ScheduleCrash(0);
  db.reset();
  media.PowerCycle();
  const Clock::time_point t0 = Clock::now();
  db = Must(hdb::engine::Database::Open(options), "reopen after crash");
  const double seconds = SecondsSince(t0);
  *redo_records = static_cast<double>(db->recovery_stats().redo_records);
  return seconds;
}

void CheckReadBack(const std::map<int64_t, int64_t>& want,
                   const std::map<int64_t, int64_t>& got, Outcome* outcome) {
  for (const auto& [k, v] : want) {
    const auto it = got.find(k);
    const bool ok = it != got.end() && it->second == v;
    outcome->Check(ok, ok ? std::string()
                          : "after crash-restart key " + std::to_string(k) +
                                " reads " +
                                (it == got.end() ? std::string("missing")
                                                 : std::to_string(it->second)) +
                                ", committed " + std::to_string(v));
  }
  for (const auto& [k, v] : got) {
    if (want.count(k) == 0) {
      outcome->Check(false, "after crash-restart key " + std::to_string(k) +
                                " reads " + std::to_string(v) +
                                ", never committed");
    }
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ExplainRows(const std::string& plan) {
  const size_t at = plan.find("rows=");
  if (at == std::string::npos) Die("no row estimate in plan: " + plan);
  return std::strtod(plan.c_str() + at + 5, nullptr);
}

}  // namespace perfbench
