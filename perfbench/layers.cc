#include "layers.h"

#include <memory>

#include "common/ophash.h"
#include "harness.h"
#include "net/wire.h"
#include "obs/metric_names.h"
#include "obs/span_names.h"
#include "os/stable_storage.h"
#include "storage/disk_manager.h"
#include "wal/wal_manager.h"

namespace perfbench {
namespace {

// Each timer repeats its call in batches and reports the median batch
// mean, so one descheduled batch does not move the figure.
constexpr int kBatches = 7;

template <typename Fn>
double MedianBatchMean(int calls_per_batch, Fn&& fn) {
  std::vector<double> means;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < calls_per_batch; ++i) fn(i);
    means.push_back(MicrosSince(start) / calls_per_batch);
  }
  return Median(means);
}

double KeyHash(int64_t k) {
  return hdb::OrderPreservingHash(Value::Int(static_cast<int32_t>(k)));
}

}  // namespace

LayerTimes TimeLayers(hdb::engine::Database& db, const std::string& table,
                      const std::string& index,
                      const std::vector<hdb::table::Row>& rows, int64_t keys,
                      hdb::Rng& rng) {
  LayerTimes t;
  hdb::catalog::TableDef* def =
      Must(db.catalog().GetTable(table), "layer timers: table " + table);
  hdb::catalog::IndexDef* idx =
      Must(db.catalog().GetIndex(index), "layer timers: index " + index);
  hdb::index::BTree* tree = db.btree(idx->oid);
  if (tree == nullptr) Die("layer timers: no btree for " + index);

  // table: decode encoded rows.
  std::vector<std::string> encoded;
  for (const auto& row : rows) {
    encoded.push_back(Must(hdb::table::EncodeRow(*def, row), "encode row"));
  }
  t.decode_ns_per_row =
      1000.0 * MedianBatchMean(static_cast<int>(encoded.size()), [&](int i) {
        const std::string& e = encoded[i];
        if (Must(hdb::table::DecodeRow(*def, e.data(), e.size()), "decode row")
                .size() != def->columns.size()) {
          Die("decode returned the wrong column count");
        }
      });

  // storage: fetch a page that is already resident.
  const hdb::storage::SpacePageId spid{hdb::storage::SpaceId::kMain,
                                       def->first_page};
  Must(db.pool().FetchPage(spid, hdb::storage::PageType::kTable, def->oid),
       "fetch first page");
  t.fetch_hit_ns = 1000.0 * MedianBatchMean(20000, [&](int) {
    auto h = db.pool().FetchPage(spid, hdb::storage::PageType::kTable,
                                 def->oid);
    if (!h.ok()) Die("fetch resident page: " + h.status().ToString());
  });

  // index: point probes and 100-key range scans over present keys.
  std::vector<int64_t> probe_keys;
  for (int i = 0; i < 4000; ++i) {
    probe_keys.push_back(static_cast<int64_t>(rng.Uniform(keys - 100)));
  }
  t.probe_us = MedianBatchMean(4000, [&](int i) {
    if (!Must(tree->Contains(KeyHash(probe_keys[i])), "btree probe")) {
      Die("btree probe missed key " + std::to_string(probe_keys[i]));
    }
  });
  t.range100_us = MedianBatchMean(400, [&](int i) {
    const int64_t lo = probe_keys[i];
    int n = 0;
    Must(tree->ScanRange(KeyHash(lo), true, KeyHash(lo + 99), true,
                         [&](double, hdb::Rid) {
                           ++n;
                           return true;
                         }),
         "btree range");
    if (n != 100) Die("btree range returned " + std::to_string(n) + " keys");
  });

  // wal: append + durable wait on a scratch log of its own with the
  // workload's log options, so the workload's log and its recovery are
  // untouched.
  {
    auto media = std::make_shared<hdb::os::StableStorage>(
        db.options().page_bytes);
    hdb::storage::DiskManager disk(db.options().page_bytes, nullptr, nullptr,
                                   media);
    hdb::wal::WalManager wal(&disk, db.options().wal);
    wal.StartFlusher();
    const std::string payload(48, 'x');  // about one row image
    uint64_t txn = 0;
    t.append_durable_us = MedianBatchMean(300, [&](int) {
      const hdb::storage::Lsn lsn = Must(
          wal.Append(hdb::wal::WalRecordType::kCommit, ++txn, payload),
          "wal append");
      Must(wal.WaitDurable(lsn), "wal durable");
    });
    wal.Shutdown();
  }

  // net: encode one result row as a kRow frame, reassemble and decode it.
  {
    hdb::net::FrameAssembler assembler;
    std::string payload;
    std::string wire;
    t.codec_row_ns =
        1000.0 * MedianBatchMean(static_cast<int>(rows.size()), [&](int i) {
          const auto& row = rows[i];
          payload.clear();
          wire.clear();
          hdb::net::PutU16(&payload, static_cast<uint16_t>(row.size()));
          for (const Value& v : row) hdb::net::PutValue(&payload, v);
          hdb::net::AppendFrame(&wire, hdb::net::Opcode::kRow, payload);
          assembler.Feed(wire);
          auto frame = Must(assembler.Next(), "frame reassembly");
          if (!frame.has_value()) Die("frame reassembly: incomplete frame");
          hdb::net::PayloadReader reader(frame->payload);
          const uint16_t n = Must(reader.U16(), "row width");
          for (uint16_t c = 0; c < n; ++c) {
            if (!(Must(reader.GetValue(), "row value") == row[c])) {
              Die("wire codec changed a value");
            }
          }
        });
  }
  return t;
}

}  // namespace perfbench

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void ReportLayers(const LayerInputs& in, Report* report) {
  namespace obs = hdb::obs;
  const Counters& a = *in.before;
  const Counters& b = *in.after;
  const SpanTally& sp = *in.spans;
  auto d = [&](const char* name) { return Delta(a, b, name); };
  auto hist_mean = [&](const char* name) {
    return Ratio(HistSumDelta(a, b, name), HistCountDelta(a, b, name));
  };
  const double selects = d(obs::kStmtSelect);
  const double writes =
      d(obs::kStmtInsert) + d(obs::kStmtUpdate) + d(obs::kStmtDelete);
  const double statements = selects + writes;
  const double hits = d(obs::kPoolHits);
  const double misses = d(obs::kPoolMisses);

  report->Add("engine.parse_us", hist_mean(obs::kLatencyParseMicros), "us");
  report->Add("engine.admission_wait_us",
              Ratio(HistSumDelta(a, b, obs::kGateWaitMicros), statements), "us");
  report->Add("optimizer.optimize_us", hist_mean(obs::kLatencyOptimizeMicros),
              "us");
  report->Add("optimizer.range_estimate_ratio", in.estimate_ratio, "ratio");
  report->Add("exec.execute_us", hist_mean(obs::kLatencyExecuteMicros), "us");
  report->Add("exec.rows_examined_per_row",
              Ratio(d(obs::kExecRowsScanned), d(obs::kExecRowsOutput)), "ratio");
  report->Add("exec.hash_join_ms", sp.MeanSelfMicros(obs::kSpanOpHashJoin) / 1e3,
              "ms");
  report->Add("exec.group_by_ms",
              sp.MeanSelfMicros(obs::kSpanOpHashGroupBy) / 1e3, "ms");
  report->Add("exec.sort_ms", sp.MeanSelfMicros(obs::kSpanOpSort) / 1e3, "ms");
  report->Add("exec.spill_mb_per_query",
              Ratio(d(obs::kExecSpillBytesWritten) / 1e6, selects), "MB");
  report->Add("exec.parallel_workers_started",
              Ratio(d(obs::kExecParallelWorkersStarted), selects), "count");
  report->Add("exec.parallel_revoked_ratio",
              Ratio(d(obs::kExecParallelWorkersRevoked),
                    d(obs::kExecParallelWorkersStarted)),
              "ratio");
  report->Add("storage.pool_hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Add("storage.pool_frames", Level(b, obs::kPoolCurrentFrames), "count");
  report->Add("storage.pool_miss_wait_us",
              sp.WaitMicrosPer(obs::WaitCause::kPoolMiss, nullptr), "us");
  report->Add("storage.fetch_hit_ns", in.times.fetch_hit_ns, "ns");
  report->Add("table.decode_ns_per_row", in.times.decode_ns_per_row, "ns");
  report->Add("index.probe_us", in.times.probe_us, "us");
  report->Add("index.range100_us", in.times.range100_us, "us");
  report->Add("txn.commit_us", sp.MeanSpanMicros(obs::kSpanCommit), "us");
  report->Add("txn.lock_conflicts", d(obs::kLockConflicts), "count");
  report->Add("wal.durable_wait_us",
              sp.WaitMicrosPer(obs::WaitCause::kWalDurable, obs::kSpanCommit),
              "us");
  report->Add("wal.commits_per_fsync", Ratio(writes, d(obs::kWalFsyncs)),
              "ratio");
  report->Add("wal.bytes_per_write", Ratio(d(obs::kWalBytes), writes), "B");
  report->Add("wal.append_durable_us", in.times.append_durable_us, "us");
  report->Add("wal.checkpoint_ms", in.checkpoint_ms, "ms");
  report->Add("wal.log_mb", in.log_mb, "MB");
  report->Add("recovery.redo_records", in.redo_records, "count");
  report->Add("net.bytes_out_per_stmt",
              Ratio(d(obs::kNetBytesOut), d(obs::kNetStatements)), "B");
  report->Add("net.frames_per_stmt",
              Ratio(d(obs::kNetFramesOut), d(obs::kNetStatements)), "count");
  report->Add("net.write_stall_us",
              sp.WaitMicrosPer(obs::WaitCause::kNetWrite, nullptr), "us");
  report->Add("net.codec_row_ns", in.times.codec_row_ns, "ns");
  report->Add("trace.overhead_pct", in.overhead_pct, "%");
}

}  // namespace perfbench
