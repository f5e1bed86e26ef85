#ifndef HDB_PERFBENCH_LAYERS_H_
#define HDB_PERFBENCH_LAYERS_H_

// Per-layer primitive timers of the traced run: each times one public
// call of one engine module from outside the program, on the workload's
// own database (or, for the log, on a scratch log of its own).

#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "harness.h"
#include "table/row_codec.h"

namespace perfbench {

struct LayerTimes {
  double decode_ns_per_row = 0;   // table::DecodeRow
  double fetch_hit_ns = 0;        // BufferPool::FetchPage, resident page
  double probe_us = 0;            // BTree::Contains
  double range100_us = 0;         // BTree::ScanRange over 100 keys
  double append_durable_us = 0;   // WalManager::Append + WaitDurable
  double codec_row_ns = 0;        // wire encode + decode of one row
};

/// `table` has an index `index` on an INT column holding every key of
/// [0, keys) exactly once; `rows` are rows of `table` to encode and
/// decode. Dies if a probe disagrees with that key layout.
LayerTimes TimeLayers(hdb::engine::Database& db, const std::string& table,
                      const std::string& index,
                      const std::vector<hdb::table::Row>& rows, int64_t keys,
                      hdb::Rng& rng);

/// What a traced run measured, turned into the per-layer metrics by
/// ReportLayers. Counter deltas span the timed window; span tallies cover
/// the window and the probe leg.
struct LayerInputs {
  const Counters* before = nullptr;
  const Counters* after = nullptr;
  const SpanTally* spans = nullptr;
  LayerTimes times;
  double estimate_ratio = 0;  // estimated / true rows of a probe range
  double log_mb = 0;          // log written by the crash point
  double redo_records = 0;    // redo work of the restart
  double checkpoint_ms = 0;   // mean wall time of a window checkpoint
  double overhead_pct = 0;    // traced vs untraced window throughput
};

/// Adds every per-layer metric to `report`.
void ReportLayers(const LayerInputs& in, Report* report);

}  // namespace perfbench

#endif  // HDB_PERFBENCH_LAYERS_H_
