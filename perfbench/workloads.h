#ifndef HDB_PERFBENCH_WORKLOADS_H_
#define HDB_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// oltp_embedded (wire = false) and oltp_wire (wire = true).
void RunOltp(const Args& args, bool wire, Report* report, Outcome* outcome);

/// analytics: star-schema query rotation on one connection.
void RunAnalytics(const Args& args, Report* report, Outcome* outcome);

}  // namespace perfbench

#endif  // HDB_PERFBENCH_WORKLOADS_H_
