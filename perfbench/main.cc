// HolisticDB end-to-end benchmark driver.
//
//   perfbench --workload <oltp_embedded|oltp_wire|analytics> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Loads a fresh database from the seed, runs the workload for the given
// seconds, checks every answer against the benchmark's own model, and
// prints one JSON object as the last line of stdout: the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits
// non-zero when any check failed. See README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "harness.h"
#include "workloads.h"

namespace {

perfbench::Args ParseArgs(int argc, char** argv) {
  perfbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) perfbench::Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') perfbench::Die("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 1 || a.seconds > 600) {
        perfbench::Die("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") perfbench::Die("bad --trace " + value);
      a.trace = value == "1";
    } else {
      perfbench::Die("unknown flag " + flag);
    }
  }
  if (!have_workload) perfbench::Die("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = ParseArgs(argc, argv);
#ifdef __linux__
  // Timers of this process (and of every thread it starts) fire on time
  // instead of up to 50 us late at the kernel's choice: the WAL flusher
  // sleeps 100 us per group-commit window, and a slack that follows the
  // host's other timers made write latency follow them too.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
#endif
  perfbench::Report report;
  perfbench::Outcome outcome;
  if (args.workload == "oltp_embedded") {
    perfbench::RunOltp(args, /*wire=*/false, &report, &outcome);
  } else if (args.workload == "oltp_wire") {
    perfbench::RunOltp(args, /*wire=*/true, &report, &outcome);
  } else if (args.workload == "analytics") {
    perfbench::RunAnalytics(args, &report, &outcome);
  } else {
    perfbench::Die("unknown workload " + args.workload);
  }
  const bool correct = outcome.failed() == 0;
  std::printf("%s\n",
              report.Json(correct, outcome.attempted(), outcome.failed()).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
