// The host-side analysis tool, as a reusable entry point (the binary's
// main() calls this; tests call it directly with temp files).

#ifndef HWPROF_TOOLS_ANALYZE_MAIN_H_
#define HWPROF_TOOLS_ANALYZE_MAIN_H_

#include <string>

namespace hwprof {

// Runs the analyzer:
//   hwprof_analyze <capture-file> <names-file> [options]
//   hwprof_analyze <stream-file> <names-file> --follow [options]
//     (--follow always prints a live summary after every drained chunk)
// Options:
//   --summary N      top-N function summary (default report, N=20)
//   --trace N        first N code-path trace lines
//   --callgraph N    gprof-style caller/callee blocks for the top N
//   --histogram FN   per-call net-time histogram of function FN
//   --processes      per-process (activity-context) CPU accounting
//   --spl            spl* subsystem grouping
//   --json           machine-readable report: header stats, the typed
//                    anomaly counters, and every summary row
//   --salvage        tolerate corrupt capture files: unreadable lines are
//                    warned about, counted as corrupt-word anomalies and
//                    skipped instead of failing the load
//   --jobs N         accepted and ignored: the decoder starts worker
//                    threads by itself once a capture spans two shards
//   --stats          append the pipeline-telemetry section (src/obs
//                    counters, gauges and latency histograms for the load,
//                    decode, shard-replay and merge stages of this run)
//   --stats-json     the same snapshot as a JSON object
//   --progress       heartbeat on STDERR (stdout report output is never
//                    touched, so `--json --progress | jq` keeps parsing).
//                    Batch mode emits one post-decode heartbeat; --follow
//                    emits one line per drained chunk with events decoded,
//                    anomalies so far and the decode rate in events/sec
// Returns 0 on success; prints to stdout, errors to `*error` (a malformed
// capture or names file yields file:line:reason diagnostics and exit 1).
int AnalyzeMain(int argc, const char* const* argv, std::string* error);

}  // namespace hwprof

#endif  // HWPROF_TOOLS_ANALYZE_MAIN_H_
