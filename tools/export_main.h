// hwprof_export: convert a capture into standard visualization formats, as
// a reusable entry point (the binary's main() calls this; tests call it
// directly with temp files).

#ifndef HWPROF_TOOLS_EXPORT_MAIN_H_
#define HWPROF_TOOLS_EXPORT_MAIN_H_

#include <string>

namespace hwprof {

// Runs the exporter:
//   hwprof_export <capture-file> <names-file> [options]
// The capture may be either a one-shot `hwprof-raw v1` file or a chunked
// `hwprof-stream v1` file (auto-detected from the header line).
// Options:
//   --format FMT     trace-event (default): Chrome/Perfetto trace-event
//                    JSON — open at ui.perfetto.dev or chrome://tracing.
//                    folded: folded-stack text for flamegraph.pl /
//                    speedscope, weighted by net nanoseconds.
//   --out FILE       write to FILE instead of stdout
//   --jobs N         accepted and ignored (as hwprof_analyze)
//   --salvage        tolerate corrupt capture files (as hwprof_analyze)
//   --stats          append the pipeline-telemetry section to stderr
//   --telemetry      (trace-event only) add one "C" counter track per
//                    path-invariant pipeline counter (decode.anomaly.*,
//                    decode.finishes, socket.*) so anomaly totals are
//                    visible on the timeline
// Returns 0 on success; errors land in `*error` with file:line:reason
// diagnostics where the loaders provide them.
int ExportMain(int argc, const char* const* argv, std::string* error);

}  // namespace hwprof

#endif  // HWPROF_TOOLS_EXPORT_MAIN_H_
