// Standard-format trace export: converts a DecodedTrace into
//  * Chrome/Perfetto trace-event JSON — nested "X" slices per simulated
//    process (one track per ActivityStack), "i" instant events for inline
//    markers and for every anomaly counter, and "C" counter tracks for
//    cumulative idle and interrupt time — load the file at ui.perfetto.dev
//    or chrome://tracing;
//  * folded-stack text (`context 0;a;b 1234` per line) for flamegraph.pl /
//    speedscope, weighted by net (exclusive, on-CPU) nanoseconds.
//
// Both renderings are byte-deterministic: integer-only formatting, fixed
// walk order, map-sorted aggregation. Because every feed shape and shard
// size decodes to the same DecodedTrace, the export does not depend on how
// the capture was fed (export_test locks this in).
//
// Slice timestamps use the Chrome convention (microseconds) with exactly
// three fractional digits; each slice also carries the exact nanosecond
// accumulators (args.net_ns / args.elapsed_ns) so downstream tooling can
// reconcile against the Figure-3 summary without rounding drift.

#ifndef HWPROF_SRC_ANALYSIS_EXPORT_H_
#define HWPROF_SRC_ANALYSIS_EXPORT_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/analysis/decoder.h"
#include "src/obs/telemetry.h"

namespace hwprof {

std::string ExportTraceEventJson(const DecodedTrace& decoded);

// As above, plus one "C" counter sample per *counter* metric in `telemetry`
// (rendered as a "telemetry: <name>" track at the capture's end time, so
// pipeline counters line up against the slices that produced them). Only
// counters are rendered: gauge levels and latency histograms are wall-clock
// shaped and would break the serial-vs-parallel byte-identity contract.
// Passing nullptr (or a snapshot with no counters) renders exactly the
// single-argument form.
std::string ExportTraceEventJson(const DecodedTrace& decoded,
                                 const obs::Snapshot* telemetry);

std::string ExportFoldedStacks(const DecodedTrace& decoded);

// Minimal schema check for trace-event JSON produced by anything (not just
// us). The text must be strict JSON (ParseJson, src/base/json.h), with a
// top-level object holding a traceEvents array; every event has a string
// ph and numeric pid/tid; "X" events need name, numeric ts and dur >= 0;
// "i" events need name and ts; "C" events need name, ts and an args object;
// "M" events need a name. Also verifies that "X" slices nest properly per
// (pid, tid). Returns false and sets *error (with an event index) on the
// first violation. Shared by export_test and tools/trace_event_check.
bool ValidateTraceEventJson(const std::string& json, std::string* error);

// Totals recovered by *parsing the JSON text back* — used by tests to prove
// the export agrees with the decoder rather than with itself.
struct TraceEventTotals {
  // Per function name: sums of args.net_ns / args.elapsed_ns over "X" slices.
  std::map<std::string, std::uint64_t> net_ns;
  std::map<std::string, std::uint64_t> elapsed_ns;
  // Per anomaly instant name (e.g. "anomaly: corrupt_words"): args.count.
  std::map<std::string, std::uint64_t> anomaly_counts;
  std::uint64_t slices = 0;
  std::uint64_t instants = 0;
  std::uint64_t counter_samples = 0;
};

bool SummarizeTraceEventJson(const std::string& json, TraceEventTotals* out,
                             std::string* error);

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_EXPORT_H_
