// The pipeline benchmark's driver (see NOTES.md):
//
//   pipebench --workload stream_capture|pgo_analysis|fleet_ingest --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--source-id ID]
//
// Prints the host context and a human-readable report, then, as its last
// line, one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 0 only when every correctness check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "pipebench/bench.h"
#include "src/base/strings.h"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace pipebench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// These lists are BENCHMARK.json's end_to_end and per_layer, in order.
constexpr MetricSpec kEndToEnd[] = {
    {"events_per_s", "events/s"}, {"latency_p50_ms", "ms"}, {"latency_p95_ms", "ms"},
    {"peak_rss_mb", "MB"},        {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.host_s", "s"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.virtual_s", "virtual_s"},
    {"instr.drain_s", "s"},
    {"instr.drain_ns_per_event", "ns"},
    {"instr.drain_calls", "count"},
    {"instr.drain_events", "count"},
    {"profhw.events_drained", "count"},
    {"profhw.events_dropped", "count"},
    {"profhw.bank_swaps", "count"},
    {"encode.s", "s"},
    {"encode.bytes", "bytes"},
    {"parse.s", "s"},
    {"parse.mb_per_s", "MB/s"},
    {"decode.s", "s"},
    {"decode.events_per_s", "events/s"},
    {"decode.shards", "count"},
    {"decode.events", "count"},
    {"report.summary_s", "s"},
    {"report.trace_s", "s"},
    {"report.callgraph_s", "s"},
    {"report.groups_s", "s"},
    {"report.processes_s", "s"},
    {"export.s", "s"},
    {"diff.s", "s"},
    {"diff.rows", "count"},
    {"service.admit_ms_p50", "ms"},
    {"service.sojourn_ms_p50", "ms"},
    {"service.sojourn_ms_p95", "ms"},
    {"service.decode_ms_p50", "ms"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_hits", "count"},
    {"service.peak_queue_bytes", "bytes"},
    {"service.drops", "count"},
    {"service.drop.empty", "count"},
    {"service.drop.oversize", "count"},
    {"service.drop.queue_full", "count"},
    {"service.drop.draining", "count"},
    {"gen.late_ms_p99", "ms"},
    {"trace.overhead_pct", "%"},
};

constexpr const char* kUsage =
    "usage: pipebench --workload stream_capture|pgo_analysis|fleet_ingest "
    "--seed N --seconds S --trace 0|1 [--workdir DIR] [--source-id ID]";

bool ParseArgs(int argc, char** argv, Options* options, std::string* source_id,
               std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + arg;
      return false;
    }
    const std::string value = argv[i + 1];
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      if (!hwprof::ParseUint(value, &options->seed)) {
        *error = "--seed needs a non-negative integer";
        return false;
      }
    } else if (arg == "--seconds") {
      char* end = nullptr;
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options->seconds > 0) ||
          options->seconds > 120) {
        *error = "--seconds needs a number in (0, 120]";
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      options->trace = value == "1";
    } else if (arg == "--workdir") {
      options->workdir = value;
    } else if (arg == "--source-id") {
      *source_id = value;
    } else {
      *error = "unknown option " + arg;
      return false;
    }
  }
  if (options->workload != "stream_capture" && options->workload != "pgo_analysis" &&
      options->workload != "fleet_ingest") {
    *error = "unknown --workload '" + options->workload + "'";
    return false;
  }
  return true;
}

template <std::size_t N>
void PrintTable(const char* title, const MetricSpec (&specs)[N],
                const std::map<std::string, double>& values) {
  std::printf("%s\n", title);
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end()) {
      std::printf("  %-28s %16s  %s\n", spec.name, "n/a", spec.unit);
    } else {
      std::printf("  %-28s %16.6g  %s\n", spec.name, it->second, spec.unit);
    }
  }
}

// The "metrics" object. A missing end-to-end metric or a non-finite value
// is a failure; a per-layer metric for a layer the workload does not use is
// reported as 0.
template <std::size_t N>
std::string JsonMetrics(const MetricSpec (&specs)[N],
                        const std::map<std::string, double>& values,
                        bool missing_is_failure, Report* report) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(specs[i].name);
    double value = it == values.end() ? 0.0 : it->second;
    if (it == values.end() && missing_is_failure) {
      report->Check(false, std::string(specs[i].name) + " was not measured");
    }
    if (!std::isfinite(value)) {
      report->Check(false, std::string(specs[i].name) + " is not finite");
      value = 0;
    }
    out += hwprof::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
  }
  return out + "}";
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  using namespace pipebench;
  Options options;
  std::string source_id = "unknown";
  std::string error;
  if (!ParseArgs(argc, argv, &options, &source_id, &error)) {
    std::fprintf(stderr, "pipebench: %s\n%s\n", error.c_str(), kUsage);
    return 2;
  }
  if (!SelfCheckStats(&error)) {
    std::fprintf(stderr, "pipebench: percentile helper self-check failed: %s\n",
                 error.c_str());
    return 1;
  }
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) {
    load[0] = load[1] = load[2] = -1;
  }
  std::printf("host: nproc=%u compiler=\"g++ %s\" build=%s source=%s loadavg=%.2f/%.2f/%.2f\n",
              std::thread::hardware_concurrency(), __VERSION__, PIPEBENCH_BUILD_TYPE,
              source_id.c_str(), load[0], load[1], load[2]);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);

  Report report;
  try {
    if (options.workload == "stream_capture") {
      RunStreamCapture(options, &report);
    } else if (options.workload == "pgo_analysis") {
      RunPgoAnalysis(options, &report);
    } else {
      RunFleetIngest(options, &report);
    }
  } catch (const std::exception& e) {
    report.Check(false, std::string("exception: ") + e.what());
  }
  report.e2e.emplace("peak_rss_mb", PeakRssMb());  // unless the workload took it

  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  PrintTable("end-to-end:", kEndToEnd, report.e2e);
  if (options.trace) {
    PrintTable("per-layer (traced passes; n/a = not on this workload's path, 0 in JSON):",
               kPerLayer, report.layer);
  }
  const std::string metrics =
      options.trace ? JsonMetrics(kPerLayer, report.layer, false, &report)
                    : JsonMetrics(kEndToEnd, report.e2e, true, &report);
  for (const std::string& failure : report.failures) {
    std::printf("FAIL: %s\n", failure.c_str());
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("fail_frac: %.6g (%llu of %llu operations and checks failed)\n",
              report.attempted == 0
                  ? 1.0
                  : static_cast<double>(report.failed) / static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
