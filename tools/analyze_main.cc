#include "tools/analyze_main.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/analysis/callgraph.h"
#include "src/analysis/decoder.h"
#include "src/analysis/diff.h"
#include "src/analysis/grouping.h"
#include "src/analysis/histogram.h"
#include "src/analysis/process_report.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/base/json.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"
#include "src/profhw/smart_socket.h"

namespace hwprof {
namespace {

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// "file:line: reason" for one parse problem (the same shape TagFile
// diagnostics are printed in); line 0 is file-level.
std::string FormatTraceDiag(const std::string& path, const TraceDiag& d) {
  return d.line > 0 ? StrFormat("%s:%d: %s", path.c_str(), d.line, d.message.c_str())
                    : StrFormat("%s: %s", path.c_str(), d.message.c_str());
}

// Every parse problem, one per line, appended to `message`.
void AppendTraceDiags(const std::string& path, const std::vector<TraceDiag>& diags,
                      std::string* message) {
  for (const TraceDiag& d : diags) {
    *message += "\n" + FormatTraceDiag(path, d);
  }
}

// Pipeline-telemetry section (--stats / --stats-json): everything src/obs
// accumulated over this process — load, decode, shard replay, merge.
void PrintTelemetry(bool text, bool json) {
  if (!text && !json) {
    return;
  }
  const obs::Snapshot snap = obs::GlobalSnapshot();
  if (text) {
    std::printf("-- pipeline telemetry %s--\n%s",
                obs::kTelemetryCompiledIn ? "" : "(compiled out) ",
                snap.FormatText(2).c_str());
  }
  if (json) {
    std::printf("{\"telemetry\": %s}\n", snap.FormatJson().c_str());
  }
}

// One capture file of either encoding, decoded with its call trees for the
// batch reports and both sides of --diff. Streams are --follow's input and
// are refused. Salvaged problems are warned about on stderr, so stdout
// carries only the reports (`--salvage --json | jq` keeps parsing).
bool DecodeCaptureArg(const std::string& path, const TagFile& names, bool salvage,
                      DecodedTrace* decoded, std::string* error) {
  CaptureDecode capture = DecodeCaptureFile(path, names, salvage,
                                            StreamingOptions{.retain_structure = true});
  if (capture.shape.is_stream) {
    *error = StrFormat(
        "cannot load capture '%s'\n%s: stream container where a capture "
        "was expected (use --follow)",
        path.c_str(), path.c_str());
    return false;
  }
  if (!capture.ok) {
    *error = StrFormat("cannot load capture '%s'", path.c_str());
    AppendTraceDiags(path, capture.diags, error);
    return false;
  }
  for (const TraceDiag& d : capture.diags) {
    std::fprintf(stderr, "warning: %s (salvaged)\n", FormatTraceDiag(path, d).c_str());
  }
  *decoded = std::move(capture.trace);
  return true;
}

// Machine-readable report: capture header, the typed anomaly counters, and
// every summary row, built only from the DecodedTrace.
std::string FormatJson(const DecodedTrace& decoded) {
  const Summary summary(decoded);
  auto u64 = [](std::uint64_t v) {
    return StrFormat("%llu", static_cast<unsigned long long>(v));
  };
  std::string out = "{\n";
  out += "  \"elapsed_us\": " + u64(summary.elapsed_us()) + ",\n";
  out += "  \"run_us\": " + u64(summary.run_us()) + ",\n";
  out += "  \"idle_us\": " + u64(summary.idle_us()) + ",\n";
  out += "  \"events\": " + u64(decoded.event_count) + ",\n";
  out += StrFormat("  \"truncated\": %s,\n", decoded.truncated ? "true" : "false");
  out += "  \"anomalies\": {\n";
  out += "    \"corrupt_words\": " + u64(decoded.corrupt_words) + ",\n";
  out += "    \"impossible_deltas\": " + u64(decoded.impossible_deltas) + ",\n";
  out += "    \"wrap_ambiguous_gaps\": " + u64(decoded.wrap_ambiguous_gaps) + ",\n";
  out += "    \"unaccounted_us\": " + u64(ToWholeUsec(decoded.unaccounted_time)) + ",\n";
  out += "    \"unknown_tags\": " + u64(decoded.unknown_tags) + ",\n";
  out += "    \"orphan_exits\": " + u64(decoded.orphan_exits) + ",\n";
  out += "    \"dropped_events\": " + u64(decoded.dropped_events) + ",\n";
  out += "    \"capture_gaps\": " + u64(decoded.capture_gaps) + ",\n";
  out += "    \"unclosed_entries\": " + u64(decoded.unclosed_entries) + ",\n";
  out += "    \"mid_trace_unclosed\": " + u64(decoded.MidTraceUnclosedEntries()) + "\n";
  out += "  },\n";
  out += "  \"functions\": [";
  bool first = true;
  for (const SummaryRow& row : summary.rows()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    AppendJsonString(row.name, &out);
    out += ", \"calls\": " + u64(row.calls);
    out += ", \"elapsed_us\": " + u64(row.elapsed_us);
    out += ", \"net_us\": " + u64(row.net_us);
    out += ", \"max_us\": " + u64(row.max_us);
    out += ", \"avg_us\": " + u64(row.avg_us);
    out += ", \"min_us\": " + u64(row.min_us);
    out += StrFormat(", \"pct_real\": %.2f, \"pct_net\": %.2f}", row.pct_real,
                     row.pct_net);
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

// Incremental analysis of a chunked stream file: feeds each drained bank to
// a StreamingDecoder, printing a status line and a running Figure 3 summary
// as it goes. `--poll N` re-reads the file N times total (with a short real
// sleep in between) so a still-appending writer can be tailed; new complete
// chunks are picked up where the previous pass stopped. A chunk the writer
// never finished is decoded as a truncated tail at the end.
int FollowMain(const char* path, const TagFile& names, int argc, const char* const* argv,
               std::string* error) {
  std::size_t rows = 20;
  int polls = 1;
  bool salvage = false;
  bool progress = false;
  bool stats = false;
  bool stats_json = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_number = [&](std::size_t fallback) -> std::size_t {
      if (i + 1 < argc) {
        std::uint64_t value = 0;
        if (ParseUint(argv[i + 1], &value)) {
          ++i;
          return static_cast<std::size_t>(value);
        }
      }
      return fallback;
    };
    if (arg == "--follow") {
      continue;
    } else if (arg == "--summary") {
      rows = next_number(20);
    } else if (arg == "--poll") {
      polls = static_cast<int>(next_number(1));
    } else if (arg == "--salvage") {
      salvage = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else {
      *error = StrFormat("option '%s' is not available with --follow", arg.c_str());
      return 2;
    }
  }

  // Each poll re-reads (and re-parses) the whole file, so the salvage
  // corrupt-word total is cumulative; only the delta since the previous pass
  // is handed to the decoder.
  std::uint64_t corrupt_noted = 0;
  auto load = [&](const char* verb, StreamCapture* capture,
                  std::uint64_t* corrupt_delta) {
    std::vector<TraceDiag> diags;
    std::uint64_t corrupt_total = 0;
    const bool ok = salvage
                        ? LoadStreamSalvage(path, capture, &diags, &corrupt_total)
                        : LoadStream(path, capture, &diags);
    if (!ok) {
      *error = StrFormat("cannot %s stream file '%s'", verb, path);
      AppendTraceDiags(path, diags, error);
      return false;
    }
    if (corrupt_delta != nullptr) {
      *corrupt_delta =
          corrupt_total > corrupt_noted ? corrupt_total - corrupt_noted : 0;
      corrupt_noted = corrupt_total;
    }
    return true;
  };

  StreamCapture capture;
  std::uint64_t corrupt_delta = 0;
  if (!load("load", &capture, &corrupt_delta)) {
    return 1;
  }

  // --progress heartbeat: one line per drained chunk with decode rate
  // against this process's wall clock (the stream's own timestamps measure
  // the *target*, not us). Heartbeats are operator chatter, not report
  // output, so they go to stderr — piping stdout into a JSON consumer stays
  // machine-clean with progress on.
  const auto follow_start = std::chrono::steady_clock::now();
  auto heartbeat = [&](std::uint64_t events, std::uint64_t anomalies) {
    if (!progress) {
      return;
    }
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - follow_start)
            .count();
    const double rate = secs > 0 ? static_cast<double>(events) / secs : 0.0;
    std::fprintf(stderr,
                 "progress: %llu events, %llu anomalies, %.0f events/sec (%.1fs)\n",
                 static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(anomalies), rate, secs);
  };

  StreamingDecoder decoder(names, capture.timer_bits, capture.timer_clock_hz);
  decoder.NoteCorruptWords(corrupt_delta);
  std::size_t fed = 0;
  for (int pass = 0; pass < polls; ++pass) {
    if (pass > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      if (!load("re-read", &capture, &corrupt_delta)) {
        return 1;
      }
      decoder.NoteCorruptWords(corrupt_delta);
    }
    const std::size_t complete = capture.chunks.size() - (capture.truncated_tail ? 1 : 0);
    for (; fed < complete; ++fed) {
      const TraceChunk& chunk = capture.chunks[fed];
      decoder.FeedChunk(chunk);
      std::printf(
          "chunk %zu: %zu events (%llu dropped before) | stream so far: %llu events, "
          "%llu dropped, %zu awaiting lookahead\n",
          fed, chunk.events.size(), static_cast<unsigned long long>(chunk.dropped_before),
          static_cast<unsigned long long>(decoder.events_seen()),
          static_cast<unsigned long long>(decoder.dropped_events()), decoder.pending());
      if (progress) {
        heartbeat(decoder.events_seen(), decoder.SnapshotStats().AnomalyTotal());
      }
      std::printf("%s\n", Summary(decoder.SnapshotStats()).Format(rows).c_str());
    }
  }
  bool truncated = false;
  if (capture.truncated_tail && fed < capture.chunks.size()) {
    // The writer never finished this chunk; decode what made it to disk.
    decoder.FeedChunk(capture.chunks[fed]);
    ++fed;
    truncated = true;
  }
  const DecodedTrace decoded = decoder.Finish(truncated);
  std::printf("end of stream: %zu chunks, %llu events, %llu dropped in %llu gaps%s\n", fed,
              static_cast<unsigned long long>(decoded.event_count),
              static_cast<unsigned long long>(decoded.dropped_events),
              static_cast<unsigned long long>(decoded.capture_gaps),
              truncated ? " (truncated tail)" : "");
  std::printf("%s\n", Summary(decoded).Format(rows).c_str());
  PrintTelemetry(stats, stats_json);
  return 0;
}

// `hwprof_analyze --diff A B <names>`: decode both captures (any format)
// against the shared names file and print the three-granularity
// regression report. Exit codes: 0 no regression, 3 at least one gated row
// regressed beyond --noise-pct (and the --quantum-us floor), 1 load
// failure, 2 usage. `--gate net` demotes the per-call-edge section to
// advisory for cross-variant comparisons.
int DiffMain(int argc, const char* const* argv, std::string* error) {
  if (argc < 5) {
    *error =
        "usage: hwprof_analyze --diff <baseline> <candidate> <names> "
        "[--noise-pct P] [--quantum-us Q] [--gate all|net] [--json] "
        "[--salvage]";
    return 2;
  }
  const std::string path_a = argv[2];
  const std::string path_b = argv[3];
  const std::string names_path = argv[4];

  double noise_pct = 0.0;
  double quantum_us = 0.0;
  bool gate_edges = true;
  bool json = false;
  bool salvage = false;
  for (int i = 5; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--noise-pct" && i + 1 < argc) {
      const char* text = argv[++i];
      char* end = nullptr;
      noise_pct = std::strtod(text, &end);
      if (end == text || *end != '\0' || noise_pct < 0.0) {
        *error = StrFormat("--noise-pct needs a non-negative percentage, got '%s'", text);
        return 2;
      }
    } else if (arg == "--quantum-us" && i + 1 < argc) {
      const char* text = argv[++i];
      char* end = nullptr;
      quantum_us = std::strtod(text, &end);
      if (end == text || *end != '\0' || quantum_us < 0.0) {
        *error = StrFormat("--quantum-us needs a non-negative value, got '%s'", text);
        return 2;
      }
    } else if (arg == "--gate" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "all") {
        gate_edges = true;
      } else if (value == "net") {
        gate_edges = false;
      } else {
        *error = StrFormat("--gate must be all or net, got '%s'", value.c_str());
        return 2;
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--salvage") {
      salvage = true;
    } else {
      *error = StrFormat("unknown option '%s' for --diff", arg.c_str());
      return 2;
    }
  }

  std::string names_text;
  TagFile names;
  std::vector<TagDiag> names_diags;
  if (!ReadFileToString(names_path, &names_text) ||
      !TagFile::Parse(names_text, &names, &names_diags)) {
    *error = StrFormat("cannot parse names file '%s'", names_path.c_str());
    for (const TagDiag& d : names_diags) {
      *error += StrFormat("\n%s:%d: %s", names_path.c_str(), d.line, d.message.c_str());
    }
    return 1;
  }

  DecodedTrace baseline;
  DecodedTrace candidate;
  if (!DecodeCaptureArg(path_a, names, salvage, &baseline, error) ||
      !DecodeCaptureArg(path_b, names, salvage, &candidate, error)) {
    return 1;
  }

  const TraceDiff diff(baseline, candidate, names.GroupsByName(),
                       DiffOptions{.noise_pct = noise_pct,
                                   .quantum_us = quantum_us,
                                   .gate_edges = gate_edges});
  std::printf("%s", json ? diff.FormatJson().c_str() : diff.FormatText().c_str());
  return diff.HasRegression() ? 3 : 0;
}

}  // namespace

int AnalyzeMain(int argc, const char* const* argv, std::string* error) {
  if (argc >= 2 && std::string(argv[1]) == "--diff") {
    return DiffMain(argc, argv, error);
  }
  if (argc < 3) {
    *error =
        "usage: hwprof_analyze <capture> <names> [--summary N] [--trace N] "
        "[--callgraph N] [--histogram FN] [--groups] [--spl] [--json] "
        "[--salvage] [--stats] [--stats-json] [--progress] | "
        "<stream> <names> "
        "--follow [--summary N] [--poll N] [--salvage] "
        "[--progress] [--stats] [--stats-json] | --diff <baseline> "
        "<candidate> <names> [--noise-pct P] [--quantum-us Q] "
        "[--gate all|net] [--json] [--salvage]";
    return 2;
  }

  std::string names_text;
  TagFile names;
  std::vector<TagDiag> names_diags;
  const bool have_names = ReadFileToString(argv[2], &names_text) &&
                          TagFile::Parse(names_text, &names, &names_diags);
  auto names_error = [&] {
    std::string message = StrFormat("cannot parse names file '%s'", argv[2]);
    for (const TagDiag& d : names_diags) {
      message += StrFormat("\n%s:%d: %s", argv[2], d.line, d.message.c_str());
    }
    return message;
  };

  for (int i = 3; i < argc; ++i) {
    if (std::string(argv[i]) == "--follow") {
      if (!have_names) {
        *error = names_error();
        return 1;
      }
      return FollowMain(argv[1], names, argc, argv, error);
    }
  }

  // `--salvage` is resolved before decoding; the remaining options are
  // consumed by the report loop below.
  bool salvage = false;
  for (int i = 3; i < argc; ++i) {
    if (std::string(argv[i]) == "--salvage") {
      salvage = true;
    }
  }

  {
    // Report an unreadable capture before any names-file problem, as the
    // decode itself would.
    std::ifstream probe(argv[1], std::ios::binary);
    if (!probe.good()) {
      *error = StrFormat("cannot load capture '%s'", argv[1]);
      return 1;
    }
  }
  if (!have_names) {
    *error = names_error();
    return 1;
  }
  DecodedTrace decoded;
  if (!DecodeCaptureArg(argv[1], names, salvage, &decoded, error)) {
    return 1;
  }
  if (decoded.unknown_tags > 0) {
    // Warning chatter goes to stderr: `--json | jq` must keep parsing.
    std::fprintf(stderr,
                 "warning: %llu events carried tags missing from the names file\n",
                 static_cast<unsigned long long>(decoded.unknown_tags));
  }

  bool did_something = false;
  bool stats = false;
  bool stats_json = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_number = [&](std::size_t fallback) -> std::size_t {
      if (i + 1 < argc) {
        std::uint64_t value = 0;
        if (ParseUint(argv[i + 1], &value)) {
          ++i;
          return static_cast<std::size_t>(value);
        }
      }
      return fallback;
    };
    if (arg == "--summary") {
      std::printf("%s\n", Summary(decoded).Format(next_number(20)).c_str());
      did_something = true;
    } else if (arg == "--trace") {
      TraceReportOptions opts;
      opts.max_lines = next_number(60);
      std::printf("%s\n", TraceReport::Format(decoded, opts).c_str());
      did_something = true;
    } else if (arg == "--callgraph") {
      std::printf("%s", CallGraph(decoded).Format(decoded, next_number(10)).c_str());
      did_something = true;
    } else if (arg == "--histogram") {
      if (i + 1 >= argc) {
        *error = "--histogram needs a function name";
        return 2;
      }
      const std::string fn = argv[++i];
      std::printf("%s\n", Histogram::ForFunction(decoded, fn).Format(fn).c_str());
      did_something = true;
    } else if (arg == "--processes") {
      ProcessReport report(decoded);
      std::printf("%s\n", report.Format(decoded).c_str());
      did_something = true;
    } else if (arg == "--spl") {
      Grouping grouping(decoded, Grouping::SplGroup(decoded));
      std::printf("%s\n", grouping.Format().c_str());
      did_something = true;
    } else if (arg == "--groups") {
      // Per-abstraction profile from the names file's group= annotations.
      Grouping grouping(decoded, names.GroupsByName());
      std::printf("%s\n", grouping.Format().c_str());
      did_something = true;
    } else if (arg == "--json") {
      std::printf("%s", FormatJson(decoded).c_str());
      did_something = true;
    } else if (arg == "--stats") {
      stats = true;
      did_something = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
      did_something = true;
    } else if (arg == "--progress") {
      // One post-decode heartbeat on stderr (batch decodes have no chunk
      // loop to beat along with); stdout report output is untouched.
      std::fprintf(stderr, "progress: %llu events, %llu anomalies (decoded)\n",
                   static_cast<unsigned long long>(decoded.event_count),
                   static_cast<unsigned long long>(decoded.AnomalyTotal()));
    } else if (arg == "--salvage") {
      // already consumed before the load
    } else {
      *error = StrFormat("unknown option '%s'", arg.c_str());
      return 2;
    }
  }
  if (!did_something) {
    std::printf("%s\n", Summary(decoded).Format(20).c_str());
  }
  PrintTelemetry(stats, stats_json);
  return 0;
}

}  // namespace hwprof
