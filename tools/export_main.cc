#include "tools/export_main.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/analysis/decoder.h"
#include "src/analysis/export.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"

namespace hwprof {
namespace {

void AppendTraceDiags(const std::string& path,
                      const std::vector<TraceDiag>& diags,
                      std::string* message) {
  for (const TraceDiag& d : diags) {
    if (d.line > 0) {
      *message +=
          StrFormat("\n%s:%d: %s", path.c_str(), d.line, d.message.c_str());
    } else {
      *message += StrFormat("\n%s: %s", path.c_str(), d.message.c_str());
    }
  }
}

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

}  // namespace

int ExportMain(int argc, const char* const* argv, std::string* error) {
  if (argc < 3) {
    *error =
        "usage: hwprof_export <capture> <names> [--format trace-event|folded] "
        "[--out FILE] [--salvage] [--stats] [--telemetry]";
    return 2;
  }
  const std::string capture_path = argv[1];
  const std::string names_path = argv[2];
  std::string format = "trace-event";
  std::string out_path;
  bool salvage = false;
  bool stats = false;
  bool telemetry = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--salvage") {
      salvage = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--telemetry") {
      telemetry = true;
    } else {
      *error = StrFormat("unknown option '%s'", arg.c_str());
      return 2;
    }
  }
  if (format != "trace-event" && format != "folded") {
    *error = StrFormat("unknown format '%s' (expected trace-event or folded)",
                       format.c_str());
    return 2;
  }
  if (telemetry && format != "trace-event") {
    *error = "--telemetry requires --format trace-event";
    return 2;
  }

  std::string names_text;
  TagFile names;
  std::vector<TagDiag> names_diags;
  if (!ReadFileToString(names_path, &names_text) ||
      !TagFile::Parse(names_text, &names, &names_diags)) {
    *error = StrFormat("cannot parse names file '%s'", names_path.c_str());
    for (const TagDiag& d : names_diags) {
      *error += StrFormat("\n%s:%d: %s", names_path.c_str(), d.line,
                          d.message.c_str());
    }
    return 1;
  }

  // Either encoding, one-shot capture or stream, auto-detected.
  OBS_SPAN_BEGIN(decode);
  CaptureDecode capture = DecodeCaptureFile(capture_path, names, salvage,
                                            StreamingOptions{.retain_structure = true});
  OBS_SPAN_END(decode, "export.decode");
  if (!capture.ok) {
    *error = StrFormat("cannot load capture '%s'", capture_path.c_str());
    AppendTraceDiags(capture_path, capture.diags, error);
    return 1;
  }
  for (const TraceDiag& d : capture.diags) {
    std::fprintf(stderr, "warning: %s:%d: %s (salvaged)\n",
                 capture_path.c_str(), d.line, d.message.c_str());
  }
  const DecodedTrace& decoded = capture.trace;

  // The telemetry tracks render only counters that describe the capture:
  // the per-decode anomaly ledger and the load-side socket counters.
  // Engine-internal counters (decode.chunks, parallel.shards, ...) depend
  // on how the decoder cut and replayed the capture, not on what it holds.
  obs::Snapshot telemetry_counters;
  if (telemetry) {
    static constexpr std::string_view kInvariantPrefixes[] = {
        "decode.anomaly.", "decode.finishes", "socket."};
    for (obs::MetricValue& m : obs::GlobalSnapshot().metrics) {
      for (const std::string_view prefix : kInvariantPrefixes) {
        if (StartsWith(m.name, prefix)) {
          telemetry_counters.metrics.push_back(std::move(m));
          break;
        }
      }
    }
  }

  OBS_SPAN_BEGIN(render);
  const std::string rendered =
      format == "trace-event"
          ? ExportTraceEventJson(decoded,
                                 telemetry ? &telemetry_counters : nullptr)
          : ExportFoldedStacks(decoded);
  OBS_SPAN_END(render, "export.render");
  OBS_COUNT("export.bytes", rendered.size());

  if (out_path.empty()) {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::trunc | std::ios::binary);
    if (!out) {
      *error = StrFormat("cannot open output file '%s'", out_path.c_str());
      return 1;
    }
    out.write(rendered.data(),
              static_cast<std::streamsize>(rendered.size()));
    if (!out) {
      *error = StrFormat("short write to '%s'", out_path.c_str());
      return 1;
    }
  }
  if (stats) {
    std::fprintf(stderr, "-- pipeline telemetry --\n%s",
                 obs::GlobalSnapshot().FormatText(2).c_str());
  }
  return 0;
}

}  // namespace hwprof
