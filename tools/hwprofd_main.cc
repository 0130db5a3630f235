#include "tools/hwprofd_main.h"

#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/instr/tag_file.h"
#include "src/service/ingest.h"
#include "src/service/ops_socket.h"
#include "src/service/soak.h"
#include "src/snmp/mib.h"
#include "src/snmp/telemetry_mib.h"

namespace hwprof {

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void StopSignalHandler(int /*signum*/) { g_stop_requested = 1; }

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Parses a flag's value into *out, rejecting a value *out cannot hold
// instead of truncating it.
template <typename T>
bool ParseSizeFlag(const char* what, const char* value, T* out,
                   std::string* error) {
  std::uint64_t v = 0;
  if (value == nullptr || !ParseUint(value, &v)) {
    *error = StrFormat("%s needs a non-negative integer", what);
    return false;
  }
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (v > max) {
    *error = StrFormat("%s must be at most %llu", what,
                       static_cast<unsigned long long>(max));
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

int ServeMode(int argc, const char* const* argv, std::string* error) {
  if (argc < 3) {
    *error = "usage: hwprofd serve <names-file> --socket PATH [options]";
    return 1;
  }
  std::string names_text;
  if (!ReadFileToString(argv[2], &names_text)) {
    *error = StrFormat("cannot read names file %s", argv[2]);
    return 1;
  }
  TagFile names;
  std::vector<TagDiag> diags;
  if (!TagFile::Parse(names_text, &names, &diags)) {
    *error = StrFormat("names file %s: %zu parse problem(s)", argv[2],
                       diags.size());
    return 1;
  }

  std::string socket_path;
  service::ServiceOptions options;
  std::uint64_t tick_ms = 250;
  std::uint64_t duration_s = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--socket" && next != nullptr) {
      socket_path = next;
      ++i;
    } else if (arg == "--workers") {
      if (!ParseSizeFlag("--workers", next, &options.workers, error)) return 1;
      ++i;
    } else if (arg == "--tick-ms") {
      if (!ParseSizeFlag("--tick-ms", next, &tick_ms, error)) return 1;
      ++i;
    } else if (arg == "--duration-s") {
      if (!ParseSizeFlag("--duration-s", next, &duration_s, error)) return 1;
      ++i;
    } else if (arg == "--max-upload-bytes") {
      if (!ParseSizeFlag("--max-upload-bytes", next, &options.max_upload_bytes, error)) return 1;
      ++i;
    } else if (arg == "--queue-depth") {
      if (!ParseSizeFlag("--queue-depth", next, &options.queue_max_depth, error)) return 1;
      ++i;
    } else if (arg == "--queue-bytes") {
      if (!ParseSizeFlag("--queue-bytes", next, &options.queue_max_bytes, error)) return 1;
      ++i;
    } else if (arg == "--cache") {
      if (!ParseSizeFlag("--cache", next, &options.cache_capacity, error)) return 1;
      ++i;
    } else if (arg == "--rows") {
      if (!ParseSizeFlag("--rows", next, &options.summary_rows, error)) return 1;
      ++i;
    } else {
      *error = StrFormat("unknown serve option: %s", argv[i]);
      return 1;
    }
  }
  if (socket_path.empty()) {
    *error = "serve needs --socket PATH";
    return 1;
  }
  if (tick_ms == 0) {
    tick_ms = 250;
  }

  service::IngestService service(names, options);
  service::OpsServer server(service, socket_path);
  if (!server.Start()) {
    *error = server.last_error();
    return 1;
  }
  g_stop_requested = 0;
  std::signal(SIGINT, StopSignalHandler);
  std::signal(SIGTERM, StopSignalHandler);
  std::fprintf(stderr, "hwprofd: serving on %s (workers=%u tick=%llums)\n",
               socket_path.c_str(), service.workers(),
               static_cast<unsigned long long>(tick_ms));

  // Live SNMP view: each tick re-publishes the telemetry registry (which
  // carries the service.* counters and gauges) into the profTelemetry
  // subtree, so an agent serving this MIB always answers with daemon state.
  BTreeMib mib;
  const std::uint64_t deadline_ns =
      duration_s == 0 ? 0 : service.NowNs() + duration_s * 1'000'000'000ull;
  while (g_stop_requested == 0 &&
         (deadline_ns == 0 || service.NowNs() < deadline_ns)) {
    service.Tick();
    RefreshTelemetryMib(&mib);
    std::this_thread::sleep_for(std::chrono::milliseconds(tick_ms));
  }

  std::fprintf(stderr, "hwprofd: draining\n");
  service.BeginDrain();
  service.WaitIdle();
  server.Stop();
  service.Stop();
  const service::ServiceStats stats = service.Stats();
  std::fprintf(stderr,
               "hwprofd: done (offered=%llu accepted=%llu summaries=%llu "
               "dropped=%llu malformed=%llu)\n",
               static_cast<unsigned long long>(stats.offered),
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.summaries),
               static_cast<unsigned long long>(stats.DroppedTotal()),
               static_cast<unsigned long long>(stats.malformed));
  return 0;
}

int QueryMode(int argc, const char* const* argv, std::string* error) {
  std::string socket_path;
  std::string command;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else {
      if (!command.empty()) {
        command += " ";
      }
      command += argv[i];
    }
  }
  if (socket_path.empty() || command.empty()) {
    *error = "usage: hwprofd query --socket PATH <COMMAND...>";
    return 1;
  }
  const std::string response =
      service::OpsQuery(socket_path, command, error);
  if (!error->empty()) {
    return 1;
  }
  std::fputs(response.c_str(), stdout);
  // The terminator line is the success signal.
  const bool ok = response == "OK\n" ||
                  response.find("\nOK\n") != std::string::npos;
  return ok ? 0 : 1;
}

int UploadMode(int argc, const char* const* argv, std::string* error) {
  std::string socket_path;
  std::string tenant;
  std::string capture_path;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tenant" && i + 1 < argc) {
      tenant = argv[++i];
    } else if (capture_path.empty()) {
      capture_path = argv[i];
    } else {
      *error = StrFormat("unexpected upload argument: %s", argv[i]);
      return 1;
    }
  }
  if (socket_path.empty() || tenant.empty() || capture_path.empty()) {
    *error = "usage: hwprofd upload --socket PATH --tenant NAME <capture>";
    return 1;
  }
  std::string payload;
  if (!ReadFileToString(capture_path, &payload)) {
    *error = StrFormat("cannot read capture %s", capture_path.c_str());
    return 1;
  }
  std::uint64_t ingest_id = 0;
  std::string drop_reason;
  const bool accepted = service::OpsUpload(socket_path, tenant, payload,
                                           &ingest_id, &drop_reason, error);
  if (!error->empty()) {
    return 1;
  }
  if (accepted) {
    std::printf("ACCEPT %llu\n", static_cast<unsigned long long>(ingest_id));
    return 0;
  }
  std::printf("DROP %s %llu\n", drop_reason.c_str(),
              static_cast<unsigned long long>(ingest_id));
  return 1;
}

int SoakMode(int argc, const char* const* argv, std::string* error) {
  service::SoakOptions options;
  // CI-friendly defaults: exercise backpressure without multi-MB payloads.
  options.service.max_upload_bytes = 1u << 20;
  std::string metrics_out;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--uploaders") {
      if (!ParseSizeFlag("--uploaders", next, &options.uploaders, error)) return 1;
      ++i;
    } else if (arg == "--uploads") {
      if (!ParseSizeFlag("--uploads", next, &options.uploads_per_uploader, error)) return 1;
      ++i;
    } else if (arg == "--tenants") {
      if (!ParseSizeFlag("--tenants", next, &options.tenants, error)) return 1;
      ++i;
    } else if (arg == "--distinct") {
      if (!ParseSizeFlag("--distinct", next, &options.distinct_captures, error)) return 1;
      ++i;
    } else if (arg == "--events") {
      if (!ParseSizeFlag("--events", next, &options.events_per_capture, error)) return 1;
      ++i;
    } else if (arg == "--seed") {
      if (!ParseSizeFlag("--seed", next, &options.seed, error)) return 1;
      ++i;
    } else if (arg == "--workers") {
      if (!ParseSizeFlag("--workers", next, &options.service.workers, error)) return 1;
      ++i;
    } else if (arg == "--metrics-out" && next != nullptr) {
      metrics_out = next;
      ++i;
    } else {
      *error = StrFormat("unknown soak option: %s", argv[i]);
      return 1;
    }
  }
  const service::SoakReport report = service::RunSoak(options);
  const std::string json = report.FormatJson();
  std::printf("%s\n", json.c_str());
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      *error = StrFormat("cannot write %s", metrics_out.c_str());
      return 1;
    }
    out << json << "\n";
  }
  if (!report.ok()) {
    *error = "soak audit failed (see report JSON)";
    return 1;
  }
  return 0;
}

}  // namespace

int HwprofdMain(int argc, const char* const* argv, std::string* error) {
  error->clear();
  if (argc < 2) {
    *error =
        "usage: hwprofd <serve|query|upload|soak> ... (see tools/hwprofd_main.h)";
    return 1;
  }
  const std::string_view mode = argv[1];
  if (mode == "serve") {
    return ServeMode(argc, argv, error);
  }
  if (mode == "query") {
    return QueryMode(argc, argv, error);
  }
  if (mode == "upload") {
    return UploadMode(argc, argv, error);
  }
  if (mode == "soak") {
    return SoakMode(argc, argv, error);
  }
  *error = StrFormat("unknown mode: %.*s", static_cast<int>(mode.size()),
                     mode.data());
  return 1;
}

}  // namespace hwprof
