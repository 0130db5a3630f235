// hwprofd's ingest service and observability plane: typed drop accounting
// (nothing leaves the service without landing in a named counter), the
// decoded-summary cache, health transitions, ingest-ID propagation through
// the event log, the ops protocol (pinned by goldens under a frozen clock
// with synchronous workers), the local-socket transport, and the SNMP
// publication of the service's deterministic self-snapshot.
//
// To regenerate the ops goldens after an intentional change:
//   HWPROF_REGEN_GOLDEN=1 ./build/tests/service_test

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/profhw/binary_trace.h"
#include "src/service/ingest.h"
#include "src/service/ops.h"
#include "src/service/ops_socket.h"
#include "src/service/soak.h"
#include "src/snmp/mib.h"
#include "src/snmp/telemetry_mib.h"
#include "tests/trace_testutil.h"

namespace hwprof {
namespace service {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(HWPROF_TEST_DIR) + "/golden/" + name;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("HWPROF_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good()) << "write to " << path << " failed";
    GTEST_SKIP() << "regenerated " << name;
  }
  std::string expected;
  ASSERT_TRUE(ReadFile(path, &expected))
      << path << " is missing; run with HWPROF_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(actual, expected)
      << name << " drifted; if the change is intentional, regenerate with "
      << "HWPROF_REGEN_GOLDEN=1";
}

// Frozen service clock: starts at 1s and advances 1ms per observation, so
// every run of the synchronous (workers=0) scenario sees identical
// timestamps and the rendered ops responses are byte-stable.
struct FrozenClock {
  std::uint64_t t_ns = 1'000'000'000ull;
  std::function<std::uint64_t()> fn() {
    return [this] {
      t_ns += 1'000'000ull;
      return t_ns;
    };
  }
};

ServiceOptions SyncOptions(FrozenClock* clock) {
  ServiceOptions options;
  options.workers = 0;  // decode inline in Submit(): deterministic ordering
  options.max_upload_bytes = 100'000;
  options.summary_rows = 5;
  options.clock = clock->fn();
  return options;
}

// The scripted scenario behind every ops golden: two tenants, one text and
// one binary capture, a cache hit, one drop of each admission flavour and
// one malformed payload.
void RunScriptedUploads(IngestService* service) {
  const std::string text = SynthTrace(1, 400).Serialize();
  const std::string binary = EncodeCaptureBinary(SynthTrace(2, 300));
  EXPECT_TRUE(service->Submit("alpha", text).accepted);
  service->Tick();
  EXPECT_TRUE(service->Submit("beta", binary).accepted);
  EXPECT_TRUE(service->Submit("alpha", text).accepted);  // cache hit
  EXPECT_EQ(service->Submit("beta", "").reason, DropReason::kEmpty);
  EXPECT_EQ(service->Submit("beta", std::string(100'001, 'x')).reason,
            DropReason::kOversize);
  EXPECT_TRUE(service->Submit("gamma", "this is not a capture\n").accepted);
  service->Tick();
}

TEST(ServiceOps, StatusGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_status.golden", HandleOpsCommand(service, "STATUS"));
}

TEST(ServiceOps, HealthGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_health.golden", HandleOpsCommand(service, "HEALTH"));
}

TEST(ServiceOps, TenantsGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_tenants.golden", HandleOpsCommand(service, "TENANTS"));
}

TEST(ServiceOps, MetricsGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_metrics.golden", HandleOpsCommand(service, "METRICS"));
}

TEST(ServiceOps, EventsGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_events.golden", HandleOpsCommand(service, "EVENTS 0"));
}

TEST(ServiceOps, IngestTrailGolden) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  CheckGolden("ops_ingest.golden", HandleOpsCommand(service, "INGEST 1"));
}

TEST(ServiceOps, ErrorsAreTyped) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  EXPECT_EQ(HandleOpsCommand(service, ""), "ERR empty command\n");
  EXPECT_EQ(HandleOpsCommand(service, "BOGUS"),
            "ERR unknown command: BOGUS\n");
  EXPECT_EQ(HandleOpsCommand(service, "METRICS nope"),
            "ERR METRICS window must be a non-negative integer\n");
  // A window whose ns conversion would wrap uint64 is an error, not a
  // silently tiny window (UINT64_MAX/1e9 ~ 18446744073 seconds).
  EXPECT_EQ(HandleOpsCommand(service, "METRICS 18446744074"),
            "ERR METRICS window too large (use 0 for the whole ring)\n");
  EXPECT_NE(HandleOpsCommand(service, "METRICS 18446744073").substr(0, 3),
            "ERR");
  EXPECT_EQ(HandleOpsCommand(service, "INGEST nope"),
            "ERR INGEST id must be a non-negative integer\n");
  // Every success response ends with the OK terminator line.
  for (const char* cmd : {"STATUS", "HEALTH", "TENANTS", "METRICS", "EVENTS",
                          "INGEST 1"}) {
    const std::string response = HandleOpsCommand(service, cmd);
    ASSERT_GE(response.size(), 3u) << cmd;
    EXPECT_EQ(response.substr(response.size() - 3), "OK\n") << cmd;
  }
}

TEST(ServiceIngest, TypedDropAccountingBalancesExactly) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);
  const ServiceStats s = service.Stats();
  // The service-edge invariant, in uploads and in bytes.
  EXPECT_EQ(s.offered, s.accepted + s.DroppedTotal());
  EXPECT_EQ(s.offered_bytes, s.accepted_bytes + s.dropped_bytes);
  // And the pipeline invariant: everything admitted was fully processed.
  EXPECT_EQ(s.accepted, s.summaries + s.malformed);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kEmpty)], 1u);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kOversize)], 1u);
  EXPECT_EQ(s.malformed, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_GT(s.decoded_events, 0u);
  // Per-tenant rows sum to the totals.
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  for (const auto& [name, tc] : s.tenants) {
    offered += tc.offered;
    accepted += tc.accepted;
    EXPECT_EQ(tc.offered, tc.accepted + tc.DroppedTotal()) << name;
  }
  EXPECT_EQ(offered, s.offered);
  EXPECT_EQ(accepted, s.accepted);
}

TEST(ServiceIngest, CachedSummaryMatchesOfflineDecode) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  const RawTrace raw = SynthTrace(7, 600);
  const std::string payload = raw.Serialize();
  EXPECT_TRUE(service.Submit("alpha", payload).accepted);
  EXPECT_TRUE(service.Submit("beta", payload).accepted);  // served from cache

  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.summaries, 2u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_entries, 1u);

  UploadOutcome outcome;
  ASSERT_TRUE(
      service.LookupOutcome(IngestService::HashPayload(payload), &outcome));
  const DecodedTrace offline = Decoder::Decode(raw, SoakNames());
  EXPECT_EQ(outcome.summary, Summary(offline).Format(5))
      << "service summary diverged from the offline decode";
  EXPECT_EQ(outcome.events, offline.event_count);
}

// A hostile but legal upload: 300,000 nested bcopy entries with no exit,
// about 900 KB of hwpb under the 4 MiB cap. A workers=0 Submit decodes it
// and caches its summary promptly, so such an upload cannot hold a worker.
TEST(ServiceIngest, DeepNestingUploadDecodesPromptly) {
  std::string names_text;
  ASSERT_TRUE(ReadFile(GoldenPath("net_receive.names"), &names_text));
  TagFile names;
  ASSERT_TRUE(TagFile::Parse(names_text, &names));
  const std::string payload = EncodeCaptureBinary(DeepNestingTrace(300'000, 502, 3));
  ServiceOptions options;
  options.workers = 0;
  ASSERT_LE(payload.size(), options.max_upload_bytes);
  IngestService service(names, options);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(service.Submit("deep", payload).accepted);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(seconds, 10.0);
  UploadOutcome outcome;
  ASSERT_TRUE(service.LookupOutcome(IngestService::HashPayload(payload), &outcome));
  EXPECT_EQ(outcome.events, 300'000u);
  EXPECT_NE(outcome.summary.find("bcopy"), std::string::npos);
}

TEST(ServiceIngest, CacheEvictsLeastRecentlyUsed) {
  FrozenClock clock;
  ServiceOptions options = SyncOptions(&clock);
  options.cache_capacity = 2;
  IngestService service(SoakNames(), options);
  const std::string a = SynthTrace(11, 200).Serialize();
  const std::string b = SynthTrace(12, 200).Serialize();
  const std::string c = SynthTrace(13, 200).Serialize();
  service.Submit("t", a);
  service.Submit("t", b);
  service.Submit("t", c);  // evicts a
  UploadOutcome outcome;
  EXPECT_FALSE(service.LookupOutcome(IngestService::HashPayload(a), &outcome));
  EXPECT_TRUE(service.LookupOutcome(IngestService::HashPayload(b), &outcome));
  EXPECT_TRUE(service.LookupOutcome(IngestService::HashPayload(c), &outcome));
  EXPECT_EQ(service.Stats().cache_entries, 2u);
}

TEST(ServiceIngest, CacheHitRefreshesRecency) {
  FrozenClock clock;
  ServiceOptions options = SyncOptions(&clock);
  options.cache_capacity = 2;
  IngestService service(SoakNames(), options);
  const std::string a = SynthTrace(21, 200).Serialize();
  const std::string b = SynthTrace(22, 200).Serialize();
  const std::string c = SynthTrace(23, 200).Serialize();
  service.Submit("t", a);
  service.Submit("t", b);
  service.Submit("t", a);  // cache hit: a becomes most recent
  service.Submit("t", c);  // must evict b, not a
  UploadOutcome outcome;
  EXPECT_TRUE(service.LookupOutcome(IngestService::HashPayload(a), &outcome));
  EXPECT_FALSE(service.LookupOutcome(IngestService::HashPayload(b), &outcome));
  EXPECT_TRUE(service.LookupOutcome(IngestService::HashPayload(c), &outcome));
  EXPECT_EQ(service.Stats().cache_hits, 1u);
}

TEST(ServiceIngest, RejectOversizeAccountsWithoutPayload) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  // A declared size far beyond any allocatable payload still lands in the
  // same typed counters and event log as a Submit()-time oversize drop.
  const SubmitResult r =
      service.RejectOversize("liar", 99'999'999'999'999'999ull);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, DropReason::kOversize);
  EXPECT_GT(r.ingest_id, 0u);
  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.offered, 1u);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kOversize)], 1u);
  EXPECT_EQ(s.offered_bytes, s.accepted_bytes + s.dropped_bytes);
  const std::vector<LogEvent> trail =
      service.event_log().ForIngest(r.ingest_id);
  ASSERT_EQ(trail.size(), 1u);
  EXPECT_NE(trail[0].detail.find("reason=oversize"), std::string::npos);
}

TEST(ServiceIngest, BackpressureIsATypedQueueFullDrop) {
  // queue_max_depth=0 with real workers rejects every enqueue before any
  // worker can race to drain it — the deterministic way to hit the limit.
  FrozenClock clock;
  ServiceOptions options = SyncOptions(&clock);
  options.workers = 1;
  options.queue_max_depth = 0;
  IngestService service(SoakNames(), options);
  const SubmitResult r = service.Submit("t", SynthTrace(3, 100).Serialize());
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, DropReason::kQueueFull);
  service.Stop();
  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kQueueFull)], 1u);
  EXPECT_EQ(s.offered, s.accepted + s.DroppedTotal());
  EXPECT_EQ(s.offered_bytes, s.accepted_bytes + s.dropped_bytes);
}

TEST(ServiceIngest, HealthTransitionsReadyDegradedDraining) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  EXPECT_EQ(service.health(), Health::kReady);
  EXPECT_EQ(service.HealthDetail(), "ok");

  EXPECT_TRUE(service.Submit("t", "garbage payload\n").accepted);
  EXPECT_EQ(service.health(), Health::kDegraded)
      << "a malformed admission must degrade health";
  EXPECT_EQ(service.HealthDetail(), "drops=0 malformed=1");

  service.BeginDrain();
  EXPECT_EQ(service.health(), Health::kDraining);
  const SubmitResult r = service.Submit("t", SynthTrace(4, 100).Serialize());
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, DropReason::kDraining);

  service.Stop();
  EXPECT_EQ(service.health(), Health::kDraining);
  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kDraining)], 1u);
}

TEST(ServiceIngest, IngestIdPropagatesCaptureDecodeSummary) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  const SubmitResult r = service.Submit("alpha", SynthTrace(5, 300).Serialize());
  ASSERT_TRUE(r.accepted);
  const std::vector<LogEvent> trail = service.event_log().ForIngest(r.ingest_id);
  ASSERT_EQ(trail.size(), 3u);
  EXPECT_EQ(trail[0].stage, "capture");
  EXPECT_EQ(trail[1].stage, "decode");
  EXPECT_EQ(trail[2].stage, "summary");
  for (const LogEvent& e : trail) {
    EXPECT_EQ(e.ingest_id, r.ingest_id);
    EXPECT_EQ(e.tenant, "alpha");
  }
  // Drops leave a trail too: the drop reason lands in the capture stage.
  const SubmitResult drop = service.Submit("alpha", "");
  ASSERT_FALSE(drop.accepted);
  const std::vector<LogEvent> drop_trail =
      service.event_log().ForIngest(drop.ingest_id);
  ASSERT_EQ(drop_trail.size(), 1u);
  EXPECT_EQ(drop_trail[0].stage, "capture");
  EXPECT_NE(drop_trail[0].detail.find("reason=empty"), std::string::npos);
}

TEST(ServiceIngest, SelfSnapshotFeedsTheSnmpSubtree) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  RunScriptedUploads(&service);

  const obs::Snapshot snap = service.SelfSnapshot();
  const ServiceStats s = service.Stats();
  EXPECT_EQ(snap.CounterValue("svc.offered"), s.offered);
  EXPECT_EQ(snap.CounterValue("svc.accepted"), s.accepted);
  EXPECT_EQ(snap.CounterValue("svc.drop.empty"), 1u);
  EXPECT_EQ(snap.CounterValue("svc.drop.oversize"), 1u);
  EXPECT_EQ(snap.CounterValue("svc.malformed"), 1u);

  // Published through the same MIB machinery the agent serves, the upload
  // size ladder surfaces percentile leaves (.5/.6/.7) a station can poll.
  BTreeMib mib;
  PopulateTelemetryMib(snap, &mib);
  const Oid root = ProfTelemetryRoot();
  Oid at = root;
  Oid row_oid;
  while (const MibEntry* e = mib.GetNext(at)) {
    if (e->oid.size() == root.size() + 4 && e->value == "svc.upload_bytes") {
      row_oid = e->oid;
      break;
    }
    at = e->oid;
  }
  ASSERT_FALSE(row_oid.empty()) << "svc.upload_bytes row not published";
  Oid p50_oid = row_oid;
  p50_oid[root.size() + 2] = 5;  // name column -> p50 column
  const MibEntry* p50 = mib.Get(p50_oid);
  ASSERT_NE(p50, nullptr);
  EXPECT_NE(p50->value, "0") << "upload-size p50 should be nonzero";

  // The self-snapshot is deterministic: same state, same bytes.
  EXPECT_EQ(service.SelfSnapshot().FormatJson(), snap.FormatJson());
}

TEST(ServiceSocket, UploadAndQueryRoundTrip) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  const std::string path = ::testing::TempDir() + "/hwprofd_test.sock";
  std::remove(path.c_str());
  OpsServer server(service, path);
  ASSERT_TRUE(server.Start()) << server.last_error();

  std::uint64_t ingest_id = 0;
  std::string drop_reason;
  std::string error;
  ASSERT_TRUE(OpsUpload(path, "alpha", SynthTrace(6, 300).Serialize(),
                        &ingest_id, &drop_reason, &error))
      << error << " " << drop_reason;
  EXPECT_GT(ingest_id, 0u);

  // The reply's ingest ID keys the trail the daemon retains.
  const std::string trail =
      OpsQuery(path, StrFormat("INGEST %llu",
                               static_cast<unsigned long long>(ingest_id)),
               &error);
  EXPECT_NE(trail.find("\"stage\":\"summary\""), std::string::npos) << trail;

  EXPECT_EQ(OpsQuery(path, "HEALTH", &error), "ready ok\nOK\n");

  // A typed drop travels back over the wire with its reason.
  EXPECT_FALSE(
      OpsUpload(path, "alpha", "", &ingest_id, &drop_reason, &error));
  EXPECT_EQ(drop_reason, "empty");

  server.Stop();
  service.Stop();
}

TEST(ServiceSocket, OversizeHeaderRejectedWithoutBuffering) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));  // cap = 100'000
  const std::string path = ::testing::TempDir() + "/hwprofd_oversize.sock";
  std::remove(path.c_str());
  OpsServer server(service, path);
  ASSERT_TRUE(server.Start()) << server.last_error();

  std::string error;
  // A lying header declaring an unallocatable size must get a typed DROP
  // reply, not resize(nbytes) the daemon to death. OpsQuery frames exactly
  // the hostile shape: the header line with no payload behind it.
  const std::string reply =
      OpsQuery(path, "UPLOAD liar 99999999999999999", &error);
  EXPECT_EQ(reply.substr(0, 14), "DROP oversize ") << reply << error;

  // A genuinely oversize payload still round-trips its typed reason: the
  // server replies from the header alone and drains the body.
  std::uint64_t ingest_id = 0;
  std::string drop_reason;
  EXPECT_FALSE(OpsUpload(path, "alpha", std::string(100'001, 'x'), &ingest_id,
                         &drop_reason, &error))
      << error;
  EXPECT_EQ(drop_reason, "oversize");

  // The daemon survived both and still serves; nothing dropped silently.
  EXPECT_EQ(OpsQuery(path, "HEALTH", &error).substr(0, 8), "degraded");
  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kOversize)], 2u);
  EXPECT_EQ(s.offered, s.accepted + s.DroppedTotal());
  EXPECT_EQ(s.offered_bytes, s.accepted_bytes + s.dropped_bytes);

  server.Stop();
  service.Stop();
}

TEST(ServiceSocket, StopUnblocksSilentConnections) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  const std::string path = ::testing::TempDir() + "/hwprofd_silent.sock";
  std::remove(path.c_str());
  OpsServer server(service, path);
  ASSERT_TRUE(server.Start()) << server.last_error();

  // A client that connects and sends nothing must not hold up Stop(): the
  // serving thread closes the connection and exits, well before the
  // connection's 10 s deadline would.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  // Give the serving thread a moment to accept the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5))
      << "Stop() must not wait out the connection read timeout";
  ::close(fd);
  service.Stop();
}

// --- Hostile clients over the real socket -------------------------------------------

using SteadyClock = std::chrono::steady_clock;

// A raw client connected to `path`, for the clients OpsQuery and OpsUpload
// never are: silent, slow, half-sent or lying ones. -1 on failure.
int ConnectRaw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// False once the server has closed the connection (the send fails).
bool SendRaw(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// What the server sends before it closes the connection (EOF or a reset).
// *closed stays false if it has not closed within `timeout`.
std::string ReadUntilClosed(int fd, std::chrono::milliseconds timeout, bool* closed) {
  *closed = false;
  std::string reply;
  const SteadyClock::time_point deadline = SteadyClock::now() + timeout;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - SteadyClock::now());
    pollfd p{fd, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      return reply;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      *closed = true;
      return reply;
    }
    reply.append(buf, static_cast<std::size_t>(n));
  }
}

TEST(ServiceSocket, SilentClientDoesNotStallOthers) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  const std::string path = ::testing::TempDir() + "/hwprofd_stall.sock";
  std::remove(path.c_str());
  OpsServer server(service, path);
  ASSERT_TRUE(server.Start()) << server.last_error();

  const int silent = ConnectRaw(path);
  ASSERT_GE(silent, 0);
  for (int i = 0; i < 300; ++i) {
    std::string error;
    const SteadyClock::time_point t0 = SteadyClock::now();
    const std::string reply = OpsQuery(path, "HEALTH", &error);
    const SteadyClock::duration elapsed = SteadyClock::now() - t0;
    ASSERT_EQ(reply, "ready ok\nOK\n") << "query " << i << ": " << error;
    ASSERT_LT(elapsed, std::chrono::seconds(1))
        << "query " << i << " waited behind the silent client";
  }
  server.Stop();
  ::close(silent);
  service.Stop();
}

TEST(ServiceSocket, HostileClientsKeepAccountingExact) {
  ServiceOptions options;
  options.workers = 2;
  options.max_upload_bytes = 100'000;
  IngestService service(SoakNames(), options);
  const std::string path = ::testing::TempDir() + "/hwprofd_hostile.sock";
  std::remove(path.c_str());
  OpsServer server(service, path);
  ASSERT_TRUE(server.Start()) << server.last_error();

  // Hostile clients, all held open at once.
  const int short_fd = ConnectRaw(path);
  const int long_fd = ConnectRaw(path);
  const int gone_fd = ConnectRaw(path);
  const int big_fd = ConnectRaw(path);
  ASSERT_GE(short_fd, 0);
  ASSERT_GE(long_fd, 0);
  ASSERT_GE(gone_fd, 0);
  ASSERT_GE(big_fd, 0);
  // A header trickled one byte every 200 ms never completes, and the
  // connection's absolute 10 s deadline closes it unanswered. No ASSERT
  // may return before this thread is joined.
  SteadyClock::duration trickle_elapsed{};
  bool trickle_closed = false;
  std::string trickle_reply;
  std::thread trickler([&] {
    const SteadyClock::time_point t0 = SteadyClock::now();
    const int fd = ConnectRaw(path);
    if (fd < 0) {
      return;
    }
    const std::string header = "UPLOAD trickle " + std::string(100, '9');
    for (const char byte : header) {
      pollfd p{fd, POLLIN, 0};
      if (!SendRaw(fd, std::string_view(&byte, 1)) || ::poll(&p, 1, 200) != 0) {
        break;  // the server closed the connection
      }
    }
    trickle_reply = ReadUntilClosed(fd, std::chrono::seconds(3), &trickle_closed);
    trickle_elapsed = SteadyClock::now() - t0;
    ::close(fd);
  });

  EXPECT_TRUE(SendRaw(short_fd, "UPLOAD short 1000\n" + std::string(10, 's')));
  EXPECT_TRUE(SendRaw(long_fd, std::string(5000, 'L')));
  EXPECT_TRUE(SendRaw(gone_fd, "UPLOAD gone 1000\n" + std::string(10, 'g')));
  EXPECT_TRUE(SendRaw(big_fd, "UPLOAD big 200000\n" + std::string(50'000, 'b')));

  // Meanwhile an honest upload and a query are served.
  std::uint64_t ingest_id = 0;
  std::string drop_reason;
  std::string error;
  EXPECT_TRUE(OpsUpload(path, "alpha", SynthTrace(7, 300).Serialize(), &ingest_id,
                        &drop_reason, &error))
      << error << " " << drop_reason;
  const std::string health = OpsQuery(path, "HEALTH", &error);
  EXPECT_TRUE(health.size() >= 4 && health.substr(health.size() - 4) == "\nOK\n")
      << health << error;

  bool closed = false;
  // A request line over 4096 bytes is closed with no reply.
  EXPECT_EQ(ReadUntilClosed(long_fd, std::chrono::seconds(2), &closed), "");
  EXPECT_TRUE(closed);
  // A payload cut short by the client's half-close is answered as such.
  ::shutdown(short_fd, SHUT_WR);
  EXPECT_EQ(ReadUntilClosed(short_fd, std::chrono::seconds(2), &closed),
            "ERR short upload payload\n");
  EXPECT_TRUE(closed);
  // A client that vanishes mid-payload costs nothing but its connection.
  ::close(gone_fd);
  // An oversize header is answered from the header; its body is discarded.
  EXPECT_TRUE(SendRaw(big_fd, std::string(150'000, 'b')));
  ::shutdown(big_fd, SHUT_WR);
  const std::string big_reply = ReadUntilClosed(big_fd, std::chrono::seconds(2), &closed);
  EXPECT_EQ(big_reply.substr(0, 14), "DROP oversize ") << big_reply;
  EXPECT_TRUE(closed);
  for (const int fd : {short_fd, long_fd, big_fd}) {
    ::close(fd);
  }

  trickler.join();
  EXPECT_TRUE(trickle_closed);
  EXPECT_EQ(trickle_reply, "");
  EXPECT_GE(trickle_elapsed, std::chrono::seconds(9));
  EXPECT_LT(trickle_elapsed, std::chrono::seconds(12));

  service.WaitIdle();
  const ServiceStats s = service.Stats();
  EXPECT_EQ(s.offered, 2u);
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(DropReason::kOversize)], 1u);
  EXPECT_EQ(s.offered, s.accepted + s.DroppedTotal());
  EXPECT_EQ(s.offered_bytes, s.accepted_bytes + s.dropped_bytes);

  // Stop() returns promptly with a silent and a half-sent client still open.
  const int silent = ConnectRaw(path);
  const int partial = ConnectRaw(path);
  ASSERT_GE(silent, 0);
  ASSERT_GE(partial, 0);
  EXPECT_TRUE(SendRaw(partial, "UPLOAD partial 1000\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const SteadyClock::time_point t0 = SteadyClock::now();
  server.Stop();
  EXPECT_LT(SteadyClock::now() - t0, std::chrono::seconds(1));
  ::close(silent);
  ::close(partial);
  service.Stop();
}

TEST(ServiceSocket, SeededFramingFuzz) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));  // cap = 100'000
  const std::string path = ::testing::TempDir() + "/hwprofd_fuzz.sock";
  std::remove(path.c_str());
  OpsServer server(service, path);
  ASSERT_TRUE(server.Start()) << server.last_error();

  const std::string text = SynthTrace(8, 200).Serialize();
  const std::string binary = EncodeCaptureBinary(SynthTrace(9, 200));
  const std::vector<std::string> valid = {
      StrFormat("UPLOAD alpha %zu\n", text.size()) + text,
      StrFormat("UPLOAD beta %zu\n", binary.size()) + binary,
      "STATUS\n",
      "HEALTH\n",
      "TENANTS\n",
      "METRICS 60\n",
      "EVENTS 5\n",
      "INGEST 1\n"};
  Rng rng(18);
  for (int i = 0; i < 200; ++i) {
    std::string request = valid[rng.NextBelow(valid.size())];
    switch (rng.NextBelow(4)) {
      case 0:  // bit flips
        for (std::uint64_t k = 1 + rng.NextBelow(8); k > 0; --k) {
          request[rng.NextBelow(request.size())] ^=
              static_cast<char>(1u << rng.NextBelow(8));
        }
        break;
      case 1:  // truncation
        request.resize(rng.NextBelow(request.size() + 1));
        break;
      case 2: {  // splice of two requests
        const std::string& other = valid[rng.NextBelow(valid.size())];
        request = request.substr(0, rng.NextBelow(request.size() + 1)) +
                  other.substr(rng.NextBelow(other.size() + 1));
        break;
      }
      default: {  // a lying <nbytes>
        const std::string& body = rng.NextBool(0.5) ? text : binary;
        const std::uint64_t lies[] = {0,
                                      body.size() - 1 - rng.NextBelow(64),
                                      body.size() + 1 + rng.NextBelow(4096),
                                      rng.Next(),
                                      99'999'999'999'999'999ull};
        request = StrFormat("UPLOAD liar %llu\n",
                            static_cast<unsigned long long>(lies[rng.NextBelow(5)])) +
                  body;
        break;
      }
    }
    const int fd = ConnectRaw(path);
    ASSERT_GE(fd, 0) << "request " << i;
    const SteadyClock::time_point t0 = SteadyClock::now();
    SendRaw(fd, request);  // fails harmlessly if the server has already closed
    ::shutdown(fd, SHUT_WR);
    bool closed = false;
    const std::string reply = ReadUntilClosed(fd, std::chrono::seconds(12), &closed);
    ::close(fd);
    ASSERT_TRUE(closed) << "request " << i << " was neither answered nor closed";
    EXPECT_LT(SteadyClock::now() - t0, std::chrono::seconds(11)) << "request " << i;
    EXPECT_TRUE(reply.empty() || reply.back() == '\n') << "request " << i << ": " << reply;
  }

  std::string error;
  const std::string health = OpsQuery(path, "HEALTH", &error);
  ASSERT_GE(health.size(), 4u) << error;
  EXPECT_EQ(health.substr(health.size() - 4), "\nOK\n") << health;
  const ServiceStats s = service.Stats();
  EXPECT_GT(s.offered, 0u);
  EXPECT_EQ(s.offered, s.accepted + s.DroppedTotal());
  EXPECT_EQ(s.offered_bytes, s.accepted_bytes + s.dropped_bytes);
  EXPECT_EQ(s.accepted, s.summaries + s.malformed);
  server.Stop();
  service.Stop();
}

TEST(ServiceSocket, OutOfDescriptorsPausesAcceptInsteadOfSpinning) {
  FrozenClock clock;
  IngestService service(SoakNames(), SyncOptions(&clock));
  const std::string path = ::testing::TempDir() + "/hwprofd_emfile.sock";
  std::remove(path.c_str());
  OpsServer server(service, path);
  ASSERT_TRUE(server.Start()) << server.last_error();

  const int first = ConnectRaw(path);
  ASSERT_GE(first, 0);
  const int second = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(second, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // `first` accepted

  // Lower the descriptor limit to the lowest free descriptor number, so the
  // server's next accept() fails with EMFILE; restore it however the test ends.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  struct RestoreLimit {
    rlimit saved;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } restore{saved};
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(second, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);

  // The listener stays readable while accept() fails; a server that keeps
  // polling it burns a CPU. Measure the process's CPU time over 500 ms.
  timespec cpu0{};
  timespec cpu1{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu0);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu1);
  const double cpu_ms = (cpu1.tv_sec - cpu0.tv_sec) * 1e3 + (cpu1.tv_nsec - cpu0.tv_nsec) / 1e6;
  EXPECT_LT(cpu_ms, 150.0) << "the server spins while out of descriptors";

  // Closing a connection frees a descriptor, and the waiting client is served.
  ::close(first);
  EXPECT_TRUE(SendRaw(second, "HEALTH\n"));
  ::shutdown(second, SHUT_WR);
  bool closed = false;
  EXPECT_EQ(ReadUntilClosed(second, std::chrono::seconds(5), &closed), "ready ok\nOK\n");
  EXPECT_TRUE(closed);
  ::close(second);
  server.Stop();
  service.Stop();
}

}  // namespace
}  // namespace service
}  // namespace hwprof
