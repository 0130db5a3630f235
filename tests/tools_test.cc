// Call-graph analysis and the hwprof_analyze CLI entry point.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/analysis/callgraph.h"
#include "src/analysis/decoder.h"
#include "src/base/crc32.h"
#include "src/base/json.h"
#include "src/profhw/smart_socket.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"
#include "tests/trace_testutil.h"
#include "tools/analyze_main.h"
#include "tools/capture_main.h"
#include "tools/hwprofd_main.h"

namespace hwprof {
namespace {

// --- CallGraph ----------------------------------------------------------------

const TagFile& GraphNames() {
  static const TagFile* names = [] {
    auto* file = new TagFile();
    HWPROF_CHECK(TagFile::Parse("a/100\nb/102\nc/104\n", file));
    return file;
  }();
  return *names;
}

TEST(CallGraph, EdgesReflectNesting) {
  RawTrace raw;
  // a{ b{ c{} } b{} }  and a top-level c{}.
  raw.events = {{100, 0},  {102, 10}, {104, 20}, {105, 30}, {103, 40},
                {102, 50}, {103, 60}, {101, 70}, {104, 80}, {105, 90}};
  DecodedTrace d = Decoder::Decode(raw, GraphNames());
  CallGraph graph(d);

  const CallEdge* ab = graph.Edge("a", "b");
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->calls, 2u);
  EXPECT_EQ(ToWholeUsec(ab->callee_elapsed), 40u);  // 30 + 10

  const CallEdge* bc = graph.Edge("b", "c");
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(bc->calls, 1u);

  const CallEdge* top_a = graph.Edge(kSpontaneous, "a");
  ASSERT_NE(top_a, nullptr);
  EXPECT_EQ(top_a->calls, 1u);
  const CallEdge* top_c = graph.Edge(kSpontaneous, "c");
  ASSERT_NE(top_c, nullptr);

  EXPECT_EQ(graph.Edge("a", "c"), nullptr);  // only nested via b
}

TEST(CallGraph, CallersAndCalleesSorted) {
  RawTrace raw;
  raw.events = {{100, 0}, {104, 10}, {105, 100}, {101, 110},   // a -> c (90us)
                {102, 120}, {104, 130}, {105, 140}, {103, 150}};  // b -> c (10us)
  DecodedTrace d = Decoder::Decode(raw, GraphNames());
  CallGraph graph(d);
  const auto callers = graph.CallersOf("c");
  ASSERT_EQ(callers.size(), 2u);
  EXPECT_EQ(callers[0]->caller, "a");  // heavier edge first
  EXPECT_EQ(callers[1]->caller, "b");
  EXPECT_EQ(graph.CalleesOf("a").size(), 1u);
}

TEST(CallGraph, RealWorkloadGraphIsSane) {
  Testbed tb;
  tb.Arm();
  RunNetworkReceive(tb, Sec(2), 64 * 1024, false);
  DecodedTrace d = Decoder::Decode(tb.StopAndUpload(), tb.tags());
  CallGraph graph(d);
  // The driver copy is called from weget, never spontaneously.
  const auto bcopy_callers = graph.CallersOf("bcopy");
  ASSERT_FALSE(bcopy_callers.empty());
  bool from_weget = false;
  for (const CallEdge* edge : bcopy_callers) {
    EXPECT_NE(edge->caller, kSpontaneous);
    from_weget |= edge->caller == "weget";
  }
  EXPECT_TRUE(from_weget);
  // tcp_input is reached from ipintr.
  ASSERT_NE(graph.Edge("ipintr", "tcp_input"), nullptr);
  const std::string text = graph.Format(d, 8);
  EXPECT_NE(text.find("bcopy"), std::string::npos);
  EXPECT_NE(text.find("<-"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
}

// --- hwprof_analyze CLI ----------------------------------------------------------

struct CliFiles {
  std::string capture;
  std::string names;
};

CliFiles WriteSessionFiles() {
  Testbed tb;
  tb.Arm();
  RunNetworkReceive(tb, Sec(1), 32 * 1024, false);
  CliFiles files;
  files.capture = ::testing::TempDir() + "/cli.hwprof";
  files.names = ::testing::TempDir() + "/cli.names";
  HWPROF_CHECK(SaveCapture(tb.StopAndUpload(), files.capture));
  std::ofstream names_out(files.names);
  names_out << tb.tags().Format();
  return files;
}

int RunCli(std::initializer_list<const char*> args, std::string* error) {
  std::vector<const char*> argv{"hwprof_analyze"};
  argv.insert(argv.end(), args.begin(), args.end());
  return AnalyzeMain(static_cast<int>(argv.size()), argv.data(), error);
}

TEST(AnalyzeCli, DefaultSummary) {
  const CliFiles files = WriteSessionFiles();
  std::string error;
  EXPECT_EQ(RunCli({files.capture.c_str(), files.names.c_str()}, &error), 0) << error;
}

TEST(AnalyzeCli, AllReportsRun) {
  const CliFiles files = WriteSessionFiles();
  std::string error;
  EXPECT_EQ(RunCli({files.capture.c_str(), files.names.c_str(), "--summary", "10", "--trace",
                    "40", "--callgraph", "5", "--histogram", "bcopy", "--spl", "--processes"},
                   &error),
            0)
      << error;
}

// A capture nested 300,000 calls deep: the tree walks behind these reports
// use no recursion, so the tool exits normally instead of overflowing its
// stack.
TEST(AnalyzeCli, ReportsOnA300000DeepCaptureExitZero) {
  const std::string capture = ::testing::TempDir() + "/deep.hwprof";
  const std::string names = ::testing::TempDir() + "/deep.names";
  ASSERT_TRUE(SaveCapture(DeepNestingTrace(300'000, 502, 3), capture, CaptureFormat::kBinary));
  std::ofstream(names) << "bcopy/502\n";
  std::string error;
  EXPECT_EQ(RunCli({capture.c_str(), names.c_str(), "--callgraph", "3", "--processes",
                    "--histogram", "bcopy"},
                   &error),
            0)
      << error;
}

TEST(AnalyzeCli, ErrorsAreReported) {
  std::string error;
  EXPECT_NE(RunCli({}, &error), 0);
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_NE(RunCli({"/nonexistent.hwprof", "/nonexistent.names"}, &error), 0);
  EXPECT_NE(error.find("cannot load"), std::string::npos);

  const CliFiles files = WriteSessionFiles();
  error.clear();
  EXPECT_NE(RunCli({files.capture.c_str(), files.names.c_str(), "--bogus"}, &error), 0);
  EXPECT_NE(error.find("unknown option"), std::string::npos);
}

TEST(AnalyzeCli, FollowReadsAChunkedStreamFile) {
  // Hand-build a stream file the way the streaming workload writes one:
  // header plus drained banks, with drops stamped on the second chunk.
  const std::string stream = ::testing::TempDir() + "/cli.hwstream";
  const std::string names_path = ::testing::TempDir() + "/cli_follow.names";
  {
    std::ofstream names_out(names_path);
    names_out << "a/100\nb/102\n";
  }
  ASSERT_TRUE(SaveStreamHeader(stream, 24, 1'000'000));
  TraceChunk first;
  first.events = {{100, 10}, {102, 20}, {103, 60}};
  TraceChunk second;
  second.events = {{101, 90}};
  second.dropped_before = 4;
  ASSERT_TRUE(AppendStreamChunk(stream, first));
  ASSERT_TRUE(AppendStreamChunk(stream, second));

  std::string error;
  EXPECT_EQ(RunCli({stream.c_str(), names_path.c_str(), "--follow", "--summary", "5"},
                   &error),
            0)
      << error;
  // --follow rejects batch-only report options.
  EXPECT_NE(RunCli({stream.c_str(), names_path.c_str(), "--follow", "--trace", "5"},
                   &error),
            0);
  EXPECT_NE(error.find("not available with --follow"), std::string::npos);
  // And a missing stream file is a load error, not a crash.
  EXPECT_NE(RunCli({"/nonexistent.hwstream", names_path.c_str(), "--follow"}, &error), 0);
  EXPECT_NE(error.find("cannot load stream"), std::string::npos);
}

TEST(AnalyzeCli, JsonReportCarriesTheAnomalyCounters) {
  const CliFiles files = WriteSessionFiles();
  std::string error;
  ::testing::internal::CaptureStdout();
  const int rc = RunCli({files.capture.c_str(), files.names.c_str(), "--json"}, &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("\"anomalies\": {"), std::string::npos);
  EXPECT_NE(out.find("\"corrupt_words\": 0"), std::string::npos);
  EXPECT_NE(out.find("\"wrap_ambiguous_gaps\": 0"), std::string::npos);
  EXPECT_NE(out.find("\"functions\": ["), std::string::npos);
  EXPECT_NE(out.find("\"pct_real\":"), std::string::npos);
}

// `--json`'s stdout for `capture`, reduced to its CRC-32 and length.
struct JsonDigest {
  std::uint32_t crc = 0;
  std::size_t bytes = 0;
  bool operator==(const JsonDigest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const JsonDigest& d) {
  return os << "{0x" << std::hex << d.crc << std::dec << ", " << d.bytes << "}";
}

JsonDigest AnalyzeJsonDigest(const std::string& capture, const std::string& names,
                             bool salvage) {
  std::string error;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc =
      salvage ? RunCli({capture.c_str(), names.c_str(), "--salvage", "--json"}, &error)
              : RunCli({capture.c_str(), names.c_str(), "--json"}, &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 0) << error;
  return JsonDigest{Crc32(out), out.size()};
}

TEST(AnalyzeCli, JsonReportBytesArePinned) {
  // Every byte of `--json` on the golden capture, and on a copy of it with
  // two lines overwritten by garbage and the last line cut short, which
  // only --salvage decodes. Re-record only for an intended format change.
  const std::string golden = std::string(HWPROF_TEST_DIR) + "/golden/";
  const std::string names = golden + "net_receive.names";
  EXPECT_EQ(AnalyzeJsonDigest(golden + "net_receive.capture", names, false),
            (JsonDigest{0xd7289187, 7456}));

  std::ifstream in(golden + "net_receive.capture");
  std::stringstream text;
  text << in.rdbuf();
  std::vector<std::string> lines;
  for (std::string line; std::getline(text, line);) {
    lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 3000u);
  lines[500] = "garbage here";
  lines[3000] = "12x 34";
  lines.back().resize(lines.back().size() / 2);
  const std::string salvaged = ::testing::TempDir() + "/cli_json_pin.hwprof";
  {
    std::ofstream out(salvaged);
    for (const std::string& line : lines) {
      out << line << "\n";
    }
  }
  EXPECT_EQ(AnalyzeJsonDigest(salvaged, names, true), (JsonDigest{0xc69a643d, 7458}));
}

TEST(AnalyzeCli, JobsIsAnUnknownOption) {
  // The one decode engine starts its own threads; --jobs is gone.
  const CliFiles files = WriteSessionFiles();
  std::string error;
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli({files.capture.c_str(), files.names.c_str(), "--jobs", "8"}, &error), 2);
  EXPECT_NE(error.find("unknown option '--jobs'"), std::string::npos) << error;
  error.clear();
  EXPECT_EQ(RunCli({"--diff", files.capture.c_str(), files.capture.c_str(),
                    files.names.c_str(), "--jobs", "8"},
                   &error),
            2);
  ::testing::internal::GetCapturedStdout();
  EXPECT_NE(error.find("unknown option '--jobs'"), std::string::npos) << error;
}

TEST(AnalyzeCli, ProgressHeartbeatKeepsJsonStdoutMachineClean) {
  // `--json --progress | jq` must keep parsing: the heartbeat goes to
  // stderr, so stdout is byte-identical with and without --progress.
  const CliFiles files = WriteSessionFiles();
  std::string error;
  ::testing::internal::CaptureStdout();
  const int plain_rc = RunCli({files.capture.c_str(), files.names.c_str(), "--json"}, &error);
  const std::string plain = ::testing::internal::GetCapturedStdout();
  ASSERT_EQ(plain_rc, 0) << error;

  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc = RunCli({files.capture.c_str(), files.names.c_str(), "--json", "--progress"},
                        &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(rc, 0) << error;
  EXPECT_EQ(out, plain) << "--progress leaked into stdout";
  EXPECT_EQ(err.rfind("progress: ", 0), 0u) << err.substr(0, 80);
  EXPECT_NE(err.find("events"), std::string::npos);

  // Same contract for --stats-json.
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  ASSERT_EQ(RunCli({files.capture.c_str(), files.names.c_str(), "--stats-json", "--progress"},
                   &error),
            0)
      << error;
  const std::string stats_out = ::testing::internal::GetCapturedStdout();
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(stats_out.find("progress:"), std::string::npos);
}

TEST(AnalyzeCli, MalformedCaptureFailsWithLineDiagnostics) {
  const std::string capture = ::testing::TempDir() + "/cli_bad.hwprof";
  const std::string names_path = ::testing::TempDir() + "/cli_bad.names";
  {
    std::ofstream out(capture);
    out << "hwprof-raw v1 24 1000000 0\n100 10\ngarbage here\n101 20\n";
    std::ofstream names_out(names_path);
    names_out << "a/100\n";
  }
  std::string error;
  EXPECT_NE(RunCli({capture.c_str(), names_path.c_str(), "--summary", "5"}, &error), 0);
  EXPECT_NE(error.find("cannot load capture"), std::string::npos);
  EXPECT_NE(error.find(capture + ":3:"), std::string::npos) << error;
}

TEST(AnalyzeCli, SalvageRecoversACorruptCaptureAndReportsAnomalies) {
  const std::string capture = ::testing::TempDir() + "/cli_salvage.hwprof";
  const std::string names_path = ::testing::TempDir() + "/cli_salvage.names";
  {
    std::ofstream out(capture);
    out << "hwprof-raw v1 24 1000000 0\n100 10\ngarbage here\n101 20\n";
    std::ofstream names_out(names_path);
    names_out << "a/100\n";
  }
  std::string error;
  ::testing::internal::CaptureStdout();
  const int rc = RunCli(
      {capture.c_str(), names_path.c_str(), "--salvage", "--summary", "5"}, &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("(salvaged)"), std::string::npos) << out;
  EXPECT_NE(out.find("Capture anomalies (salvaged):"), std::string::npos) << out;
  EXPECT_NE(out.find("corrupt words"), std::string::npos) << out;
}

TEST(AnalyzeCli, SalvageJsonKeepsStdoutMachineClean) {
  // `--salvage --json | jq` must keep parsing: the salvage warnings go to
  // stderr, in the same file:line form for both encodings.
  const std::string capture = ::testing::TempDir() + "/cli_salvage_json.hwprof";
  const std::string names_path = ::testing::TempDir() + "/cli_salvage_json.names";
  {
    std::ofstream out(capture);
    out << "hwprof-raw v1 24 1000000 0\n100 10\ngarbage here\n101 20\n";
    std::ofstream names_out(names_path);
    names_out << "a/100\n";
  }
  std::string error;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc = RunCli({capture.c_str(), names_path.c_str(), "--salvage", "--json"}, &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(rc, 0) << error;
  JsonValue parsed;
  std::string parse_error;
  EXPECT_TRUE(ParseJson(out, &parsed, &parse_error)) << parse_error << "\n" << out;
  EXPECT_NE(out.find("\"corrupt_words\": 1"), std::string::npos) << out;
  EXPECT_NE(err.find("warning: " + capture + ":3: "), std::string::npos) << err;
  EXPECT_NE(err.find("(salvaged)"), std::string::npos) << err;
}

TEST(AnalyzeCli, FollowToleratesAStreamTruncatedMidRecord) {
  // A writer died mid-record: the chunk header promises two events but the
  // second line was torn by the crash. --follow must decode what made it to
  // disk and flag the truncated tail — never crash or spin.
  const std::string stream = ::testing::TempDir() + "/cli_torn.hwstream";
  const std::string names_path = ::testing::TempDir() + "/cli_torn.names";
  {
    std::ofstream names_out(names_path);
    names_out << "a/100\nb/102\n";
  }
  ASSERT_TRUE(SaveStreamHeader(stream, 24, 1'000'000));
  TraceChunk first;
  first.events = {{100, 10}, {102, 20}, {103, 60}, {101, 90}};
  ASSERT_TRUE(AppendStreamChunk(stream, first));
  {
    std::ofstream out(stream, std::ios::app);
    out << "chunk 2 0\n100 120\n10";  // torn: second event never finished
  }
  std::string error;
  ::testing::internal::CaptureStdout();
  const int rc = RunCli({stream.c_str(), names_path.c_str(), "--follow", "--summary", "5"},
                        &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("(truncated tail)"), std::string::npos) << out;
}

TEST(AnalyzeCli, FollowReportsMidStreamCorruptionUnlessSalvaging) {
  const std::string stream = ::testing::TempDir() + "/cli_corrupt.hwstream";
  const std::string names_path = ::testing::TempDir() + "/cli_corrupt.names";
  {
    std::ofstream names_out(names_path);
    names_out << "a/100\n";
  }
  ASSERT_TRUE(SaveStreamHeader(stream, 24, 1'000'000));
  TraceChunk first;
  first.events = {{100, 10}, {101, 50}};
  ASSERT_TRUE(AppendStreamChunk(stream, first));
  {
    std::ofstream out(stream, std::ios::app);
    out << "chunk 2 0\n100 80\nzap!\n";  // corrupt word inside a chunk
  }
  TraceChunk last;
  last.events = {{100, 120}, {101, 150}};
  ASSERT_TRUE(AppendStreamChunk(stream, last));

  // Strict mode refuses with a file:line diagnostic.
  std::string error;
  EXPECT_NE(RunCli({stream.c_str(), names_path.c_str(), "--follow"}, &error), 0);
  EXPECT_NE(error.find("cannot load stream"), std::string::npos);
  EXPECT_NE(error.find(stream + ":"), std::string::npos) << error;

  // Salvage mode resynchronizes and reports the corrupt word in the footer.
  error.clear();
  ::testing::internal::CaptureStdout();
  const int rc = RunCli(
      {stream.c_str(), names_path.c_str(), "--follow", "--salvage", "--summary", "5"},
      &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("Capture anomalies (salvaged):"), std::string::npos) << out;
  EXPECT_NE(out.find("corrupt words"), std::string::npos) << out;
}

TEST(AnalyzeCli, StatsPrintsThePipelineTelemetrySection) {
  const CliFiles files = WriteSessionFiles();
  std::string error;
  ::testing::internal::CaptureStdout();
  const int rc = RunCli(
      {files.capture.c_str(), files.names.c_str(), "--summary", "5", "--stats"},
      &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("-- pipeline telemetry --"), std::string::npos) << out;
  // The decode hot path must have reported in: these metric names are part of
  // the documented telemetry surface.
  EXPECT_NE(out.find("decode.events"), std::string::npos) << out;
  EXPECT_NE(out.find("decode.finish"), std::string::npos) << out;
}

TEST(AnalyzeCli, StatsJsonEmitsTheTelemetryObject) {
  const CliFiles files = WriteSessionFiles();
  std::string error;
  ::testing::internal::CaptureStdout();
  const int rc = RunCli(
      {files.capture.c_str(), files.names.c_str(), "--summary", "5", "--stats-json"},
      &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("{\"telemetry\": ["), std::string::npos) << out;
  EXPECT_NE(out.find("\"name\":\"decode.events\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"kind\":\"counter\""), std::string::npos) << out;
}

TEST(AnalyzeCli, FollowProgressEmitsAHeartbeatPerChunk) {
  const std::string stream = ::testing::TempDir() + "/cli_progress.hwstream";
  const std::string names_path = ::testing::TempDir() + "/cli_progress.names";
  {
    std::ofstream names_out(names_path);
    names_out << "a/100\nb/102\n";
  }
  ASSERT_TRUE(SaveStreamHeader(stream, 24, 1'000'000));
  TraceChunk first;
  first.events = {{100, 10}, {102, 20}, {103, 60}};
  TraceChunk second;
  second.events = {{101, 90}};
  second.dropped_before = 4;
  ASSERT_TRUE(AppendStreamChunk(stream, first));
  ASSERT_TRUE(AppendStreamChunk(stream, second));

  std::string error;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc = RunCli({stream.c_str(), names_path.c_str(), "--follow",
                         "--progress", "--summary", "5"},
                        &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 0) << error;
  // One heartbeat per drained chunk on STDERR (stdout stays machine-clean),
  // each carrying the cumulative event and anomaly counts plus a decode
  // rate.
  EXPECT_EQ(out.find("progress: "), std::string::npos) << out;
  std::size_t beats = 0;
  for (std::size_t at = err.find("progress: "); at != std::string::npos;
       at = err.find("progress: ", at + 1)) {
    ++beats;
  }
  EXPECT_EQ(beats, 2u) << err;
  EXPECT_NE(err.find("events/sec"), std::string::npos) << err;
  // The second chunk stamped 4 drops, so the final heartbeat counts anomalies.
  EXPECT_NE(err.find(" 4 anomalies"), std::string::npos) << err;
}

// --- The hwprof_capture CLI (--config and the lookup workload) --------------------

int RunCaptureCli(std::initializer_list<const char*> args, std::string* error) {
  std::vector<const char*> argv{"hwprof_capture"};
  argv.insert(argv.end(), args.begin(), args.end());
  ::testing::internal::CaptureStdout();
  const int rc = CaptureMain(static_cast<int>(argv.size()), argv.data(), error);
  ::testing::internal::GetCapturedStdout();
  return rc;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(CaptureCli, ConfigFlagValidatesKnobNames) {
  const std::string cap = ::testing::TempDir() + "/cfg_err.capture";
  std::string error;
  EXPECT_EQ(RunCaptureCli({"lookup", cap.c_str(), "--config", "bogus"}, &error), 2);
  EXPECT_NE(error.find("cksum,pmap,namei"), std::string::npos);
  error.clear();
  EXPECT_EQ(RunCaptureCli({"lookup", cap.c_str(), "--config", "cksum,turbo"},
                          &error),
            2);
  EXPECT_NE(error.find("turbo"), std::string::npos);
}

TEST(CaptureCli, BaselineConfigReplaysByteIdenticalToDefault) {
  // `--config baseline` must be a no-op: the same deterministic capture an
  // unconfigured replay produces, run after run.
  const std::string dir = ::testing::TempDir();
  const std::string plain = dir + "/lk_plain.capture";
  const std::string baseline = dir + "/lk_baseline.capture";
  const std::string again = dir + "/lk_again.capture";
  std::string error;
  ASSERT_EQ(RunCaptureCli({"lookup", plain.c_str(), "--iters", "3", "--msec",
                           "150"},
                          &error),
            0)
      << error;
  ASSERT_EQ(RunCaptureCli({"lookup", baseline.c_str(), "--iters", "3",
                           "--msec", "150", "--config", "baseline"},
                          &error),
            0)
      << error;
  ASSERT_EQ(RunCaptureCli({"lookup", again.c_str(), "--iters", "3", "--msec",
                           "150", "--config", "none"},
                          &error),
            0)
      << error;
  const std::string plain_bytes = SlurpFile(plain);
  ASSERT_FALSE(plain_bytes.empty());
  EXPECT_EQ(SlurpFile(baseline), plain_bytes);
  EXPECT_EQ(SlurpFile(again), plain_bytes);
}

TEST(CaptureCli, OptimizationConfigChangesTheCapture) {
  // Turning every knob on must actually change the replayed kernel's
  // profile (the capture bytes), while staying a valid capture.
  const std::string dir = ::testing::TempDir();
  const std::string off = dir + "/lk_off.capture";
  const std::string on = dir + "/lk_on.capture";
  std::string error;
  ASSERT_EQ(RunCaptureCli({"lookup", off.c_str(), "--iters", "3", "--msec",
                           "150"},
                          &error),
            0)
      << error;
  ASSERT_EQ(RunCaptureCli({"lookup", on.c_str(), "--iters", "3", "--msec",
                           "150", "--config", "all"},
                          &error),
            0)
      << error;
  const std::string off_bytes = SlurpFile(off);
  const std::string on_bytes = SlurpFile(on);
  ASSERT_FALSE(off_bytes.empty());
  ASSERT_FALSE(on_bytes.empty());
  EXPECT_NE(on_bytes, off_bytes);
}

// --- The hwprofd CLI's numeric flags ------------------------------------------------

int RunHwprofd(std::initializer_list<const char*> args, std::string* error) {
  std::vector<const char*> argv{"hwprofd"};
  argv.insert(argv.end(), args.begin(), args.end());
  ::testing::internal::CaptureStdout();
  const int rc = HwprofdMain(static_cast<int>(argv.size()), argv.data(), error);
  ::testing::internal::GetCapturedStdout();
  return rc;
}

TEST(HwprofdCli, NumericFlagsRejectValuesTheirFieldCannotHold) {
  // Each value is 2^32 + k, so a build that truncates it runs with k:
  // 0 workers, 0 uploaders or 2 events, all quick and harmless.
  const std::string names = std::string(HWPROF_TEST_DIR) + "/golden/net_receive.names";
  const std::string socket = ::testing::TempDir() + "/hwprofd_flags.sock";
  std::string error;
  EXPECT_EQ(RunHwprofd({"serve", names.c_str(), "--socket", socket.c_str(), "--duration-s", "1",
                        "--workers", "4294967296"},
                       &error),
            1);
  EXPECT_NE(error.find("--workers must be at most 4294967295"), std::string::npos) << error;

  EXPECT_EQ(RunHwprofd({"soak", "--uploaders", "4294967296"}, &error), 1);
  EXPECT_NE(error.find("--uploaders must be at most 4294967295"), std::string::npos) << error;

  EXPECT_EQ(RunHwprofd({"soak", "--uploaders", "1", "--uploads", "1", "--events", "4294967298"},
                       &error),
            1);
  EXPECT_NE(error.find("--events must be at most 2147483647"), std::string::npos) << error;
}

}  // namespace
}  // namespace hwprof
