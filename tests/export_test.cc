// hwprof_export / src/analysis/export: trace-event JSON and folded-stack
// renderings. Locks in (a) schema validity of the net-receive export, (b)
// byte-identity across shard sizes and against the reference decoder (the
// decode contract carried through to the export layer), (c) exact
// agreement between slice accumulators recovered from the JSON text and
// the decoder's per-function totals / the Figure-3 summary, (d) anomaly
// instant events matching a
// fault-injected capture's typed counters, and (e) small committed goldens
// for both formats plus the hwprof_export CLI end to end.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/analysis/export.h"
#include "src/analysis/summary.h"
#include "src/obs/telemetry.h"
#include "src/profhw/fault_injection.h"
#include "src/profhw/smart_socket.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"
#include "tests/trace_testutil.h"
#include "tools/export_main.h"

namespace hwprof {
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

// The golden net-receive capture (same parameters as golden_test's
// NetReceiveDecode), decoded with Decoder::Decode, with small shards (pooled
// replay) and by the reference decoder. The testbed outlives the decodes:
// they point into its TagFile.
struct NetReceive {
  Testbed tb;
  RawTrace raw;
  DecodedTrace decoded;
  DecodedTrace sharded;
  DecodedTrace reference;
};

NetReceive& NetReceiveDecode() {
  static NetReceive* decoded = [] {
    auto* d = new NetReceive();
    d->tb.Arm();
    RunNetworkReceive(d->tb, Sec(2), 128 * 1024, false);
    d->raw = d->tb.StopAndUpload();
    d->decoded = Decoder::Decode(d->raw, d->tb.tags());
    d->sharded = DecodeWithTarget(d->raw, d->tb.tags(), 512);
    d->reference = ReferenceDecode(d->raw, d->tb.tags());
    return d;
  }();
  return *decoded;
}

TEST(Export, NetReceiveTraceEventJsonIsValid) {
  const std::string json = ExportTraceEventJson(NetReceiveDecode().decoded);
  std::string error;
  ASSERT_TRUE(ValidateTraceEventJson(json, &error)) << error;
  TraceEventTotals totals;
  ASSERT_TRUE(SummarizeTraceEventJson(json, &totals, &error)) << error;
  EXPECT_GT(totals.slices, 100u);
  EXPECT_GT(totals.counter_samples, 0u);
}

TEST(Export, ByteIdenticalAcrossShardSizesAndTheReference) {
  const NetReceive& d = NetReceiveDecode();
  const std::string json = ExportTraceEventJson(d.decoded);
  EXPECT_EQ(ExportTraceEventJson(d.sharded), json)
      << "small-shard export diverged";
  EXPECT_EQ(ExportTraceEventJson(d.reference), json)
      << "export diverged from the reference decoder";
  const std::string folded = ExportFoldedStacks(d.decoded);
  EXPECT_EQ(ExportFoldedStacks(d.sharded), folded);
  EXPECT_EQ(ExportFoldedStacks(d.reference), folded);
}

TEST(Export, SliceTotalsMatchDecoderAndSummary) {
  const DecodedTrace& decoded = NetReceiveDecode().decoded;
  const std::string json = ExportTraceEventJson(decoded);
  TraceEventTotals totals;
  std::string error;
  ASSERT_TRUE(SummarizeTraceEventJson(json, &totals, &error)) << error;

  // Every per-function accumulator recovered from the JSON text must equal
  // the decoder's, nanosecond for nanosecond, and cover every function.
  ASSERT_EQ(totals.net_ns.size(), decoded.per_function.size());
  for (const auto& [name, stats] : decoded.per_function) {
    ASSERT_TRUE(totals.net_ns.count(name)) << name << " missing from export";
    EXPECT_EQ(totals.net_ns.at(name), stats.net) << name;
    EXPECT_EQ(totals.elapsed_ns.at(name), stats.elapsed) << name;
  }

  // And therefore the Figure-3 summary rows agree (whole microseconds).
  const Summary summary(decoded);
  for (const SummaryRow& row : summary.rows()) {
    EXPECT_EQ(row.net_us, totals.net_ns.at(row.name) / 1000) << row.name;
    EXPECT_EQ(row.elapsed_us, totals.elapsed_ns.at(row.name) / 1000) << row.name;
  }
}

TEST(Export, FoldedStacksSumToDecoderNetTotal) {
  const DecodedTrace& decoded = NetReceiveDecode().decoded;
  const std::string folded = ExportFoldedStacks(decoded);
  std::uint64_t folded_total = 0;
  std::istringstream lines(folded);
  std::string line;
  std::size_t line_count = 0;
  while (std::getline(lines, line)) {
    ++line_count;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_EQ(line.rfind("context ", 0), 0u) << line;
    folded_total += std::strtoull(line.c_str() + space + 1, nullptr, 10);
  }
  EXPECT_GT(line_count, 10u);
  std::uint64_t decoder_total = 0;
  for (const auto& [name, stats] : decoded.per_function) {
    decoder_total += stats.net;
  }
  EXPECT_EQ(folded_total, decoder_total);
}

// Satellite (c): a fault-injected capture round-tripped through the export
// must carry anomaly instant events that match the DecodedTrace's typed
// counters exactly — no anomaly may be lost or invented by the renderer.
TEST(Export, FaultInjectedAnomalyInstantsMatchCounters) {
  for (std::uint64_t seed : {3u, 11u, 29u, 42u}) {
    const RawTrace clean = FuzzTrace(seed, 600);
    const FaultPlan plan = FaultPlan::FromSeed(seed * 977 + 5);
    const RawTrace faulty = InjectFaults(clean, plan, nullptr);

    StreamingDecoder decoder(MakeNames(), faulty.timer_bits,
                             faulty.timer_clock_hz,
                             StreamingOptions{.retain_structure = true});
    decoder.NoteDropped(faulty.dropped_events);
    decoder.SetClockEnvelope(faulty.capture_elapsed_ns);
    decoder.Feed(faulty.events);
    const DecodedTrace decoded = decoder.Finish(faulty.overflowed);

    const std::string json = ExportTraceEventJson(decoded);
    std::string error;
    ASSERT_TRUE(ValidateTraceEventJson(json, &error)) << "seed " << seed
                                                      << ": " << error;
    TraceEventTotals totals;
    ASSERT_TRUE(SummarizeTraceEventJson(json, &totals, &error)) << error;

    std::map<std::string, std::uint64_t> expected;
    auto want = [&expected](const char* name, std::uint64_t v) {
      if (v > 0) {
        expected[name] = v;  // zero counters emit no instant event
      }
    };
    want("corrupt_words", decoded.corrupt_words);
    want("impossible_deltas", decoded.impossible_deltas);
    want("wrap_ambiguous_gaps", decoded.wrap_ambiguous_gaps);
    want("unknown_tags", decoded.unknown_tags);
    want("orphan_exits", decoded.orphan_exits);
    want("dropped_events", decoded.dropped_events);
    want("capture_gaps", decoded.capture_gaps);
    want("mid_trace_unclosed_entries", decoded.MidTraceUnclosedEntries());
    EXPECT_EQ(totals.anomaly_counts, expected) << "seed " << seed;
  }
}

// The capture and names behind the Fig-3/Fig-4 goldens are themselves
// committed (tests/golden/net_receive.{capture,names}) so CI's
// export-goldens job can drive the hwprof_export binary + trace_event_check
// against real files. This test pins them: the committed pair must decode
// and export byte-identically to the in-memory reference.
TEST(Export, CommittedNetReceiveCaptureIsCurrent) {
  const NetReceive& d = NetReceiveDecode();
  const std::string capture_path = GoldenPath("net_receive.capture");
  const std::string names_path = GoldenPath("net_receive.names");
  if (std::getenv("HWPROF_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(SaveCapture(d.raw, capture_path));
    std::ofstream names_out(names_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(names_out.good());
    names_out << NetReceiveDecode().tb.tags().Format();
    ASSERT_TRUE(names_out.good());
    GTEST_SKIP() << "regenerated net_receive capture/names";
  }
  RawTrace loaded;
  ASSERT_TRUE(LoadCapture(capture_path, &loaded))
      << capture_path << " is missing; run with HWPROF_REGEN_GOLDEN=1";
  std::string names_text;
  ASSERT_TRUE(ReadFile(names_path, &names_text));
  TagFile names;
  ASSERT_TRUE(TagFile::Parse(names_text, &names));
  const DecodedTrace decoded = Decoder::Decode(loaded, names);
  EXPECT_EQ(ExportTraceEventJson(decoded), ExportTraceEventJson(d.decoded))
      << "committed capture/names drifted from the live workload; "
      << "regenerate with HWPROF_REGEN_GOLDEN=1";
}

// A small hand-built trace with one of everything: nesting, an inline
// marker, a context switch (idle), an unknown tag and an orphan exit.
// Committed goldens pin both renderings byte for byte.
DecodedTrace SmallDecode() {
  const RawTrace raw = Trace({
      {100, 10},    // a enters
      {102, 20},    // b enters
      {300, 25},    // MARK inline marker
      {103, 40},    // b exits
      {200, 50},    // swtch enters (idle)
      {201, 90},    // swtch exits
      {999, 95},    // unknown tag
      {105, 100},   // orphan exit (c never entered)
      {101, 120},   // a exits
  });
  return Decoder::Decode(raw, MakeNames());
}

TEST(Export, GoldenTraceEventJson) {
  const std::string json = ExportTraceEventJson(SmallDecode());
  std::string error;
  ASSERT_TRUE(ValidateTraceEventJson(json, &error)) << error;
  CheckGolden("small_export.json", json);
}

TEST(Export, GoldenFoldedStacks) {
  CheckGolden("small_export.folded", ExportFoldedStacks(SmallDecode()));
}

// --- the hwprof_export CLI ---------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/export_test_" + name;
}

void WriteNamesFile(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.good());
  out << "a/100\nb/102\nc/104\nd/106\nswtch/200!\nidle_swtch/202!\n"
         "MARK/300=\nPOINT/302=\n";
  ASSERT_TRUE(out.good());
}

int RunExport(const std::vector<std::string>& args, std::string* error) {
  std::vector<const char*> argv = {"hwprof_export"};
  for (const std::string& a : args) {
    argv.push_back(a.c_str());
  }
  return ExportMain(static_cast<int>(argv.size()), argv.data(), error);
}

TEST(ExportCli, TraceEventIdenticalAcrossJobsAndValid) {
  const std::string capture = TempPath("capture.hwprof");
  const std::string names = TempPath("kernel.names");
  WriteNamesFile(names);
  ASSERT_TRUE(SaveCapture(FuzzTrace(7, 400), capture));

  const std::string out1 = TempPath("out_jobs1.json");
  const std::string out8 = TempPath("out_jobs8.json");
  std::string error;
  ASSERT_EQ(RunExport({capture, names, "--jobs", "1", "--out", out1}, &error), 0)
      << error;
  ASSERT_EQ(RunExport({capture, names, "--jobs", "8", "--out", out8}, &error), 0)
      << error;
  std::string json1, json8;
  ASSERT_TRUE(ReadFile(out1, &json1));
  ASSERT_TRUE(ReadFile(out8, &json8));
  EXPECT_EQ(json1, json8) << "hwprof_export output must not depend on --jobs";
  ASSERT_TRUE(ValidateTraceEventJson(json1, &error)) << error;
}

TEST(ExportCli, FoldedFormatAndErrors) {
  const std::string capture = TempPath("capture2.hwprof");
  const std::string names = TempPath("kernel2.names");
  WriteNamesFile(names);
  ASSERT_TRUE(SaveCapture(FuzzTrace(8, 200), capture));

  const std::string out = TempPath("out.folded");
  std::string error;
  ASSERT_EQ(RunExport({capture, names, "--format", "folded", "--out", out},
                      &error),
            0)
      << error;
  std::string folded;
  ASSERT_TRUE(ReadFile(out, &folded));
  EXPECT_EQ(folded.rfind("context ", 0), 0u) << folded.substr(0, 40);

  // Missing capture file and bad flags are reported, not crashed on.
  EXPECT_NE(RunExport({TempPath("nope.hwprof"), names}, &error), 0);
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_NE(RunExport({capture, names, "--format", "bogus"}, &error), 0);
  EXPECT_FALSE(error.empty());
}

TEST(ExportCli, TelemetryTracksAreByteIdenticalAcrossJobs) {
  const std::string capture = TempPath("capture_tel.hwprof");
  const std::string names = TempPath("kernel_tel.names");
  WriteNamesFile(names);
  ASSERT_TRUE(SaveCapture(FuzzTrace(9, 400), capture));

  // The registry is process-global; reset before each run so the rendered
  // counts reflect exactly one decode, the way a fresh CLI process sees
  // them. The allowlisted counters (decode.anomaly.*, decode.finishes,
  // socket.*) are recorded identically by both engines, so the --telemetry
  // export must stay byte-identical at every --jobs.
  const std::string out1 = TempPath("out_tel_jobs1.json");
  const std::string out8 = TempPath("out_tel_jobs8.json");
  std::string error;
  obs::SetEnabled(true);
  obs::ResetTelemetry();
  ASSERT_EQ(RunExport({capture, names, "--telemetry", "--jobs", "1", "--out",
                       out1},
                      &error),
            0)
      << error;
  obs::ResetTelemetry();
  ASSERT_EQ(RunExport({capture, names, "--telemetry", "--jobs", "8", "--out",
                       out8},
                      &error),
            0)
      << error;
  std::string json1, json8;
  ASSERT_TRUE(ReadFile(out1, &json1));
  ASSERT_TRUE(ReadFile(out8, &json8));
  EXPECT_EQ(json1, json8)
      << "--telemetry counter tracks must not depend on --jobs";
  ASSERT_TRUE(ValidateTraceEventJson(json1, &error)) << error;
  EXPECT_NE(json1.find("\"telemetry: decode.finishes\""), std::string::npos);
  EXPECT_NE(json1.find("\"ph\":\"C\""), std::string::npos);
  // Engine-internal counters must NOT leak into the export.
  EXPECT_EQ(json1.find("telemetry: parallel."), std::string::npos);
  EXPECT_EQ(json1.find("telemetry: export."), std::string::npos);

  // --telemetry is a trace-event feature; folded rejects it.
  EXPECT_NE(RunExport({capture, names, "--format", "folded", "--telemetry"},
                      &error),
            0);
  EXPECT_NE(error.find("--telemetry"), std::string::npos);
}

}  // namespace
}  // namespace hwprof
