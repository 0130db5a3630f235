// Golden-file tests for the paper's two headline reports: the Figure 3
// summary and the Figure 4 code-path trace, rendered from a fixed,
// deterministic network-receive capture (the simulator is bit-exact across
// runs, see determinism_test). Any change to capture, decode or formatting
// shows up as a readable diff against tests/golden/.
//
// To regenerate after an intentional change:
//   HWPROF_REGEN_GOLDEN=1 ./build/tests/golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/profhw/binary_trace.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"
#include "tests/trace_testutil.h"
#include "tools/convert_main.h"

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

// One fixed capture shared by both goldens (building it dominates runtime).
// The testbed outlives the decode: DecodedTrace points into its TagFile.
const DecodedTrace& NetReceiveDecode() {
  static const DecodedTrace* decoded = [] {
    auto* tb = new Testbed();
    tb->Arm();
    RunNetworkReceive(*tb, Sec(2), 128 * 1024, false);
    const RawTrace raw = tb->StopAndUpload();
    return new DecodedTrace(Decoder::Decode(raw, tb->tags()));
  }();
  return *decoded;
}

TEST(Golden, Figure3SummaryOfTheNetworkReceive) {
  CheckGolden("net_receive_summary.txt", Summary(NetReceiveDecode()).Format(20));
}

TEST(Golden, Figure4CodePathTraceOfTheNetworkReceive) {
  TraceReportOptions opts;
  opts.max_lines = 120;
  CheckGolden("net_receive_trace.txt", TraceReport::Format(NetReceiveDecode(), opts));
}

// Captures for the Table 1 and Figure 5 goldens. The golden file pins the
// report of Decoder::Decode; the fingerprints pin that decode, and one cut
// into small shards (forcing pooled replay and stitching), to the reference
// decoder on a real workload.
struct DualDecode {
  Testbed tb;
  DecodedTrace decoded;
  std::string decoded_fingerprint;
  std::string sharded_fingerprint;
  std::string reference_fingerprint;

  void DecodeAll(const RawTrace& raw) {
    decoded = Decoder::Decode(raw, tb.tags());
    decoded_fingerprint = Fingerprint(decoded);
    sharded_fingerprint = Fingerprint(DecodeWithTarget(raw, tb.tags(), 512));
    reference_fingerprint = Fingerprint(ReferenceDecode(raw, tb.tags()));
  }
};

const DualDecode& MixedDecode() {
  static const DualDecode* decoded = [] {
    auto* d = new DualDecode();
    d->tb.Arm();
    RunMixed(d->tb, Msec(300));
    const RawTrace raw = d->tb.StopAndUpload();
    d->DecodeAll(raw);
    return d;
  }();
  return *decoded;
}

const DualDecode& ForkExecDecode() {
  static const DualDecode* decoded = [] {
    auto* d = new DualDecode();
    d->tb.Arm();
    RunForkExec(d->tb, 3, Sec(2));
    const RawTrace raw = d->tb.StopAndUpload();
    d->DecodeAll(raw);
    return d;
  }();
  return *decoded;
}

TEST(Golden, Table1PerFunctionTimingsOfTheMixedWorkload) {
  const std::string report = Summary(MixedDecode().decoded).Format(30);
  EXPECT_EQ(MixedDecode().decoded_fingerprint, MixedDecode().reference_fingerprint)
      << "decode diverged from the reference decoder on the mixed capture";
  EXPECT_EQ(MixedDecode().sharded_fingerprint, MixedDecode().reference_fingerprint)
      << "sharded decode diverged from the reference decoder on the mixed capture";
  CheckGolden("mixed_summary.txt", report);
}

TEST(Golden, Figure5ForkExecCodePath) {
  TraceReportOptions opts;
  opts.max_lines = 160;
  const std::string report = TraceReport::Format(ForkExecDecode().decoded, opts);
  EXPECT_EQ(ForkExecDecode().decoded_fingerprint, ForkExecDecode().reference_fingerprint)
      << "decode diverged from the reference decoder on the fork/exec capture";
  EXPECT_EQ(ForkExecDecode().sharded_fingerprint, ForkExecDecode().reference_fingerprint)
      << "sharded decode diverged from the reference decoder on the fork/exec capture";
  CheckGolden("fork_exec_trace.txt", report);
}

// The binary (hwpb) twin of the committed net_receive capture. The text
// golden is the source of truth (export_test regenerates it from the live
// workload); this test pins that the committed .bin is its exact canonical
// encode, that the .bin decodes back to the text golden byte-for-byte, and
// that the hwprof_convert entry point translates one committed golden into
// the other bit-identically — which is what CI's format-matrix job runs
// against the real binaries.
TEST(Golden, BinaryNetReceiveCaptureIsTheTextGoldensTwin) {
  const std::string text_path = GoldenPath("net_receive.capture");
  std::string text;
  ASSERT_TRUE(ReadFile(text_path, &text))
      << text_path << " is missing; regenerate via export_test with "
      << "HWPROF_REGEN_GOLDEN=1 first";
  RawTrace raw;
  ASSERT_TRUE(RawTrace::Deserialize(text, &raw));
  CheckGolden("net_receive.capture.bin", EncodeCaptureBinary(raw));

  std::string bin;
  ASSERT_TRUE(ReadFile(GoldenPath("net_receive.capture.bin"), &bin));
  RawTrace back;
  std::vector<TraceDiag> diags;
  ASSERT_TRUE(DecodeCaptureBinary(bin, &back, &diags))
      << (diags.empty() ? "" : diags[0].message);
  EXPECT_EQ(back.Serialize(), text)
      << "the committed binary golden no longer decodes to the text golden";

  const std::string converted =
      ::testing::TempDir() + "/net_receive_converted.hwpb";
  const char* argv[] = {"hwprof_convert", text_path.c_str(), converted.c_str()};
  std::string error;
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(ConvertMain(3, argv, &error), 0) << error;
  ::testing::internal::GetCapturedStdout();
  std::string converted_bytes;
  ASSERT_TRUE(ReadFile(converted, &converted_bytes));
  EXPECT_EQ(converted_bytes, bin)
      << "hwprof_convert of the text golden drifted from the binary golden";
}

}  // namespace
}  // namespace hwprof
