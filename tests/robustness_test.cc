// Robustness: the analyser must survive arbitrary garbage captures, and
// one kernel instance must survive every workload run back-to-back.

#include <gtest/gtest.h>

#include <memory>

#include "src/analysis/callgraph.h"
#include "src/analysis/decoder.h"
#include "src/analysis/histogram.h"
#include "src/analysis/process_report.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/base/rng.h"
#include "src/kern/fs.h"
#include "src/kern/net_hosts.h"
#include "src/kern/nfs.h"
#include "src/kern/tty.h"
#include "src/kern/user_env.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

class DecoderFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzzTest, ArbitraryCapturesNeverCrashTheToolchain) {
  // Random tags (many unknown, many mismatched entries/exits, random
  // context-switch events) with random timestamps — the decoder and every
  // report must run to completion with sane invariants.
  static const TagFile* names = [] {
    auto* file = new TagFile();
    HWPROF_CHECK(TagFile::Parse(
        "f0/100\nf1/102\nf2/104\nf3/106\nswtch/200!\nM0/300=\nM1/301=\n", file));
    return file;
  }();
  Rng rng(GetParam());
  RawTrace raw;
  raw.overflowed = rng.NextBool(0.5);
  const std::size_t n = rng.NextBelow(3000);
  for (std::size_t i = 0; i < n; ++i) {
    RawEvent e;
    if (rng.NextBool(0.7)) {
      // Valid-ish tags, but not necessarily balanced.
      const std::uint16_t known[] = {100, 101, 102, 103, 104, 105, 106, 107,
                                     200, 201, 300, 301};
      e.tag = known[rng.NextBelow(sizeof(known) / sizeof(known[0]))];
    } else {
      e.tag = static_cast<std::uint16_t>(rng.NextBelow(65536));
    }
    e.timestamp = static_cast<std::uint32_t>(rng.NextBelow(1u << 24));
    raw.events.push_back(e);
  }

  DecodedTrace d = Decoder::Decode(raw, *names);
  // Invariants even on garbage:
  EXPECT_LE(d.idle_time, d.ElapsedTotal());
  for (const FuncStats& stats : d.per_function) {
    EXPECT_LE(stats.net, stats.elapsed);
    EXPECT_LE(stats.min_net, stats.max_net);
  }
  // Every report formats without dying.
  Summary s(d);
  EXPECT_FALSE(s.Format(5).empty());
  TraceReportOptions opts;
  opts.max_lines = 100;
  TraceReport::Format(d, opts);
  CallGraph(d).Format(d, 5);
  ProcessReport(d).Format(d);
  Histogram::ForFunction(d, "f0").Format("f0");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

TEST(Robustness, OneKernelSurvivesEveryWorkloadBackToBack) {
  // A single rig runs network receive, fork/exec, file I/O, NFS, tty input
  // and TCP transmit in sequence; the capture decodes cleanly at the end.
  Testbed tb;
  Kernel& k = tb.kernel();
  tb.Arm();

  // 1. Network receive.
  NetReceiveResult net = RunNetworkReceive(tb, Sec(2), 64 * 1024);
  EXPECT_TRUE(net.integrity_ok);

  // 2. Fork/exec.
  ForkExecResult fork_exec = RunForkExec(tb, 2, Sec(5));
  EXPECT_EQ(fork_exec.iterations_done, 2);

  // 3. File write + read-back.
  bool file_ok = false;
  k.Spawn("files", [&](UserEnv& env) {
    const int fd = env.Open("/seq", true);
    const Bytes data = PatternBytes(3 * kFsBlockBytes, 9);
    env.Write(fd, data);
    env.Close(fd);
    const int rd = env.Open("/seq", false);
    Bytes out;
    while (env.Read(rd, 16 * 1024, &out) > 0) {
    }
    file_ok = out == data;
  });
  k.Run(k.Now() + Sec(5));
  EXPECT_TRUE(file_ok);

  // 4. NFS read.
  auto server = std::make_shared<NfsServerHost>(tb.machine(), k.wire());
  const std::uint32_t fh = server->Export("r", PatternBytes(16 * 1024, 2));
  bool nfs_ok = false;
  k.Spawn("nfs", [&](UserEnv& env) {
    k.nfs().Init();
    Bytes out;
    nfs_ok = env.NfsRead(fh, 0, 16 * 1024, &out) == 16 * 1024 &&
             out == PatternBytes(16 * 1024, 2);
  });
  k.Run(k.Now() + Sec(10));
  EXPECT_TRUE(nfs_ok);

  // 5. Terminal input.
  auto term = std::make_unique<TerminalHost>(k);
  std::string line;
  k.Spawn("getty", [&](UserEnv& env) { line = env.ReadTtyLine(); });
  term->Type("done\n", k.Now() + Msec(10), Msec(3));
  k.Run(k.Now() + Sec(1));
  EXPECT_EQ(line, "done");

  // 6. TCP transmit.
  auto receiver = std::make_shared<ReceiverHost>(tb.machine(), k.wire(), 7100);
  const Bytes out_data = PatternBytes(32 * 1024, 6);
  k.Spawn("tx", [&](UserEnv& env) {
    const int fd = env.Socket(true);
    if (env.Connect(fd, kSenderIpAddr, 7100)) {
      env.Send(fd, out_data);
      env.Shutdown(fd);
    }
  });
  k.Run(k.Now() + Sec(10));
  EXPECT_EQ(receiver->received(), out_data);

  // The combined capture decodes cleanly (overflowed long ago).
  RawTrace raw = tb.StopAndUpload();
  EXPECT_TRUE(raw.overflowed);
  DecodedTrace d = Decoder::Decode(raw, tb.tags());
  EXPECT_EQ(d.unknown_tags, 0u);
  EXPECT_EQ(d.orphan_exits, 0u);
}

}  // namespace
}  // namespace hwprof
