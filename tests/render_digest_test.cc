// Pins every rendered byte of the analysis reports, the exports and the
// differential profile on the four hwprof_capture workloads, without
// committing megabytes of output: each rendering is reduced to its CRC-32
// and length. The baseline-vs-`--config all` diffs, the context-switch
// counter track of the JSON export and the salvage anomaly footers are
// covered by no other golden.
//
// A mismatch prints the full table of actual values, so an intended change
// to a rendering is re-recorded by pasting that table over kExpected.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/analysis/decoder.h"
#include "src/analysis/diff.h"
#include "src/analysis/export.h"
#include "src/analysis/grouping.h"
#include "src/analysis/histogram.h"
#include "src/analysis/process_report.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/base/crc32.h"
#include "src/profhw/binary_trace.h"
#include "src/profhw/fault_injection.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

struct Digest {
  std::string workload;
  std::string output;
  std::uint32_t crc = 0;
  std::size_t bytes = 0;

  bool operator==(const Digest&) const = default;
};

// Re-record only for an intended change to a rendering.
const std::vector<Digest> kExpected = {
    {"net_receive", "capture", 0x6fb94352, 125330},
    {"net_receive", "export_json", 0xadc5e793, 673215},
    {"net_receive", "export_folded", 0x83f9ad98, 25345},
    {"net_receive", "trace", 0x02108c0a, 415318},
    {"net_receive", "summary_30", 0xc531cf86, 2461},
    {"net_receive", "callgraph_10", 0x8da7230e, 3991},
    {"net_receive", "processes", 0xf51c5f33, 220},
    {"net_receive", "groups", 0x51a4d1b7, 441},
    {"net_receive", "histogram_bcopy", 0x77a6ca3e, 221},
    {"net_receive", "diff_text", 0x1e961207, 10602},
    {"net_receive", "diff_json", 0xe36c1bad, 20833},
    {"net_receive", "diff_pgo_text", 0x32cca618, 4753},
    {"net_receive", "diff_pgo_json", 0xd17e522f, 9204},
    {"net_receive", "salvaged_export_json", 0xd1234033, 538579},
    {"net_receive", "salvaged_export_folded", 0x604d460b, 28355},
    {"net_receive", "salvaged_trace", 0x27640bbb, 335486},
    {"net_receive", "salvaged_summary_30", 0x3d793471, 2818},
    {"net_receive", "salvaged_processes", 0x7a796bc9, 382},
    {"mixed", "capture", 0x5dc5ddf1, 40529},
    {"mixed", "export_json", 0xcdff7809, 217931},
    {"mixed", "export_folded", 0x4bf2455f, 21485},
    {"mixed", "trace", 0x8a0ccc5e, 119615},
    {"mixed", "summary_30", 0xa57e81be, 2465},
    {"mixed", "callgraph_10", 0x6432bd69, 4834},
    {"mixed", "processes", 0x7c88a22b, 670},
    {"mixed", "groups", 0x43c6d290, 483},
    {"mixed", "histogram_bcopy", 0x29e28bc9, 287},
    {"mixed", "diff_text", 0x13f8d4b4, 13804},
    {"mixed", "diff_json", 0x203617b0, 26635},
    {"mixed", "diff_pgo_text", 0xaf06ed84, 4553},
    {"mixed", "diff_pgo_json", 0x311676ab, 8646},
    {"mixed", "salvaged_export_json", 0x7a153682, 173842},
    {"mixed", "salvaged_export_folded", 0xa8f63f1f, 14434},
    {"mixed", "salvaged_trace", 0x716c74ba, 86674},
    {"mixed", "salvaged_summary_30", 0xcee0f26f, 2742},
    {"mixed", "salvaged_processes", 0x1d6a31d4, 793},
    {"fork_exec", "capture", 0xf4c92967, 121920},
    {"fork_exec", "export_json", 0x3df85b91, 659587},
    {"fork_exec", "export_folded", 0x59cae20b, 18079},
    {"fork_exec", "trace", 0x359d93a0, 322566},
    {"fork_exec", "summary_30", 0xc0950bca, 2493},
    {"fork_exec", "callgraph_10", 0xe2ff4049, 3399},
    {"fork_exec", "processes", 0x03cbf579, 464},
    {"fork_exec", "groups", 0xb176f027, 440},
    {"fork_exec", "histogram_bcopy", 0x9f72d890, 150},
    {"fork_exec", "diff_text", 0xe5258849, 11130},
    {"fork_exec", "diff_json", 0xf2d6081d, 21594},
    {"fork_exec", "diff_pgo_text", 0x491515f4, 3723},
    {"fork_exec", "diff_pgo_json", 0xec29af88, 6999},
    {"fork_exec", "salvaged_export_json", 0xd07ddee6, 527658},
    {"fork_exec", "salvaged_export_folded", 0x16d54285, 14827},
    {"fork_exec", "salvaged_trace", 0xd3c6c3bf, 257495},
    {"fork_exec", "salvaged_summary_30", 0x2ca69061, 2848},
    {"fork_exec", "salvaged_processes", 0xdcbab9fe, 538},
    {"lookup", "capture", 0xae522b5b, 121170},
    {"lookup", "export_json", 0x48d2c52c, 649927},
    {"lookup", "export_folded", 0x5fb97e76, 17206},
    {"lookup", "trace", 0xc8dee13b, 459622},
    {"lookup", "summary_30", 0x613c6cc8, 2444},
    {"lookup", "callgraph_10", 0xa31307a6, 3629},
    {"lookup", "processes", 0x06c0013b, 296},
    {"lookup", "groups", 0x9e63cc6f, 440},
    {"lookup", "histogram_bcopy", 0x73f6a6ee, 16},
    {"lookup", "diff_text", 0xa63b3a6e, 6727},
    {"lookup", "diff_json", 0x78327317, 13115},
    {"lookup", "diff_pgo_text", 0x5ba1d115, 3795},
    {"lookup", "diff_pgo_json", 0x37e7b1ca, 7389},
    {"lookup", "salvaged_export_json", 0x0e0f6b8f, 518705},
    {"lookup", "salvaged_export_folded", 0x60911c6b, 32414},
    {"lookup", "salvaged_trace", 0xfa751290, 378062},
    {"lookup", "salvaged_summary_30", 0xfbfefe10, 2797},
    {"lookup", "salvaged_processes", 0x1679e50d, 615},
};

// One capture as hwprof_capture writes it, decoded as hwprof_analyze does.
struct Capture {
  RawTrace raw;
  std::string text;  // the text capture file
  TagFile names;
  DecodedTrace decoded;
};

void Simulate(const std::string& workload, bool all_knobs, Capture* out) {
  TestbedConfig config;
  config.kernel.knobs.cksum_unrolled = all_knobs;
  config.kernel.knobs.pmap_batch_pte = all_knobs;
  config.kernel.knobs.namei_cache = all_knobs;
  Testbed tb(config);
  tb.Arm();
  // hwprof_capture's per-workload defaults.
  if (workload == "net_receive") {
    RunNetworkReceive(tb, Msec(2000), 128 * 1024, false);
  } else if (workload == "mixed") {
    RunMixed(tb, Msec(300));
  } else if (workload == "fork_exec") {
    RunForkExec(tb, 3, Msec(2000));
  } else {
    RunLookupMix(tb, 20, Msec(1000));
  }
  out->raw = tb.StopAndUpload();
  out->text = out->raw.Serialize();
  ASSERT_TRUE(TagFile::Parse(tb.tags().Format(), &out->names));
  CaptureDecode decode = DecodeCaptureBytes(out->text, out->names, /*salvage=*/false,
                                            StreamingOptions{.retain_structure = true});
  ASSERT_TRUE(decode.ok) << workload;
  out->decoded = std::move(decode.trace);
}

// The capture damaged on the board and in transfer, written as hwpb and
// decoded with --salvage, so every anomaly counter of the footers and the
// export's anomaly instants is non-zero on most workloads.
DecodedTrace Salvaged(const Capture& capture) {
  FaultPlan plan;
  plan.word_bitflip_rate = 0.001;
  plan.upload_path_flips = true;
  plan.drop_rate = 0.001;
  plan.duplicate_rate = 0.001;
  plan.stuck_run_rate = 0.0005;
  plan.timer_glitch_rate = 0.001;
  RawTrace damaged = InjectFaults(capture.raw, plan);
  damaged.dropped_events += 7;
  // A host envelope far longer than the decoded span: whole wraps went missing.
  damaged.capture_elapsed_ns = Sec(1000);
  const std::string bytes = CorruptCaptureBinary(EncodeCaptureBinary(damaged), 1);
  CaptureDecode decode = DecodeCaptureBytes(bytes, capture.names, /*salvage=*/true,
                                            StreamingOptions{.retain_structure = true});
  EXPECT_TRUE(decode.ok);
  EXPECT_TRUE(decode.trace.HasAnomalies());
  return std::move(decode.trace);
}

std::vector<Digest> RenderAll() {
  std::vector<Digest> out;
  for (const char* workload : {"net_receive", "mixed", "fork_exec", "lookup"}) {
    auto add = [&](const char* output, const std::string& bytes) {
      out.push_back(Digest{workload, output, Crc32(bytes), bytes.size()});
    };
    Capture base;
    Capture all;
    Simulate(workload, false, &base);
    Simulate(workload, true, &all);
    const DecodedTrace& d = base.decoded;
    add("capture", base.text);
    add("export_json", ExportTraceEventJson(d));
    add("export_folded", ExportFoldedStacks(d));
    add("trace", TraceReport::Format(d));
    add("summary_30", Summary(d).Format(30));
    add("callgraph_10", CallGraph(d).Format(d, 10));
    add("processes", ProcessReport(d).Format(d));
    const std::map<std::string, std::string> groups = base.names.GroupsByName();
    add("groups", Grouping(d, groups).Format());
    add("histogram_bcopy", Histogram::ForFunction(d, "bcopy").Format("bcopy"));
    const TraceDiff diff(d, all.decoded, groups);
    add("diff_text", diff.FormatText());
    add("diff_json", diff.FormatJson());
    // hwprof_analyze --diff ... --noise-pct 2 --quantum-us 2 --gate net
    const TraceDiff pgo(d, all.decoded, groups,
                        DiffOptions{.noise_pct = 2.0, .quantum_us = 2.0, .gate_edges = false});
    add("diff_pgo_text", pgo.FormatText());
    add("diff_pgo_json", pgo.FormatJson());
    const DecodedTrace salvaged = Salvaged(base);
    add("salvaged_export_json", ExportTraceEventJson(salvaged));
    add("salvaged_export_folded", ExportFoldedStacks(salvaged));
    add("salvaged_trace", TraceReport::Format(salvaged));
    add("salvaged_summary_30", Summary(salvaged).Format(30));
    add("salvaged_processes", ProcessReport(salvaged).Format(salvaged));
  }
  return out;
}

TEST(RenderDigest, EveryRenderingMatchesItsRecordedDigest) {
  const std::vector<Digest> actual = RenderAll();
  if (actual == kExpected) {
    return;
  }
  std::string table;
  for (const Digest& d : actual) {
    char line[128];
    std::snprintf(line, sizeof(line), "    {\"%s\", \"%s\", 0x%08x, %zu},\n",
                  d.workload.c_str(), d.output.c_str(), d.crc, d.bytes);
    table += line;
  }
  ADD_FAILURE() << "rendered bytes differ from kExpected; actual values:\n" << table;
  ASSERT_EQ(actual.size(), kExpected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].crc, kExpected[i].crc)
        << actual[i].workload << " " << actual[i].output;
    EXPECT_EQ(actual[i].bytes, kExpected[i].bytes)
        << actual[i].workload << " " << actual[i].output;
  }
}

}  // namespace
}  // namespace hwprof
