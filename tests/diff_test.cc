// Differential capture comparison (TraceDiff / hwprof_analyze --diff):
// exact row values on synthetic A/B pairs, the inclusive noise threshold,
// the exit-code contract the CI perf gate relies on, byte-identical output
// across shard sizes, --jobs values (accepted and ignored) and storage
// formats (text vs hwpb), and direct CallGraph/Grouping coverage the diff builds on.

#include "src/analysis/diff.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/analysis/decoder.h"
#include "src/analysis/grouping.h"
#include "src/base/assert.h"
#include "src/profhw/smart_socket.h"
#include "tests/trace_testutil.h"
#include "tools/analyze_main.h"

namespace hwprof {
namespace {

// a{ b{} } then a top-level c{}: a net 70, b net 30, c net 100.
RawTrace BaselineTrace() {
  return Trace({{100, 0}, {102, 10}, {103, 40}, {101, 100}, {104, 150}, {105, 250}});
}

// Same shape, but b runs 10 us longer (stealing from a), c is unchanged,
// and a new function d{} appears at the end.
RawTrace CandidateTrace() {
  return Trace({{100, 0}, {102, 10}, {103, 50}, {101, 100}, {104, 150}, {105, 250},
                {106, 300}, {107, 310}});
}

std::map<std::string, std::string> AbcGroups() {
  return {{"a", "net"}, {"b", "net"}, {"c", "vm"}};
}

TraceDiff MakeDiff(const RawTrace& a, const RawTrace& b, DiffOptions options) {
  const DecodedTrace da = Decoder::Decode(a, MakeNames());
  const DecodedTrace db = Decoder::Decode(b, MakeNames());
  return TraceDiff(da, db, AbcGroups(), options);
}

TraceDiff MakeDiff(const RawTrace& a, const RawTrace& b, double noise_pct = 0.0) {
  return MakeDiff(a, b, DiffOptions{.noise_pct = noise_pct});
}

// --- TraceDiff rows ---------------------------------------------------------------

TEST(TraceDiff, IdenticalTracesAreAllSuppressed) {
  const TraceDiff diff = MakeDiff(BaselineTrace(), BaselineTrace());
  EXPECT_FALSE(diff.HasRegression());
  EXPECT_EQ(diff.regression_count(), 0u);
  for (const auto* section : {&diff.functions(), &diff.edges(), &diff.groups()}) {
    EXPECT_FALSE(section->empty());
    for (const DiffRow& row : *section) {
      EXPECT_EQ(row.delta_us, 0) << row.key;
      EXPECT_TRUE(row.suppressed) << row.key;
      EXPECT_FALSE(row.regressed) << row.key;
    }
  }
  EXPECT_EQ(diff.totals().a_elapsed_us, diff.totals().b_elapsed_us);
  EXPECT_EQ(diff.totals().a_events, diff.totals().b_events);
  EXPECT_NE(diff.FormatText().find("(no rows above noise)"), std::string::npos);
  EXPECT_NE(diff.FormatText().find("regressions above noise: 0"), std::string::npos);
}

TEST(TraceDiff, FunctionRowsCarryExactDeltas) {
  const TraceDiff diff = MakeDiff(BaselineTrace(), CandidateTrace());

  const DiffRow* b = diff.Function("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->a_us, 30u);
  EXPECT_EQ(b->b_us, 40u);
  EXPECT_EQ(b->delta_us, 10);
  EXPECT_NEAR(b->rel_pct, 100.0 / 3.0, 1e-9);
  EXPECT_TRUE(b->regressed);

  const DiffRow* a = diff.Function("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->a_us, 70u);
  EXPECT_EQ(a->b_us, 60u);
  EXPECT_EQ(a->delta_us, -10);
  EXPECT_FALSE(a->regressed);  // faster is never a regression

  const DiffRow* c = diff.Function("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->delta_us, 0);
  EXPECT_TRUE(c->suppressed);  // unchanged rows hide even at noise 0

  const DiffRow* d = diff.Function("d");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->only_b);
  EXPECT_TRUE(d->regressed);  // new-in-candidate is always a regression

  // Sorted by signed delta descending, key ascending on ties: b and d tie
  // at +10, then c (0), then a (-10).
  ASSERT_EQ(diff.functions().size(), 4u);
  EXPECT_EQ(diff.functions()[0].key, "b");
  EXPECT_EQ(diff.functions()[1].key, "d");
  EXPECT_EQ(diff.functions()[2].key, "c");
  EXPECT_EQ(diff.functions()[3].key, "a");
}

TEST(TraceDiff, EdgeRowsUseCalleeElapsedUnderEachCaller) {
  const TraceDiff diff = MakeDiff(BaselineTrace(), CandidateTrace());

  const DiffRow* ab = diff.Edge("a", "b");
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->a_us, 30u);
  EXPECT_EQ(ab->b_us, 40u);
  EXPECT_TRUE(ab->regressed);

  const DiffRow* top_d = diff.Edge(kSpontaneous, "d");
  ASSERT_NE(top_d, nullptr);
  EXPECT_TRUE(top_d->only_b);
  EXPECT_TRUE(top_d->regressed);

  const DiffRow* top_a = diff.Edge(kSpontaneous, "a");
  ASSERT_NE(top_a, nullptr);
  EXPECT_EQ(top_a->delta_us, 0);  // a's elapsed (100 us) is unchanged
  EXPECT_TRUE(top_a->suppressed);
}

TEST(TraceDiff, GroupRowsFollowTheTagFileLabels) {
  const TraceDiff diff = MakeDiff(BaselineTrace(), CandidateTrace());

  // a and b both map to "net"; b's +10 is a's -10, so the abstraction nets out.
  const DiffRow* net = diff.Group("net");
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->a_us, 100u);
  EXPECT_EQ(net->b_us, 100u);
  EXPECT_TRUE(net->suppressed);

  const DiffRow* vm = diff.Group("vm");
  ASSERT_NE(vm, nullptr);
  EXPECT_TRUE(vm->suppressed);

  // d is unmapped, so it surfaces as a new "other" abstraction.
  const DiffRow* other = diff.Group("other");
  ASSERT_NE(other, nullptr);
  EXPECT_TRUE(other->only_b);
  EXPECT_TRUE(other->regressed);
}

TEST(TraceDiff, NoiseThresholdIsInclusive) {
  const RawTrace base = Trace({{100, 0}, {101, 1000}});
  const RawTrace at_threshold = Trace({{100, 0}, {101, 1050}});   // exactly +5 %
  const RawTrace above_threshold = Trace({{100, 0}, {101, 1051}});  // +5.1 %

  const TraceDiff at = MakeDiff(base, at_threshold, 5.0);
  ASSERT_NE(at.Function("a"), nullptr);
  EXPECT_TRUE(at.Function("a")->suppressed);  // the threshold itself is noise
  EXPECT_FALSE(at.HasRegression());

  const TraceDiff above = MakeDiff(base, above_threshold, 5.0);
  ASSERT_NE(above.Function("a"), nullptr);
  EXPECT_FALSE(above.Function("a")->suppressed);
  EXPECT_TRUE(above.Function("a")->regressed);
  EXPECT_TRUE(above.HasRegression());

  // Symmetric on the improvement side: -5 % is noise, -5.1 % is a visible
  // improvement but never a regression.
  const TraceDiff faster = MakeDiff(base, Trace({{100, 0}, {101, 950}}), 5.0);
  EXPECT_TRUE(faster.Function("a")->suppressed);
  const TraceDiff much_faster = MakeDiff(base, Trace({{100, 0}, {101, 949}}), 5.0);
  EXPECT_FALSE(much_faster.Function("a")->suppressed);
  EXPECT_FALSE(much_faster.Function("a")->regressed);
  EXPECT_FALSE(much_faster.HasRegression());
}

TEST(TraceDiff, GoneRowsAreImprovements) {
  const TraceDiff diff = MakeDiff(CandidateTrace(), BaselineTrace());
  const DiffRow* d = diff.Function("d");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->only_a);
  EXPECT_EQ(d->rel_pct, -100.0);
  EXPECT_FALSE(d->suppressed);
  EXPECT_FALSE(d->regressed);
  EXPECT_NE(diff.FormatText().find("gone"), std::string::npos);
}

TEST(TraceDiff, ContextSwitchFunctionsStayOutOfRows) {
  // swtch (200!) parks the CPU for 500 us in A and 900 us in B; the real
  // work (a) is identical. An idle shift must not read as a regression.
  const RawTrace idle_a =
      Trace({{100, 0}, {101, 50}, {200, 60}, {201, 560}, {100, 600}, {101, 650}});
  const RawTrace idle_b =
      Trace({{100, 0}, {101, 50}, {200, 60}, {201, 960}, {100, 1000}, {101, 1050}});
  const TraceDiff diff = MakeDiff(idle_a, idle_b);
  EXPECT_EQ(diff.Function("swtch"), nullptr);
  EXPECT_EQ(diff.Edge(kSpontaneous, "swtch"), nullptr);
  for (const DiffRow& row : diff.groups()) {
    EXPECT_EQ(row.key.find("swtch"), std::string::npos);
  }
  EXPECT_FALSE(diff.HasRegression());
  // The shift is still visible in the totals header.
  EXPECT_GT(diff.totals().b_idle_us, diff.totals().a_idle_us);
}

TEST(TraceDiff, ZeroBaselineRowsStayFiniteAtAnyNoise) {
  // A row the baseline never saw has no finite relative delta; it must
  // still render cleanly and regress even under an absurd noise threshold.
  const TraceDiff diff = MakeDiff(BaselineTrace(), CandidateTrace(),
                                  /*noise_pct=*/1e9);
  const DiffRow* d = diff.Function("d");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->only_b);
  EXPECT_FALSE(d->suppressed);  // new rows never noise-suppress
  EXPECT_TRUE(d->regressed);
  EXPECT_TRUE(std::isfinite(d->rel_pct));
  EXPECT_TRUE(diff.HasRegression());

  for (const std::string& report : {diff.FormatText(), diff.FormatJson()}) {
    EXPECT_EQ(report.find("inf"), std::string::npos);
    EXPECT_EQ(report.find("nan"), std::string::npos);
  }
  EXPECT_NE(diff.FormatText().find("new"), std::string::npos);
  EXPECT_NE(diff.FormatJson().find("\"rel_pct\": null, \"status\": \"new\""),
            std::string::npos);
}

TEST(TraceDiff, ZeroTimeOnBothSidesIsSuppressedNotRegressed) {
  // d enters and exits on the same microsecond in both captures: zero time
  // each side, so there is nothing to compare — even though the call counts
  // differ (1 vs 2).
  const RawTrace a = Trace({{100, 0}, {101, 50}, {106, 60}, {107, 60}});
  const RawTrace b = Trace({{100, 0}, {101, 50}, {106, 60}, {107, 60},
                            {106, 70}, {107, 70}});
  const TraceDiff diff = MakeDiff(a, b);
  const DiffRow* d = diff.Function("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->a_us, 0u);
  EXPECT_EQ(d->b_us, 0u);
  EXPECT_TRUE(d->suppressed);
  EXPECT_FALSE(d->regressed);
  EXPECT_EQ(d->rel_pct, 0.0);
}

TEST(TraceDiff, QuantumFloorSuppressesPerCallJitter) {
  // a: one call, 1000 us -> 1010 us (+1 %): within a 10 us/call quantum,
  // beyond a 9 us/call one. The relative threshold alone (0 %) would flag
  // both.
  const RawTrace base = Trace({{100, 0}, {101, 1000}});
  const RawTrace jittered = Trace({{100, 0}, {101, 1010}});

  const TraceDiff lenient =
      MakeDiff(base, jittered, DiffOptions{.quantum_us = 10.0});
  ASSERT_NE(lenient.Function("a"), nullptr);
  EXPECT_TRUE(lenient.Function("a")->suppressed);
  EXPECT_FALSE(lenient.HasRegression());

  const TraceDiff strict =
      MakeDiff(base, jittered, DiffOptions{.quantum_us = 9.0});
  ASSERT_NE(strict.Function("a"), nullptr);
  EXPECT_FALSE(strict.Function("a")->suppressed);
  EXPECT_TRUE(strict.Function("a")->regressed);
  EXPECT_TRUE(strict.HasRegression());

  // The floor scales per call: two calls drifting +5 us each sit inside a
  // 5 us/call quantum.
  const RawTrace two_calls = Trace({{100, 0}, {101, 1000}, {100, 2000}, {101, 3000}});
  const RawTrace two_jittered =
      Trace({{100, 0}, {101, 1005}, {100, 2000}, {101, 3005}});
  const TraceDiff scaled =
      MakeDiff(two_calls, two_jittered, DiffOptions{.quantum_us = 5.0});
  EXPECT_TRUE(scaled.Function("a")->suppressed);

  // New rows are measured on one side only; the quantum never hides them.
  const TraceDiff with_new = MakeDiff(BaselineTrace(), CandidateTrace(),
                                      DiffOptions{.quantum_us = 1e9});
  ASSERT_NE(with_new.Function("d"), nullptr);
  EXPECT_FALSE(with_new.Function("d")->suppressed);
  EXPECT_TRUE(with_new.Function("d")->regressed);

  // The floor is announced in both report formats.
  EXPECT_NE(lenient.FormatText().find("quantum floor: 10.00 us/call"),
            std::string::npos);
  EXPECT_NE(lenient.FormatJson().find("\"quantum_us\": 10.00"),
            std::string::npos);
}

TEST(TraceDiff, GateNetDemotesEdgeRowsToAdvisory) {
  // b steals 10 us from a: the function row and the a->b edge both worsen.
  // With --gate net the edge still prints but no longer regresses.
  const DiffOptions gate_net{.gate_edges = false};
  const TraceDiff diff = MakeDiff(BaselineTrace(), CandidateTrace(), gate_net);

  const DiffRow* edge = diff.Edge("a", "b");
  ASSERT_NE(edge, nullptr);
  EXPECT_GT(edge->delta_us, 0);
  EXPECT_FALSE(edge->suppressed);  // still reported
  EXPECT_FALSE(edge->regressed);   // but advisory

  // Net-time sections still gate: the b function row regresses as before.
  ASSERT_NE(diff.Function("b"), nullptr);
  EXPECT_TRUE(diff.Function("b")->regressed);
  EXPECT_TRUE(diff.HasRegression());

  // A new-in-candidate edge is advisory too; the new *function* still gates.
  for (const DiffRow& row : diff.edges()) {
    EXPECT_FALSE(row.regressed) << row.key;
  }
  EXPECT_NE(diff.FormatText().find("per-call-edge elapsed (advisory)"),
            std::string::npos);
  EXPECT_NE(diff.FormatJson().find(
                "\"gated_sections\": [\"functions\", \"groups\"]"),
            std::string::npos);

  // Compared against the default gate, only edge regressions disappear.
  const TraceDiff gate_all = MakeDiff(BaselineTrace(), CandidateTrace());
  EXPECT_GT(gate_all.regression_count(), diff.regression_count());
  EXPECT_EQ(gate_all.FormatText().find("(advisory)"), std::string::npos);
}

// --- Determinism ------------------------------------------------------------------

TEST(DiffDeterminism, ByteIdenticalAcrossDecodePaths) {
  const RawTrace raw_a = FuzzTrace(11, 4000);
  const RawTrace raw_b = FuzzTrace(22, 4000);
  const TagFile& names = MakeNames();
  const std::map<std::string, std::string> groups = AbcGroups();
  const DiffOptions options{.noise_pct = 1.0};

  const DecodedTrace ref_a = ReferenceDecode(raw_a, names);
  const DecodedTrace ref_b = ReferenceDecode(raw_b, names);
  const TraceDiff reference(ref_a, ref_b, groups, options);
  const std::string text = reference.FormatText();
  const std::string json = reference.FormatJson();

  for (const std::size_t target : kShardTargets) {
    const DecodedTrace a = DecodeWithTarget(raw_a, names, target);
    const DecodedTrace b = DecodeWithTarget(raw_b, names, target);
    const TraceDiff diff(a, b, groups, options);
    EXPECT_EQ(diff.FormatText(), text) << "target=" << target;
    EXPECT_EQ(diff.FormatJson(), json) << "target=" << target;
  }
}

// --- The --diff CLI ---------------------------------------------------------------

struct DiffFiles {
  std::string a_text, a_binary;
  std::string b_text, b_binary;
  std::string names;
};

DiffFiles WriteDiffFiles() {
  DiffFiles files;
  const std::string dir = ::testing::TempDir();
  files.a_text = dir + "/diff_a.hwprof";
  files.a_binary = dir + "/diff_a.hwpb";
  files.b_text = dir + "/diff_b.hwprof";
  files.b_binary = dir + "/diff_b.hwpb";
  files.names = dir + "/diff.names";
  const RawTrace raw_a = FuzzTrace(11, 4000);
  const RawTrace raw_b = FuzzTrace(22, 4000);
  HWPROF_CHECK(SaveCapture(raw_a, files.a_text, CaptureFormat::kText));
  HWPROF_CHECK(SaveCapture(raw_a, files.a_binary, CaptureFormat::kBinary));
  HWPROF_CHECK(SaveCapture(raw_b, files.b_text, CaptureFormat::kText));
  HWPROF_CHECK(SaveCapture(raw_b, files.b_binary, CaptureFormat::kBinary));
  std::ofstream names_out(files.names);
  names_out << MakeNames().Format();
  return files;
}

int RunDiffCli(std::initializer_list<const char*> args, std::string* error,
               std::string* out) {
  std::vector<const char*> argv{"hwprof_analyze", "--diff"};
  argv.insert(argv.end(), args.begin(), args.end());
  ::testing::internal::CaptureStdout();
  const int rc = AnalyzeMain(static_cast<int>(argv.size()), argv.data(), error);
  *out = ::testing::internal::GetCapturedStdout();
  return rc;
}

TEST(DiffCli, IdenticalCapturesExitZero) {
  const DiffFiles files = WriteDiffFiles();
  std::string error, out;
  EXPECT_EQ(RunDiffCli({files.a_text.c_str(), files.a_text.c_str(),
                        files.names.c_str(), "--noise-pct", "2"},
                       &error, &out),
            0)
      << error;
  EXPECT_NE(out.find("regressions above noise: 0"), std::string::npos);
}

TEST(DiffCli, RegressionsDriveExitCodeThree) {
  const DiffFiles files = WriteDiffFiles();
  std::string error, out;
  const int rc = RunDiffCli(
      {files.a_text.c_str(), files.b_text.c_str(), files.names.c_str()}, &error, &out);
  EXPECT_EQ(rc, 3) << error;
  EXPECT_NE(out.find("[REGRESSED]"), std::string::npos);
}

TEST(DiffCli, OutputIsByteIdenticalAcrossJobsAndFormats) {
  const DiffFiles files = WriteDiffFiles();
  std::string error, base;
  const int rc = RunDiffCli({files.a_text.c_str(), files.b_text.c_str(),
                             files.names.c_str(), "--noise-pct", "1"},
                            &error, &base);
  EXPECT_EQ(rc, 3) << error;
  ASSERT_FALSE(base.empty());

  struct Variant {
    const char* what;
    const std::string* a;
    const std::string* b;
    const char* jobs;  // nullptr = no --jobs (accepted and ignored)
  };
  const Variant variants[] = {
      {"text jobs=1", &files.a_text, &files.b_text, "1"},
      {"text jobs=2", &files.a_text, &files.b_text, "2"},
      {"text jobs=8", &files.a_text, &files.b_text, "8"},
      {"binary", &files.a_binary, &files.b_binary, nullptr},
      {"binary jobs=8", &files.a_binary, &files.b_binary, "8"},
      {"mixed text/binary", &files.a_text, &files.b_binary, nullptr},
  };
  for (const Variant& v : variants) {
    std::string out;
    std::vector<const char*> args{v.a->c_str(), v.b->c_str(), files.names.c_str(),
                                  "--noise-pct", "1"};
    if (v.jobs != nullptr) {
      args.push_back("--jobs");
      args.push_back(v.jobs);
    }
    std::vector<const char*> argv{"hwprof_analyze", "--diff"};
    argv.insert(argv.end(), args.begin(), args.end());
    ::testing::internal::CaptureStdout();
    const int vrc = AnalyzeMain(static_cast<int>(argv.size()), argv.data(), &error);
    out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(vrc, 3) << v.what << ": " << error;
    EXPECT_EQ(out, base) << v.what;
  }
}

TEST(DiffCli, JsonReportMirrorsTheExitCode) {
  const DiffFiles files = WriteDiffFiles();
  std::string error, out;
  const int rc = RunDiffCli({files.a_text.c_str(), files.b_text.c_str(),
                             files.names.c_str(), "--json"},
                            &error, &out);
  EXPECT_EQ(rc, 3) << error;
  EXPECT_NE(out.find("\"functions\": ["), std::string::npos);
  EXPECT_NE(out.find("\"status\": \"regressed\""), std::string::npos);
  EXPECT_EQ(out.find("\"regressions\": 0"), std::string::npos);

  // The JSON twin is also byte-stable across storage formats and --jobs.
  std::string jobs_out;
  EXPECT_EQ(RunDiffCli({files.a_binary.c_str(), files.b_binary.c_str(),
                        files.names.c_str(), "--json", "--jobs", "8"},
                       &error, &jobs_out),
            3)
      << error;
  EXPECT_EQ(jobs_out, out);
}

TEST(DiffCli, UsageAndLoadErrors) {
  const DiffFiles files = WriteDiffFiles();
  std::string error, out;
  EXPECT_EQ(RunDiffCli({files.a_text.c_str()}, &error, &out), 2);  // too few args
  EXPECT_NE(error.find("usage"), std::string::npos);

  error.clear();
  EXPECT_EQ(RunDiffCli({files.a_text.c_str(), files.b_text.c_str(),
                        files.names.c_str(), "--noise-pct", "-3"},
                       &error, &out),
            2);
  EXPECT_NE(error.find("non-negative"), std::string::npos);

  error.clear();
  EXPECT_EQ(RunDiffCli({"/nonexistent.hwprof", files.b_text.c_str(),
                        files.names.c_str()},
                       &error, &out),
            1);
  EXPECT_FALSE(error.empty());
}

TEST(DiffCli, QuantumAndGateOptionsParseAndValidate) {
  const DiffFiles files = WriteDiffFiles();
  std::string error, out;

  // --gate net + a huge quantum floor: every changed row on both sides is
  // within the floor, new-in-candidate *function* rows (if any) would still
  // gate, but FuzzTrace pairs share the name set, so the diff passes.
  const int rc = RunDiffCli(
      {files.a_text.c_str(), files.b_text.c_str(), files.names.c_str(),
       "--quantum-us", "1000000", "--gate", "net"},
      &error, &out);
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("quantum floor: 1000000.00 us/call"), std::string::npos);
  EXPECT_NE(out.find("(advisory)"), std::string::npos);

  error.clear();
  EXPECT_EQ(RunDiffCli({files.a_text.c_str(), files.b_text.c_str(),
                        files.names.c_str(), "--quantum-us", "-1"},
                       &error, &out),
            2);
  EXPECT_NE(error.find("non-negative"), std::string::npos);

  error.clear();
  EXPECT_EQ(RunDiffCli({files.a_text.c_str(), files.b_text.c_str(),
                        files.names.c_str(), "--gate", "edges"},
                       &error, &out),
            2);
  EXPECT_NE(error.find("--gate must be all or net"), std::string::npos);
}

// --- CallGraph / Grouping units the diff is built on -------------------------------

TEST(CallGraph, CallersOfOrdersHeaviestFirst) {
  // Three callers of d with elapsed 90, 40 and 10 us.
  const RawTrace raw = Trace({{100, 0},  {106, 10}, {107, 100}, {101, 110},
                              {102, 120}, {106, 130}, {107, 170}, {103, 180},
                              {104, 190}, {106, 200}, {107, 210}, {105, 220}});
  const DecodedTrace d = Decoder::Decode(raw, MakeNames());
  const CallGraph graph(d);
  const auto callers = graph.CallersOf("d");
  ASSERT_EQ(callers.size(), 3u);
  EXPECT_EQ(callers[0]->caller, "a");
  EXPECT_EQ(callers[1]->caller, "b");
  EXPECT_EQ(callers[2]->caller, "c");
  EXPECT_GT(callers[0]->callee_elapsed, callers[1]->callee_elapsed);
  EXPECT_GT(callers[1]->callee_elapsed, callers[2]->callee_elapsed);
}

TEST(CallGraph, TopOfBlockFunctionsAreSpontaneous) {
  const DecodedTrace d = Decoder::Decode(BaselineTrace(), MakeNames());
  const CallGraph graph(d);
  ASSERT_NE(graph.Edge(kSpontaneous, "a"), nullptr);
  ASSERT_NE(graph.Edge(kSpontaneous, "c"), nullptr);
  EXPECT_EQ(graph.Edge(kSpontaneous, "b"), nullptr);  // only ever nested
}

TEST(Grouping, UnmappedFunctionsLandInOther) {
  const DecodedTrace d = Decoder::Decode(BaselineTrace(), MakeNames());
  const Grouping grouping(d, {{"a", "alpha"}});
  const GroupRow* alpha = grouping.Row("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->net_us, 70u);
  const GroupRow* other = grouping.Row("other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->net_us, 130u);  // b (30) + c (100)
  EXPECT_EQ(other->calls, 2u);
}

TEST(Grouping, ContextSwitchTimeIsExcluded) {
  const RawTrace raw =
      Trace({{100, 0}, {101, 50}, {200, 60}, {201, 560}, {100, 600}, {101, 650}});
  const DecodedTrace d = Decoder::Decode(raw, MakeNames());
  // Even an explicit mapping cannot pull idle time into an abstraction.
  const Grouping grouping(d, {{"swtch", "sched"}});
  EXPECT_EQ(grouping.Row("sched"), nullptr);
  const GroupRow* other = grouping.Row("other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->net_us, 100u);  // a's two 50 us runs, no idle
}

TEST(Grouping, SplGroupCollectsSplPrefixedFunctions) {
  TagFile names;
  ASSERT_TRUE(TagFile::Parse("splnet/400\nsplx/402\nwork/404\n", &names));
  const RawTrace raw =
      Trace({{400, 0}, {401, 5}, {404, 10}, {402, 15}, {403, 18}, {405, 30}});
  const DecodedTrace d = Decoder::Decode(raw, names);
  const Grouping grouping(d, Grouping::SplGroup(d));
  const GroupRow* spl = grouping.Row("spl*");
  ASSERT_NE(spl, nullptr);
  EXPECT_EQ(spl->net_us, 8u);   // splnet (5) + splx (3)
  EXPECT_EQ(spl->calls, 2u);
  const GroupRow* other = grouping.Row("other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->net_us, 17u);  // work's 20 us elapsed minus splx's 3
}

}  // namespace
}  // namespace hwprof
