// Summary, code-path trace report, grouping and histogram formatting.

#include <gtest/gtest.h>

#include "src/analysis/callgraph.h"
#include "src/analysis/decoder.h"
#include "src/analysis/diff.h"
#include "src/analysis/export.h"
#include "src/base/assert.h"
#include "src/analysis/grouping.h"
#include "src/analysis/histogram.h"
#include "src/analysis/process_report.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/instr/tag_file.h"
#include "src/lint/trace_check.h"

namespace hwprof {
namespace {

// The decoded traces point into the names file, so it must outlive them:
// keep one for the whole test binary.
const TagFile& MakeNames() {
  static const TagFile* names = [] {
    auto* file = new TagFile();
    HWPROF_CHECK(TagFile::Parse(
        "alpha/100\nbeta/102\nsplnet/104\nsplx/106\nswtch/200!\nMARK/300=\n", file));
    return file;
  }();
  return *names;
}

DecodedTrace MakeDecoded() {
  RawTrace raw;
  // alpha [0..100] with beta [20..60]; idle window [120..220]; beta [230..280].
  raw.events = {{100, 0},   {102, 20},  {103, 60},  {101, 100}, {100, 110},
                {200, 120}, {201, 220}, {102, 230}, {103, 280}, {101, 300}};
  return Decoder::Decode(raw, MakeNames());
}

TEST(Summary, HeaderNumbersAreConsistent) {
  DecodedTrace d = MakeDecoded();
  Summary s(d);
  EXPECT_EQ(s.elapsed_us(), 300u);
  EXPECT_EQ(s.idle_us(), 100u);
  EXPECT_EQ(s.run_us(), 200u);
  EXPECT_EQ(s.tag_count(), 10u);
}

TEST(Summary, RowsSortedByNetDescending) {
  DecodedTrace d = MakeDecoded();
  Summary s(d);
  ASSERT_GE(s.rows().size(), 2u);
  for (std::size_t i = 1; i < s.rows().size(); ++i) {
    EXPECT_GE(s.rows()[i - 1].net_us, s.rows()[i].net_us);
  }
}

TEST(Summary, RowContents) {
  DecodedTrace d = MakeDecoded();
  Summary s(d);
  const SummaryRow* beta = s.Row("beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->calls, 2u);
  EXPECT_EQ(beta->net_us, 90u);  // 40 + 50
  EXPECT_EQ(beta->min_us, 40u);
  EXPECT_EQ(beta->max_us, 50u);
  EXPECT_EQ(beta->avg_us, 45u);
  EXPECT_NEAR(beta->pct_real, 100.0 * 90 / 300, 0.01);
  EXPECT_NEAR(beta->pct_net, 100.0 * 90 / 200, 0.01);
}

TEST(Summary, FormatLooksLikeFigure3) {
  DecodedTrace d = MakeDecoded();
  Summary s(d);
  const std::string text = s.Format();
  EXPECT_NE(text.find("Elapsed time = 0 sec 300 us (10 tags)"), std::string::npos);
  EXPECT_NE(text.find("Accumulated run time ="), std::string::npos);
  EXPECT_NE(text.find("Idle time ="), std::string::npos);
  EXPECT_NE(text.find("% real"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  // Percent columns carry the % sign as in the paper.
  EXPECT_NE(text.find('%'), std::string::npos);
}

TEST(Summary, TopNLimitsRows) {
  DecodedTrace d = MakeDecoded();
  Summary s(d);
  const std::string all = s.Format();
  const std::string top1 = s.Format(1);
  EXPECT_GT(all.size(), top1.size());
}

TEST(TraceReport, ShowsEntriesExitsAndContextSwitch) {
  DecodedTrace d = MakeDecoded();
  const std::string text = TraceReport::Format(d);
  EXPECT_NE(text.find("-> alpha"), std::string::npos);
  EXPECT_NE(text.find("-> beta"), std::string::npos);
  EXPECT_NE(text.find("---- Context switch in ----"), std::string::npos);
  // alpha has children, so it gets an exit line.
  EXPECT_NE(text.find("<- alpha"), std::string::npos);
}

TEST(TraceReport, IndentationTracksDepth) {
  DecodedTrace d = MakeDecoded();
  TraceReportOptions opts;
  opts.indent_width = 4;
  const std::string text = TraceReport::Format(d, opts);
  // beta nested under alpha: its line is indented deeper.
  const auto alpha_at = text.find("-> alpha");
  const auto beta_at = text.find("-> beta");
  ASSERT_NE(alpha_at, std::string::npos);
  ASSERT_NE(beta_at, std::string::npos);
  // Count spaces before the arrow on each line.
  auto indent_of = [&](std::size_t pos) {
    std::size_t line_start = text.rfind('\n', pos);
    line_start = line_start == std::string::npos ? 0 : line_start + 1;
    // Skip the timestamp (up to the first space after "0:000 000").
    return pos - line_start;
  };
  EXPECT_GT(indent_of(beta_at), indent_of(alpha_at));
}

TEST(TraceReport, MaxLinesTruncates) {
  DecodedTrace d = MakeDecoded();
  TraceReportOptions opts;
  opts.max_lines = 2;
  const std::string text = TraceReport::Format(d, opts);
  EXPECT_NE(text.find("..."), std::string::npos);
  // 2 lines + ellipsis.
  int newlines = 0;
  for (char c : text) {
    newlines += c == '\n';
  }
  EXPECT_EQ(newlines, 3);
}

TEST(TraceReport, InlineMarkerRendering) {
  RawTrace raw;
  raw.events = {{100, 0}, {300, 10}, {101, 20}};
  DecodedTrace d = Decoder::Decode(raw, MakeNames());
  const std::string text = TraceReport::Format(d);
  EXPECT_NE(text.find("== MARK"), std::string::npos);
}

TEST(Grouping, SplGroupAggregation) {
  DecodedTrace d = MakeDecoded();
  Grouping g(d, Grouping::SplGroup(d));
  const GroupRow* spl = g.Row("spl*");
  // MakeDecoded has no spl time; build one that does.
  RawTrace raw;
  raw.events = {{100, 0}, {104, 10}, {105, 20}, {106, 30}, {107, 35}, {101, 50}};
  DecodedTrace d2 = Decoder::Decode(raw, MakeNames());
  Grouping g2(d2, Grouping::SplGroup(d2));
  const GroupRow* spl2 = g2.Row("spl*");
  ASSERT_NE(spl2, nullptr);
  EXPECT_EQ(spl2->net_us, 15u);  // splnet 10 + splx 5
  EXPECT_EQ(spl2->calls, 2u);
  const GroupRow* other = g2.Row("other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->net_us, 35u);
  (void)spl;
}

TEST(Grouping, FormatContainsRows) {
  DecodedTrace d = MakeDecoded();
  std::map<std::string, std::string> groups{{"alpha", "hot"}};
  Grouping g(d, groups);
  const std::string text = g.Format();
  EXPECT_NE(text.find("hot"), std::string::npos);
  EXPECT_NE(text.find("other"), std::string::npos);  // beta is unmapped
}

TEST(Grouping, ContextSwitchNetNeverJoinsAGroup) {
  // swtch's net is the idle account; neither the "other" bucket nor an
  // explicit mapping may absorb it (idle shifts would read as subsystem
  // regressions in the differential report).
  DecodedTrace d = MakeDecoded();
  Grouping g(d, {{"alpha", "hot"}, {"beta", "hot"}, {"swtch", "sched"}});
  EXPECT_EQ(g.Row("sched"), nullptr);
  EXPECT_EQ(g.Row("other"), nullptr);
  const GroupRow* hot = g.Row("hot");
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->net_us, 190u);  // alpha 100 + beta 90, none of the idle
}

// --- Ties render the same whatever order the names file lists ------------------

// The same four functions with the same tags and groups, listed in reverse
// alphabetical and in alphabetical order. A report that keys its tables by
// names-file entry must break ties by name, never by an entry's position.
const TagFile& ReverseAlphabeticalNames() {
  static const TagFile* names = [] {
    auto* file = new TagFile();
    HWPROF_CHECK(TagFile::Parse("zeta/106 group=gz\nmain/100 group=gm\n"
                                "beta/104 group=gb\nalpha/102 group=ga\n",
                                file));
    return file;
  }();
  return *names;
}

const TagFile& AlphabeticalNames() {
  static const TagFile* names = [] {
    auto* file = new TagFile();
    HWPROF_CHECK(TagFile::Parse("alpha/102 group=ga\nbeta/104 group=gb\n"
                                "main/100 group=gm\nzeta/106 group=gz\n",
                                file));
    return file;
  }();
  return *names;
}

// One context: main calls alpha and beta for 10 us each, so the two tie on
// net time, on calls, on their groups and on their edges from main. Then a
// second main whose exit force-closes a zero-time beta and alpha, one
// orphan exit of each, and a zeta entry still open when the capture ends.
RawTrace TiedTrace() {
  RawTrace raw;
  raw.events = {{100, 0},  {102, 1},  {103, 11}, {104, 11}, {105, 21},
                {101, 22}, {100, 30}, {104, 30}, {102, 30}, {101, 30},
                {103, 40}, {105, 40}, {106, 50}};
  raw.overflowed = true;
  return raw;
}

// Every rendering of `d`: the reports, the exports, a diff against a trace
// decoded with another names file in both directions, and hwprof_lint's
// trace cross-check.
std::string RenderAll(const DecodedTrace& d, const TagFile& names) {
  std::string out = Summary(d).Format(0);
  out += Grouping(d, names.GroupsByName()).Format();
  out += CallGraph(d).Format(d);
  out += ProcessReport(d).Format(d);
  out += TraceReport::Format(d);
  out += ExportTraceEventJson(d);
  out += ExportFoldedStacks(d);
  out += Histogram::ForFunction(d, "alpha").Format("alpha");
  const DecodedTrace other = MakeDecoded();
  out += TraceDiff(d, other, names.GroupsByName()).FormatText();
  out += TraceDiff(other, d, names.GroupsByName()).FormatJson();
  std::vector<lint::Finding> findings;
  lint::CrossCheckTrace(d, names, lint::CallStructureModel{}, &findings);
  for (const lint::Finding& f : findings) {
    out += f.rule + ": " + f.message + "\n";
  }
  return out;
}

DecodedTrace FoldDecode(const RawTrace& raw, const TagFile& names) {
  StreamingDecoder decoder(names, raw.timer_bits, raw.timer_clock_hz,
                           StreamingOptions{.retain_structure = false});
  decoder.Feed(raw.events);
  return decoder.Finish(raw.overflowed);
}

TEST(TieBreak, ReportsBreakTiesByNameNotByNamesFileOrder) {
  const RawTrace raw = TiedTrace();
  const DecodedTrace reverse = Decoder::Decode(raw, ReverseAlphabeticalNames());
  const DecodedTrace alphabetical = Decoder::Decode(raw, AlphabeticalNames());

  // The ties are real.
  const Summary summary(reverse);
  ASSERT_NE(summary.Row("alpha"), nullptr);
  ASSERT_NE(summary.Row("beta"), nullptr);
  EXPECT_EQ(summary.Row("alpha")->net_us, 10u);
  EXPECT_EQ(summary.Row("alpha")->net_us, summary.Row("beta")->net_us);
  EXPECT_EQ(summary.Row("alpha")->calls, summary.Row("beta")->calls);
  const Grouping groups(reverse, ReverseAlphabeticalNames().GroupsByName());
  ASSERT_NE(groups.Row("ga"), nullptr);
  ASSERT_NE(groups.Row("gb"), nullptr);
  EXPECT_EQ(groups.Row("ga")->net_us, groups.Row("gb")->net_us);
  const CallGraph graph(reverse);
  ASSERT_NE(graph.Edge("main", "alpha"), nullptr);
  ASSERT_NE(graph.Edge("main", "beta"), nullptr);
  EXPECT_EQ(graph.Edge("main", "alpha")->callee_elapsed,
            graph.Edge("main", "beta")->callee_elapsed);

  // Ties go to the alphabetically first name.
  const ProcessReport processes(reverse);
  ASSERT_EQ(processes.rows().size(), 1u);
  EXPECT_EQ(processes.rows()[0].top_function, "alpha");
  EXPECT_EQ(summary.rows()[0].name, "alpha");
  EXPECT_EQ(summary.rows()[1].name, "beta");
  const auto callees = graph.CalleesOf("main");
  ASSERT_EQ(callees.size(), 2u);
  EXPECT_EQ(callees[0]->callee, "alpha");

  // And every rendering is the same under either names file.
  EXPECT_EQ(RenderAll(reverse, ReverseAlphabeticalNames()),
            RenderAll(alphabetical, AlphabeticalNames()));
  const DecodedTrace fold_reverse = FoldDecode(raw, ReverseAlphabeticalNames());
  const DecodedTrace fold_alphabetical = FoldDecode(raw, AlphabeticalNames());
  EXPECT_EQ(Summary(fold_reverse).Format(0), Summary(fold_alphabetical).Format(0));
  EXPECT_EQ(Summary(fold_reverse).Format(0), Summary(reverse).Format(0));
  EXPECT_EQ(Grouping(fold_reverse, ReverseAlphabeticalNames().GroupsByName()).Format(),
            Grouping(fold_alphabetical, AlphabeticalNames().GroupsByName()).Format());
}

TEST(Histogram, BucketsAreLog2) {
  EXPECT_EQ(Histogram::BucketFloor(0), 0u);
  EXPECT_EQ(Histogram::BucketFloor(1), 1u);
  EXPECT_EQ(Histogram::BucketFloor(2), 2u);
  EXPECT_EQ(Histogram::BucketFloor(3), 4u);
  EXPECT_EQ(Histogram::BucketFloor(11), 1024u);
}

TEST(Histogram, AddPlacesValues) {
  Histogram h;
  h.Add(0);
  h.Add(1);
  h.Add(3);
  h.Add(1000);
  h.Add(1024);
  EXPECT_EQ(h.Total(), 5u);
  EXPECT_EQ(h.Count(0), 1u);  // 0
  EXPECT_EQ(h.Count(1), 1u);  // 1
  EXPECT_EQ(h.Count(2), 1u);  // 2..3
  EXPECT_EQ(h.Count(10), 1u);  // 512..1023
  EXPECT_EQ(h.Count(11), 1u);  // 1024..2047
}

TEST(Histogram, ForFunctionCollectsPerCallNets) {
  DecodedTrace d = MakeDecoded();
  Histogram h = Histogram::ForFunction(d, "beta");
  EXPECT_EQ(h.Total(), 2u);
  const std::string text = h.Format("beta per-call net");
  EXPECT_NE(text.find("beta per-call net (2 calls)"), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST(Histogram, BimodalDistributionVisible) {
  // The paper's bcopy under network load: many tiny copies plus the
  // millisecond driver copies — two distinct populated buckets.
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Add(3);
  }
  for (int i = 0; i < 50; ++i) {
    h.Add(1045);
  }
  int populated = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    populated += h.Count(b) > 0;
  }
  EXPECT_EQ(populated, 2);
}

}  // namespace
}  // namespace hwprof
