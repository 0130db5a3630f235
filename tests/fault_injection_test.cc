// Differential fuzz suite for the hardened capture→decode pipeline: every
// fault-injected capture (bit flips, drops, duplicates, stuck
// address-counter runs, timer glitches, truncated drains — and text-level
// corruption of the upload file) must decode to byte-identical observables
// — including the typed anomaly counters — between the one-shot reference
// decoder and the StreamingDecoder, fed in one piece or in random chunks, at
// several shard sizes, retaining structure or folding. No injected fault may
// crash any path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/analysis/process_report.h"
#include "src/base/rng.h"
#include "src/profhw/fault_injection.h"
#include "src/profhw/raw_trace.h"
#include "src/profhw/usec_timer.h"
#include "tests/trace_testutil.h"

namespace hwprof {
namespace {

// Engine decode with salvage corrupt-word injection (what hwprof_analyze
// --salvage runs), fed in one piece (chunk_seed 0) or in seeded random
// chunks.
DecodedTrace DecodeEngine(const RawTrace& raw, const TagFile& names,
                          std::uint64_t corrupt_words, std::uint64_t chunk_seed,
                          std::size_t shard_target, bool retain) {
  StreamingDecoder decoder(names, raw.timer_bits, raw.timer_clock_hz,
                           StreamingOptions{.retain_structure = retain,
                                            .shard_target_ops = shard_target});
  decoder.NoteCorruptWords(corrupt_words);
  decoder.NoteDropped(raw.dropped_events);
  decoder.SetClockEnvelope(raw.capture_elapsed_ns);
  if (chunk_seed == 0) {
    decoder.Feed(raw.events);
    return decoder.Finish(raw.overflowed);
  }
  Rng rng(chunk_seed);
  std::size_t at = 0;
  while (at < raw.events.size()) {
    const std::size_t n =
        std::min(raw.events.size() - at, std::size_t{1} + rng.NextBelow(97));
    decoder.Feed(raw.events.data() + at, n);
    at += n;
  }
  return decoder.Finish(raw.overflowed);
}

// The tentpole contract: anomaly counts and every other observable match
// the reference decoder on every feed shape and shard size.
void ExpectAllPathsAgree(const RawTrace& raw, const TagFile& names,
                         std::uint64_t corrupt_words, const std::string& what) {
  const DecodedTrace oracle = ReferenceDecode(raw, names, corrupt_words);
  const std::string expected = Fingerprint(oracle);
  for (std::uint64_t chunk_seed : {0u, 1u, 77u}) {
    for (const std::size_t target : kShardTargets) {
      ASSERT_EQ(Fingerprint(DecodeEngine(raw, names, corrupt_words, chunk_seed, target,
                                         /*retain=*/true)),
                expected)
          << what << " chunk_seed=" << chunk_seed << " shard_target_ops=" << target;
    }
  }
  ExpectFoldMatchesOracle(
      DecodeEngine(raw, names, corrupt_words, 77, 64, /*retain=*/false), oracle,
      what + " fold");
}

class FaultPlanFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultPlanFuzzTest, FaultedCaptureDecodesIdenticallyOnEveryPath) {
  const std::uint64_t seed = GetParam();
  const TagFile& names = MakeNames();
  const RawTrace clean = FuzzTrace(seed, 600);
  FaultLog log;
  RawTrace faulty = InjectFaults(clean, FaultPlan::FromSeed(seed), &log);
  // Some seeds also carry board-side drop counts and a host wall-clock
  // envelope wide enough to hide whole timer wraps.
  if (seed % 3 == 0) {
    faulty.capture_elapsed_ns = 40'000'000'000ull;  // > 2 wraps at 24b/1MHz
  }
  if (seed % 4 == 1) {
    faulty.dropped_events = 1 + seed % 17;
  }
  ExpectAllPathsAgree(faulty, names, /*corrupt_words=*/0,
                      "fault seed " + std::to_string(seed));
}

TEST_P(FaultPlanFuzzTest, CorruptedUploadTextSalvagesIdenticallyOnEveryPath) {
  const std::uint64_t seed = GetParam();
  const TagFile& names = MakeNames();
  const RawTrace clean = FuzzTrace(seed + 1000, 300);
  const std::string corrupted = CorruptCaptureText(clean.Serialize(), seed);

  // Strict load: either the damage missed every parsed field (load
  // succeeds), or it must be reported with 1-based line diagnostics.
  RawTrace strict;
  std::vector<TraceDiag> diags;
  if (!RawTrace::Deserialize(corrupted, &strict, &diags)) {
    ASSERT_FALSE(diags.empty()) << "failure without a diagnostic";
    for (const TraceDiag& d : diags) {
      EXPECT_GT(d.line, 0);
      EXPECT_FALSE(d.message.empty());
    }
  }

  // Salvage load: the header survives CorruptCaptureText by construction,
  // so salvage must always succeed, counting each unreadable line.
  RawTrace salvaged;
  std::vector<TraceDiag> salvage_diags;
  std::uint64_t corrupt_words = 0;
  ASSERT_TRUE(RawTrace::DeserializeSalvage(corrupted, &salvaged, &salvage_diags,
                                           &corrupt_words))
      << "seed " << seed;
  EXPECT_EQ(corrupt_words, salvage_diags.size());
  ExpectAllPathsAgree(salvaged, names, corrupt_words,
                      "salvage seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPlanFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u, 13u, 14u, 15u, 16u,
                                           17u, 18u, 19u, 20u, 42u, 97u, 1993u,
                                           65537u));

// --- Fault plan mechanics ----------------------------------------------------

TEST(FaultInjection, InjectionIsDeterministicForASeed) {
  const RawTrace clean = FuzzTrace(5, 400);
  const FaultPlan plan = FaultPlan::FromSeed(5);
  FaultLog a;
  FaultLog b;
  const RawTrace one = InjectFaults(clean, plan, &a);
  const RawTrace two = InjectFaults(clean, plan, &b);
  EXPECT_EQ(one.events, two.events);
  EXPECT_EQ(a.TotalFaults(), b.TotalFaults());
}

TEST(FaultInjection, TruncationMarksTheCaptureOverflowed) {
  const RawTrace clean = FuzzTrace(3, 400);
  FaultPlan plan;
  plan.seed = 9;
  plan.truncate_probability = 1.0;
  FaultLog log;
  const RawTrace faulty = InjectFaults(clean, plan, &log);
  if (log.truncated) {
    EXPECT_TRUE(faulty.overflowed);
    EXPECT_LT(faulty.events.size(), clean.events.size());
    EXPECT_EQ(clean.events.size() - faulty.events.size(), log.truncated_events);
  }
}

TEST(FaultInjection, DropsShrinkAndDuplicatesGrowTheCapture) {
  const RawTrace clean = FuzzTrace(11, 500);
  FaultPlan drop_plan;
  drop_plan.seed = 21;
  drop_plan.drop_rate = 0.2;
  FaultLog drop_log;
  const RawTrace dropped = InjectFaults(clean, drop_plan, &drop_log);
  EXPECT_EQ(clean.events.size() - dropped.events.size(), drop_log.dropped);
  EXPECT_GT(drop_log.dropped, 0u);

  FaultPlan dup_plan;
  dup_plan.seed = 22;
  dup_plan.duplicate_rate = 0.2;
  FaultLog dup_log;
  const RawTrace duplicated = InjectFaults(clean, dup_plan, &dup_log);
  EXPECT_EQ(duplicated.events.size() - clean.events.size(), dup_log.duplicated);
  EXPECT_GT(dup_log.duplicated, 0u);
}

// --- Typed anomaly accounting ------------------------------------------------

TEST(SalvageDecode, ImpossibleDeltasAreMaskedAndCounted) {
  const TagFile& names = MakeNames();
  RawTrace raw = Trace({{100, 10}, {101, 60}});
  raw.events.push_back({100, (1u << 24) | 70u});  // beyond the 24-bit mask
  raw.events.push_back({101, 90});
  const DecodedTrace d = Decoder::Decode(raw, names);
  EXPECT_EQ(d.impossible_deltas, 1u);
  EXPECT_TRUE(d.HasAnomalies());
  // Masking recovers the low bits: decode matches the pre-corruption trace
  // everywhere except the anomaly counter.
  RawTrace fixed = raw;
  fixed.events[2].timestamp &= (1u << 24) - 1;
  const DecodedTrace df = Decoder::Decode(fixed, names);
  EXPECT_EQ(d.event_count, df.event_count);
  EXPECT_EQ(d.end_time, df.end_time);
  EXPECT_EQ(df.impossible_deltas, 0u);
}

TEST(SalvageDecode, QuietGapBeyondOneWrapIsFlaggedByTheEnvelope) {
  const TagFile& names = MakeNames();
  RawTrace raw = Trace({{100, 0}, {101, 1000}});
  const UsecTimer timer(raw.timer_bits, raw.timer_clock_hz);
  const Nanoseconds span = timer.TicksToNs(1000);

  // Envelope within one wrap of the reconstructed span: no ambiguity.
  raw.capture_elapsed_ns =
      static_cast<std::uint64_t>(span + timer.WrapPeriod() / 2);
  const DecodedTrace ok = Decoder::Decode(raw, names);
  EXPECT_EQ(ok.wrap_ambiguous_gaps, 0u);
  EXPECT_EQ(ok.unaccounted_time, 0);
  EXPECT_FALSE(ok.HasAnomalies());

  // Envelope exceeding the span by 2+ wraps: both missing wraps are counted
  // and the missing wall-clock time is reported.
  raw.capture_elapsed_ns =
      static_cast<std::uint64_t>(span + 2 * timer.WrapPeriod() + 12345);
  const DecodedTrace bad = Decoder::Decode(raw, names);
  EXPECT_EQ(bad.wrap_ambiguous_gaps, 2u);
  EXPECT_EQ(bad.unaccounted_time,
            static_cast<Nanoseconds>(raw.capture_elapsed_ns) - span);
  EXPECT_TRUE(bad.HasAnomalies());
}

TEST(SalvageDecode, CleanTruncatedCaptureHasNoAnomalies) {
  // Plain truncation (the board stopping mid-run) is normal operation, not
  // an anomaly: the summary footer must not appear for it.
  const TagFile& names = MakeNames();
  RawTrace raw = Trace({{100, 0}, {102, 10}});
  raw.overflowed = true;
  const DecodedTrace d = Decoder::Decode(raw, names);
  EXPECT_TRUE(d.truncated);
  EXPECT_EQ(d.unclosed_entries, 2u);
  EXPECT_EQ(d.MidTraceUnclosedEntries(), 0u);
  EXPECT_FALSE(d.HasAnomalies());
  EXPECT_EQ(Summary(d).Format(0).find("Capture anomalies"), std::string::npos);
}

TEST(SalvageDecode, AnomalyFooterListsTheTypedCounts) {
  const TagFile& names = MakeNames();
  RawTrace raw = Trace({{100, 10}, {999, 20}, {105, 30}, {101, 40}});
  StreamingDecoder decoder(names, raw.timer_bits, raw.timer_clock_hz,
                           StreamingOptions{.retain_structure = true});
  decoder.NoteCorruptWords(3);
  decoder.Feed(raw.events);
  const DecodedTrace d = decoder.Finish(false);
  EXPECT_EQ(d.corrupt_words, 3u);
  EXPECT_EQ(d.unknown_tags, 1u);
  EXPECT_EQ(d.orphan_exits, 1u);
  ASSERT_TRUE(d.HasAnomalies());

  const std::string summary = Summary(d).Format(0);
  EXPECT_NE(summary.find("Capture anomalies"), std::string::npos);
  EXPECT_NE(summary.find("corrupt words"), std::string::npos);
  EXPECT_NE(summary.find("unknown tags"), std::string::npos);
  EXPECT_NE(summary.find("orphan exits"), std::string::npos);

  const std::string processes = ProcessReport(d).Format(d);
  EXPECT_NE(processes.find("capture anomalies:"), std::string::npos);
  EXPECT_NE(processes.find("3 corrupt words"), std::string::npos);
}

TEST(SalvageDecode, DroppedEventsFromTheBoardHeaderAreCounted) {
  const TagFile& names = MakeNames();
  RawTrace raw = Trace({{100, 10}, {101, 60}});
  raw.dropped_events = 7;
  const DecodedTrace d = Decoder::Decode(raw, names);
  EXPECT_EQ(d.dropped_events, 7u);
  EXPECT_EQ(d.capture_gaps, 1u);
  EXPECT_TRUE(d.HasAnomalies());
}

}  // namespace
}  // namespace hwprof
