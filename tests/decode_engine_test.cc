// Differential-equivalence harness for the decode engine: for ANY capture —
// hand-built context-switch traces, fuzzed adversarial traces with anomaly
// injection, chunked feeds with capture gaps, SoA feeds, and a real
// workload capture — the StreamingDecoder must reproduce the one-shot
// reference decoder (tests/reference_decoder.h) at every shard target, so
// inline replay, pooled replay and the merge are all exercised. Retain mode
// must be byte-identical in every tree node, rendered report and counter;
// fold mode must match every statistic while building no node and no step.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/base/rng.h"
#include "src/instr/tag_file.h"
#include "src/obs/telemetry.h"
#include "src/profhw/raw_trace.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"
#include "tests/reference_decoder.h"
#include "tests/trace_testutil.h"

namespace hwprof {
namespace {

// Context-switch-heavy reference traces: suspended stacks, lookahead
// resolution, orphans, unknown tags, truncation — the cases where shard
// stitching has to reproduce cross-cut state exactly.
std::vector<RawTrace> ReferenceTraces() {
  std::vector<RawTrace> traces;
  traces.push_back(Trace({{100, 10}, {101, 60}}));
  traces.push_back(Trace({{100, 0}, {300, 40}, {101, 100}}));
  traces.push_back(Trace({{100, 0}, {200, 20}, {201, 100}, {102, 110}, {103, 150},
                          {200, 160}, {201, 220}, {101, 230}}));
  traces.push_back(Trace({{100, 0}, {200, 10}, {102, 30}, {103, 60}, {201, 100},
                          {101, 120}}));
  traces.push_back(Trace({{100, 0}, {102, 10}, {200, 20}, {201, 30}, {104, 40},
                          {105, 1030}, {200, 1040}, {201, 1100}, {103, 1110},
                          {101, 1120}}));
  traces.push_back(Trace({{103, 10}}));                       // orphan exit
  traces.push_back(Trace({{100, 0}, {999, 10}, {101, 20}}));  // unknown tag
  RawTrace truncated = Trace({{100, 0}, {102, 10}});
  truncated.overflowed = true;
  traces.push_back(truncated);
  // An exit resumes a suspended stack while another stack's idle window is
  // open; the following swtch exit closes that window on a stack that is no
  // longer current.
  traces.push_back(Trace({{100, 0}, {102, 5}, {200, 10}, {201, 20}, {200, 30},
                          {103, 40}, {201, 50}, {101, 60}}));
  // Two processes ping-ponging: many activity blocks to shard.
  {
    RawTrace t;
    std::uint32_t now = 0;
    for (int i = 0; i < 12; ++i) {
      t.events.push_back({100, now});
      t.events.push_back({200, now += 5});
      t.events.push_back({201, now += 50});
      t.events.push_back({101, now += 7});
      now += 3;
    }
    traces.push_back(t);
  }
  return traces;
}

TEST(DecodeEngine, ReferenceTracesMatchOracleExactly) {
  const TagFile& names = MakeNames();
  int i = 0;
  for (const RawTrace& raw : ReferenceTraces()) {
    ExpectEngineMatchesOracle(raw, names, "reference trace " + std::to_string(i++));
  }
}

// Random chunking with occasional capture gaps.
std::vector<TraceChunk> RandomChunks(const RawTrace& raw, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TraceChunk> chunks;
  std::size_t at = 0;
  while (at < raw.events.size()) {
    TraceChunk chunk;
    chunk.dropped_before = rng.NextBool(0.15) ? 1 + rng.NextBelow(9) : 0;
    const std::size_t n =
        std::min(raw.events.size() - at, std::size_t{1} + rng.NextBelow(120));
    chunk.events.assign(raw.events.begin() + at, raw.events.begin() + at + n);
    at += n;
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

class DecodeEngineFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeEngineFuzzTest, FuzzedTraceMatchesOracleAtEveryShardTarget) {
  const TagFile& names = MakeNames();
  const RawTrace raw = FuzzTrace(GetParam(), 800);
  ExpectEngineMatchesOracle(raw, names, "seed " + std::to_string(GetParam()));
}

TEST_P(DecodeEngineFuzzTest, ChunkedFeedWithDropsMatchesOracle) {
  const TagFile& names = MakeNames();
  const RawTrace raw = FuzzTrace(GetParam() + 500, 500);
  const std::vector<TraceChunk> chunks = RandomChunks(raw, GetParam() * 6151 + 3);

  ReferenceDecoder reference(names, raw.timer_bits, raw.timer_clock_hz);
  for (const TraceChunk& chunk : chunks) {
    reference.NoteDropped(chunk.dropped_before);
    reference.Feed(chunk.events);
  }
  const DecodedTrace oracle = reference.Finish(raw.overflowed);
  const std::string expected = Fingerprint(oracle);

  for (const std::size_t target : kShardTargets) {
    for (const bool retain : {true, false}) {
      StreamingDecoder decoder(names, raw.timer_bits, raw.timer_clock_hz,
                               StreamingOptions{.retain_structure = retain,
                                                .shard_target_ops = target});
      for (const TraceChunk& chunk : chunks) {
        decoder.FeedChunk(chunk);
      }
      EXPECT_EQ(decoder.events_seen(), oracle.event_count);
      EXPECT_EQ(decoder.dropped_events(), oracle.dropped_events);
      const DecodedTrace d = decoder.Finish(raw.overflowed);
      const std::string what = "seed " + std::to_string(GetParam()) +
                               " target " + std::to_string(target);
      if (retain) {
        EXPECT_EQ(Fingerprint(d), expected) << what;
      } else {
        ExpectFoldMatchesOracle(d, oracle, what + " fold");
      }
    }
  }
}

TEST_P(DecodeEngineFuzzTest, SoAFeedMatchesOracle) {
  const TagFile& names = MakeNames();
  const RawTrace raw = FuzzTrace(GetParam() + 900, 500);
  const DecodedTrace oracle = ReferenceDecode(raw, names);
  std::vector<std::uint16_t> tags;
  std::vector<std::uint32_t> stamps;
  for (const RawEvent& e : raw.events) {
    tags.push_back(e.tag);
    stamps.push_back(e.timestamp);
  }
  Rng rng(GetParam() * 31 + 7);
  for (const std::size_t target : kShardTargets) {
    for (const bool retain : {true, false}) {
      StreamingDecoder decoder(names, raw.timer_bits, raw.timer_clock_hz,
                               StreamingOptions{.retain_structure = retain,
                                                .shard_target_ops = target});
      std::size_t at = 0;
      while (at < tags.size()) {
        const std::size_t n = std::min(tags.size() - at, std::size_t{1} + rng.NextBelow(150));
        decoder.FeedSoA(tags.data() + at, stamps.data() + at, n);
        at += n;
      }
      const DecodedTrace d = decoder.Finish(raw.overflowed);
      const std::string what = "SoA seed " + std::to_string(GetParam()) +
                               " target " + std::to_string(target);
      if (retain) {
        EXPECT_EQ(Fingerprint(d), Fingerprint(oracle)) << what;
      } else {
        ExpectFoldMatchesOracle(d, oracle, what + " fold");
      }
    }
  }
}

// Live snapshots seal and merge mid-stream; neither may disturb the result.
// With nothing left pending, the last snapshot already holds the final
// per-function statistics: truncation closes charge no further time.
TEST_P(DecodeEngineFuzzTest, SnapshotsBetweenChunksLeaveTheResultIntact) {
  const TagFile& names = MakeNames();
  const RawTrace raw = FuzzTrace(GetParam() + 1300, 400);
  const DecodedTrace oracle = ReferenceDecode(raw, names);
  auto stats = [](const DecodedTrace& d) {
    std::string out = "idle=" + std::to_string(d.idle_time);
    d.ForEachFunction([&out](const TagEntry& fn, const FuncStats& s) {
      out += "|" + fn.name + ":" + std::to_string(s.calls) + "," +
             std::to_string(s.elapsed) + "," + std::to_string(s.net) + "," +
             std::to_string(s.min_net) + "," + std::to_string(s.max_net);
    });
    return out;
  };
  for (const std::size_t target : {std::size_t{1}, std::size_t{64}}) {
    StreamingDecoder decoder(names, raw.timer_bits, raw.timer_clock_hz,
                             StreamingOptions{.retain_structure = true,
                                              .shard_target_ops = target});
    DecodedTrace last;
    for (std::size_t at = 0; at < raw.events.size(); at += 37) {
      decoder.Feed(raw.events.data() + at, std::min<std::size_t>(37, raw.events.size() - at));
      last = decoder.SnapshotStats();
      EXPECT_TRUE(last.steps.empty());
    }
    const bool quiescent = decoder.pending() == 0;
    const DecodedTrace d = decoder.Finish(raw.overflowed);
    EXPECT_EQ(Fingerprint(d), Fingerprint(oracle)) << "target " << target;
    if (quiescent) {
      EXPECT_EQ(stats(last), stats(d)) << "target " << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeEngineFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u,
                                           11u, 12u, 13u, 21u, 34u, 42u, 55u, 89u,
                                           144u, 233u, 1993u, 4096u));

TEST(DecodeEngine, WorkloadCaptureMatchesOracle) {
  Testbed tb;
  tb.Arm();
  RunNetworkReceive(tb, Msec(200), 32 * 1024, false);
  const RawTrace raw = tb.StopAndUpload();
  ASSERT_GT(raw.events.size(), 100u);
  ExpectEngineMatchesOracle(raw, tb.tags(), "workload");
  EXPECT_EQ(Fingerprint(DecodeWithTarget(raw, tb.tags(), 256)),
            Fingerprint(ReferenceDecode(raw, tb.tags())));
}

std::uint64_t Counter(const char* name) {
  return obs::GlobalSnapshot().CounterValue(name);
}

TEST(DecodeEngine, ManyShardsAreActuallyPlanned) {
  if (!obs::kTelemetryCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  // Sanity that the equivalence above is not vacuous: small shard targets on
  // a switch-heavy trace must produce several shards.
  const TagFile& names = MakeNames();
  const RawTrace raw = FuzzTrace(7, 800);
  const std::uint64_t before = Counter("parallel.shards");
  (void)DecodeWithTarget(raw, names, 16);
  EXPECT_GE(Counter("parallel.shards") - before, 4u);
}

TEST(DecodeEngine, DecodeEventsCountsEveryEventFedInBothModes) {
  if (!obs::kTelemetryCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const TagFile& names = MakeNames();
  const RawTrace raw = FuzzTrace(11, 700);
  for (const bool retain : {true, false}) {
    const std::uint64_t events = Counter("decode.events");
    const std::uint64_t finishes = Counter("decode.finishes");
    StreamingDecoder decoder(names, raw.timer_bits, raw.timer_clock_hz,
                             StreamingOptions{.retain_structure = retain,
                                              .shard_target_ops = 64});
    for (const TraceChunk& chunk : RandomChunks(raw, 5)) {
      decoder.FeedChunk(chunk);
    }
    (void)decoder.Finish();
    EXPECT_EQ(Counter("decode.events") - events, raw.events.size()) << "retain=" << retain;
    EXPECT_EQ(Counter("decode.finishes") - finishes, 1u) << "retain=" << retain;
  }
}

// 300,000 nested calls with no exit (a 900 KB hwpb upload). Each call
// opens and closes in O(1) and a retained tree is freed without recursion,
// so both modes decode and free it in linear time. The oracle's O(depth)
// attribution is too slow at this size; the closed forms stand in for it.
TEST(DecodeEngine, DeepNestingDecodesInLinearTime) {
  TagFile names;
  ASSERT_TRUE(TagFile::Parse("bcopy/502\n", &names));
  constexpr std::uint64_t kDepth = 300'000;
  constexpr Nanoseconds kGap = Usec(3);
  const RawTrace raw = DeepNestingTrace(kDepth, 502, 3);
  for (const bool retain : {true, false}) {
    const auto start = std::chrono::steady_clock::now();
    {
      const DecodedTrace d =
          DecodeWithTarget(raw, names, StreamingOptions{}.shard_target_ops, retain);
      const FuncStats* s = d.Stats("bcopy");
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->calls, kDepth);
      // The call at depth i stays open for the kDepth - 1 - i gaps after it.
      EXPECT_EQ(s->elapsed, kGap * kDepth * (kDepth - 1) / 2);
      EXPECT_EQ(s->net, kGap * (kDepth - 1));
      EXPECT_EQ(s->max_net, kGap);
      EXPECT_EQ(s->min_net, 0u);
      EXPECT_EQ(d.unclosed_entries, kDepth);
      EXPECT_EQ(d.truncated_entries, kDepth);
      EXPECT_EQ(s->truncated_entries, kDepth);
      EXPECT_EQ(ArenaNodeCount(d), retain ? kDepth : 0u);
      EXPECT_EQ(d.steps.size(), retain ? kDepth : 0u);
    }  // the trace is freed inside the timed region
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_LT(seconds, 10.0) << (retain ? "retain" : "fold");
  }
}

TEST(DecodeEngine, EmptyFeedIsHarmless) {
  const TagFile& names = MakeNames();
  for (const bool retain : {true, false}) {
    StreamingDecoder decoder(names, 24, 1'000'000,
                             StreamingOptions{.retain_structure = retain});
    decoder.Feed(nullptr, 0);
    decoder.FeedChunk(TraceChunk{});
    const DecodedTrace d = decoder.Finish();
    EXPECT_EQ(d.event_count, 0u);
    EXPECT_EQ(CalledFunctions(d), 0u);
  }
}

}  // namespace
}  // namespace hwprof
