// StreamingDecoder hardening: for ANY way of slicing a raw event sequence
// into chunks — including empty, single-event, truncated and corrupted
// chunks — the incremental decode must be byte-identical to the one-shot
// reference decode (tests/reference_decoder.h) of the concatenation.
// Exercised on hand-built reference traces (exhaustively over split points)
// and on randomly generated adversarial traces (fuzzed chunkings).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/base/rng.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"
#include "src/profhw/usec_timer.h"
#include "tests/reference_decoder.h"

namespace hwprof {
namespace {

const TagFile& MakeNames() {
  static const TagFile* names = [] {
    auto* file = new TagFile();
    HWPROF_CHECK(TagFile::Parse(
        "a/100\n"
        "b/102\n"
        "c/104\n"
        "swtch/200!\n"
        "MARK/300=\n",
        file));
    return file;
  }();
  return *names;
}

RawTrace Trace(std::initializer_list<RawEvent> events) {
  RawTrace raw;
  raw.events = events;
  return raw;
}

// Everything a summary consumer could observe, in one comparable string.
std::string Fingerprint(const DecodedTrace& d) {
  std::string out = Summary(d).Format(0);
  out += "|events=" + std::to_string(d.event_count);
  out += "|unknown=" + std::to_string(d.unknown_tags);
  out += "|orphan=" + std::to_string(d.orphan_exits);
  out += "|unclosed=" + std::to_string(d.unclosed_entries);
  out += "|start=" + std::to_string(d.start_time);
  out += "|end=" + std::to_string(d.end_time);
  out += "|idle=" + std::to_string(d.idle_time);
  out += "|stacks=" + std::to_string(d.stacks.size());
  return out;
}

// Decodes `raw` through a StreamingDecoder, splitting at the given chunk
// boundaries (indices into raw.events, strictly increasing).
DecodedTrace DecodeChunked(const RawTrace& raw, const TagFile& names,
                           const std::vector<std::size_t>& cuts, bool retain) {
  StreamingOptions opts;
  opts.retain_structure = retain;
  StreamingDecoder dec(names, raw.timer_bits, raw.timer_clock_hz, opts);
  std::size_t prev = 0;
  for (std::size_t cut : cuts) {
    dec.Feed(raw.events.data() + prev, cut - prev);
    prev = cut;
  }
  dec.Feed(raw.events.data() + prev, raw.events.size() - prev);
  return dec.Finish(raw.overflowed);
}

// The context-switch reference traces from decoder_test — the cases where
// cross-chunk state (suspended stacks, one-event lookahead) actually bites.
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
  // Anomalies: orphan exit, unknown tag, truncation mid-call.
  traces.push_back(Trace({{103, 10}}));
  traces.push_back(Trace({{100, 0}, {999, 10}, {101, 20}}));
  RawTrace truncated = Trace({{100, 0}, {102, 10}});
  truncated.overflowed = true;
  traces.push_back(truncated);
  return traces;
}

TEST(StreamingDecoder, EverySplitOfEveryReferenceTraceMatchesBatch) {
  const TagFile& names = MakeNames();
  for (const RawTrace& raw : ReferenceTraces()) {
    const std::string batch = Fingerprint(ReferenceDecode(raw, names));
    // Every single two-chunk split.
    for (std::size_t cut = 0; cut <= raw.events.size(); ++cut) {
      const DecodedTrace d = DecodeChunked(raw, names, {cut}, /*retain=*/false);
      EXPECT_EQ(Fingerprint(d), batch) << "split at " << cut;
    }
    // One event per chunk.
    std::vector<std::size_t> singles;
    for (std::size_t i = 1; i < raw.events.size(); ++i) {
      singles.push_back(i);
    }
    EXPECT_EQ(Fingerprint(DecodeChunked(raw, names, singles, /*retain=*/false)), batch);
  }
}

TEST(StreamingDecoder, RetainedStructureMatchesBatchExactly) {
  const TagFile& names = MakeNames();
  for (const RawTrace& raw : ReferenceTraces()) {
    const DecodedTrace batch = ReferenceDecode(raw, names);
    for (std::size_t cut = 0; cut <= raw.events.size(); ++cut) {
      const DecodedTrace d = DecodeChunked(raw, names, {cut}, /*retain=*/true);
      ASSERT_EQ(d.steps.size(), batch.steps.size()) << "split at " << cut;
      for (std::size_t i = 0; i < d.steps.size(); ++i) {
        EXPECT_EQ(d.steps[i].t, batch.steps[i].t);
        EXPECT_EQ(d.steps[i].is_exit, batch.steps[i].is_exit);
        EXPECT_EQ(d.steps[i].depth, batch.steps[i].depth);
        EXPECT_EQ(d.steps[i].stack_id, batch.steps[i].stack_id);
        EXPECT_EQ(d.steps[i].context_switch_in, batch.steps[i].context_switch_in);
      }
      EXPECT_EQ(Fingerprint(d), Fingerprint(batch));
    }
  }
}

// Generates an adversarial random trace: mostly balanced nesting with
// context switches, inline markers, unknown tags, spurious exits and
// occasional near-wrap gaps.
RawTrace FuzzTrace(std::uint64_t seed, int length) {
  Rng rng(seed);
  RawTrace raw;
  std::uint32_t now = 0;
  std::vector<std::uint16_t> stack;  // open entry tags
  for (int i = 0; i < length; ++i) {
    // Mostly small gaps; occasionally a leap close to the 16.7 s wrap.
    now += rng.NextBool(0.02)
               ? (1u << 24) - 5 + static_cast<std::uint32_t>(rng.NextBelow(10))
               : static_cast<std::uint32_t>(1 + rng.NextBelow(200));
    const double roll = static_cast<double>(rng.NextBelow(1000)) / 1000.0;
    if (roll < 0.04) {
      raw.events.push_back({300, now});  // inline marker
    } else if (roll < 0.07) {
      raw.events.push_back({999, now});  // unknown tag
    } else if (roll < 0.10) {
      // Spurious exit for a function that may not be open.
      raw.events.push_back({static_cast<std::uint16_t>(101 + 2 * rng.NextBelow(3)), now});
    } else if (roll < 0.18) {
      // Context switch entry/exit pair with a gap.
      raw.events.push_back({200, now});
      now += static_cast<std::uint32_t>(1 + rng.NextBelow(500));
      raw.events.push_back({201, now});
    } else if (stack.size() < 8 && (stack.empty() || rng.NextBool(0.55))) {
      const auto tag = static_cast<std::uint16_t>(100 + 2 * rng.NextBelow(3));
      stack.push_back(tag);
      raw.events.push_back({tag, now});
    } else {
      const std::uint16_t tag = stack.back();
      stack.pop_back();
      raw.events.push_back({static_cast<std::uint16_t>(tag + 1), now});
    }
  }
  for (auto& e : raw.events) {
    e.timestamp &= (1u << 24) - 1;
  }
  return raw;
}

class StreamFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamFuzzTest, RandomChunkingsMatchBatch) {
  const TagFile& names = MakeNames();
  Rng rng(GetParam() * 7919 + 1);
  const RawTrace raw = FuzzTrace(GetParam(), 600);
  const std::string batch = Fingerprint(ReferenceDecode(raw, names));
  for (int round = 0; round < 6; ++round) {
    // Random strictly-increasing cut points; duplicates collapse to empty
    // chunks via the k==prev guard below being absent on purpose — Feed(_, 0)
    // must be harmless.
    std::vector<std::size_t> cuts;
    std::size_t at = 0;
    while (at < raw.events.size()) {
      at += rng.NextBelow(raw.events.size() / 4 + 2);
      if (at < raw.events.size()) {
        cuts.push_back(at);
        if (rng.NextBool(0.1)) {
          cuts.push_back(at);  // deliberate empty chunk
        }
      }
    }
    EXPECT_EQ(Fingerprint(DecodeChunked(raw, names, cuts, /*retain=*/false)), batch)
        << "seed=" << GetParam() << " round=" << round;
  }
}

TEST_P(StreamFuzzTest, SingleEventChunksMatchBatch) {
  const TagFile& names = MakeNames();
  const RawTrace raw = FuzzTrace(GetParam() + 1000, 300);
  const std::string batch = Fingerprint(ReferenceDecode(raw, names));
  StreamingDecoder dec(names);
  for (const RawEvent& e : raw.events) {
    dec.Feed(&e, 1);
  }
  EXPECT_EQ(Fingerprint(dec.Finish(raw.overflowed)), batch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u, 1993u, 4096u));

TEST(StreamingDecoder, TruncatedStreamDecodesThePrefix) {
  const TagFile& names = MakeNames();
  const RawTrace full = FuzzTrace(77, 400);
  // Cut mid-trace (mid-call with high probability): the stream ends there.
  RawTrace prefix;
  prefix.events.assign(full.events.begin(), full.events.begin() + 123);
  prefix.overflowed = true;
  const std::string batch = Fingerprint(ReferenceDecode(prefix, names));

  StreamingDecoder dec(names);
  dec.Feed(prefix.events);
  const DecodedTrace d = dec.Finish(/*truncated=*/true);
  EXPECT_TRUE(d.truncated);
  EXPECT_EQ(Fingerprint(d), batch);
}

TEST(StreamingDecoder, GarbageChunksAreToleratedIdentically) {
  const TagFile& names = MakeNames();
  Rng rng(12345);
  RawTrace raw;
  std::uint32_t now = 0;
  // Pure noise: random tags (mostly unknown), non-monotonic-looking stamps.
  for (int i = 0; i < 500; ++i) {
    now += static_cast<std::uint32_t>(rng.NextBelow(1u << 20));
    raw.events.push_back({static_cast<std::uint16_t>(rng.NextBelow(1024)),
                          now & ((1u << 24) - 1)});
  }
  const std::string batch = Fingerprint(ReferenceDecode(raw, names));
  EXPECT_EQ(Fingerprint(DecodeChunked(raw, names, {7, 7, 100, 499}, false)), batch);
}

TEST(StreamingDecoder, EmptyStreamIsHarmless) {
  const TagFile& names = MakeNames();
  StreamingDecoder dec(names);
  dec.Feed(nullptr, 0);
  dec.FeedChunk(TraceChunk{});
  const DecodedTrace d = dec.Finish();
  EXPECT_EQ(d.event_count, 0u);
  EXPECT_EQ(d.ElapsedTotal(), 0u);
  EXPECT_TRUE(d.per_function.empty());
}

TEST(StreamingDecoder, DropAccountingCountsGapsOnce) {
  const TagFile& names = MakeNames();
  StreamingDecoder dec(names);
  TraceChunk c1;
  c1.events = {{100, 10}, {101, 60}};
  TraceChunk c2;
  c2.events = {{100, 70}, {101, 90}};
  c2.dropped_before = 5;
  TraceChunk c3;          // an event-free trailing chunk: drops after the
  c3.dropped_before = 2;  // last stored event
  dec.FeedChunk(c1);
  EXPECT_EQ(dec.dropped_events(), 0u);
  dec.FeedChunk(c2);
  dec.FeedChunk(c3);
  EXPECT_EQ(dec.dropped_events(), 7u);
  const DecodedTrace d = dec.Finish();
  EXPECT_EQ(d.dropped_events, 7u);
  EXPECT_EQ(d.capture_gaps, 2u);
  EXPECT_EQ(d.event_count, 4u);
  EXPECT_EQ(d.Stats("a")->calls, 2u);
}

TEST(StreamingDecoder, ContextSwitchExitStallsUntilLookaheadArrives) {
  const TagFile& names = MakeNames();
  StreamingDecoder dec(names);
  const RawEvent head[] = {{100, 0}, {200, 20}, {201, 100}};
  dec.Feed(head, 3);
  // The swtch exit cannot be resolved yet: the suspended stack's match scan
  // ran off the end of the buffer.
  EXPECT_EQ(dec.pending(), 1u);
  const RawEvent tail[] = {{101, 130}};
  dec.Feed(tail, 1);
  EXPECT_EQ(dec.pending(), 0u);
  const DecodedTrace d = dec.Finish();
  EXPECT_EQ(d.orphan_exits, 0u);
  EXPECT_EQ(ToWholeUsec(d.idle_time), 80u);
  EXPECT_EQ(ToWholeUsec(d.Stats("a")->net), 50u);
}

TEST(StreamingDecoder, SnapshotTracksTheStreamAndMatchesFinishWhenQuiescent) {
  const TagFile& names = MakeNames();
  StreamingDecoder dec(names);
  const RawEvent first[] = {{100, 0}, {102, 10}, {103, 40}};
  dec.Feed(first, 3);
  DecodedTrace snap = dec.SnapshotStats();
  EXPECT_EQ(snap.event_count, 3u);
  ASSERT_NE(snap.Stats("b"), nullptr);
  EXPECT_EQ(ToWholeUsec(snap.Stats("b")->net), 30u);
  // `a` is still open: the snapshot shows its time accumulated to date.
  ASSERT_NE(snap.Stats("a"), nullptr);
  EXPECT_EQ(ToWholeUsec(snap.Stats("a")->net), 10u);

  const RawEvent second[] = {{101, 100}};
  dec.Feed(second, 1);
  snap = dec.SnapshotStats();
  const std::string before = Summary(snap).Format(0);
  const DecodedTrace fin = dec.Finish();
  // Nothing was pending, so the last snapshot equals the final result.
  EXPECT_EQ(before, Summary(fin).Format(0));
  EXPECT_EQ(ToWholeUsec(fin.Stats("a")->net), 70u);
}

TEST(StreamingDecoder, BoundedMemoryModePrunesFinishedCalls) {
  const TagFile& names = MakeNames();
  StreamingDecoder dec(names);  // retain_structure = false
  // 10000 sequential top-level calls; the live tree must not grow with them.
  std::uint32_t now = 0;
  for (int i = 0; i < 10000; ++i) {
    const RawEvent pair[] = {{100, now & 0xFFFFFF}, {101, (now + 5) & 0xFFFFFF}};
    now += 10;
    dec.Feed(pair, 2);
    EXPECT_EQ(dec.pending(), 0u);
  }
  const DecodedTrace d = dec.Finish();
  EXPECT_EQ(d.Stats("a")->calls, 10000u);
  // The retained structure is only the synthetic root.
  ASSERT_EQ(d.stacks.size(), 1u);
  EXPECT_TRUE(d.stacks[0]->root->children.empty());
  EXPECT_TRUE(d.steps.empty());
}

}  // namespace
}  // namespace hwprof
