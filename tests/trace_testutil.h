// Shared helpers for the differential-equivalence tests: a small names
// file, adversarial fuzz-trace generators, and a fingerprint that renders
// EVERY observable of a decoded trace — all four reports plus every counter
// and attribution map — to one comparable string. Every decode of a capture,
// however it is fed and however many shards it is cut into, must produce
// the fingerprint of the one-shot reference decoder (tests/
// reference_decoder.h); the fuzz suites assert exactly that.

#ifndef HWPROF_TESTS_TRACE_TESTUTIL_H_
#define HWPROF_TESTS_TRACE_TESTUTIL_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/analysis/decoder.h"
#include "src/analysis/process_report.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/base/assert.h"
#include "src/base/rng.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"
#include "tests/reference_decoder.h"

namespace hwprof {

inline const TagFile& MakeNames() {
  static const TagFile* names = [] {
    auto* file = new TagFile();
    HWPROF_CHECK(TagFile::Parse(
        "a/100\n"
        "b/102\n"
        "c/104\n"
        "d/106\n"
        "swtch/200!\n"
        "idle_swtch/202!\n"
        "MARK/300=\n"
        "POINT/302=\n",
        file));
    return file;
  }();
  return *names;
}

template <typename Map>
std::string DumpMap(const Map& m) {
  std::string out;
  for (const auto& [k, v] : m) {
    out += "{";
    if constexpr (std::is_same_v<std::decay_t<decltype(k)>, std::string>) {
      out += k;
    } else {
      out += std::to_string(k);
    }
    out += ":";
    out += std::to_string(v);
    out += "}";
  }
  return out;
}

// What the stats-only consumers (Summary, hwprofd) see: everything in the
// fingerprint except the trees and steps that fold mode does not build.
inline std::string StatsFingerprint(const DecodedTrace& d) {
  std::string out = Summary(d).Format(0);
  for (const auto& [name, s] : d.per_function) {
    out += "|" + name + ":" + std::to_string(s.calls) + "," + std::to_string(s.elapsed) +
           "," + std::to_string(s.net) + "," + std::to_string(s.min_net) + "," +
           std::to_string(s.max_net) + "," + std::to_string(s.context_switch);
  }
  out += "|events=" + std::to_string(d.event_count);
  out += "|truncated=" + std::to_string(d.truncated);
  out += "|start=" + std::to_string(d.start_time);
  out += "|end=" + std::to_string(d.end_time);
  out += "|idle=" + std::to_string(d.idle_time);
  out += "|stacks=" + std::to_string(d.stacks.size());
  out += "|unknown=" + std::to_string(d.unknown_tags) + DumpMap(d.unknown_tag_counts);
  out += "|orphan=" + std::to_string(d.orphan_exits) + DumpMap(d.orphan_exit_counts);
  out += "|preopen=" + DumpMap(d.preopen_exit_counts);
  out += "|unclosed=" + std::to_string(d.unclosed_entries) + DumpMap(d.unclosed_entry_counts);
  out += "|trunc_entries=" + DumpMap(d.truncated_entry_counts);
  out += "|dropped=" + std::to_string(d.dropped_events);
  out += "|gaps=" + std::to_string(d.capture_gaps);
  out += "|corrupt=" + std::to_string(d.corrupt_words);
  out += "|impossible=" + std::to_string(d.impossible_deltas);
  out += "|wrap_ambiguous=" + std::to_string(d.wrap_ambiguous_gaps);
  out += "|unaccounted=" + std::to_string(d.unaccounted_time);
  return out;
}

// Every observable: the statistics plus the reports built from the trees
// and steps.
inline std::string Fingerprint(const DecodedTrace& d) {
  std::string out = StatsFingerprint(d);
  out += "\n--callgraph--\n" + CallGraph(d).Format(d);
  out += "\n--processes--\n" + ProcessReport(d).Format(d);
  out += "\n--trace--\n" + TraceReport::Format(d);
  out += "|steps=" + std::to_string(d.steps.size());
  return out;
}

inline RawTrace Trace(std::initializer_list<RawEvent> events) {
  RawTrace raw;
  raw.events = events;
  return raw;
}

// Adversarial random trace with anomaly injection: unbalanced nesting,
// context switches (two distinct switch functions), inline markers, unknown
// tags, spurious exits, near-wrap gaps.
inline RawTrace FuzzTrace(std::uint64_t seed, int length) {
  Rng rng(seed);
  RawTrace raw;
  std::uint32_t now = 0;
  std::vector<std::uint16_t> stack;
  for (int i = 0; i < length; ++i) {
    now += rng.NextBool(0.02)
               ? (1u << 24) - 5 + static_cast<std::uint32_t>(rng.NextBelow(10))
               : static_cast<std::uint32_t>(1 + rng.NextBelow(200));
    const double roll = static_cast<double>(rng.NextBelow(1000)) / 1000.0;
    if (roll < 0.04) {
      raw.events.push_back(
          {static_cast<std::uint16_t>(300 + 2 * rng.NextBelow(2)), now});
    } else if (roll < 0.07) {
      raw.events.push_back({999, now});  // unknown tag
    } else if (roll < 0.11) {
      // Spurious exit for a function that may not be open (orphan).
      raw.events.push_back(
          {static_cast<std::uint16_t>(101 + 2 * rng.NextBelow(4)), now});
    } else if (roll < 0.22) {
      // Context switch entry/exit pair with an idle gap.
      const auto sw = static_cast<std::uint16_t>(200 + 2 * rng.NextBelow(2));
      raw.events.push_back({sw, now});
      now += static_cast<std::uint32_t>(1 + rng.NextBelow(500));
      raw.events.push_back({static_cast<std::uint16_t>(sw + 1), now});
    } else if (roll < 0.24) {
      // Bare switch exit: orphan swtch resolution / fresh-context path.
      raw.events.push_back({201, now});
    } else if (stack.size() < 8 && (stack.empty() || rng.NextBool(0.55))) {
      const auto tag = static_cast<std::uint16_t>(100 + 2 * rng.NextBelow(4));
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
  raw.overflowed = (seed % 3 == 0);  // exercise the truncation flag too
  return raw;
}

// Shard targets every differential suite runs: one op per shard and 64
// (many shards, pooled replay) and the default (usually one inline shard).
inline constexpr std::size_t kShardTargets[] = {1, 64, StreamingOptions{}.shard_target_ops};

// Fold mode frees every call as it closes: after Finish no tree may still
// hold a closed call, and no step is recorded.
inline bool HasClosedCall(const CallNode& node) {
  for (const auto& child : node.children) {
    if (child->closed || HasClosedCall(*child)) {
      return true;
    }
  }
  return false;
}

inline void ExpectFoldMatchesOracle(const DecodedTrace& fold, const DecodedTrace& oracle,
                                    const std::string& what) {
  EXPECT_EQ(StatsFingerprint(fold), StatsFingerprint(oracle)) << what;
  EXPECT_TRUE(fold.steps.empty()) << what;
  for (const auto& stack : fold.stacks) {
    EXPECT_FALSE(HasClosedCall(*stack->root)) << what << " stack " << stack->id;
  }
}

// One-shot engine decode with the batch wrappers' accounting.
inline DecodedTrace DecodeWithTarget(const RawTrace& raw, const TagFile& names,
                                     std::size_t shard_target, bool retain = true) {
  StreamingDecoder decoder(names, raw.timer_bits, raw.timer_clock_hz,
                           StreamingOptions{.retain_structure = retain,
                                            .shard_target_ops = shard_target});
  decoder.NoteDropped(raw.dropped_events);
  decoder.SetClockEnvelope(raw.capture_elapsed_ns);
  decoder.Feed(raw.events);
  return decoder.Finish(raw.overflowed);
}

// Decoder::Decode and the engine at every shard target, retain and fold,
// against the oracle.
inline void ExpectEngineMatchesOracle(const RawTrace& raw, const TagFile& names,
                                      const std::string& what) {
  const DecodedTrace oracle = ReferenceDecode(raw, names);
  const std::string expected = Fingerprint(oracle);
  ASSERT_EQ(Fingerprint(Decoder::Decode(raw, names)), expected) << what;
  for (const std::size_t target : kShardTargets) {
    ASSERT_EQ(Fingerprint(DecodeWithTarget(raw, names, target)), expected)
        << what << " shard_target_ops=" << target;
    ExpectFoldMatchesOracle(DecodeWithTarget(raw, names, target, /*retain=*/false),
                            oracle, what + " fold shard_target_ops=" + std::to_string(target));
  }
}

}  // namespace hwprof

#endif  // HWPROF_TESTS_TRACE_TESTUTIL_H_
