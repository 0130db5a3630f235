// Shared helpers for the differential-equivalence tests: a small names
// file, adversarial fuzz-trace generators, and a fingerprint that renders
// EVERY observable of a decoded trace — the call trees node by node, the
// reports and exports, and every counter and attribution map — to one
// comparable string. Every decode of a capture,
// however it is fed and however many shards it is cut into, must produce
// the fingerprint of the one-shot reference decoder (tests/
// reference_decoder.h); the fuzz suites assert exactly that.

#ifndef HWPROF_TESTS_TRACE_TESTUTIL_H_
#define HWPROF_TESTS_TRACE_TESTUTIL_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/analysis/decoder.h"
#include "src/analysis/export.h"
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

// One per-function counter as a name-keyed map of its nonzero values: the
// text the fingerprint has always rendered, whatever order the names file
// lists the functions in.
inline std::map<std::string, std::uint64_t> CountsByName(
    const DecodedTrace& d, std::uint64_t FuncStats::*count) {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < d.per_function.size(); ++i) {
    if (d.per_function[i].*count > 0) {
      out.emplace(d.names->entries()[i].name, d.per_function[i].*count);
    }
  }
  return out;
}

// Functions called at least once.
inline std::size_t CalledFunctions(const DecodedTrace& d) {
  std::size_t n = 0;
  d.ForEachFunction([&n](const TagEntry&, const FuncStats&) { ++n; });
  return n;
}

// What the stats-only consumers (Summary, hwprofd) see: everything in the
// fingerprint except the trees and steps that fold mode does not build.
inline std::string StatsFingerprint(const DecodedTrace& d) {
  std::string out = Summary(d).Format(0);
  std::map<std::string, std::pair<const TagEntry*, const FuncStats*>> by_name;
  d.ForEachFunction([&by_name](const TagEntry& fn, const FuncStats& s) {
    by_name.emplace(fn.name, std::make_pair(&fn, &s));
  });
  for (const auto& [name, row] : by_name) {
    const FuncStats& s = *row.second;
    out += "|" + name + ":" + std::to_string(s.calls) + "," + std::to_string(s.elapsed) +
           "," + std::to_string(s.net) + "," + std::to_string(s.min_net) + "," +
           std::to_string(s.max_net) + "," +
           std::to_string(row.first->kind == TagKind::kContextSwitch);
  }
  out += "|events=" + std::to_string(d.event_count);
  out += "|truncated=" + std::to_string(d.truncated);
  out += "|start=" + std::to_string(d.start_time);
  out += "|end=" + std::to_string(d.end_time);
  out += "|idle=" + std::to_string(d.idle_time);
  out += "|stacks=" + std::to_string(d.stacks.size());
  out += "|unknown=" + std::to_string(d.unknown_tags) + DumpMap(d.unknown_tag_counts);
  out += "|orphan=" + std::to_string(d.orphan_exits) +
         DumpMap(CountsByName(d, &FuncStats::orphan_exits));
  out += "|preopen=" + DumpMap(CountsByName(d, &FuncStats::preopen_exits));
  out += "|unclosed=" + std::to_string(d.unclosed_entries) +
         DumpMap(CountsByName(d, &FuncStats::unclosed_entries));
  out += "|trunc_entries=" + DumpMap(CountsByName(d, &FuncStats::truncated_entries));
  out += "|dropped=" + std::to_string(d.dropped_events);
  out += "|gaps=" + std::to_string(d.capture_gaps);
  out += "|corrupt=" + std::to_string(d.corrupt_words);
  out += "|impossible=" + std::to_string(d.impossible_deltas);
  out += "|wrap_ambiguous=" + std::to_string(d.wrap_ambiguous_gaps);
  out += "|unaccounted=" + std::to_string(d.unaccounted_time);
  return out;
}

inline void AppendTree(const CallNode& node, int depth, std::string* out) {
  for (const CallNode* child : node.Children()) {
    EXPECT_EQ(child->parent, &node) << "child link of " << child->fn->name;
    *out += std::string(static_cast<std::size_t>(depth), ' ') + child->fn->name + " " +
            std::to_string(child->entry_time) + "-" + std::to_string(child->exit_time) +
            " net=" + std::to_string(child->Net()) +
            " elapsed=" + std::to_string(child->Elapsed()) +
            (child->closed ? " closed" : "") + (child->forced_close ? " forced" : "") +
            (child->inline_marker ? " inline" : "") + "\n";
    AppendTree(*child, depth + 1, out);
  }
}

// The call trees themselves, depth-first per stack, one line per node:
// name, entry and exit, net and elapsed, and flags. Reports aggregate, so
// only this pins sibling order and which parent a call hangs under. Fails
// the test unless every child's parent link points back at its parent.
inline std::string TreeFingerprint(const DecodedTrace& d) {
  std::string out;
  for (const auto& stack : d.stacks) {
    out += "context " + std::to_string(stack->id) + (stack->suspended ? " suspended" : "") +
           "\n";
    AppendTree(*stack->root, 1, &out);
  }
  return out;
}

// Nodes reachable from the stack roots, and nodes held in the arena.
inline std::size_t TreeNodeCount(const CallNode& node) {
  std::size_t n = 0;
  for (const CallNode* child : node.Children()) {
    n += 1 + TreeNodeCount(*child);
  }
  return n;
}
inline std::size_t TreeNodeCount(const DecodedTrace& d) {
  std::size_t n = 0;
  for (const auto& stack : d.stacks) {
    n += TreeNodeCount(*stack->root);
  }
  return n;
}
inline std::size_t ArenaNodeCount(const DecodedTrace& d) {
  std::size_t n = 0;
  for (const std::vector<CallNode>& block : d.arena) {
    n += block.size();
  }
  return n;
}

// Every observable: the statistics, the trees, and the reports and exports
// built from the trees and steps.
inline std::string Fingerprint(const DecodedTrace& d) {
  std::string out = StatsFingerprint(d);
  out += "\n--tree--\n" + TreeFingerprint(d);
  out += "\n--callgraph--\n" + CallGraph(d).Format(d);
  out += "\n--processes--\n" + ProcessReport(d).Format(d);
  out += "\n--trace--\n" + TraceReport::Format(d);
  out += "\n--json--\n" + ExportTraceEventJson(d);
  out += "\n--folded--\n" + ExportFoldedStacks(d);
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

// `depth` nested entries of one function, `gap_ticks` timer ticks apart,
// and no exit: a recursion still descending when the board stopped. Every
// call is open at once, so any per-event cost that grows with the depth of
// the open stack shows as quadratic decode time.
inline RawTrace DeepNestingTrace(std::uint32_t depth, std::uint16_t entry_tag,
                                 std::uint32_t gap_ticks) {
  RawTrace raw;
  raw.events.reserve(depth);
  for (std::uint32_t i = 0; i < depth; ++i) {
    raw.events.push_back({entry_tag, (i * gap_ticks) & ((1u << 24) - 1)});
  }
  return raw;
}

// Shard targets every differential suite runs: one op per shard and 64
// (many shards, pooled replay) and the default (usually one inline shard).
inline constexpr std::size_t kShardTargets[] = {1, 64, StreamingOptions{}.shard_target_ops};

// Fold mode builds no node and records no step: the arena is empty and
// every stack root is childless.
inline void ExpectFoldMatchesOracle(const DecodedTrace& fold, const DecodedTrace& oracle,
                                    const std::string& what) {
  EXPECT_EQ(StatsFingerprint(fold), StatsFingerprint(oracle)) << what;
  EXPECT_TRUE(fold.steps.empty()) << what;
  EXPECT_TRUE(fold.arena.empty()) << what;
  for (const auto& stack : fold.stacks) {
    EXPECT_FALSE(stack->root->HasChildren()) << what << " stack " << stack->id;
  }
}

// A retained trace holds exactly one node per call and inline marker, every
// one of them in the tree: nothing is left over from a shard cut.
inline void ExpectArenaHoldsOnlyTheTree(const DecodedTrace& retained,
                                        const DecodedTrace& oracle, const std::string& what) {
  EXPECT_EQ(ArenaNodeCount(retained), TreeNodeCount(oracle)) << what;
  EXPECT_EQ(TreeNodeCount(retained), TreeNodeCount(oracle)) << what;
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
    const DecodedTrace retained = DecodeWithTarget(raw, names, target);
    ASSERT_EQ(Fingerprint(retained), expected) << what << " shard_target_ops=" << target;
    ExpectArenaHoldsOnlyTheTree(retained, oracle,
                                what + " shard_target_ops=" + std::to_string(target));
    ExpectFoldMatchesOracle(DecodeWithTarget(raw, names, target, /*retain=*/false),
                            oracle, what + " fold shard_target_ops=" + std::to_string(target));
  }
}

}  // namespace hwprof

#endif  // HWPROF_TESTS_TRACE_TESTUTIL_H_
