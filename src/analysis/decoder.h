// Trace decoder: reconstructs nested code paths from the Profiler's raw
// (tag, 24-bit timestamp) event list plus the names file — exactly the
// information the paper's host-side analysis software receives.
//
// Responsibilities:
//  * absolute-time reconstruction across timer wraps (interval deltas; the
//    hardware guarantees < one wrap period between events),
//  * entry/exit matching into call trees, with per-call net time
//    (elapsed minus direct subroutines),
//  * context-switch handling: a '!'-tagged function (swtch) suspends the
//    current process's stack at entry; interrupt activity during the idle
//    window nests under the open swtch node (so "time in swtch is counted
//    as CPU idle time, except when device interrupts occur"); the matching
//    exit resolves — by one-event lookahead — which suspended stack
//    resumes, or starts a fresh one (a newly created process "returning
//    from swtch"),
//  * graceful handling of truncated captures (RAM overflow) and orphan
//    events, reported as anomaly counts rather than failures.

#ifndef HWPROF_SRC_ANALYSIS_DECODER_H_
#define HWPROF_SRC_ANALYSIS_DECODER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"

namespace hwprof {

struct CallNode {
  const TagEntry* fn = nullptr;  // null only for synthetic stack roots
  Nanoseconds entry_time = 0;
  Nanoseconds exit_time = 0;
  bool closed = false;
  bool forced_close = false;  // closed by truncation/mismatch recovery
  bool inline_marker = false;
  CallNode* parent = nullptr;
  std::vector<std::unique_ptr<CallNode>> children;

  // On-CPU interval accounting: time between consecutive events is charged
  // to the running context's innermost open call (net) and to every open
  // call on that context's stack (elapsed). A call whose process is
  // switched out therefore accumulates nothing while off-CPU — the paper's
  // per-activity-block rule (tsleep shows "25 us total" even though the
  // process slept for milliseconds).
  Nanoseconds net_acc = 0;
  Nanoseconds elapsed_acc = 0;

  Nanoseconds Elapsed() const { return elapsed_acc; }
  Nanoseconds Net() const { return net_acc; }
  // Wall-clock span between the entry and exit events (includes off-CPU
  // time; used by reports that show call lifetimes).
  Nanoseconds WallSpan() const { return exit_time - entry_time; }
};

// One process context discovered in the trace.
struct ActivityStack {
  int id = 0;
  std::unique_ptr<CallNode> root;  // synthetic; its children are top levels
  CallNode* top = nullptr;         // innermost open node (== root.get() if none)
  bool suspended = false;
};

// Chronological line item for the code-path report.
struct TraceStep {
  Nanoseconds t = 0;
  const CallNode* node = nullptr;
  bool is_exit = false;
  int depth = 0;     // nesting depth at emission (0 = top level)
  int stack_id = 0;  // which activity stack
  bool context_switch_in = false;  // this exit resumes a different context
};

struct FuncStats {
  std::uint64_t calls = 0;
  bool context_switch = false;  // '!'-tagged: net time is the idle account
  Nanoseconds elapsed = 0;  // inclusive of subroutines
  Nanoseconds net = 0;      // exclusive
  Nanoseconds min_net = 0;
  Nanoseconds max_net = 0;

  Nanoseconds AvgNet() const { return calls == 0 ? 0 : net / calls; }
};

struct DecodedTrace {
  Nanoseconds start_time = 0;  // first event (reconstructed absolute)
  Nanoseconds end_time = 0;
  std::size_t event_count = 0;
  bool truncated = false;  // capture RAM overflowed

  std::vector<std::unique_ptr<ActivityStack>> stacks;
  std::vector<TraceStep> steps;
  std::map<std::string, FuncStats> per_function;

  // Idle: accumulated net time of '!'-tagged (context switch) functions.
  Nanoseconds idle_time = 0;

  // Anomalies (all tolerated): events with no names-file entry, exits with
  // no matching entry, entries still open at the end of the capture.
  std::uint64_t unknown_tags = 0;
  std::uint64_t orphan_exits = 0;
  std::uint64_t unclosed_entries = 0;

  // Attribution for the anomaly counts above, keyed by raw tag value
  // (unknowns) or function name (orphans/unclosed). hwprof_lint's trace
  // cross-check turns these into file:line findings against the static
  // call-structure model instead of leaving them as silent drops.
  std::map<std::uint16_t, std::uint64_t> unknown_tag_counts;
  std::map<std::string, std::uint64_t> orphan_exit_counts;
  std::map<std::string, std::uint64_t> unclosed_entry_counts;

  // The subset of orphan_exit_counts whose function had no prior entry
  // anywhere in the trace: exits of calls opened *before* the first captured
  // event. That is the signature of a capture that begins mid-call — a board
  // armed mid-run, or a shard/bank cut at a context-switch boundary — the
  // front-of-capture mirror of truncated_entry_counts. Consumers judging
  // trace health (hwprof_lint's cross-check) tolerate these the same way
  // they tolerate end-of-capture truncation.
  std::map<std::string, std::uint64_t> preopen_exit_counts;

  // The subset of unclosed_entry_counts closed by end-of-capture truncation
  // (the call stack in flight when the board stopped) rather than by a
  // mid-trace anomaly. Stopping a capture mid-run is normal, so consumers
  // judging trace health should subtract these from unclosed_entry_counts.
  std::map<std::string, std::uint64_t> truncated_entry_counts;

  // Streaming-capture accounting: events the board dropped when the drain
  // lost the race (from drain-chunk headers), and the number of distinct
  // gaps they occurred in. Always 0 for one-shot captures.
  std::uint64_t dropped_events = 0;
  std::uint64_t capture_gaps = 0;

  // --- Salvage accounting (typed anomaly report) -----------------------------
  // Words the parse layer could not read at all (corrupt lines in a
  // salvage-mode load; injected via NoteCorruptWords so every decode path
  // reports the same totals).
  std::uint64_t corrupt_words = 0;
  // Events whose stored timestamp exceeded the timer mask — the counter
  // cannot have produced the word, so the delta it implies is impossible.
  // The decoder masks the timestamp (best-effort) and keeps going.
  std::uint64_t impossible_deltas = 0;
  // Whole timer wraps hidden inside quiet gaps: detected against the host
  // wall-clock envelope (SetClockEnvelope / RawTrace::capture_elapsed_ns)
  // when one is available. Each counts one violation of the "at most one
  // wrap between events" contract; the affected intervals decoded as short
  // deltas and the capture's reconstructed span is missing that time.
  std::uint64_t wrap_ambiguous_gaps = 0;
  // Wall-clock time the envelope says happened but the reconstruction
  // cannot account for (0 when no envelope, or when within one wrap).
  Nanoseconds unaccounted_time = 0;

  Nanoseconds ElapsedTotal() const { return end_time - start_time; }
  Nanoseconds RunTime() const {
    return ElapsedTotal() > idle_time ? ElapsedTotal() - idle_time : 0;
  }
  const FuncStats* Stats(const std::string& name) const {
    auto it = per_function.find(name);
    return it == per_function.end() ? nullptr : &it->second;
  }

  // Entries closed by end-of-capture truncation (the tolerated subset of
  // unclosed_entries).
  std::uint64_t TruncationClosedEntries() const {
    std::uint64_t n = 0;
    for (const auto& [name, count] : truncated_entry_counts) {
      n += count;
    }
    return n;
  }
  // Entries force-closed by mid-trace mismatch recovery — unlike truncation
  // closes, these indicate real damage or tag imbalance.
  std::uint64_t MidTraceUnclosedEntries() const {
    const std::uint64_t tolerated = TruncationClosedEntries();
    return unclosed_entries > tolerated ? unclosed_entries - tolerated : 0;
  }
  // Anything a health-conscious consumer should hear about. Deliberately
  // excludes plain truncation (stopping a capture mid-run is normal) and
  // the truncation-closed entries it implies.
  bool HasAnomalies() const {
    return corrupt_words > 0 || impossible_deltas > 0 || wrap_ambiguous_gaps > 0 ||
           unknown_tags > 0 || orphan_exits > 0 || dropped_events > 0 ||
           MidTraceUnclosedEntries() > 0;
  }
};

// Folds a finished decode's anomaly counters into the pipeline telemetry
// registry (src/obs) under decode.anomaly.*. Called by every Finish.
void RecordDecodeTelemetry(const DecodedTrace& decoded);

class Decoder {
 public:
  // Decodes `raw` against `names` with a StreamingDecoder in retain mode.
  // Never fails: malformed regions become anomaly counts.
  //
  // Lifetime: the returned trace's CallNodes point into `names`' entries;
  // `names` must outlive the DecodedTrace.
  static DecodedTrace Decode(const RawTrace& raw, const TagFile& names);
};

struct StreamingOptions {
  // Keep the full call trees and the chronological step list (what the
  // trace/callgraph/process reports need; batch Decode() sets this). When
  // false, replay folds: every call is added to the per-function stats and
  // freed as it closes, no steps or inline-marker nodes are built, and the
  // finished trace carries empty stack trees. Memory is then bounded by
  // open-call depth plus the context-switch lookahead window.
  bool retain_structure = false;
  // Ops per shard before the planner looks for a context-switch boundary to
  // cut at; a block overrunning this 2x is cut mid-block (interrupt-driven
  // captures may never switch). The output never depends on it: small
  // values only force many shards, which the differential tests use to
  // exercise stitching and pooled replay on small traces.
  std::size_t shard_target_ops = 8192;
};

class DecodeEngine;

// Incremental decoder: feed a capture in arbitrarily-sized chunks and get
// the same answer on any chunking of the same events. It is the only
// decode engine and runs in three stages:
//
//  1. A serial control pass (the planner) reconstructs absolute time,
//     matches entries to exits on cheap frame chains, resolves which
//     suspended context a `swtch` exit resumes by lookahead, and emits a
//     flat op script plus the anomaly counters. Events whose handling
//     needs lookahead wait in a pending window until enough of the future
//     has arrived to decide exactly as a one-shot pass would.
//  2. Shard replay cuts the script at context-switch boundaries and does
//     the per-event work: call-node allocation, interval attribution,
//     steps (retain mode) or folding (retain_structure=false). Once the
//     planner seals a second shard with input still to come, shards replay
//     on a process-wide ThreadPool of DefaultJobs() workers (started the
//     first time any decode gets there) while planning continues. Until
//     then, and for the tail sealed by Finish or SnapshotStats, the calling
//     thread replays them itself, so captures under about two shard
//     targets never touch a thread.
//  3. Merge stitches calls open across a cut back into one node and
//     combines per-function stats, which are sums and min/max, so the
//     result never depends on shard count or worker timing.
//
// Lifetime: `names` must outlive the decoder and any DecodedTrace it emits.
class StreamingDecoder {
 public:
  explicit StreamingDecoder(const TagFile& names, unsigned timer_bits = 24,
                            std::uint64_t timer_clock_hz = 1'000'000,
                            StreamingOptions options = StreamingOptions{});
  ~StreamingDecoder();
  StreamingDecoder(const StreamingDecoder&) = delete;
  StreamingDecoder& operator=(const StreamingDecoder&) = delete;

  // Feeds the next events of the capture, in order.
  void Feed(const RawEvent* events, std::size_t count);
  void Feed(const std::vector<RawEvent>& events);
  // Structure-of-arrays variant: the same events as parallel tag/timestamp
  // columns (what the binary container's chunk reader produces), decoded
  // without ever materialising RawEvents.
  void FeedSoA(const std::uint16_t* tags, const std::uint32_t* timestamps,
               std::size_t count);
  // Feeds one drained bank: accounts its dropped_before, then its events.
  void FeedChunk(const TraceChunk& chunk);
  // Records a capture gap of `count` dropped events at the current position.
  // The decoder keeps its stacks (later orphan exits are tolerated as
  // usual); note that a gap longer than the timer wrap period makes the
  // interval across it ambiguous, as on the real hardware.
  void NoteDropped(std::uint64_t count);
  // Records `count` stored words the parse layer could not read at all
  // (salvage-mode loads skip them and report here, so every decode path
  // charges identical corrupt-word totals).
  void NoteCorruptWords(std::uint64_t count);
  // Gives the decoder a host wall-clock measurement of the capture's real
  // duration. Timer wraps hidden inside quiet gaps (> WrapPeriod with no
  // stored event) are undetectable from deltas alone; with an envelope the
  // decoder compares the reconstructed span against it at Finish and counts
  // each whole missing wrap as a wrap-ambiguous gap.
  void SetClockEnvelope(Nanoseconds capture_elapsed);

  // Known-tag events accepted so far.
  std::uint64_t events_seen() const;
  std::uint64_t dropped_events() const;
  // Events buffered awaiting context-switch lookahead.
  std::size_t pending() const;

  // Running statistics view of everything decoded so far: per-function
  // stats, idle and elapsed totals (open calls included, with time
  // accumulated to date). Carries no trees or steps; pass it to Summary for
  // a live Figure 3 report. Seals and merges the shards planned so far.
  DecodedTrace SnapshotStats() const;

  // Decodes everything still buffered, closes open calls, and returns the
  // final trace. The decoder is consumed: only the destructor may follow.
  DecodedTrace Finish(bool truncated = false);

 private:
  std::unique_ptr<DecodeEngine> engine_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_DECODER_H_
