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
#include <string_view>
#include <vector>

#include "src/base/units.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"
#include "src/profhw/smart_socket.h"

namespace hwprof {

// One call (or inline marker) in a decoded call tree. Nodes live in their
// DecodedTrace's arena and link to each other intrusively: a node owns
// nothing, so a tree of any depth is freed a block at a time, never by
// recursion.
struct CallNode {
  const TagEntry* fn = nullptr;  // null only for synthetic stack roots
  Nanoseconds entry_time = 0;
  Nanoseconds exit_time = 0;
  bool closed = false;
  bool forced_close = false;  // closed by truncation/mismatch recovery
  bool inline_marker = false;
  CallNode* parent = nullptr;
  CallNode* first_child = nullptr;  // children in call order
  CallNode* last_child = nullptr;
  CallNode* next_sibling = nullptr;

  // On-CPU interval accounting: time between consecutive events is charged
  // to the running context while it has an open call. A call's elapsed
  // time is what its context was charged while the call was open; its net
  // time is that minus its direct subroutines' elapsed time. A call whose
  // process is switched out therefore accumulates nothing while off-CPU —
  // the paper's per-activity-block rule (tsleep shows "25 us total" even
  // though the process slept for milliseconds).
  Nanoseconds net = 0;
  Nanoseconds elapsed = 0;

  Nanoseconds Elapsed() const { return elapsed; }
  Nanoseconds Net() const { return net; }
  // Wall-clock span between the entry and exit events (includes off-CPU
  // time; used by reports that show call lifetimes).
  Nanoseconds WallSpan() const { return exit_time - entry_time; }

  // `for (const CallNode* child : node.Children())` visits the children in
  // call order.
  class ChildIterator {
   public:
    explicit ChildIterator(const CallNode* node) : node_(node) {}
    const CallNode* operator*() const { return node_; }
    ChildIterator& operator++() {
      node_ = node_->next_sibling;
      return *this;
    }
    bool operator==(const ChildIterator&) const = default;

   private:
    const CallNode* node_;
  };
  struct ChildRange {
    const CallNode* first;
    ChildIterator begin() const { return ChildIterator(first); }
    ChildIterator end() const { return ChildIterator(nullptr); }
  };
  ChildRange Children() const { return ChildRange{first_child}; }
  bool HasChildren() const { return first_child != nullptr; }
};

// Visits every node below `root` in pre-order: `enter(node)` before the
// node's children (in call order), `leave(node)` once its whole subtree has
// been entered. The walk follows the parent/first_child/next_sibling links,
// so it uses no recursion and no stack however deep the tree is.
template <typename Enter, typename Leave>
void WalkTree(const CallNode& root, Enter&& enter, Leave&& leave) {
  const CallNode* node = root.first_child;
  while (node != nullptr) {
    enter(*node);
    if (node->first_child != nullptr) {
      node = node->first_child;
      continue;
    }
    while (true) {
      leave(*node);
      if (node->next_sibling != nullptr) {
        node = node->next_sibling;
        break;
      }
      node = node->parent;
      if (node == &root) {
        node = nullptr;
        break;
      }
    }
  }
}

template <typename Enter>
void WalkTree(const CallNode& root, Enter&& enter) {
  WalkTree(root, enter, [](const CallNode&) {});
}

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

// One function's row of DecodedTrace::per_function.
struct FuncStats {
  std::uint64_t calls = 0;
  Nanoseconds elapsed = 0;  // inclusive of subroutines
  Nanoseconds net = 0;      // exclusive
  Nanoseconds min_net = 0;
  Nanoseconds max_net = 0;

  // This function's share of DecodedTrace's orphan and unclosed totals,
  // which hwprof_lint's trace cross-check turns into file:line findings.
  // preopen_exits are orphan exits of a function never entered earlier in
  // the trace: calls opened before the first captured event, the
  // front-of-capture mirror of truncated_entries (entries closed by the end
  // of the capture). Consumers judging trace health tolerate both.
  std::uint64_t orphan_exits = 0;
  std::uint64_t preopen_exits = 0;
  std::uint64_t unclosed_entries = 0;
  std::uint64_t truncated_entries = 0;

  Nanoseconds AvgNet() const { return calls == 0 ? 0 : net / calls; }
};

struct DecodedTrace {
  Nanoseconds start_time = 0;  // first event (reconstructed absolute)
  Nanoseconds end_time = 0;
  std::size_t event_count = 0;
  bool truncated = false;  // capture RAM overflowed

  std::vector<std::unique_ptr<ActivityStack>> stacks;
  std::vector<TraceStep> steps;
  // Storage for every CallNode under `stacks` except the roots: one block
  // per retained shard, sized before replay and never grown, so node
  // pointers (links, TraceStep::node) stay valid as the trace moves. Empty
  // in fold mode.
  std::vector<std::vector<CallNode>> arena;
  const TagFile* names = nullptr;  // decoded against; must outlive the trace, unmoved
  // One row per names-file entry, by TagEntry::index; calls == 0 for a
  // function never called.
  std::vector<FuncStats> per_function;

  // Idle: accumulated net time of '!'-tagged (context switch) functions.
  Nanoseconds idle_time = 0;

  // Anomalies (all tolerated): events with no names-file entry, exits with
  // no matching entry, entries still open at the end of the capture.
  std::uint64_t unknown_tags = 0;
  std::uint64_t orphan_exits = 0;
  std::uint64_t unclosed_entries = 0;

  // Entries closed by end-of-capture truncation: the tolerated subset of
  // unclosed_entries.
  std::uint64_t truncated_entries = 0;

  // Unknown-tag events by raw tag value: they have no per_function row.
  std::map<std::uint16_t, std::uint64_t> unknown_tag_counts;

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
  // `name`'s stats, or nullptr when it was never called.
  const FuncStats* Stats(std::string_view name) const {
    const TagEntry* fn = names != nullptr ? names->FindByName(name) : nullptr;
    return fn != nullptr && per_function[fn->index].calls > 0 ? &per_function[fn->index]
                                                               : nullptr;
  }

  // Calls `fn(entry, stats)` for every function called at least once, in
  // names-file order: readers that print rows sort them themselves.
  template <typename Fn>
  void ForEachFunction(Fn&& fn) const {
    for (std::size_t i = 0; i < per_function.size(); ++i) {
      if (per_function[i].calls > 0) {
        fn(names->entries()[i], per_function[i]);
      }
    }
  }

  // Entries force-closed by mid-trace mismatch recovery — unlike truncation
  // closes, these indicate real damage or tag imbalance.
  std::uint64_t MidTraceUnclosedEntries() const {
    return unclosed_entries > truncated_entries ? unclosed_entries - truncated_entries : 0;
  }
  // Anything a health-conscious consumer should hear about, as one number
  // (the --progress heartbeat and hwprofd's per-upload ledger). Deliberately
  // excludes plain truncation (stopping a capture mid-run is normal) and
  // the truncation-closed entries it implies.
  std::uint64_t AnomalyTotal() const {
    return corrupt_words + impossible_deltas + wrap_ambiguous_gaps + unknown_tags +
           orphan_exits + dropped_events + MidTraceUnclosedEntries();
  }
  bool HasAnomalies() const { return AnomalyTotal() > 0; }
};

// Folds a finished decode's anomaly counters into the pipeline telemetry
// registry (src/obs) under decode.anomaly.*. Called by every Finish.
void RecordDecodeTelemetry(const DecodedTrace& decoded);

class Decoder {
 public:
  // Decodes `raw` against `names` with a StreamingDecoder in retain mode.
  // Never fails: malformed regions become anomaly counts.
  //
  // Lifetime: the returned trace points at `names` and its entries; `names`
  // must outlive the DecodedTrace and not move.
  static DecodedTrace Decode(const RawTrace& raw, const TagFile& names);
};

struct StreamingOptions {
  // Keep the full call trees and the chronological step list (what the
  // trace/callgraph/process reports need; batch Decode() sets this). When
  // false, replay folds: every call is added to the per-function stats as
  // it closes, no node or step is built, and the finished trace carries
  // empty stack trees and an empty arena. Memory is then bounded by
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
//     the per-event work on a stack of value frames: an on-CPU clock per
//     context gives every call its elapsed and net time in O(1) at its
//     close, which folds it into the stats; retain mode also fills nodes
//     from one block per shard and records steps. Once the
//     planner seals a second shard with input still to come, shards replay
//     on a process-wide ThreadPool of DefaultJobs() workers (started the
//     first time any decode gets there) while planning continues. Until
//     then, and for the tail sealed by Finish or SnapshotStats, the calling
//     thread replays them itself, so captures under about two shard
//     targets never touch a thread.
//  3. Merge adds the partial totals of calls open across a cut by their
//     global id, attaches the calls a shard opened under them, keeps each
//     shard's node block, and combines per-function stats, which are sums
//     and min/max, so the result never depends on shard count or worker
//     timing.
//
// Lifetime: `names` must outlive the decoder and any DecodedTrace it emits,
// and not move.
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

// One capture's bytes, decoded: what DecodeCaptureBytes returns.
struct CaptureDecode {
  // Which of the four shapes the bytes hold (text or hwpb, capture or
  // stream). Bytes no magic matches are parsed, and reported, as a text
  // capture. Callers that take only one-shot captures refuse streams here.
  CaptureFileInfo shape;
  // False when nothing could be decoded: an unusable header, or (strict
  // mode) any damage. `diags` says why.
  bool ok = false;
  DecodedTrace trace;
  // Every problem found, fatal or salvaged: a 1-based line (text) or byte
  // offset (hwpb) and the reason; line 0 is file-level.
  std::vector<TraceDiag> diags;
};

// The one path from capture bytes to a DecodedTrace, for every tool and for
// hwprofd. Sniffs the shape and feeds one StreamingDecoder under one header
// policy: a capture header's board drops, clock envelope and overflow flag;
// each stream chunk's drops and a stream's torn tail; the parse layer's
// corrupt words. hwpb bytes are decoded zero-copy through BinaryChunkReader
// and FeedSoA; text goes through RawTrace::Deserialize* or ParseStreamText.
// Strict mode (`salvage` false) fails on any damage; salvage mode keeps what
// survives and counts the rest as corrupt words. `options` picks retain or
// fold mode (and the shard target).
//
// Lifetime: `bytes` need only live for the call; `names` must outlive the
// returned trace.
CaptureDecode DecodeCaptureBytes(std::string_view bytes, const TagFile& names,
                                 bool salvage, StreamingOptions options);

// DecodeCaptureBytes over a mapped file (MapCaptureFile: the socket.load
// span, socket.download_bytes, and a line-0 "cannot open file" diagnostic).
CaptureDecode DecodeCaptureFile(const std::string& path, const TagFile& names,
                                bool salvage, StreamingOptions options);

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_DECODER_H_
