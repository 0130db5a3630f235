#include "src/analysis/decoder.h"

#include <algorithm>
#include <deque>
#include <future>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/base/assert.h"
#include "src/base/mmap_file.h"
#include "src/base/thread_pool.h"
#include "src/obs/telemetry.h"
#include "src/profhw/binary_trace.h"
#include "src/profhw/usec_timer.h"

namespace hwprof {

namespace {

// One reconstructed event awaiting planning.
struct DecodedEvent {
  Nanoseconds t = 0;
  const TagEntry* entry = nullptr;  // never null here (unknowns are filtered)
  bool is_exit = false;
};

// Stalled-window compaction threshold: planned events are erased from the
// front of the buffer once this many accumulate while later events wait on
// lookahead.
constexpr std::size_t kCompactThreshold = 4096;

// --- The op script -----------------------------------------------------------
// Everything shard replay needs: every control decision is already made,
// replay is a straight loop with no matching logic.

enum OpFlags : std::uint8_t {
  kOpForced = 1,        // close was a mismatch-recovery force-close
  kOpCtxSwitchIn = 2,   // this close resumes a different context
};

enum class OpKind : std::uint8_t {
  kOpen,         // push a call frame on `stack`
  kOpenInline,   // single-event marker node under `stack`'s top
  kClose,        // pop `stack`'s innermost frame (emits a step)
  kFinishClose,  // end-of-trace truncation close (no step, no charge)
  kSetCurrent,   // interval attribution switches to `stack`
  kAdvance,      // no structural effect; advances the attribution clock
};

struct ShardOp {
  Nanoseconds t = 0;
  const TagEntry* fn = nullptr;
  std::uint32_t node = 0;  // global node id (stable across shards)
  std::int32_t stack = 0;
  OpKind kind = OpKind::kAdvance;
  std::uint8_t flags = 0;
};

// A frame open at a shard boundary.
struct ChainFrame {
  const TagEntry* fn = nullptr;
  std::uint32_t node = 0;
};

// The planner state a shard replay starts from. Chains are stored sparsely:
// only stacks with open frames appear (most discovered contexts have fully
// closed out), so snapshot cost scales with open work, not with every
// context the capture ever created.
struct ShardSnapshot {
  Nanoseconds last_time = 0;
  int current = 0;
  std::vector<std::pair<int, std::vector<ChainFrame>>> chains;
};

// A call open at a merged cut, by global id: the totals it has gathered
// so far and, in retain mode, its node.
struct OpenCall {
  const TagEntry* fn = nullptr;
  Nanoseconds net = 0;
  Nanoseconds elapsed = 0;
  CallNode* node = nullptr;
};

// What a shard gathered for a call that was open at its start.
struct CarriedTotals {
  std::uint32_t id = 0;
  Nanoseconds net = 0;
  Nanoseconds elapsed = 0;
  bool closed = false;  // the shard closed it, at exit_time
  bool forced = false;
  Nanoseconds exit_time = 0;
};

// What one shard replay hands the merge.
struct ShardResult {
  // Every node this shard opened (retain mode): merge moves the block into
  // the trace's arena, so the nodes never move.
  std::vector<CallNode> block;
  // Nodes whose parent lies outside the shard, in op order: top-level calls
  // by stack id, and calls opened directly under a carried call by its id.
  std::vector<std::pair<int, CallNode*>> top_level;
  std::vector<std::pair<std::uint32_t, CallNode*>> orphans;
  std::vector<CarriedTotals> carried;
  // Calls opened in this shard and still open at its end.
  std::vector<std::pair<std::uint32_t, OpenCall>> open_at_end;
  std::vector<TraceStep> steps;
  // Steps that close a carried call (index, id): merge points them at its
  // node.
  std::vector<std::pair<std::size_t, std::uint32_t>> carried_steps;
  // By TagEntry::index, grown to the highest function the shard closed.
  std::vector<FuncStats> per_function;
  Nanoseconds idle = 0;
};

struct ShardTask {
  std::vector<ShardOp> ops;
  ShardSnapshot snap;
};

struct SealedShard {
  std::shared_ptr<const ShardTask> task;
  ShardResult* result = nullptr;  // the engine's slot for this shard
};

// Adds `part`'s calls to `into`. Sums and min/max commute, so the order
// calls and shards are added in never shows in the result.
void AddCalls(const FuncStats& part, FuncStats* into) {
  into->min_net = into->calls == 0 ? part.min_net : std::min(into->min_net, part.min_net);
  into->max_net = into->calls == 0 ? part.max_net : std::max(into->max_net, part.max_net);
  into->calls += part.calls;
  into->net += part.net;
  into->elapsed += part.elapsed;
}

// Folds one completed call into its function's row of `pf`.
void FoldCall(const TagEntry* fn, Nanoseconds net, Nanoseconds elapsed,
              std::vector<FuncStats>* pf, Nanoseconds* idle) {
  if (fn->index >= pf->size()) {
    pf->resize(fn->index + 1);
  }
  AddCalls(FuncStats{.calls = 1, .elapsed = elapsed, .net = net, .min_net = net, .max_net = net},
           &(*pf)[fn->index]);
  if (fn->kind == TagKind::kContextSwitch) {
    *idle += net;
  }
}

// Adds a shard's rows to the trace's.
void CombineStats(const std::vector<FuncStats>& part, std::vector<FuncStats>* into) {
  for (std::size_t i = 0; i < part.size(); ++i) {
    if (part[i].calls > 0) {
      AddCalls(part[i], &(*into)[i]);
    }
  }
}

// The process-wide pool for pooled replay, started the first time any
// capture seals a second shard. Sharing it bounds the worker threads, and
// the per-thread telemetry sinks and malloc arenas they bring, however many
// decodes a process runs, and no decode pays for starting threads. Leaked:
// it outlives every decoder.
ThreadPool& ReplayPool() {
  static ThreadPool* pool = new ThreadPool(ThreadPool::DefaultJobs());
  return *pool;
}

// Appends `child` to `parent`'s children.
void Adopt(CallNode* parent, CallNode* child) {
  child->parent = parent;
  if (parent->last_child == nullptr) {
    parent->first_child = child;
  } else {
    parent->last_child->next_sibling = child;
  }
  parent->last_child = child;
}

// Closes `node` with its final totals.
void CloseNode(CallNode* node, Nanoseconds t, bool forced, Nanoseconds net,
               Nanoseconds elapsed) {
  node->exit_time = t;
  node->closed = true;
  node->forced_close = forced;
  node->net = net;
  node->elapsed = elapsed;
}

// --- Shard replay ------------------------------------------------------------
// All the per-event work lives here: frame pushes and pops, interval
// attribution, stats folds and, in retain mode, nodes and steps. Every op
// costs O(1). Runs inline or on a pool worker; it touches nothing but its
// task and its result.

// A call open on a replay stack. Frames carried in from the shard's
// snapshot (`own` false) hold only the call's global id: its node, if any,
// belongs to the shard that opened it, and the merge finds it by id.
struct Frame {
  const TagEntry* fn = nullptr;
  std::uint32_t id = 0;
  bool own = false;
  Nanoseconds clock_open = 0;     // the stack's clock at open (0 if carried)
  Nanoseconds child_elapsed = 0;  // direct children's elapsed, this shard
  CallNode* node = nullptr;       // own frames in retain mode only
};

struct LocalStack {
  // On-CPU clock: advances by every interval charged while this stack is
  // current and has an open frame. A call's elapsed time in the shard is
  // the clock at its close minus its clock_open.
  Nanoseconds clock = 0;
  std::vector<Frame> frames;
};

void ReplayShard(const ShardTask& task, bool retain, ShardResult* out) {
  OBS_SCOPED_SPAN("parallel.shard_replay");
  if (retain) {
    // Each open or inline-marker op opens at most one node.
    out->block.reserve(static_cast<std::size_t>(
        std::count_if(task.ops.begin(), task.ops.end(), [](const ShardOp& op) {
          return op.kind == OpKind::kOpen || op.kind == OpKind::kOpenInline;
        })));
    out->steps.reserve(task.ops.size());
  }
  std::unordered_map<int, LocalStack> stacks;
  auto stack_for = [&](int sid) -> LocalStack& {
    auto [it, inserted] = stacks.try_emplace(sid);
    if (inserted) {
      for (const auto& [chain_sid, chain] : task.snap.chains) {
        if (chain_sid == sid) {
          it->second.frames.reserve(chain.size());
          for (const ChainFrame& frame : chain) {
            it->second.frames.push_back(Frame{.fn = frame.fn, .id = frame.node});
          }
          break;
        }
      }
    }
    return it->second;
  };

  int cur_sid = task.snap.current;
  LocalStack* cur = &stack_for(cur_sid);
  Nanoseconds last_t = task.snap.last_time;
  // Interval attribution: the running context's clock advances while it
  // has an open call. Time with no open call (user mode / unprofiled code)
  // is left unattributed.
  auto charge = [&](Nanoseconds t) {
    if (!cur->frames.empty()) {
      cur->clock += t - last_t;
    }
    last_t = t;
  };
  // Retain mode: a node under `cur`'s innermost frame, and its step.
  auto open = [&](const ShardOp& op, bool inline_marker) {
    CallNode* node = &out->block.emplace_back();
    node->fn = op.fn;
    node->entry_time = op.t;
    node->exit_time = op.t;
    node->inline_marker = inline_marker;
    node->closed = inline_marker;
    if (cur->frames.empty()) {
      out->top_level.emplace_back(cur_sid, node);
    } else if (cur->frames.back().own) {
      Adopt(cur->frames.back().node, node);
    } else {
      out->orphans.emplace_back(cur->frames.back().id, node);
    }
    TraceStep step;
    step.t = op.t;
    step.node = node;
    step.is_exit = false;
    step.depth = static_cast<int>(cur->frames.size());
    step.stack_id = cur_sid;
    out->steps.push_back(step);
    return node;
  };

  // Opens, inline markers and advances always target the current stack (the
  // planner emits a kSetCurrent first), so replay tracks `cur` instead of
  // doing a map lookup per op. Closes usually do too, but a `swtch` exit
  // closes the idle window of the stack that blocked, which a suspended-
  // stack resume may have made non-current; truncation closes may name any
  // stack. Either way a close reads its own stack's clock.
  for (const ShardOp& op : task.ops) {
    if (op.kind != OpKind::kFinishClose) {
      charge(op.t);
    }
    switch (op.kind) {
      case OpKind::kSetCurrent:
        cur_sid = op.stack;
        cur = &stack_for(cur_sid);
        break;
      case OpKind::kAdvance:
        break;
      case OpKind::kOpen:
        cur->frames.push_back(Frame{.fn = op.fn,
                                    .id = op.node,
                                    .own = true,
                                    .clock_open = cur->clock,
                                    .node = retain ? open(op, false) : nullptr});
        break;
      case OpKind::kOpenInline:
        // Markers carry no stats; fold mode never builds them.
        if (retain) {
          open(op, /*inline_marker=*/true);
        }
        break;
      case OpKind::kClose:
      case OpKind::kFinishClose: {
        LocalStack& ls = op.stack == cur_sid ? *cur : stack_for(op.stack);
        HWPROF_CHECK(!ls.frames.empty());
        const Frame frame = ls.frames.back();
        ls.frames.pop_back();
        const Nanoseconds elapsed = ls.clock - frame.clock_open;
        const Nanoseconds net = elapsed - frame.child_elapsed;
        if (!ls.frames.empty()) {
          ls.frames.back().child_elapsed += elapsed;
        }
        const bool forced =
            op.kind == OpKind::kFinishClose || (op.flags & kOpForced) != 0;
        if (frame.own) {
          FoldCall(frame.fn, net, elapsed, &out->per_function, &out->idle);
          if (frame.node != nullptr) {
            CloseNode(frame.node, op.t, forced, net, elapsed);
          }
        } else {
          out->carried.push_back(CarriedTotals{frame.id, net, elapsed, true, forced, op.t});
        }
        if (retain && op.kind == OpKind::kClose) {
          TraceStep step;
          step.t = op.t;
          step.node = frame.node;
          step.is_exit = true;
          step.depth = static_cast<int>(ls.frames.size());
          step.stack_id = op.stack;
          step.context_switch_in = (op.flags & kOpCtxSwitchIn) != 0;
          if (!frame.own) {
            out->carried_steps.emplace_back(out->steps.size(), frame.id);
          }
          out->steps.push_back(step);
        }
        break;
      }
    }
  }

  // Calls still open hand in their partial totals, innermost first, the
  // same way a close does.
  for (auto& [sid, ls] : stacks) {
    (void)sid;
    for (std::size_t i = ls.frames.size(); i-- > 0;) {
      const Frame& frame = ls.frames[i];
      const Nanoseconds elapsed = ls.clock - frame.clock_open;
      const Nanoseconds net = elapsed - frame.child_elapsed;
      if (i > 0) {
        ls.frames[i - 1].child_elapsed += elapsed;
      }
      if (frame.own) {
        out->open_at_end.emplace_back(frame.id, OpenCall{frame.fn, net, elapsed, frame.node});
      } else if (elapsed != 0) {
        out->carried.push_back(CarriedTotals{frame.id, net, elapsed});
      }
    }
  }
}

}  // namespace

// --- The engine --------------------------------------------------------------
// The planner runs the control pass on frame chains and emits the op
// script; sealed shards are replayed and merged in order.

class DecodeEngine {
 public:
  DecodeEngine(const TagFile& names, unsigned timer_bits, std::uint64_t timer_clock_hz,
               StreamingOptions options)
      : names_(names), timer_(timer_bits, timer_clock_hz), opts_(options) {
    if (opts_.shard_target_ops == 0) {
      opts_.shard_target_ops = 1;
    }
    out_.names = &names;
    out_.per_function.resize(names.size());
    entered_.resize(names.size());
    current_ = NewStack();
    shard_start_snap_ = CaptureSnapshot();
  }

  ~DecodeEngine() {
    for (const std::future<void>& replay : replays_) {
      replay.wait();  // pool workers write into results_
    }
  }

  template <typename GetEvent>
  void FeedWith(std::size_t count, GetEvent get) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: Feed after Finish");
    for (std::size_t k = 0; k < count; ++k) {
      RawEvent e = get(k);
      // A stored timestamp above the counter mask cannot have come from the
      // timer (a flipped high bit, or an upload-path fault). The delta it
      // implies is impossible; salvage by masking and count the anomaly.
      if (e.timestamp > timer_.Mask()) {
        e.timestamp &= timer_.Mask();
        ++out_.impossible_deltas;
      }
      // Absolute-time reconstruction: the timer value is only an interval
      // counter; consecutive events are less than one wrap apart by hardware
      // contract, so each delta is (later - earlier) mod 2^bits. Unknown
      // tags still advance the clock — their cycles happened.
      if (!have_prev_) {
        prev_ = e.timestamp;
        have_prev_ = true;
      }
      now_ += timer_.TicksToNs(timer_.TicksBetween(prev_, e.timestamp));
      prev_ = e.timestamp;
      const TagEntry* entry = names_.FindByTag(e.tag);
      if (entry == nullptr) {
        ++out_.unknown_tags;
        ++out_.unknown_tag_counts[e.tag];
        continue;
      }
      DecodedEvent ev;
      ev.t = now_;
      ev.entry = entry;
      ev.is_exit = entry->IsFunctionLike() && e.tag == entry->exit_tag();
      if (known_events_ == 0) {
        out_.start_time = now_;
        last_time_ = now_;
      }
      out_.end_time = now_;
      ++known_events_;
      events_.push_back(ev);
    }
    Process(/*final=*/false);
  }

  void NoteDropped(std::uint64_t count) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: NoteDropped after Finish");
    if (count == 0) {
      return;
    }
    out_.dropped_events += count;
    ++out_.capture_gaps;
  }

  void NoteCorruptWords(std::uint64_t count) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: NoteCorruptWords after Finish");
    out_.corrupt_words += count;
  }

  void SetClockEnvelope(Nanoseconds capture_elapsed) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: SetClockEnvelope after Finish");
    envelope_ = capture_elapsed;
  }

  std::uint64_t events_seen() const { return known_events_; }
  std::uint64_t dropped_events() const { return out_.dropped_events; }
  std::size_t pending() const { return events_.size() - head_; }

  DecodedTrace SnapshotStats() {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: SnapshotStats after Finish");
    SealShard(/*planning_continues=*/false);
    MergeSealed();
    DecodedTrace snap;
    snap.names = out_.names;
    snap.start_time = out_.start_time;
    snap.end_time = out_.end_time;
    snap.event_count = known_events_;
    snap.unknown_tags = out_.unknown_tags;
    snap.orphan_exits = out_.orphan_exits;
    snap.unclosed_entries = out_.unclosed_entries;
    snap.truncated_entries = out_.truncated_entries;
    snap.unknown_tag_counts = out_.unknown_tag_counts;
    snap.dropped_events = out_.dropped_events;
    snap.capture_gaps = out_.capture_gaps;
    snap.corrupt_words = out_.corrupt_words;
    snap.impossible_deltas = out_.impossible_deltas;
    snap.wrap_ambiguous_gaps = out_.wrap_ambiguous_gaps;
    snap.unaccounted_time = out_.unaccounted_time;
    snap.idle_time = out_.idle_time;
    snap.per_function = out_.per_function;
    // Calls still open count with the time they have accumulated to date.
    for (const auto& [id, call] : open_nodes_) {
      (void)id;
      FoldCall(call.fn, call.net, call.elapsed, &snap.per_function, &snap.idle_time);
    }
    return snap;
  }

  DecodedTrace Finish(bool truncated) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: Finish called twice");
    finished_ = true;
    Process(/*final=*/true);
    FinishOpenNodes();
    SealShard(/*planning_continues=*/false);
    MergeSealed();
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      out_.stacks[i]->suspended = stacks_[i]->suspended;
    }
    out_.truncated = truncated;
    out_.event_count = known_events_;
    // Wrap-ambiguity check against the host wall-clock envelope: a quiet gap
    // longer than WrapPeriod decodes as a short delta (the "at most one wrap"
    // contract cannot be verified from deltas alone), so the reconstructed
    // span comes up short of the measured capture duration by whole wraps.
    if (envelope_ > 0 && known_events_ > 0) {
      const Nanoseconds span = out_.end_time - out_.start_time;
      if (envelope_ > span) {
        const Nanoseconds missing = envelope_ - span;
        const Nanoseconds wrap = timer_.WrapPeriod();
        const std::uint64_t missed =
            wrap > 0 ? static_cast<std::uint64_t>(missing / wrap) : 0;
        if (missed > 0) {
          out_.wrap_ambiguous_gaps += missed;
          out_.unaccounted_time = missing;
        }
      }
    }
    return std::move(out_);
  }

 private:
  struct PlanStack {
    int id = 0;
    std::vector<ChainFrame> chain;  // outermost .. innermost open frames
    bool suspended = false;
  };

  // --- Control pass ----------------------------------------------------------

  void Process(bool final) {
    while (head_ < events_.size()) {
      const DecodedEvent ev = events_[head_];
      if (!final && Undecided(head_, ev)) {
        break;  // everything from here on waits for more of the trace
      }
      last_time_ = ev.t;
      block_boundary_ = false;
      StepEvent(ev, head_);
      ++head_;
      // Preferred cut: between activity blocks, right after a context switch
      // resolves. But a saturating interrupt-driven capture can run one
      // context for the entire trace, so a block that overruns the target 2x
      // is cut mid-block. Replay is seeded with the open-chain snapshot, so
      // the output never depends on where the cut falls.
      if (ops_.size() >= opts_.shard_target_ops &&
          (block_boundary_ ||
           (pending_swtch_ == nullptr &&
            ops_.size() >= 2 * opts_.shard_target_ops))) {
        SealShard(/*planning_continues=*/true);
      }
    }
    if (head_ == events_.size()) {
      events_.clear();
      head_ = 0;
    } else if (head_ >= kCompactThreshold) {
      events_.erase(events_.begin(),
                    events_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  static const TagEntry* TopFn(const PlanStack* s) {
    return s->chain.empty() ? nullptr : s->chain.back().fn;
  }

  // The stack blocked in an open `swtch` whose exit will close its idle
  // window, or nullptr.
  PlanStack* PendingIdleWindow() const {
    return pending_swtch_ != nullptr && TopFn(pending_swtch_) != nullptr &&
                   TopFn(pending_swtch_)->kind == TagKind::kContextSwitch
               ? pending_swtch_
               : nullptr;
  }

  // True when handling `ev` would consult lookahead whose scan runs past the
  // buffered events without reaching a terminator (chain exhausted, chain
  // mismatch, or a context switch) — i.e. seeing more of the trace could
  // change the decision.
  bool Undecided(std::size_t index, const DecodedEvent& ev) const {
    if (!ev.is_exit || ev.entry->kind == TagKind::kInline) {
      return false;
    }
    if (ev.entry->kind == TagKind::kContextSwitch) {
      // Both HandleSwtchExit paths end in ResolveResumed(index), which
      // scores suspended stacks from index + 1. When an idle window is
      // pending, its swtch frame is closed *before* the scoring, so that
      // stack's chain must be judged without its top frame.
      return !ScoresDecided(index + 1, nullptr, PendingIdleWindow());
    }
    // A normal exit needs lookahead only when its function is not open
    // anywhere on the running stack (HandleExit's suspended-stack fallback).
    for (auto it = current_->chain.rbegin(); it != current_->chain.rend(); ++it) {
      if (it->fn == ev.entry) {
        return false;
      }
    }
    return !ScoresDecided(index, ev.entry, nullptr);
  }

  // Whether every suspended stack BestSuspendedMatch would consider has a
  // final score given the events buffered so far.
  bool ScoresDecided(std::size_t from, const TagEntry* require_top,
                     const PlanStack* skip_top_of) const {
    for (const PlanStack* s : suspend_order_) {
      if (require_top != nullptr && TopFn(s) != require_top) {
        continue;
      }
      bool decided = true;
      MatchScore(s, from, /*skip_top=*/s == skip_top_of, &decided);
      if (!decided) {
        return false;
      }
    }
    return true;
  }

  // Scores how well `s`'s open-frame chain matches the exit sequence in
  // events_[from...]: the number of chain frames (innermost first) that the
  // upcoming exits close, tolerating freshly-opened nested calls, stopping
  // at the next context switch. Several processes commonly sit suspended in
  // the same function (tsleep); only the deeper frames (biowait vs
  // soaccept...) disambiguate who actually resumed. TagFile entries are
  // unique per name, so pointer identity is name identity.
  //
  // `skip_top` judges the chain without its innermost frame. `decided`,
  // when non-null, is cleared if the scan ran off the end of the buffered
  // events before reaching a terminator.
  int MatchScore(const PlanStack* s, std::size_t from, bool skip_top,
                 bool* decided) const {
    const std::vector<ChainFrame>& ch = s->chain;
    std::size_t n = ch.size();
    if (skip_top && n > 0) {
      --n;
    }
    if (n == 0) {
      return -1;
    }
    std::size_t ci = 0;  // chain index, innermost first: ch[n - 1 - ci]
    int depth = 0;
    int score = 0;
    bool terminated = false;
    for (std::size_t j = from; j < events_.size() && ci < n; ++j) {
      const DecodedEvent& e = events_[j];
      if (e.entry->kind == TagKind::kInline) {
        continue;
      }
      if (e.entry->kind == TagKind::kContextSwitch) {
        terminated = true;  // this context blocks again; what we matched stands
        break;
      }
      if (!e.is_exit) {
        ++depth;  // a nested call opened after the resume
        continue;
      }
      if (depth > 0) {
        --depth;  // closes a nested call
        continue;
      }
      if (e.entry == ch[n - 1 - ci].fn) {
        ++score;
        ++ci;
        continue;
      }
      terminated = true;  // mismatch against the chain
      break;
    }
    if (ci >= n) {
      terminated = true;
    }
    if (!terminated && decided != nullptr) {
      *decided = false;
    }
    return score;
  }

  // Finds the suspended stack best matching the upcoming exits; nullptr if
  // none matches even its top frame. `require_top` restricts candidates to
  // stacks whose innermost open call is that function.
  PlanStack* BestSuspendedMatch(std::size_t from, const TagEntry* require_top) {
    PlanStack* best = nullptr;
    int best_score = 0;
    // Most recently suspended wins ties.
    for (auto it = suspend_order_.rbegin(); it != suspend_order_.rend(); ++it) {
      PlanStack* s = *it;
      if (require_top != nullptr && TopFn(s) != require_top) {
        continue;
      }
      const int score = MatchScore(s, from, /*skip_top=*/false, nullptr);
      if (score > best_score) {
        best = s;
        best_score = score;
      }
    }
    return best;
  }

  void Unsuspend(PlanStack* s) {
    s->suspended = false;
    suspend_order_.erase(
        std::remove(suspend_order_.begin(), suspend_order_.end(), s),
        suspend_order_.end());
  }

  void StepEvent(const DecodedEvent& ev, std::size_t index) {
    const TagEntry* fn = ev.entry;
    if (fn->kind == TagKind::kInline) {
      Emit(OpKind::kOpenInline, current_, fn, next_node_id_++, ev.t);
      return;
    }
    if (!ev.is_exit) {
      entered_[fn->index] = true;
      EmitOpen(current_, fn, ev.t);
      if (fn->kind == TagKind::kContextSwitch) {
        // The outgoing process is now suspended inside swtch. Idle-window
        // activity (interrupts) nests under the open swtch node on the same
        // stack, so the node's *net* time is pure idle.
        pending_swtch_ = current_;
        current_->suspended = true;
        suspend_order_.push_back(current_);
      }
      return;
    }
    if (fn->kind == TagKind::kContextSwitch) {
      HandleSwtchExit(ev, index);
      return;
    }
    HandleExit(ev, index);
  }

  void HandleSwtchExit(const DecodedEvent& ev, std::size_t index) {
    if (PlanStack* outgoing = PendingIdleWindow()) {
      // Close the idle window; `outgoing` stays suspended (its process is
      // still off-CPU).
      pending_swtch_ = nullptr;
      EmitClose(outgoing, ev.t, /*forced=*/false, /*context_switch_in=*/true);
    } else {
      // Orphan swtch exit (capture started mid-idle, or a brand-new
      // process's first switch-in with no prior entry).
      NoteOrphanExit(ev.entry);
    }
    current_ = ResolveResumed(index);
    Emit(OpKind::kSetCurrent, current_, nullptr, 0, ev.t);
    block_boundary_ = true;
  }

  PlanStack* ResolveResumed(std::size_t swtch_index) {
    // Lookahead: match suspended stacks against the exit sequence that
    // follows the switch-in. No match (the following events are entries, or
    // belong to nobody) means a fresh context — a newly created process
    // "returning from swtch" for the first time. Later unmatched exits can
    // still re-attach to suspended stacks (HandleExit's fallback).
    if (PlanStack* s = BestSuspendedMatch(swtch_index + 1, nullptr)) {
      Unsuspend(s);
      return s;
    }
    return NewStack();
  }

  void HandleExit(const DecodedEvent& ev, std::size_t index) {
    std::vector<ChainFrame>& ch = current_->chain;
    // Normal case: the exit matches the innermost open call.
    if (!ch.empty() && ch.back().fn == ev.entry) {
      EmitClose(current_, ev.t, /*forced=*/false, /*context_switch_in=*/false);
      return;
    }
    // An exit for a function open deeper on this stack: missed exits in
    // between (should not happen with compiler-generated triggers, but the
    // analyser tolerates it) — force-close down to the match.
    for (std::size_t p = ch.size(); p-- > 0;) {
      if (ch[p].fn == ev.entry) {
        while (ch.size() - 1 > p) {
          ++out_.per_function[ch.back().fn->index].unclosed_entries;
          ++out_.unclosed_entries;
          EmitClose(current_, ev.t, /*forced=*/true, /*context_switch_in=*/false);
        }
        EmitClose(current_, ev.t, /*forced=*/false, /*context_switch_in=*/false);
        return;
      }
    }
    // Not on this stack: an implicitly resumed context (a fresh stack was
    // chosen at the context switch and this exit belongs to the real one).
    if (PlanStack* s = BestSuspendedMatch(index, ev.entry)) {
      Unsuspend(s);
      current_ = s;
      Emit(OpKind::kSetCurrent, s, nullptr, 0, ev.t);
      EmitClose(s, ev.t, /*forced=*/false, /*context_switch_in=*/true);
      return;
    }
    NoteOrphanExit(ev.entry);
    Emit(OpKind::kAdvance, current_, nullptr, 0, ev.t);
  }

  // An orphan exit of a function never entered earlier in the trace is the
  // signature of a capture that begins mid-call; record it in the tolerated
  // preopen subset as well as the general orphan counters.
  void NoteOrphanExit(const TagEntry* fn) {
    FuncStats& s = out_.per_function[fn->index];
    ++out_.orphan_exits;
    ++s.orphan_exits;
    if (!entered_[fn->index]) {
      ++s.preopen_exits;
    }
  }

  // Truncated capture: close every open call at the last observed instant.
  void FinishOpenNodes() {
    for (const auto& stack : stacks_) {
      while (!stack->chain.empty()) {
        const ChainFrame frame = stack->chain.back();
        stack->chain.pop_back();
        FuncStats& s = out_.per_function[frame.fn->index];
        ++out_.unclosed_entries;
        ++out_.truncated_entries;
        ++s.unclosed_entries;
        ++s.truncated_entries;
        Emit(OpKind::kFinishClose, stack.get(), frame.fn, frame.node, out_.end_time);
      }
    }
  }

  // --- Op emission -----------------------------------------------------------

  PlanStack* NewStack() {
    auto s = std::make_unique<PlanStack>();
    s->id = static_cast<int>(stacks_.size());
    stacks_.push_back(std::move(s));
    return stacks_.back().get();
  }

  void Emit(OpKind kind, const PlanStack* s, const TagEntry* fn, std::uint32_t node,
            Nanoseconds t, std::uint8_t flags = 0) {
    ShardOp op;
    op.t = t;
    op.fn = fn;
    op.node = node;
    op.stack = s->id;
    op.kind = kind;
    op.flags = flags;
    ops_.push_back(op);
  }

  void EmitOpen(PlanStack* s, const TagEntry* fn, Nanoseconds t) {
    const std::uint32_t node = next_node_id_++;
    Emit(OpKind::kOpen, s, fn, node, t);
    s->chain.push_back(ChainFrame{fn, node});
  }

  void EmitClose(PlanStack* s, Nanoseconds t, bool forced, bool context_switch_in) {
    HWPROF_CHECK(!s->chain.empty());
    const ChainFrame frame = s->chain.back();
    s->chain.pop_back();
    Emit(OpKind::kClose, s, frame.fn, frame.node, t,
         static_cast<std::uint8_t>((forced ? kOpForced : 0) |
                                   (context_switch_in ? kOpCtxSwitchIn : 0)));
  }

  // --- Shard sealing and merge -----------------------------------------------

  ShardSnapshot CaptureSnapshot() const {
    ShardSnapshot snap;
    snap.last_time = last_time_;
    snap.current = current_->id;
    for (const auto& s : stacks_) {
      if (!s->chain.empty()) {
        snap.chains.emplace_back(s->id, s->chain);
      }
    }
    return snap;
  }

  // Hands the ops planned since the last seal to replay. A capture's first
  // shard waits unstarted: once planning seals a second one with input
  // still to come, both go to the replay pool, and so does every later
  // shard, so replay overlaps planning. If a merge comes first, the calling
  // thread, which would otherwise only wait, replays what has not started.
  // A capture under about two shard targets therefore never uses a thread.
  void SealShard(bool planning_continues) {
    if (!ops_.empty()) {
      auto task = std::make_shared<ShardTask>();
      task->ops = std::move(ops_);
      ops_.clear();
      ops_.reserve(opts_.shard_target_ops + opts_.shard_target_ops / 4);
      task->snap = std::move(shard_start_snap_);
      shard_start_snap_ = CaptureSnapshot();
      results_.push_back(std::make_unique<ShardResult>());
      OBS_COUNT("parallel.shards", 1);
      OBS_COUNT("parallel.shard_ops", task->ops.size());
      unstarted_.push_back(SealedShard{std::move(task), results_.back().get()});
    }
    if (!planning_continues) {
      for (const SealedShard& shard : unstarted_) {
        ReplayShard(*shard.task, opts_.retain_structure, shard.result);
      }
      unstarted_.clear();
    } else if (pooled_ || unstarted_.size() >= 2) {
      pooled_ = true;
      for (SealedShard& shard : unstarted_) {
        ReplayOnPool(std::move(shard));
      }
      unstarted_.clear();
    }
  }

  void ReplayOnPool(SealedShard shard) {
    auto done = std::make_shared<std::promise<void>>();
    replays_.push_back(done->get_future());
    OBS_GAUGE_ADD("parallel.queue_depth", 1);
    ReplayPool().Submit([shard = std::move(shard), retain = opts_.retain_structure, done] {
      ReplayShard(*shard.task, retain, shard.result);
      OBS_GAUGE_ADD("parallel.queue_depth", -1);
      done->set_value();
    });
  }

  // Waits for every sealed shard and merges them, in order, into out_.
  void MergeSealed() {
    for (const std::future<void>& replay : replays_) {
      replay.wait();
    }
    replays_.clear();
    OBS_SCOPED_SPAN("parallel.merge");
    for (std::size_t i = out_.stacks.size(); i < stacks_.size(); ++i) {
      auto stack = std::make_unique<ActivityStack>();
      stack->id = static_cast<int>(i);
      stack->root = std::make_unique<CallNode>();
      stack->top = stack->root.get();
      out_.stacks.push_back(std::move(stack));
    }
    // Steps are the bulk of a retained trace: grow once, not per shard.
    std::size_t steps = out_.steps.size();
    for (const auto& result : results_) {
      steps += result->steps.size();
    }
    if (steps > out_.steps.capacity()) {
      out_.steps.reserve(std::max(steps, 2 * out_.steps.capacity()));
    }
    for (const auto& result : results_) {
      MergeShard(*result);
    }
    results_.clear();
  }

  void MergeShard(ShardResult& r) {
    for (const auto& [sid, node] : r.top_level) {
      Adopt(out_.stacks[static_cast<std::size_t>(sid)]->root.get(), node);
    }
    // Calls opened under a carried call follow the children it gained in
    // earlier shards.
    for (const auto& [id, node] : r.orphans) {
      Adopt(open_nodes_.at(id).node, node);
    }
    for (const auto& [index, id] : r.carried_steps) {
      r.steps[index].node = open_nodes_.at(id).node;
    }
    for (const CarriedTotals& part : r.carried) {
      auto it = open_nodes_.find(part.id);
      HWPROF_CHECK(it != open_nodes_.end());
      OpenCall& call = it->second;
      call.net += part.net;
      call.elapsed += part.elapsed;
      if (part.closed) {
        if (call.node != nullptr) {
          CloseNode(call.node, part.exit_time, part.forced, call.net, call.elapsed);
        }
        FoldCall(call.fn, call.net, call.elapsed, &out_.per_function, &out_.idle_time);
        open_nodes_.erase(it);
      }
    }
    for (const auto& [id, call] : r.open_at_end) {
      open_nodes_.emplace(id, call);
    }
    out_.steps.insert(out_.steps.end(), r.steps.begin(), r.steps.end());
    CombineStats(r.per_function, &out_.per_function);
    out_.idle_time += r.idle;
    if (!r.block.empty()) {
      out_.arena.push_back(std::move(r.block));
    }
  }

  const TagFile& names_;
  const UsecTimer timer_;
  StreamingOptions opts_;

  DecodedTrace out_;  // header, anomaly counters, merged trees and stats
  // Pending window: time-reconstructed events not yet planned.
  // events_[0, head_) are done (kept until compaction); the rest wait.
  std::vector<DecodedEvent> events_;
  std::size_t head_ = 0;
  std::uint64_t known_events_ = 0;
  bool have_prev_ = false;
  std::uint32_t prev_ = 0;
  Nanoseconds now_ = 0;
  Nanoseconds last_time_ = 0;

  std::vector<std::unique_ptr<PlanStack>> stacks_;
  PlanStack* current_ = nullptr;
  PlanStack* pending_swtch_ = nullptr;
  std::vector<PlanStack*> suspend_order_;
  // By TagEntry::index: functions seen entering at least once. Orphan exits
  // of anything else are preopen (the capture began inside the call).
  std::vector<bool> entered_;
  Nanoseconds envelope_ = 0;  // host wall-clock capture duration; 0 = none
  bool block_boundary_ = false;
  bool finished_ = false;

  std::uint32_t next_node_id_ = 0;
  std::vector<ShardOp> ops_;
  ShardSnapshot shard_start_snap_;
  std::vector<SealedShard> unstarted_;  // sealed, replay not started
  bool pooled_ = false;                 // this decode has used the pool
  std::vector<std::future<void>> replays_;  // pooled replays not yet merged
  std::deque<std::unique_ptr<ShardResult>> results_;  // sealed, not merged
  // Merged calls still open at the last merged cut, by global id.
  std::unordered_map<std::uint32_t, OpenCall> open_nodes_;
};

StreamingDecoder::StreamingDecoder(const TagFile& names, unsigned timer_bits,
                                   std::uint64_t timer_clock_hz, StreamingOptions options)
    : engine_(std::make_unique<DecodeEngine>(names, timer_bits, timer_clock_hz, options)) {}

StreamingDecoder::~StreamingDecoder() = default;

void RecordDecodeTelemetry(const DecodedTrace& decoded) {
  OBS_COUNT("decode.finishes", 1);
  OBS_COUNT("decode.anomaly.corrupt_words", decoded.corrupt_words);
  OBS_COUNT("decode.anomaly.impossible_deltas", decoded.impossible_deltas);
  OBS_COUNT("decode.anomaly.wrap_ambiguous_gaps", decoded.wrap_ambiguous_gaps);
  OBS_COUNT("decode.anomaly.unknown_tags", decoded.unknown_tags);
  OBS_COUNT("decode.anomaly.orphan_exits", decoded.orphan_exits);
  OBS_COUNT("decode.anomaly.unclosed_entries", decoded.MidTraceUnclosedEntries());
  OBS_COUNT("decode.anomaly.dropped_events", decoded.dropped_events);
  OBS_COUNT("decode.anomaly.capture_gaps", decoded.capture_gaps);
  OBS_COUNT("decode.anomaly.unaccounted_ns", decoded.unaccounted_time);
}

void StreamingDecoder::Feed(const RawEvent* events, std::size_t count) {
  OBS_SCOPED_SPAN("decode.chunk");
  OBS_COUNT("decode.chunks", 1);
  OBS_COUNT("decode.events", count);
  engine_->FeedWith(count, [events](std::size_t k) { return events[k]; });
}

void StreamingDecoder::Feed(const std::vector<RawEvent>& events) {
  Feed(events.data(), events.size());
}

void StreamingDecoder::FeedSoA(const std::uint16_t* tags,
                               const std::uint32_t* timestamps,
                               std::size_t count) {
  OBS_SCOPED_SPAN("decode.chunk");
  OBS_COUNT("decode.chunks", 1);
  OBS_COUNT("decode.events", count);
  engine_->FeedWith(count, [tags, timestamps](std::size_t k) {
    return RawEvent{tags[k], timestamps[k]};
  });
}

void StreamingDecoder::FeedChunk(const TraceChunk& chunk) {
  engine_->NoteDropped(chunk.dropped_before);
  Feed(chunk.events.data(), chunk.events.size());
}

void StreamingDecoder::NoteDropped(std::uint64_t count) { engine_->NoteDropped(count); }

void StreamingDecoder::NoteCorruptWords(std::uint64_t count) {
  engine_->NoteCorruptWords(count);
}

void StreamingDecoder::SetClockEnvelope(Nanoseconds capture_elapsed) {
  engine_->SetClockEnvelope(capture_elapsed);
}

std::uint64_t StreamingDecoder::events_seen() const { return engine_->events_seen(); }

std::uint64_t StreamingDecoder::dropped_events() const { return engine_->dropped_events(); }

std::size_t StreamingDecoder::pending() const { return engine_->pending(); }

DecodedTrace StreamingDecoder::SnapshotStats() const { return engine_->SnapshotStats(); }

DecodedTrace StreamingDecoder::Finish(bool truncated) {
  OBS_SCOPED_SPAN("decode.finish");
  DecodedTrace decoded = engine_->Finish(truncated);
  RecordDecodeTelemetry(decoded);
  return decoded;
}

DecodedTrace Decoder::Decode(const RawTrace& raw, const TagFile& names) {
  StreamingDecoder decoder(names, raw.timer_bits, raw.timer_clock_hz,
                           StreamingOptions{.retain_structure = true});
  // Board-side accounting travels with the capture: drain-race drops and the
  // host wall-clock envelope (both 0 on traces that never recorded them).
  decoder.NoteDropped(raw.dropped_events);
  decoder.SetClockEnvelope(raw.capture_elapsed_ns);
  decoder.Feed(raw.events);
  return decoder.Finish(raw.overflowed);
}

CaptureDecode DecodeCaptureBytes(std::string_view bytes, const TagFile& names,
                                 bool salvage, StreamingOptions options) {
  CaptureDecode out;
  SniffCapture(bytes, &out.shape);
  // The header policy, once for every shape: a capture header's board drops
  // and clock envelope open the decode (a stream's drops travel per chunk
  // and are noted where they fall), the parse layer's corrupt words are
  // charged, and Finish gets the overflow flag or the stream's torn tail.
  std::optional<StreamingDecoder> decoder;
  auto open = [&](unsigned timer_bits, std::uint64_t timer_clock_hz,
                  std::uint64_t dropped_events, std::uint64_t capture_elapsed_ns) {
    decoder.emplace(names, timer_bits, timer_clock_hz, options);
    decoder->NoteDropped(dropped_events);
    decoder->SetClockEnvelope(capture_elapsed_ns);
  };
  std::uint64_t corrupt_words = 0;
  bool truncated = false;
  if (out.shape.format == CaptureFormat::kBinary) {
    BinaryChunkReader reader(bytes, salvage);
    if (reader.header_ok()) {
      const bool capture = reader.kind() == BinaryKind::kCapture;
      open(reader.timer_bits(), reader.timer_clock_hz(),
           capture ? reader.dropped_events() : 0,
           capture ? reader.capture_elapsed_ns() : 0);
      SoaChunk chunk;
      while (reader.Next(&chunk)) {
        decoder->NoteDropped(chunk.dropped_before);
        decoder->FeedSoA(chunk.tags.data(), chunk.timestamps.data(), chunk.tags.size());
      }
      corrupt_words = reader.corrupt_words();
      truncated = capture ? reader.overflowed() : reader.truncated_tail();
    }
    out.ok = reader.header_ok() && !reader.failed();
    out.diags = reader.diags();
  } else if (out.shape.is_stream) {
    StreamCapture stream;
    out.ok = ParseStreamText(bytes, &stream, &out.diags, salvage, &corrupt_words);
    if (out.ok) {
      open(stream.timer_bits, stream.timer_clock_hz, 0, 0);
      for (const TraceChunk& chunk : stream.chunks) {
        decoder->FeedChunk(chunk);
      }
      truncated = stream.truncated_tail;
    }
  } else {
    RawTrace raw;
    out.ok = salvage ? RawTrace::DeserializeSalvage(bytes, &raw, &out.diags, &corrupt_words)
                     : RawTrace::Deserialize(bytes, &raw, &out.diags);
    if (out.ok) {
      open(raw.timer_bits, raw.timer_clock_hz, raw.dropped_events, raw.capture_elapsed_ns);
      decoder->Feed(raw.events);
      truncated = raw.overflowed;
    }
  }
  if (out.ok) {
    decoder->NoteCorruptWords(corrupt_words);
    out.trace = decoder->Finish(truncated);
  }
  return out;
}

CaptureDecode DecodeCaptureFile(const std::string& path, const TagFile& names,
                                bool salvage, StreamingOptions options) {
  MappedFile file;
  CaptureDecode out;
  if (!MapCaptureFile(path, &file, &out.diags)) {
    return out;
  }
  return DecodeCaptureBytes(file.view(), names, salvage, options);
}

}  // namespace hwprof
