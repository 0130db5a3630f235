// Test-only differential oracle: the original single-threaded decoder,
// trimmed to its one-shot path (buffer every event, then decode the whole
// trace in one pass with the end of the buffer as the end of the trace).
// It builds call trees directly — no op script, shards or merge — so it is
// an independent second implementation of the same decisions. Every
// fingerprint suite compares StreamingDecoder / Decoder::Decode against it.
//
// Lifetime: `names` must outlive the decoder and the DecodedTrace it emits.

#ifndef HWPROF_TESTS_REFERENCE_DECODER_H_
#define HWPROF_TESTS_REFERENCE_DECODER_H_

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/base/assert.h"
#include "src/profhw/usec_timer.h"

namespace hwprof {

class ReferenceDecoder {
 public:
  explicit ReferenceDecoder(const TagFile& names, unsigned timer_bits = 24,
                            std::uint64_t timer_clock_hz = 1'000'000)
      : names_(names), timer_(timer_bits, timer_clock_hz) {
    current_ = NewStack();
  }

  void Feed(const RawEvent* events, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      RawEvent e = events[k];
      if (e.timestamp > timer_.Mask()) {
        e.timestamp &= timer_.Mask();
        ++out_.impossible_deltas;
      }
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
      Event ev;
      ev.t = now_;
      ev.entry = entry;
      ev.is_exit = entry->IsFunctionLike() && e.tag == entry->exit_tag();
      if (events_.empty()) {
        out_.start_time = now_;
        last_time_ = now_;
      }
      out_.end_time = now_;
      events_.push_back(ev);
    }
  }
  void Feed(const std::vector<RawEvent>& events) { Feed(events.data(), events.size()); }

  void NoteDropped(std::uint64_t count) {
    if (count > 0) {
      out_.dropped_events += count;
      ++out_.capture_gaps;
    }
  }
  void NoteCorruptWords(std::uint64_t count) { out_.corrupt_words += count; }
  void SetClockEnvelope(Nanoseconds capture_elapsed) { envelope_ = capture_elapsed; }

  DecodedTrace Finish(bool truncated) {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      AttributeInterval(events_[i].t);
      StepEvent(events_[i], i);
    }
    FinishOpenNodes();
    for (const auto& stack : out_.stacks) {
      Accumulate(*stack->root);
    }
    out_.truncated = truncated;
    out_.event_count = events_.size();
    if (envelope_ > 0 && !events_.empty()) {
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
  struct Event {
    Nanoseconds t = 0;
    const TagEntry* entry = nullptr;
    bool is_exit = false;
  };

  void StepEvent(const Event& ev, std::size_t index) {
    const TagEntry* fn = ev.entry;
    if (fn->kind == TagKind::kInline) {
      OpenNode(current_, fn, ev.t, /*inline_marker=*/true);
      return;
    }
    if (!ev.is_exit) {
      entered_.insert(fn);
      OpenNode(current_, fn, ev.t, /*inline_marker=*/false);
      if (fn->kind == TagKind::kContextSwitch) {
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

  ActivityStack* NewStack() {
    auto stack = std::make_unique<ActivityStack>();
    stack->id = static_cast<int>(out_.stacks.size());
    stack->root = std::make_unique<CallNode>();
    stack->top = stack->root.get();
    ActivityStack* s = stack.get();
    out_.stacks.push_back(std::move(stack));
    return s;
  }

  static int DepthOf(const CallNode* node) {
    int depth = 0;
    for (const CallNode* p = node->parent; p != nullptr && p->parent != nullptr;
         p = p->parent) {
      ++depth;
    }
    return depth;
  }

  void OpenNode(ActivityStack* stack, const TagEntry* fn, Nanoseconds t,
                bool inline_marker) {
    auto node = std::make_unique<CallNode>();
    node->fn = fn;
    node->entry_time = t;
    node->exit_time = t;
    node->inline_marker = inline_marker;
    node->closed = inline_marker;
    node->parent = stack->top;
    CallNode* raw = node.get();
    stack->top->children.push_back(std::move(node));
    if (!inline_marker) {
      stack->top = raw;
    }
    TraceStep step;
    step.t = t;
    step.node = raw;
    step.depth = DepthOf(raw);
    step.stack_id = stack->id;
    out_.steps.push_back(step);
  }

  void CloseTop(ActivityStack* stack, Nanoseconds t, bool forced, bool context_switch_in) {
    CallNode* node = stack->top;
    HWPROF_CHECK(node->parent != nullptr);
    node->exit_time = t;
    node->closed = true;
    node->forced_close = forced;
    stack->top = node->parent;
    TraceStep step;
    step.t = t;
    step.node = node;
    step.is_exit = true;
    step.depth = DepthOf(node);
    step.stack_id = stack->id;
    step.context_switch_in = context_switch_in;
    out_.steps.push_back(step);
  }

  int MatchScore(const ActivityStack* s, std::size_t from) const {
    std::vector<const TagEntry*> chain;
    for (const CallNode* n = s->top; n != nullptr && n->parent != nullptr; n = n->parent) {
      chain.push_back(n->fn);
    }
    if (chain.empty()) {
      return -1;
    }
    std::size_t ci = 0;
    int depth = 0;
    int score = 0;
    for (std::size_t j = from; j < events_.size() && ci < chain.size(); ++j) {
      const Event& e = events_[j];
      if (e.entry->kind == TagKind::kInline) {
        continue;
      }
      if (e.entry->kind == TagKind::kContextSwitch) {
        break;
      }
      if (!e.is_exit) {
        ++depth;
        continue;
      }
      if (depth > 0) {
        --depth;
        continue;
      }
      if (e.entry != chain[ci]) {
        break;
      }
      ++score;
      ++ci;
    }
    return score;
  }

  ActivityStack* BestSuspendedMatch(std::size_t from, const TagEntry* require_top) {
    ActivityStack* best = nullptr;
    int best_score = 0;
    for (auto it = suspend_order_.rbegin(); it != suspend_order_.rend(); ++it) {
      ActivityStack* s = *it;
      if (require_top != nullptr && s->top->fn != require_top) {
        continue;
      }
      const int score = MatchScore(s, from);
      if (score > best_score) {
        best = s;
        best_score = score;
      }
    }
    return best;
  }

  void Unsuspend(ActivityStack* s) {
    s->suspended = false;
    suspend_order_.erase(std::remove(suspend_order_.begin(), suspend_order_.end(), s),
                         suspend_order_.end());
  }

  void HandleSwtchExit(const Event& ev, std::size_t index) {
    if (pending_swtch_ != nullptr && pending_swtch_->top->fn != nullptr &&
        pending_swtch_->top->fn->kind == TagKind::kContextSwitch) {
      ActivityStack* outgoing = pending_swtch_;
      pending_swtch_ = nullptr;
      CloseTop(outgoing, ev.t, /*forced=*/false, /*context_switch_in=*/true);
    } else {
      NoteOrphanExit(ev.entry);
    }
    current_ = ResolveResumed(index);
  }

  ActivityStack* ResolveResumed(std::size_t swtch_index) {
    if (ActivityStack* s = BestSuspendedMatch(swtch_index + 1, nullptr)) {
      Unsuspend(s);
      return s;
    }
    return NewStack();
  }

  void HandleExit(const Event& ev, std::size_t index) {
    if (current_->top->fn != nullptr && current_->top->fn->name == ev.entry->name) {
      CloseTop(current_, ev.t, /*forced=*/false, /*context_switch_in=*/false);
      return;
    }
    for (CallNode* n = current_->top; n != nullptr && n->parent != nullptr; n = n->parent) {
      if (n->fn->name == ev.entry->name) {
        while (current_->top != n) {
          ++out_.unclosed_entry_counts[current_->top->fn->name];
          ++out_.unclosed_entries;
          CloseTop(current_, ev.t, /*forced=*/true, /*context_switch_in=*/false);
        }
        CloseTop(current_, ev.t, /*forced=*/false, /*context_switch_in=*/false);
        return;
      }
    }
    if (ActivityStack* s = BestSuspendedMatch(index, ev.entry)) {
      Unsuspend(s);
      current_ = s;
      CloseTop(current_, ev.t, /*forced=*/false, /*context_switch_in=*/true);
      return;
    }
    NoteOrphanExit(ev.entry);
  }

  void NoteOrphanExit(const TagEntry* fn) {
    ++out_.orphan_exits;
    ++out_.orphan_exit_counts[fn->name];
    if (entered_.count(fn) == 0) {
      ++out_.preopen_exit_counts[fn->name];
    }
  }

  void AttributeInterval(Nanoseconds now) {
    const Nanoseconds interval = now - last_time_;
    last_time_ = now;
    CallNode* top = current_->top;
    if (interval == 0 || top->parent == nullptr) {
      return;
    }
    top->net_acc += interval;
    for (CallNode* n = top; n->parent != nullptr; n = n->parent) {
      n->elapsed_acc += interval;
    }
  }

  void FinishOpenNodes() {
    for (const auto& stack : out_.stacks) {
      while (stack->top != stack->root.get()) {
        CallNode* node = stack->top;
        node->exit_time = out_.end_time;
        node->closed = true;
        node->forced_close = true;
        stack->top = node->parent;
        ++out_.unclosed_entries;
        ++out_.unclosed_entry_counts[node->fn->name];
        ++out_.truncated_entry_counts[node->fn->name];
      }
    }
  }

  void Accumulate(const CallNode& node) {
    if (node.fn != nullptr && !node.inline_marker) {
      FuncStats& stats = out_.per_function[node.fn->name];
      const Nanoseconds net = node.Net();
      if (stats.calls == 0) {
        stats.min_net = net;
        stats.max_net = net;
      } else {
        stats.min_net = std::min(stats.min_net, net);
        stats.max_net = std::max(stats.max_net, net);
      }
      ++stats.calls;
      stats.elapsed += node.Elapsed();
      stats.net += net;
      if (node.fn->kind == TagKind::kContextSwitch) {
        stats.context_switch = true;
        out_.idle_time += net;
      }
    }
    for (const auto& child : node.children) {
      Accumulate(*child);
    }
  }

  const TagFile& names_;
  const UsecTimer timer_;
  DecodedTrace out_;
  std::vector<Event> events_;
  bool have_prev_ = false;
  std::uint32_t prev_ = 0;
  Nanoseconds now_ = 0;
  Nanoseconds last_time_ = 0;
  ActivityStack* current_ = nullptr;
  ActivityStack* pending_swtch_ = nullptr;
  std::vector<ActivityStack*> suspend_order_;
  std::unordered_set<const TagEntry*> entered_;
  Nanoseconds envelope_ = 0;
};

// The oracle's answer for a whole capture, with the batch wrappers' board-
// side accounting and an optional salvage corrupt-word count.
inline DecodedTrace ReferenceDecode(const RawTrace& raw, const TagFile& names,
                                    std::uint64_t corrupt_words = 0) {
  ReferenceDecoder decoder(names, raw.timer_bits, raw.timer_clock_hz);
  decoder.NoteCorruptWords(corrupt_words);
  decoder.NoteDropped(raw.dropped_events);
  decoder.SetClockEnvelope(raw.capture_elapsed_ns);
  decoder.Feed(raw.events);
  return decoder.Finish(raw.overflowed);
}

}  // namespace hwprof

#endif  // HWPROF_TESTS_REFERENCE_DECODER_H_
