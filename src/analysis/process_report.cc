#include "src/analysis/process_report.h"

#include <algorithm>
#include <utility>

#include "src/base/text_writer.h"

namespace hwprof {

ProcessReport::ProcessReport(const DecodedTrace& trace) {
  // One context's net time per function, by TagEntry::index, and the
  // functions it is nonzero for.
  std::vector<Nanoseconds> per_fn(trace.per_function.size());
  std::vector<const TagEntry*> touched;
  for (const auto& stack : trace.stacks) {
    ProcessRow row;
    row.stack_id = stack->id;
    WalkTree(*stack->root, [&](const CallNode& node) {
      if (node.fn == nullptr || node.inline_marker) {
        return;
      }
      ++row.calls;
      if (node.fn->kind == TagKind::kContextSwitch) {
        row.idle_hosted += node.Net();
        return;
      }
      row.busy += node.Net();
      Nanoseconds& net = per_fn[node.fn->index];
      if (net == 0 && node.Net() > 0) {
        touched.push_back(node.fn);
      }
      net += node.Net();
    });
    // The heaviest function; equal nets go to the first name.
    for (const TagEntry* fn : touched) {
      const Nanoseconds net = std::exchange(per_fn[fn->index], 0);
      if (net > row.top_net || (net == row.top_net && fn->name < row.top_function)) {
        row.top_net = net;
        row.top_function = fn->name;
      }
    }
    touched.clear();
    if (row.calls > 0) {
      rows_.push_back(std::move(row));
    }
  }
  std::sort(rows_.begin(), rows_.end(), [](const ProcessRow& a, const ProcessRow& b) {
    return a.busy != b.busy ? a.busy > b.busy : a.stack_id < b.stack_id;
  });
}

Nanoseconds ProcessReport::TotalBusy() const {
  Nanoseconds total = 0;
  for (const ProcessRow& row : rows_) {
    total += row.busy;
  }
  return total;
}

std::string ProcessReport::Format(const DecodedTrace& trace) const {
  std::size_t bytes = 160;
  for (const ProcessRow& row : rows_) {
    bytes += row.top_function.size() + 72;
  }
  TextWriter w(bytes);
  const double run_us = static_cast<double>(ToWholeUsec(trace.RunTime()));
  w.Append("  context   busy us  % of run   calls   idle-hosted us   top function\n");
  for (const ProcessRow& row : rows_) {
    const std::uint64_t busy_us = ToWholeUsec(row.busy);
    w.Append("  #");
    const std::size_t id = w.size();
    w.Int(row.stack_id);
    w.AlignLeft(id, 6);
    w.Append(' ').Uint(busy_us, 9).Append(' ');
    w.Fixed2(run_us > 0 ? 100.0 * static_cast<double>(busy_us) / run_us : 0.0, 8);
    w.Append("% ").Uint(row.calls, 8).Append(' ').Uint(ToWholeUsec(row.idle_hosted), 15);
    w.Append("   ").Append(row.top_function).Append(" (").Uint(ToWholeUsec(row.top_net));
    w.Append(" us)\n");
  }
  if (trace.HasAnomalies()) {
    w.Append("  capture anomalies: ");
    bool first = true;
    auto item = [&](const char* label, std::uint64_t n) {
      if (n > 0) {
        w.Append(first ? "" : ", ").Uint(n).Append(' ').Append(label);
        first = false;
      }
    };
    item("corrupt words", trace.corrupt_words);
    item("impossible deltas", trace.impossible_deltas);
    item("wrap-ambiguous gaps", trace.wrap_ambiguous_gaps);
    item("unknown tags", trace.unknown_tags);
    item("orphan exits", trace.orphan_exits);
    item("dropped events", trace.dropped_events);
    item("mid-trace unclosed", trace.MidTraceUnclosedEntries());
    w.Append('\n');
  }
  return w.Take();
}

}  // namespace hwprof
