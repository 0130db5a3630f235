#include "src/analysis/process_report.h"

#include <algorithm>
#include <map>

#include "src/base/strings.h"

namespace hwprof {
namespace {

void Walk(const CallNode& node, Nanoseconds* busy, Nanoseconds* idle,
          std::uint64_t* calls, std::map<std::string, Nanoseconds>* per_fn) {
  for (const auto& child : node.Children()) {
    if (child->fn == nullptr) {
      continue;
    }
    if (!child->inline_marker) {
      ++*calls;
      if (child->fn->kind == TagKind::kContextSwitch) {
        *idle += child->Net();
      } else {
        *busy += child->Net();
        (*per_fn)[child->fn->name] += child->Net();
      }
    }
    Walk(*child, busy, idle, calls, per_fn);
  }
}

}  // namespace

ProcessReport::ProcessReport(const DecodedTrace& trace) {
  for (const auto& stack : trace.stacks) {
    ProcessRow row;
    row.stack_id = stack->id;
    std::map<std::string, Nanoseconds> per_fn;
    Walk(*stack->root, &row.busy, &row.idle_hosted, &row.calls, &per_fn);
    for (const auto& [name, net] : per_fn) {
      if (net > row.top_net) {
        row.top_net = net;
        row.top_function = name;
      }
    }
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
  const double run_us = static_cast<double>(ToWholeUsec(trace.RunTime()));
  std::string out =
      "  context   busy us  % of run   calls   idle-hosted us   top function\n";
  for (const ProcessRow& row : rows_) {
    out += StrFormat("  #%-6d %9llu %8.2f%% %8llu %15llu   %s (%llu us)\n", row.stack_id,
                     static_cast<unsigned long long>(ToWholeUsec(row.busy)),
                     run_us > 0 ? 100.0 * static_cast<double>(ToWholeUsec(row.busy)) / run_us
                                : 0.0,
                     static_cast<unsigned long long>(row.calls),
                     static_cast<unsigned long long>(ToWholeUsec(row.idle_hosted)),
                     row.top_function.c_str(),
                     static_cast<unsigned long long>(ToWholeUsec(row.top_net)));
  }
  if (trace.HasAnomalies()) {
    std::string items;
    auto item = [&items](const char* label, std::uint64_t n) {
      if (n > 0) {
        items += StrFormat("%s%llu %s", items.empty() ? "" : ", ",
                           static_cast<unsigned long long>(n), label);
      }
    };
    item("corrupt words", trace.corrupt_words);
    item("impossible deltas", trace.impossible_deltas);
    item("wrap-ambiguous gaps", trace.wrap_ambiguous_gaps);
    item("unknown tags", trace.unknown_tags);
    item("orphan exits", trace.orphan_exits);
    item("dropped events", trace.dropped_events);
    item("mid-trace unclosed", trace.MidTraceUnclosedEntries());
    out += StrFormat("  capture anomalies: %s\n", items.c_str());
  }
  return out;
}

}  // namespace hwprof
