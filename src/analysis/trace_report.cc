#include "src/analysis/trace_report.h"

#include "src/base/text_writer.h"

namespace hwprof {
namespace {

// Bytes of one line beyond its indent and name: stamp, arrow, the two
// times and the " [truncated]" flag at capture-scale values.
constexpr std::size_t kLineBytes = 32;

// "S:MMM UUU": seconds, milliseconds and microseconds of `t`.
void WriteStamp(Nanoseconds t, TextWriter* w) {
  const std::uint64_t us = ToWholeUsec(t);
  w->Uint(us / 1000000).Append(':').ZeroPadded((us / 1000) % 1000, 3);
  w->Append(' ').ZeroPadded(us % 1000, 3);
}

// " (N us)" or " (N us, M total)", then the line's end.
void WriteTimes(const CallNode& node, bool with_total, const char* tail, TextWriter* w) {
  w->Append(" (").Uint(ToWholeUsec(node.Net())).Append(" us");
  if (with_total) {
    w->Append(", ").Uint(ToWholeUsec(node.Elapsed())).Append(" total");
  }
  w->Append(')').Append(tail).Append('\n');
}

std::size_t EstimateBytes(const DecodedTrace& trace, const TraceReportOptions& options) {
  std::size_t bytes = 16;
  std::size_t lines = 0;
  for (const TraceStep& step : trace.steps) {
    if (step.is_exit && !step.node->HasChildren() && !step.context_switch_in) {
      continue;  // a leaf's exit prints no line
    }
    if (options.max_lines != 0 && lines++ >= options.max_lines) {
      break;
    }
    bytes += static_cast<std::size_t>(step.depth * options.indent_width) +
             step.node->fn->name.size() + kLineBytes;
  }
  return bytes;
}

}  // namespace

std::string TraceReport::Format(const DecodedTrace& trace, TraceReportOptions options) {
  TextWriter w(EstimateBytes(trace, options));
  std::size_t lines = 0;
  for (const TraceStep& step : trace.steps) {
    if (options.max_lines != 0 && lines >= options.max_lines) {
      w.Append("...\n");
      break;
    }
    const CallNode* node = step.node;
    const Nanoseconds rel = step.t - trace.start_time;
    const auto indent = static_cast<std::size_t>(step.depth * options.indent_width);

    if (step.is_exit && step.context_switch_in) {
      WriteStamp(rel, &w);
      w.Append(" <-  ---- Context switch in ----\n");
      ++lines;
      if (options.max_lines != 0 && lines >= options.max_lines) {
        w.Append("...\n");
        break;
      }
    }

    if (node->inline_marker) {
      WriteStamp(rel, &w);
      w.Append(' ').Spaces(indent).Append("== ").Append(node->fn->name).Append('\n');
      ++lines;
      continue;
    }

    if (!step.is_exit) {
      WriteStamp(rel, &w);
      w.Append(' ').Spaces(indent).Append("-> ").Append(node->fn->name);
      WriteTimes(*node, node->HasChildren(), "", &w);
      ++lines;
      continue;
    }

    // Exit lines: only for calls with subroutines (the entry line already
    // carries the times of leaf calls), or when crossing a context switch.
    if (options.show_exits && (node->HasChildren() || step.context_switch_in)) {
      WriteStamp(rel, &w);
      w.Append(' ').Spaces(indent).Append("<- ").Append(node->fn->name);
      WriteTimes(*node, true, node->forced_close ? " [truncated]" : "", &w);
      ++lines;
    }
  }
  return w.Take();
}

}  // namespace hwprof
