#include "src/analysis/trace_report.h"

#include "src/base/strings.h"

namespace hwprof {
namespace {

std::string FormatStamp(Nanoseconds t) {
  const std::uint64_t us = ToWholeUsec(t);
  return StrFormat("%llu:%03llu %03llu", static_cast<unsigned long long>(us / 1000000),
                   static_cast<unsigned long long>((us / 1000) % 1000),
                   static_cast<unsigned long long>(us % 1000));
}

}  // namespace

std::string TraceReport::Format(const DecodedTrace& trace, TraceReportOptions options) {
  std::string out;
  std::size_t lines = 0;
  for (const TraceStep& step : trace.steps) {
    if (options.max_lines != 0 && lines >= options.max_lines) {
      out += "...\n";
      break;
    }
    const CallNode* node = step.node;
    const Nanoseconds rel = step.t - trace.start_time;
    const std::string indent(static_cast<std::size_t>(step.depth * options.indent_width), ' ');

    if (step.is_exit && step.context_switch_in) {
      out += StrFormat("%s <-  ---- Context switch in ----\n", FormatStamp(rel).c_str());
      ++lines;
      if (options.max_lines != 0 && lines >= options.max_lines) {
        out += "...\n";
        break;
      }
    }

    if (node->inline_marker) {
      out += StrFormat("%s %s== %s\n", FormatStamp(rel).c_str(), indent.c_str(),
                       node->fn->name.c_str());
      ++lines;
      continue;
    }

    if (!step.is_exit) {
      const std::uint64_t net_us = ToWholeUsec(node->Net());
      const std::uint64_t total_us = ToWholeUsec(node->Elapsed());
      if (!node->HasChildren()) {
        out += StrFormat("%s %s-> %s (%llu us)\n", FormatStamp(rel).c_str(), indent.c_str(),
                         node->fn->name.c_str(), static_cast<unsigned long long>(net_us));
      } else {
        out += StrFormat("%s %s-> %s (%llu us, %llu total)\n", FormatStamp(rel).c_str(),
                         indent.c_str(), node->fn->name.c_str(),
                         static_cast<unsigned long long>(net_us),
                         static_cast<unsigned long long>(total_us));
      }
      ++lines;
      continue;
    }

    // Exit lines: only for calls with subroutines (the entry line already
    // carries the times of leaf calls), or when crossing a context switch.
    if (options.show_exits && (node->HasChildren() || step.context_switch_in)) {
      const std::uint64_t net_us = ToWholeUsec(node->Net());
      const std::uint64_t total_us = ToWholeUsec(node->Elapsed());
      out += StrFormat("%s %s<- %s (%llu us, %llu total)%s\n", FormatStamp(rel).c_str(),
                       indent.c_str(), node->fn->name.c_str(),
                       static_cast<unsigned long long>(net_us),
                       static_cast<unsigned long long>(total_us),
                       node->forced_close ? " [truncated]" : "");
      ++lines;
    }
  }
  return out;
}

}  // namespace hwprof
