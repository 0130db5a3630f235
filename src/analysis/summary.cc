#include "src/analysis/summary.h"

#include <algorithm>

#include "src/base/text_writer.h"

namespace hwprof {

Summary::Summary(const DecodedTrace& trace) {
  elapsed_us_ = ToWholeUsec(trace.ElapsedTotal());
  idle_us_ = ToWholeUsec(trace.idle_time);
  run_us_ = elapsed_us_ > idle_us_ ? elapsed_us_ - idle_us_ : 0;
  tag_count_ = trace.event_count;

  has_anomalies_ = trace.HasAnomalies();
  corrupt_words_ = trace.corrupt_words;
  impossible_deltas_ = trace.impossible_deltas;
  wrap_ambiguous_gaps_ = trace.wrap_ambiguous_gaps;
  unaccounted_us_ = ToWholeUsec(trace.unaccounted_time);
  unknown_tags_ = trace.unknown_tags;
  orphan_exits_ = trace.orphan_exits;
  dropped_events_ = trace.dropped_events;
  mid_trace_unclosed_ = trace.MidTraceUnclosedEntries();

  trace.ForEachFunction([&](const TagEntry& fn, const FuncStats& stats) {
    if (fn.kind == TagKind::kContextSwitch) {
      // swtch's net time *is* the idle account in the header; listing it as
      // a row (as a share of non-idle time!) would be nonsense. The paper's
      // Figure 3 likewise omits it.
      return;
    }
    SummaryRow row;
    row.name = fn.name;
    row.elapsed_us = ToWholeUsec(stats.elapsed);
    row.net_us = ToWholeUsec(stats.net);
    row.calls = stats.calls;
    row.max_us = ToWholeUsec(stats.max_net);
    row.avg_us = ToWholeUsec(stats.AvgNet());
    row.min_us = ToWholeUsec(stats.min_net);
    row.pct_real = elapsed_us_ > 0
                       ? 100.0 * static_cast<double>(row.net_us) /
                             static_cast<double>(elapsed_us_)
                       : 0.0;
    row.pct_net = run_us_ > 0 ? 100.0 * static_cast<double>(row.net_us) /
                                    static_cast<double>(run_us_)
                              : 0.0;
    rows_.push_back(std::move(row));
  });
  std::sort(rows_.begin(), rows_.end(), [](const SummaryRow& a, const SummaryRow& b) {
    return a.net_us != b.net_us ? a.net_us > b.net_us : a.name < b.name;
  });
}

const SummaryRow* Summary::Row(const std::string& name) const {
  for (const SummaryRow& row : rows_) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

namespace {

constexpr std::string_view kRule =
    "--------------------------------------------------------------------------\n";

// "<label> = S sec U us (" for one header line.
void WriteSecUs(std::string_view label, std::uint64_t us, TextWriter* w) {
  w->Append(label).Append(" = ").Uint(us / 1000000).Append(" sec ");
  w->Uint(us % 1000000).Append(" us (");
}

}  // namespace

std::string Summary::Format(std::size_t top_n) const {
  const std::size_t shown = top_n != 0 && top_n < rows_.size() ? top_n : rows_.size();
  std::size_t bytes = 512;
  for (std::size_t i = 0; i < shown; ++i) {
    bytes += rows_[i].name.size() + 72;
  }
  TextWriter w(bytes);
  const double run_pct =
      elapsed_us_ > 0
          ? 100.0 * static_cast<double>(run_us_) / static_cast<double>(elapsed_us_)
          : 0.0;
  const double idle_pct =
      elapsed_us_ > 0
          ? 100.0 * static_cast<double>(idle_us_) / static_cast<double>(elapsed_us_)
          : 0.0;
  WriteSecUs("Elapsed time", elapsed_us_, &w);
  w.Uint(tag_count_).Append(" tags)\n");
  WriteSecUs("Accumulated run time", run_us_, &w);
  w.Fixed2(run_pct).Append("%)\n");
  WriteSecUs("Idle time", idle_us_, &w);
  w.Fixed2(idle_pct, 5).Append("%)\n");
  w.Append(kRule);
  w.Append("  Elapsed     Net  # calls     (max/avg/min)    % real   % net\n");
  for (std::size_t i = 0; i < shown; ++i) {
    const SummaryRow& row = rows_[i];
    w.Uint(row.elapsed_us, 9).Append(' ').Uint(row.net_us, 7).Append(' ');
    w.Uint(row.calls, 8).Append(' ');
    const std::size_t field = w.size();
    w.Append('(').Uint(row.max_us).Append('/').Uint(row.avg_us).Append('/');
    w.Uint(row.min_us).Append(')');
    w.AlignRight(field, 17);
    w.Append("  ").Fixed2(row.pct_real, 6).Append("%  ").Fixed2(row.pct_net, 6);
    w.Append("%   ").Append(row.name).Append('\n');
  }
  if (has_anomalies_) {
    w.Append(kRule);
    w.Append("Capture anomalies (salvaged):\n");
    auto line = [&w](std::string_view label, std::uint64_t n) {
      if (n > 0) {
        w.Append("  ").Left(label, 21).Append(" = ").Uint(n).Append('\n');
      }
    };
    line("corrupt words", corrupt_words_);
    line("impossible deltas", impossible_deltas_);
    if (wrap_ambiguous_gaps_ > 0) {
      w.Append("  ").Left("wrap-ambiguous gaps", 21).Append(" = ").Uint(wrap_ambiguous_gaps_);
      w.Append(" (~").Uint(unaccounted_us_).Append(" us unaccounted)\n");
    }
    line("unknown tags", unknown_tags_);
    line("orphan exits", orphan_exits_);
    line("dropped events", dropped_events_);
    line("mid-trace unclosed", mid_trace_unclosed_);
  }
  return w.Take();
}

}  // namespace hwprof
