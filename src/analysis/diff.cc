#include "src/analysis/diff.h"

#include <algorithm>
#include <cmath>

#include "src/analysis/callgraph.h"
#include "src/analysis/grouping.h"
#include "src/base/json.h"
#include "src/base/text_writer.h"

namespace hwprof {
namespace {

struct Side {
  std::uint64_t us = 0;
  std::uint64_t calls = 0;
};

// Accumulated (us, calls) per key for one capture; the diff is built from
// the union of both maps. std::map keeps the union deterministic.
using SideMap = std::map<std::string, Side>;

std::vector<DiffRow> BuildRows(const SideMap& a, const SideMap& b,
                               const DiffOptions& options, bool gated,
                               std::size_t* regressions,
                               std::size_t* suppressed) {
  std::vector<DiffRow> rows;
  auto ait = a.begin();
  auto bit = b.begin();
  while (ait != a.end() || bit != b.end()) {
    DiffRow row;
    if (bit == b.end() || (ait != a.end() && ait->first < bit->first)) {
      row.key = ait->first;
      row.a_us = ait->second.us;
      row.a_calls = ait->second.calls;
      row.only_a = true;
      ++ait;
    } else if (ait == a.end() || bit->first < ait->first) {
      row.key = bit->first;
      row.b_us = bit->second.us;
      row.b_calls = bit->second.calls;
      row.only_b = true;
      ++bit;
    } else {
      row.key = ait->first;
      row.a_us = ait->second.us;
      row.a_calls = ait->second.calls;
      row.b_us = bit->second.us;
      row.b_calls = bit->second.calls;
      ++ait;
      ++bit;
    }
    row.delta_us = static_cast<std::int64_t>(row.b_us) -
                   static_cast<std::int64_t>(row.a_us);
    if (row.a_us == 0 && row.b_us == 0) {
      // Both sides zero time: nothing to compare (row still renders as
      // suppressed so call-count-only changes don't gate).
      row.rel_pct = 0.0;
      row.suppressed = true;
    } else if (row.a_us == 0) {
      // New time where the baseline had none: no finite relative delta.
      // Never suppressed, a regression whenever the section gates.
      row.rel_pct = 0.0;
      row.regressed = gated;
    } else {
      row.rel_pct = 100.0 * static_cast<double>(row.delta_us) /
                    static_cast<double>(row.a_us);
      // The threshold itself is still noise; strictly above it is real.
      // A delta within the timestamp quantum per call (rows measured on
      // both sides only) is below resolution regardless of percentage.
      const double quantum_floor =
          options.quantum_us *
          static_cast<double>(std::max(row.a_calls, row.b_calls));
      row.suppressed =
          std::fabs(row.rel_pct) <= options.noise_pct ||
          (!row.only_a && !row.only_b &&
           std::fabs(static_cast<double>(row.delta_us)) <= quantum_floor);
      row.regressed = gated && !row.suppressed && row.delta_us > 0;
    }
    *regressions += row.regressed ? 1 : 0;
    *suppressed += row.suppressed ? 1 : 0;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const DiffRow& x, const DiffRow& y) {
    return x.delta_us != y.delta_us ? x.delta_us > y.delta_us : x.key < y.key;
  });
  return rows;
}

// The two sides join by name: their captures may use different names files.
SideMap FunctionSide(const DecodedTrace& trace) {
  SideMap out;
  trace.ForEachFunction([&out](const TagEntry& fn, const FuncStats& stats) {
    if (fn.kind == TagKind::kContextSwitch) {
      return;  // idle account; compared via the totals header
    }
    out[fn.name] = Side{ToWholeUsec(stats.net), stats.calls};
  });
  return out;
}

SideMap EdgeSide(const DecodedTrace& trace) {
  SideMap out;
  const CallGraph graph(trace);
  for (const CallEdge& edge : graph.edges()) {
    if (trace.names->FindByName(edge.callee)->kind == TagKind::kContextSwitch) {
      continue;  // callee elapsed is the idle account (see FunctionSide)
    }
    Side& side = out[std::string(edge.caller).append(" -> ").append(edge.callee)];
    side.us += ToWholeUsec(edge.callee_elapsed);
    side.calls += edge.calls;
  }
  return out;
}

SideMap GroupSide(const DecodedTrace& trace,
                  const std::map<std::string, std::string>& group_of) {
  SideMap out;
  const Grouping grouping(trace, group_of);
  for (const GroupRow& row : grouping.rows()) {
    out[row.group] = Side{row.net_us, row.calls};
  }
  return out;
}

const char* SectionTitle(int i) {
  switch (i) {
    case 0:
      return "per-function net time";
    case 1:
      return "per-call-edge elapsed";
    default:
      return "per-abstraction net time";
  }
}

const char* SectionJsonKey(int i) {
  switch (i) {
    case 0:
      return "functions";
    case 1:
      return "edges";
    default:
      return "groups";
  }
}

}  // namespace

TraceDiff::TraceDiff(const DecodedTrace& a, const DecodedTrace& b,
                     const std::map<std::string, std::string>& group_of,
                     DiffOptions options)
    : noise_pct_(options.noise_pct),
      quantum_us_(options.quantum_us),
      gate_edges_(options.gate_edges) {
  totals_.a_elapsed_us = ToWholeUsec(a.ElapsedTotal());
  totals_.b_elapsed_us = ToWholeUsec(b.ElapsedTotal());
  totals_.a_idle_us = ToWholeUsec(a.idle_time);
  totals_.b_idle_us = ToWholeUsec(b.idle_time);
  totals_.a_run_us = totals_.a_elapsed_us > totals_.a_idle_us
                         ? totals_.a_elapsed_us - totals_.a_idle_us
                         : 0;
  totals_.b_run_us = totals_.b_elapsed_us > totals_.b_idle_us
                         ? totals_.b_elapsed_us - totals_.b_idle_us
                         : 0;
  totals_.a_events = a.event_count;
  totals_.b_events = b.event_count;

  functions_ = BuildRows(FunctionSide(a), FunctionSide(b), options,
                         /*gated=*/true, &regressions_, &suppressed_);
  edges_ = BuildRows(EdgeSide(a), EdgeSide(b), options, gate_edges_,
                     &regressions_, &suppressed_);
  groups_ = BuildRows(GroupSide(a, group_of), GroupSide(b, group_of), options,
                      /*gated=*/true, &regressions_, &suppressed_);
}

namespace {
const DiffRow* FindRow(const std::vector<DiffRow>& rows, const std::string& key) {
  for (const DiffRow& row : rows) {
    if (row.key == key) {
      return &row;
    }
  }
  return nullptr;
}
}  // namespace

const DiffRow* TraceDiff::Function(const std::string& name) const {
  return FindRow(functions_, name);
}

const DiffRow* TraceDiff::Edge(const std::string& caller,
                               const std::string& callee) const {
  return FindRow(edges_, caller + " -> " + callee);
}

const DiffRow* TraceDiff::Group(const std::string& label) const {
  return FindRow(groups_, label);
}

namespace {

// Bytes of one rendered row beyond its key.
constexpr std::size_t kTextRowBytes = 80;
constexpr std::size_t kJsonRowBytes = 176;

std::size_t EstimateBytes(const std::vector<DiffRow>* const (&sections)[3],
                          std::size_t row_bytes) {
  std::size_t bytes = 640;
  for (const std::vector<DiffRow>* rows : sections) {
    for (const DiffRow& row : *rows) {
      if (!row.suppressed) {
        bytes += row.key.size() + row_bytes;
      }
    }
  }
  return bytes;
}

void WriteTotalsLine(const char* side, std::uint64_t elapsed, std::uint64_t run,
                     std::uint64_t idle, std::uint64_t events, TextWriter* w) {
  w->Append(side).Append(": ").Uint(elapsed).Append(" us elapsed, ").Uint(run);
  w->Append(" us run, ").Uint(idle).Append(" us idle, ").Uint(events).Append(" events\n");
}

void WriteTotalsJson(std::uint64_t elapsed, std::uint64_t run, std::uint64_t idle,
                     std::uint64_t events, TextWriter* w) {
  w->Append("{\"elapsed_us\": ").Uint(elapsed).Append(", \"run_us\": ").Uint(run);
  w->Append(", \"idle_us\": ").Uint(idle).Append(", \"events\": ").Uint(events);
  w->Append("},\n");
}

}  // namespace

std::string TraceDiff::FormatText() const {
  const std::vector<DiffRow>* const sections[3] = {&functions_, &edges_, &groups_};
  TextWriter w(EstimateBytes(sections, kTextRowBytes));
  w.Append("== differential profile (A = baseline, B = candidate) ==\n");
  WriteTotalsLine("A", totals_.a_elapsed_us, totals_.a_run_us, totals_.a_idle_us,
                  totals_.a_events, &w);
  WriteTotalsLine("B", totals_.b_elapsed_us, totals_.b_run_us, totals_.b_idle_us,
                  totals_.b_events, &w);
  w.Append("noise threshold: ").Fixed2(noise_pct_).Append("% (").Uint(suppressed_);
  w.Append(" sub-noise rows suppressed)\n");
  if (quantum_us_ > 0.0) {
    w.Append("quantum floor: ").Fixed2(quantum_us_).Append(" us/call\n");
  }
  for (int i = 0; i < 3; ++i) {
    w.Append("\n-- ").Append(SectionTitle(i));
    w.Append(i == 1 && !gate_edges_ ? " (advisory) --\n" : " --\n");
    w.Append("      A us     B us     delta        rel  A calls  B calls   name\n");
    bool any = false;
    for (const DiffRow& row : *sections[i]) {
      if (row.suppressed) {
        continue;
      }
      any = true;
      w.Uint(row.a_us, 10).Append(' ').Uint(row.b_us, 8).Append(' ');
      w.Signed(row.delta_us, 9).Append(' ');
      const std::size_t rel = w.size();
      if (row.only_b) {
        w.Append("new");
      } else if (row.only_a) {
        w.Append("gone");
      } else {
        w.Fixed2(row.rel_pct, 0, /*plus=*/true).Append('%');
      }
      w.AlignRight(rel, 10);
      w.Append(' ').Uint(row.a_calls, 8).Append(' ').Uint(row.b_calls, 8).Append("   ");
      w.Append(row.key).Append(row.regressed ? "  [REGRESSED]\n" : "\n");
    }
    if (!any) {
      w.Append("  (no rows above noise)\n");
    }
  }
  w.Append("\nregressions above noise: ").Uint(regressions_).Append('\n');
  return w.Take();
}

std::string TraceDiff::FormatJson() const {
  const std::vector<DiffRow>* const sections[3] = {&functions_, &edges_, &groups_};
  TextWriter w(EstimateBytes(sections, kJsonRowBytes));
  w.Append("{\n  \"noise_pct\": ").Fixed2(noise_pct_).Append(",\n");
  if (quantum_us_ > 0.0) {
    w.Append("  \"quantum_us\": ").Fixed2(quantum_us_).Append(",\n");
  }
  if (!gate_edges_) {
    w.Append("  \"gated_sections\": [\"functions\", \"groups\"],\n");
  }
  w.Append("  \"a\": ");
  WriteTotalsJson(totals_.a_elapsed_us, totals_.a_run_us, totals_.a_idle_us,
                  totals_.a_events, &w);
  w.Append("  \"b\": ");
  WriteTotalsJson(totals_.b_elapsed_us, totals_.b_run_us, totals_.b_idle_us,
                  totals_.b_events, &w);
  for (int i = 0; i < 3; ++i) {
    w.Append("  \"").Append(SectionJsonKey(i)).Append("\": [");
    bool first = true;
    for (const DiffRow& row : *sections[i]) {
      if (row.suppressed) {
        continue;
      }
      w.Append(first ? "\n" : ",\n");
      first = false;
      w.Append("    {\"name\": ").JsonString(row.key);
      w.Append(", \"a_us\": ").Uint(row.a_us).Append(", \"b_us\": ").Uint(row.b_us);
      w.Append(", \"delta_us\": ").Int(row.delta_us);
      if (row.only_b) {
        w.Append(", \"rel_pct\": null, \"status\": \"new\"");
      } else {
        w.Append(", \"rel_pct\": ").Fixed2(row.rel_pct).Append(", \"status\": \"");
        w.Append(row.only_a ? "gone" : row.regressed ? "regressed" : "changed").Append('"');
      }
      w.Append(", \"a_calls\": ").Uint(row.a_calls);
      w.Append(", \"b_calls\": ").Uint(row.b_calls);
      w.Append(row.regressed ? ", \"regressed\": true}" : ", \"regressed\": false}");
    }
    w.Append(first ? "],\n" : "\n  ],\n");
  }
  w.Append("  \"suppressed_rows\": ").Uint(suppressed_).Append(",\n");
  w.Append("  \"regressions\": ").Uint(regressions_).Append("\n}\n");
  return w.Take();
}

}  // namespace hwprof
