#include "src/analysis/diff.h"

#include <algorithm>
#include <cmath>

#include "src/analysis/callgraph.h"
#include "src/analysis/grouping.h"
#include "src/base/json.h"
#include "src/base/strings.h"

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

SideMap FunctionSide(const DecodedTrace& trace) {
  SideMap out;
  for (const auto& [name, stats] : trace.per_function) {
    if (stats.context_switch) {
      continue;  // idle account; compared via the totals header
    }
    out[name] = Side{ToWholeUsec(stats.net), stats.calls};
  }
  return out;
}

SideMap EdgeSide(const DecodedTrace& trace) {
  SideMap out;
  const CallGraph graph(trace);
  for (const CallEdge& edge : graph.edges()) {
    const auto it = trace.per_function.find(edge.callee);
    if (it != trace.per_function.end() && it->second.context_switch) {
      continue;  // callee elapsed is the idle account (see FunctionSide)
    }
    Side& side = out[edge.caller + " -> " + edge.callee];
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

std::string TraceDiff::FormatText() const {
  auto u64 = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::string out = "== differential profile (A = baseline, B = candidate) ==\n";
  out += StrFormat("A: %llu us elapsed, %llu us run, %llu us idle, %llu events\n",
                   u64(totals_.a_elapsed_us), u64(totals_.a_run_us),
                   u64(totals_.a_idle_us), u64(totals_.a_events));
  out += StrFormat("B: %llu us elapsed, %llu us run, %llu us idle, %llu events\n",
                   u64(totals_.b_elapsed_us), u64(totals_.b_run_us),
                   u64(totals_.b_idle_us), u64(totals_.b_events));
  out += StrFormat("noise threshold: %.2f%% (%zu sub-noise rows suppressed)\n",
                   noise_pct_, suppressed_);
  if (quantum_us_ > 0.0) {
    out += StrFormat("quantum floor: %.2f us/call\n", quantum_us_);
  }
  const std::vector<DiffRow>* sections[3] = {&functions_, &edges_, &groups_};
  for (int i = 0; i < 3; ++i) {
    const char* advisory = (i == 1 && !gate_edges_) ? " (advisory)" : "";
    out += StrFormat("\n-- %s%s --\n", SectionTitle(i), advisory);
    out += "      A us     B us     delta        rel  A calls  B calls   name\n";
    bool any = false;
    for (const DiffRow& row : *sections[i]) {
      if (row.suppressed) {
        continue;
      }
      any = true;
      std::string rel;
      if (row.only_b) {
        rel = "new";
      } else if (row.only_a) {
        rel = "gone";
      } else {
        rel = StrFormat("%+.2f%%", row.rel_pct);
      }
      out += StrFormat("%10llu %8llu %+9lld %10s %8llu %8llu   %s%s\n",
                       u64(row.a_us), u64(row.b_us),
                       static_cast<long long>(row.delta_us), rel.c_str(),
                       u64(row.a_calls), u64(row.b_calls), row.key.c_str(),
                       row.regressed ? "  [REGRESSED]" : "");
    }
    if (!any) {
      out += "  (no rows above noise)\n";
    }
  }
  out += StrFormat("\nregressions above noise: %zu\n", regressions_);
  return out;
}

std::string TraceDiff::FormatJson() const {
  auto u64 = [](std::uint64_t v) {
    return StrFormat("%llu", static_cast<unsigned long long>(v));
  };
  auto totals = [&](std::uint64_t elapsed, std::uint64_t run, std::uint64_t idle,
                    std::uint64_t events) {
    return "{\"elapsed_us\": " + u64(elapsed) + ", \"run_us\": " + u64(run) +
           ", \"idle_us\": " + u64(idle) + ", \"events\": " + u64(events) + "}";
  };
  std::string out = "{\n";
  out += StrFormat("  \"noise_pct\": %.2f,\n", noise_pct_);
  if (quantum_us_ > 0.0) {
    out += StrFormat("  \"quantum_us\": %.2f,\n", quantum_us_);
  }
  if (!gate_edges_) {
    out += "  \"gated_sections\": [\"functions\", \"groups\"],\n";
  }
  out += "  \"a\": " + totals(totals_.a_elapsed_us, totals_.a_run_us,
                              totals_.a_idle_us, totals_.a_events) + ",\n";
  out += "  \"b\": " + totals(totals_.b_elapsed_us, totals_.b_run_us,
                              totals_.b_idle_us, totals_.b_events) + ",\n";
  const std::vector<DiffRow>* sections[3] = {&functions_, &edges_, &groups_};
  for (int i = 0; i < 3; ++i) {
    out += StrFormat("  \"%s\": [", SectionJsonKey(i));
    bool first = true;
    for (const DiffRow& row : *sections[i]) {
      if (row.suppressed) {
        continue;
      }
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\": ";
      AppendJsonString(row.key, &out);
      out += ", \"a_us\": " + u64(row.a_us) + ", \"b_us\": " + u64(row.b_us);
      out += StrFormat(", \"delta_us\": %lld",
                       static_cast<long long>(row.delta_us));
      if (row.only_b) {
        out += ", \"rel_pct\": null, \"status\": \"new\"";
      } else if (row.only_a) {
        out += StrFormat(", \"rel_pct\": %.2f, \"status\": \"gone\"", row.rel_pct);
      } else {
        out += StrFormat(", \"rel_pct\": %.2f, \"status\": \"%s\"", row.rel_pct,
                         row.regressed ? "regressed" : "changed");
      }
      out += ", \"a_calls\": " + u64(row.a_calls) +
             ", \"b_calls\": " + u64(row.b_calls);
      out += StrFormat(", \"regressed\": %s}", row.regressed ? "true" : "false");
    }
    out += first ? "],\n" : "\n  ],\n";
  }
  out += StrFormat("  \"suppressed_rows\": %zu,\n", suppressed_);
  out += StrFormat("  \"regressions\": %zu\n", regressions_);
  out += "}\n";
  return out;
}

}  // namespace hwprof
