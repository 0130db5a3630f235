#include "src/analysis/grouping.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/base/text_writer.h"

namespace hwprof {

Grouping::Grouping(const DecodedTrace& trace,
                   const std::map<std::string, std::string>& group_of) {
  const std::uint64_t elapsed_us = ToWholeUsec(trace.ElapsedTotal());
  const std::uint64_t run_us = ToWholeUsec(trace.RunTime());
  std::map<std::string, GroupRow> acc;
  trace.ForEachFunction([&](const TagEntry& fn, const FuncStats& stats) {
    if (fn.kind == TagKind::kContextSwitch) {
      // A '!'-tagged function's net time is the idle account; charging it to
      // an abstraction would drown the group it happens to live in (and make
      // idle shifts look like subsystem regressions). Summary omits these
      // rows for the same reason.
      return;
    }
    auto it = group_of.find(fn.name);
    const std::string group = it == group_of.end() ? "other" : it->second;
    GroupRow& row = acc[group];
    row.group = group;
    row.net_us += ToWholeUsec(stats.net);
    row.calls += stats.calls;
  });
  for (auto& [group, row] : acc) {
    row.pct_real = elapsed_us > 0 ? 100.0 * static_cast<double>(row.net_us) /
                                        static_cast<double>(elapsed_us)
                                  : 0.0;
    row.pct_net =
        run_us > 0 ? 100.0 * static_cast<double>(row.net_us) / static_cast<double>(run_us)
                   : 0.0;
    rows_.push_back(row);
  }
  std::sort(rows_.begin(), rows_.end(), [](const GroupRow& a, const GroupRow& b) {
    return a.net_us != b.net_us ? a.net_us > b.net_us : a.group < b.group;
  });
}

const GroupRow* Grouping::Row(const std::string& group) const {
  for (const GroupRow& row : rows_) {
    if (row.group == group) {
      return &row;
    }
  }
  return nullptr;
}

std::string Grouping::Format() const {
  std::size_t bytes = 64;
  for (const GroupRow& row : rows_) {
    bytes += row.group.size() + 48;
  }
  TextWriter w(bytes);
  w.Append("      Net  # calls   % real   % net   group\n");
  for (const GroupRow& row : rows_) {
    w.Uint(row.net_us, 9).Append(' ').Uint(row.calls, 8).Append("  ");
    w.Fixed2(row.pct_real, 6).Append("%  ").Fixed2(row.pct_net, 6).Append("%   ");
    w.Append(row.group).Append('\n');
  }
  return w.Take();
}

std::map<std::string, std::string> Grouping::SplGroup(const DecodedTrace& trace,
                                                      const std::string& label) {
  std::map<std::string, std::string> groups;
  trace.ForEachFunction([&](const TagEntry& fn, const FuncStats&) {
    if (StartsWith(fn.name, "spl")) {
      groups.emplace(fn.name, label);
    }
  });
  return groups;
}

}  // namespace hwprof
