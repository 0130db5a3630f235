#include "src/analysis/callgraph.h"

#include <algorithm>
#include <unordered_map>

#include "src/base/text_writer.h"

namespace hwprof {
namespace {

// One "    <- caller    N calls    M us" line with a name up to 24 bytes.
constexpr std::size_t kEdgeLineBytes = 64;

std::vector<const CallEdge*> Bucket(const std::vector<CallEdge>& edges,
                                    const std::vector<std::uint32_t>& ids) {
  std::vector<const CallEdge*> out;
  out.reserve(ids.size());
  for (const std::uint32_t id : ids) {
    out.push_back(&edges[id]);
  }
  return out;
}

}  // namespace

CallGraph::CallGraph(const DecodedTrace& trace) : names_(trace.names) {
  by_callee_.resize(trace.per_function.size());
  by_caller_.resize(trace.per_function.size() + 1);
  // Edge id by (caller slot << 32 | callee index).
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  for (const auto& stack : trace.stacks) {
    WalkTree(*stack->root, [&](const CallNode& node) {
      if (node.fn == nullptr || node.inline_marker) {
        return;
      }
      const TagEntry* caller = node.parent->fn;
      const std::size_t slot = caller != nullptr ? caller->index + 1 : 0;
      const auto id = static_cast<std::uint32_t>(edges_.size());
      const auto [it, inserted] =
          index.try_emplace(std::uint64_t{slot} << 32 | node.fn->index, id);
      if (inserted) {
        edges_.push_back(CallEdge{caller != nullptr ? std::string_view(caller->name)
                                                    : std::string_view(kSpontaneous),
                                  node.fn->name, 0, 0});
        by_caller_[slot].push_back(id);
        by_callee_[node.fn->index].push_back(id);
      }
      CallEdge& edge = edges_[it->second];
      ++edge.calls;
      edge.callee_elapsed += node.Elapsed();
    });
  }
  // Heaviest first, the other end's name breaking ties.
  auto sort_buckets = [this](std::vector<std::vector<std::uint32_t>>* buckets,
                             std::string_view CallEdge::*other) {
    for (std::vector<std::uint32_t>& ids : *buckets) {
      std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
        const CallEdge& x = edges_[a];
        const CallEdge& y = edges_[b];
        return x.callee_elapsed != y.callee_elapsed ? x.callee_elapsed > y.callee_elapsed
                                                    : x.*other < y.*other;
      });
    }
  };
  sort_buckets(&by_callee_, &CallEdge::caller);
  sort_buckets(&by_caller_, &CallEdge::callee);
}

const CallEdge* CallGraph::Edge(std::string_view caller, std::string_view callee) const {
  for (const CallEdge* edge : CalleesOf(caller)) {
    if (edge->callee == callee) {
      return edge;
    }
  }
  return nullptr;
}

std::vector<const CallEdge*> CallGraph::CallersOf(std::string_view name) const {
  const TagEntry* fn = names_ != nullptr ? names_->FindByName(name) : nullptr;
  return fn != nullptr ? Bucket(edges_, by_callee_[fn->index]) : std::vector<const CallEdge*>{};
}

std::vector<const CallEdge*> CallGraph::CalleesOf(std::string_view name) const {
  if (name == kSpontaneous) {
    return Bucket(edges_, by_caller_[0]);
  }
  const TagEntry* fn = names_ != nullptr ? names_->FindByName(name) : nullptr;
  return fn != nullptr ? Bucket(edges_, by_caller_[fn->index + 1])
                       : std::vector<const CallEdge*>{};
}

std::string CallGraph::Format(const DecodedTrace& trace, std::size_t top_n) const {
  // Order functions by net time.
  std::vector<std::pair<const TagEntry*, const FuncStats*>> order;
  trace.ForEachFunction([&order](const TagEntry& fn, const FuncStats& stats) {
    order.emplace_back(&fn, &stats);
  });
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->net != b.second->net ? a.second->net > b.second->net
                                          : a.first->name < b.first->name;
  });

  const std::size_t shown = top_n != 0 && top_n < order.size() ? top_n : order.size();
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < shown; ++i) {
    const std::uint32_t index = order[i].first->index;
    bytes += order[i].first->name.size() + 64 +
             kEdgeLineBytes * (by_callee_[index].size() + by_caller_[index + 1].size());
  }
  TextWriter w(bytes);
  auto edge_line = [&w](const char* arrow, std::string_view other, const CallEdge& edge) {
    w.Append(arrow).Left(other, 24).Append(' ').Uint(edge.calls, 8).Append(" calls ");
    w.Uint(ToWholeUsec(edge.callee_elapsed), 10).Append(" us\n");
  };
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& [fn, stats] = order[i];
    w.Append(fn->name).Append("  (").Uint(stats->calls).Append(" calls, ");
    w.Uint(ToWholeUsec(stats->net)).Append(" us net, ");
    w.Uint(ToWholeUsec(stats->elapsed)).Append(" us total)\n");
    for (const std::uint32_t id : by_callee_[fn->index]) {
      edge_line("    <- ", edges_[id].caller, edges_[id]);
    }
    for (const std::uint32_t id : by_caller_[fn->index + 1]) {
      edge_line("    -> ", edges_[id].callee, edges_[id]);
    }
    w.Append('\n');
  }
  return w.Take();
}

}  // namespace hwprof
