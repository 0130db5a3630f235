#include "src/analysis/callgraph.h"

#include <algorithm>

#include "src/base/text_writer.h"

namespace hwprof {
namespace {

// One "    <- caller    N calls    M us" line with a name up to 24 bytes.
constexpr std::size_t kEdgeLineBytes = 64;

}  // namespace

CallGraph::CallGraph(const DecodedTrace& trace) {
  for (const auto& stack : trace.stacks) {
    WalkTree(*stack->root, [this](const CallNode& node) {
      if (node.fn == nullptr || node.inline_marker) {
        return;
      }
      const CallNode* parent = node.parent;
      const std::string caller =
          parent->fn != nullptr ? parent->fn->name : std::string(kSpontaneous);
      const std::pair<std::string, std::string> key{caller, node.fn->name};
      auto it = index_.find(key);
      if (it == index_.end()) {
        it = index_.emplace(key, edges_.size()).first;
        edges_.push_back(CallEdge{caller, node.fn->name, 0, 0});
      }
      CallEdge& edge = edges_[it->second];
      ++edge.calls;
      edge.callee_elapsed += node.Elapsed();
    });
  }
}

const CallEdge* CallGraph::Edge(const std::string& caller, const std::string& callee) const {
  auto it = index_.find({caller, callee});
  return it == index_.end() ? nullptr : &edges_[it->second];
}

std::vector<const CallEdge*> CallGraph::CallersOf(const std::string& name) const {
  std::vector<const CallEdge*> out;
  for (const CallEdge& edge : edges_) {
    if (edge.callee == name) {
      out.push_back(&edge);
    }
  }
  std::sort(out.begin(), out.end(), [](const CallEdge* a, const CallEdge* b) {
    return a->callee_elapsed != b->callee_elapsed
               ? a->callee_elapsed > b->callee_elapsed
               : a->caller < b->caller;
  });
  return out;
}

std::vector<const CallEdge*> CallGraph::CalleesOf(const std::string& name) const {
  std::vector<const CallEdge*> out;
  for (const CallEdge& edge : edges_) {
    if (edge.caller == name) {
      out.push_back(&edge);
    }
  }
  std::sort(out.begin(), out.end(), [](const CallEdge* a, const CallEdge* b) {
    return a->callee_elapsed != b->callee_elapsed
               ? a->callee_elapsed > b->callee_elapsed
               : a->callee < b->callee;
  });
  return out;
}

std::string CallGraph::Format(const DecodedTrace& trace, std::size_t top_n) const {
  // Order functions by net time.
  std::vector<std::pair<std::string, const FuncStats*>> order;
  for (const auto& [name, stats] : trace.per_function) {
    order.emplace_back(name, &stats);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->net != b.second->net ? a.second->net > b.second->net
                                          : a.first < b.first;
  });

  const std::size_t shown = top_n != 0 && top_n < order.size() ? top_n : order.size();
  std::vector<std::vector<const CallEdge*>> callers(shown);
  std::vector<std::vector<const CallEdge*>> callees(shown);
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < shown; ++i) {
    callers[i] = CallersOf(order[i].first);
    callees[i] = CalleesOf(order[i].first);
    bytes += order[i].first.size() + 64 + kEdgeLineBytes * (callers[i].size() + callees[i].size());
  }
  TextWriter w(bytes);
  auto edge_line = [&w](const char* arrow, const std::string& other, const CallEdge& edge) {
    w.Append(arrow).Left(other, 24).Append(' ').Uint(edge.calls, 8).Append(" calls ");
    w.Uint(ToWholeUsec(edge.callee_elapsed), 10).Append(" us\n");
  };
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& [name, stats] = order[i];
    w.Append(name).Append("  (").Uint(stats->calls).Append(" calls, ");
    w.Uint(ToWholeUsec(stats->net)).Append(" us net, ");
    w.Uint(ToWholeUsec(stats->elapsed)).Append(" us total)\n");
    for (const CallEdge* edge : callers[i]) {
      edge_line("    <- ", edge->caller, *edge);
    }
    for (const CallEdge* edge : callees[i]) {
      edge_line("    -> ", edge->callee, *edge);
    }
    w.Append('\n');
  }
  return w.Take();
}

}  // namespace hwprof
