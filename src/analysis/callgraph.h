// Caller/callee aggregation over decoded call trees — the "other ways to
// process the data" the paper's future-work section anticipates. The code
// path trace already shows *individual* call nesting; this rolls it up into
// a gprof-style graph: who calls whom, how often, and how much of each
// function's time flows from each caller.

#ifndef HWPROF_SRC_ANALYSIS_CALLGRAPH_H_
#define HWPROF_SRC_ANALYSIS_CALLGRAPH_H_

#include <string>
#include <vector>

#include "src/analysis/decoder.h"

namespace hwprof {

// Functions entered at the top of an activity block (interrupt vectors,
// process entry) are attributed to this pseudo-caller.
inline constexpr const char* kSpontaneous = "<spontaneous>";

// Names point into the trace's names file, which must outlive the graph.
struct CallEdge {
  std::string_view caller;  // kSpontaneous for top-level calls
  std::string_view callee;
  std::uint64_t calls = 0;
  Nanoseconds callee_elapsed = 0;  // callee time (incl. its subtree) under this caller
};

class CallGraph {
 public:
  explicit CallGraph(const DecodedTrace& trace);

  const std::vector<CallEdge>& edges() const { return edges_; }

  // The edge caller->callee, or nullptr.
  const CallEdge* Edge(std::string_view caller, std::string_view callee) const;

  // All callers of `name`, heaviest first (caller name breaks ties).
  std::vector<const CallEdge*> CallersOf(std::string_view name) const;
  // All callees of `name`, heaviest first (callee name breaks ties).
  std::vector<const CallEdge*> CalleesOf(std::string_view name) const;

  // gprof-style listing: one block per function (sorted by net time),
  // callers above, callees below. `top_n` limits the functions (0 = all).
  std::string Format(const DecodedTrace& trace, std::size_t top_n = 0) const;

 private:
  const TagFile* names_ = nullptr;
  std::vector<CallEdge> edges_;
  // Edge ids by callee TagEntry::index and by caller slot (0 for
  // <spontaneous>, else the caller's index + 1), each bucket sorted once in
  // CallersOf's and CalleesOf's order.
  std::vector<std::vector<std::uint32_t>> by_callee_;
  std::vector<std::vector<std::uint32_t>> by_caller_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_CALLGRAPH_H_
