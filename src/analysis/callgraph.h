// Caller/callee aggregation over decoded call trees — the "other ways to
// process the data" the paper's future-work section anticipates. The code
// path trace already shows *individual* call nesting; this rolls it up into
// a gprof-style graph: who calls whom, how often, and how much of each
// function's time flows from each caller.

#ifndef HWPROF_SRC_ANALYSIS_CALLGRAPH_H_
#define HWPROF_SRC_ANALYSIS_CALLGRAPH_H_

#include <map>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"

namespace hwprof {

// Functions entered at the top of an activity block (interrupt vectors,
// process entry) are attributed to this pseudo-caller.
inline constexpr const char* kSpontaneous = "<spontaneous>";

struct CallEdge {
  std::string caller;
  std::string callee;
  std::uint64_t calls = 0;
  Nanoseconds callee_elapsed = 0;  // callee time (incl. its subtree) under this caller
};

class CallGraph {
 public:
  explicit CallGraph(const DecodedTrace& trace);

  const std::vector<CallEdge>& edges() const { return edges_; }

  // The edge caller->callee, or nullptr.
  const CallEdge* Edge(const std::string& caller, const std::string& callee) const;

  // All callers of `name`, heaviest first.
  std::vector<const CallEdge*> CallersOf(const std::string& name) const;
  // All callees of `name`, heaviest first.
  std::vector<const CallEdge*> CalleesOf(const std::string& name) const;

  // gprof-style listing: one block per function (sorted by net time),
  // callers above, callees below. `top_n` limits the functions (0 = all).
  std::string Format(const DecodedTrace& trace, std::size_t top_n = 0) const;

 private:
  std::vector<CallEdge> edges_;
  std::map<std::pair<std::string, std::string>, std::size_t> index_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_CALLGRAPH_H_
