// Compatibility shim for the pipeline benchmark (pipebench/), which still
// names the sharded engine that StreamingDecoder now is. Nothing else may
// include this header; it goes away with the next change to pipebench/.

#ifndef HWPROF_SRC_ANALYSIS_PARALLEL_H_
#define HWPROF_SRC_ANALYSIS_PARALLEL_H_

#include "src/analysis/decoder.h"

namespace hwprof {

struct ParallelOptions {
  unsigned jobs = 0;  // accepted and ignored: capture size decides threading
  std::size_t shard_target_ops = StreamingOptions{}.shard_target_ops;
};

// The one decode engine in retain mode (full trees and steps).
class ParallelAnalyzer : public StreamingDecoder {
 public:
  explicit ParallelAnalyzer(const TagFile& names, unsigned timer_bits = 24,
                            std::uint64_t timer_clock_hz = 1'000'000,
                            ParallelOptions options = ParallelOptions{})
      : StreamingDecoder(names, timer_bits, timer_clock_hz,
                         StreamingOptions{.retain_structure = true,
                                          .shard_target_ops = options.shard_target_ops}) {}
};

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_PARALLEL_H_
