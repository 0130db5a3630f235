// pipebench: the end-to-end, per-layer pipeline benchmark (see NOTES.md).
//
// Each workload reaches the hwprof layers only through their public
// functions, times them from outside, checks modeled outputs against values
// the unmodified tree reproduces byte for byte, and fills a Report that
// main.cc prints as a human-readable table plus one JSON result line.

#ifndef HWPROF_PIPEBENCH_BENCH_H_
#define HWPROF_PIPEBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/base/rng.h"
#include "src/profhw/raw_trace.h"

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsBetween(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e9;
}

// --- Statistics --------------------------------------------------------------

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it (rank ceil(p/100 * n), clamped to [1, n]). Takes
// the samples by value and sorts them; 0 for an empty sample.
double NearestRank(std::vector<double> samples, double p);

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
// Nearest-rank Q1 / median / Q3.
Quartiles NearestRankQuartiles(const std::vector<double>& samples);

// The mean of the middle half of the samples: sorted, with the lowest and
// the highest floor(n/4) left out; 0 for an empty sample.
double MiddleHalfMean(std::vector<double> samples);

// Checks the helpers above against hand-computed vectors. Returns false
// with `*why` set on the first mismatch.
bool SelfCheckStats(std::string* why);

// --- Run options and results ----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Private scratch directory (relative to the working directory) for the
  // fleet workload's socket and the traced run's span file.
  std::string workdir = ".bench_build/run";
};

struct Report {
  // Correctness: every operation and every check counts as attempted.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions

  // End-to-end metrics (untraced) and per-layer metrics (traced), by name.
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  // Extra human-readable lines (layer shares, fingerprints, ...).
  std::vector<std::string> notes;

  // Counts one check; a false `ok` is a failure described by `what`.
  void Check(bool ok, const std::string& what);
  // Counts `n` operations of which `bad` failed.
  void Ops(std::uint64_t n, std::uint64_t bad, const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

// In-memory span log for traced runs: one span per layer call, with the span
// that caused it as parent, written out as Chrome trace-event JSON when the
// run ends. Traced runs read their layer timings back from these spans.
class SpanLog {
 public:
  // Opens a span now; returns its id (pass it as `parent` of nested spans,
  // -1 for a root).
  int Begin(const char* name, int parent = -1);
  void End(int span);
  double Seconds(int span) const;
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
};

// Runs fn(). When `spans` is non-null (a traced pass) the call is wrapped in
// a span named `name` under `parent`, and its duration is added to
// *seconds; untraced passes pay nothing.
template <typename Fn>
void TimeLayer(SpanLog* spans, int parent, const char* name, double* seconds,
               Fn&& fn) {
  if (spans == nullptr) {
    fn();
    return;
  }
  const int span = spans->Begin(name, parent);
  fn();
  spans->End(span);
  *seconds += spans->Seconds(span);
}

// --- Shared capture pool (pgo_analysis and fleet_ingest) -------------------------

// One one-shot capture of an hwprof_capture workload under one --config.
struct PoolCapture {
  std::string workload;  // net_receive | mixed | fork_exec | lookup
  std::string config;    // baseline | cksum | pmap | namei | all
  hwprof::RawTrace raw;
  std::string text;      // RawTrace::Serialize
  std::string binary;    // EncodeCaptureBinary (when requested)
  hwprof::Nanoseconds virtual_ns = 0;
};

struct CapturePool {
  std::vector<PoolCapture> captures;  // workload-major, config-minor
  std::string names_text;             // identical for every capture
  bool names_agree = true;
  double sim_s = 0;     // host time in Testbed construction + simulation
  double encode_s = 0;  // host time in Serialize / EncodeCaptureBinary
  std::uint64_t encode_bytes = 0;
  std::uint64_t events = 0;
  double virtual_s = 0;
};

inline constexpr const char* kPoolWorkloads[] = {"net_receive", "mixed",
                                                 "fork_exec", "lookup"};
inline constexpr const char* kPoolConfigs[] = {"baseline", "cksum", "pmap",
                                               "namei", "all"};

// Workloads with a capture pool build it this many times; setup_s is the
// median, and every build must be byte-identical to the first.
inline constexpr int kSetups = 11;

// Simulates the 20 captures exactly as `hwprof_capture <workload> --config
// <config>` does with its default parameters.
CapturePool BuildCapturePool(bool with_binary);

// Decodes `raw` with the engine hwprof_analyze uses by default (--jobs 0).
hwprof::DecodedTrace DecodeDefaultEngine(const hwprof::RawTrace& raw,
                                         const hwprof::TagFile& names);

// True when both pools hold byte-identical captures and names.
bool SamePool(const CapturePool& a, const CapturePool& b);

// A seeded permutation of 0..n-1 (Fisher-Yates over hwprof::Rng).
std::vector<std::size_t> Shuffled(std::size_t n, hwprof::Rng& rng);

// Returns the allocator's free memory to the OS between passes, so every
// pass starts from the heap a fresh hwprof_analyze process would have: its
// page faults are paid in every pass, and the peak RSS does not depend on
// how earlier passes fragmented the heap.
void TrimHeap();

bool ReadFile(const std::string& path, std::string* out);
// Peak resident set size of this process, in MB.
double PeakRssMb();

// --- Workloads --------------------------------------------------------------------

void RunStreamCapture(const Options& options, Report* report);
void RunPgoAnalysis(const Options& options, Report* report);
void RunFleetIngest(const Options& options, Report* report);

}  // namespace pipebench

#endif  // HWPROF_PIPEBENCH_BENCH_H_
