// Shared helpers for the reproduction benches: each bench regenerates one
// of the paper's tables or figures and prints paper-vs-measured rows.
// Wall-clock benches report mean/p50/p95/max over their samples and can
// emit a machine-readable BENCH_<name>.json next to the binary's cwd.

#ifndef HWPROF_BENCH_BENCH_UTIL_H_
#define HWPROF_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace hwprof {

inline void PaperHeader(const char* artefact, const char* workload) {
  std::printf("\n================================================================\n");
  std::printf("Reproduces: %s\n", artefact);
  std::printf("Workload:   %s\n", workload);
  std::printf("================================================================\n");
}

inline void PaperRowF(const char* metric, double paper, double measured, const char* unit) {
  const double ratio = paper != 0.0 ? measured / paper : 0.0;
  std::printf("  %-38s paper %10.1f %-6s  measured %10.1f %-6s  (x%.2f)\n", metric, paper,
              unit, measured, unit, ratio);
}

inline void PaperRowText(const char* metric, const char* paper, const char* measured) {
  std::printf("  %-38s paper %-18s measured %s\n", metric, paper, measured);
}

// Distribution of a repeated wall-clock measurement. A lone mean hides the
// tail; p50/p95/max make warmup effects and scheduler noise visible.
struct BenchStats {
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

// Percentiles use the nearest-rank method (ceil(p*n)), so p95 of few
// samples degrades to the max rather than interpolating noise.
inline BenchStats ComputeStats(std::vector<double> samples) {
  BenchStats s;
  s.n = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(samples.size());
  auto rank = [&](double p) {
    std::size_t r = static_cast<std::size_t>(p * static_cast<double>(samples.size()) + 0.999999);
    if (r == 0) {
      r = 1;
    }
    return samples[std::min(r, samples.size()) - 1];
  };
  s.p50 = rank(0.50);
  s.p95 = rank(0.95);
  s.max = samples.back();
  return s;
}

inline void StatRow(const char* metric, const BenchStats& s, const char* unit) {
  std::printf("  %-38s mean %9.2f  p50 %9.2f  p95 %9.2f  max %9.2f %-5s (n=%zu)\n",
              metric, s.mean, s.p50, s.p95, s.max, unit, s.n);
}

// Collects named results and writes them as BENCH_<name>.json — one object
// per metric with the full distribution, for scripted regression tracking.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& metric, const BenchStats& s, const std::string& unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"metric\": \"%s\", \"unit\": \"%s\", \"mean\": %.6f, "
                  "\"p50\": %.6f, \"p95\": %.6f, \"max\": %.6f, \"n\": %zu}",
                  metric.c_str(), unit.c_str(), s.mean, s.p50, s.p95, s.max, s.n);
    entries_.push_back(buf);
  }

  void AddScalar(const std::string& metric, double value, const std::string& unit) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "    {\"metric\": \"%s\", \"unit\": \"%s\", \"value\": %.6f}",
                  metric.c_str(), unit.c_str(), value);
    entries_.push_back(buf);
  }

  // Writes BENCH_<name>.json in the working directory; returns false (and
  // prints a warning) if the file cannot be written.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    // Host context: the numbers mean little without the machine and build.
    std::fprintf(f,
                 "  \"context\": {\"hardware_threads\": %u, \"compiler\": \"%s\", "
                 "\"optimized\": %s},\n",
                 std::thread::hardware_concurrency(), __VERSION__,
#ifdef NDEBUG
                 "true"
#else
                 "false"
#endif
    );
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "%s%s\n", entries_[i].c_str(), i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::string> entries_;
};

}  // namespace hwprof

#endif  // HWPROF_BENCH_BENCH_UTIL_H_
