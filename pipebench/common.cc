#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "pipebench/bench.h"
#include "src/analysis/parallel.h"
#include "src/profhw/binary_trace.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace pipebench {

using namespace hwprof;

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p / 100.0 * n), 1.0, n));
  return samples[rank - 1];
}

Quartiles NearestRankQuartiles(const std::vector<double>& samples) {
  return Quartiles{NearestRank(samples, 25), NearestRank(samples, 50),
                   NearestRank(samples, 75)};
}

double MiddleHalfMean(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t lo = samples.size() / 4;
  const std::size_t hi = samples.size() - lo;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    sum += samples[i];
  }
  return hi > lo ? sum / static_cast<double>(hi - lo) : 0;
}

bool SelfCheckStats(std::string* why) {
  struct Case {
    std::vector<double> samples;
    double p;
    double want;
  };
  // Worked by hand: rank = ceil(p/100 * n), 1-based into the sorted sample.
  const Case cases[] = {
      {{15, 20, 35, 40, 50}, 5, 15},    // ceil(0.25) = 1
      {{15, 20, 35, 40, 50}, 30, 20},   // ceil(1.5)  = 2
      {{15, 20, 35, 40, 50}, 40, 20},   // ceil(2.0)  = 2 (exact rank)
      {{15, 20, 35, 40, 50}, 50, 35},   // ceil(2.5)  = 3
      {{15, 20, 35, 40, 50}, 100, 50},  // ceil(5.0)  = 5
      {{50, 15, 40, 20, 35}, 50, 35},   // unsorted input
      {{7}, 0, 7},                      // rank 0 clamps to 1
      {{7}, 95, 7},
      {{}, 50, 0},
      // 20 samples 1..20: p95 -> rank 19, p99 -> rank 20.
      {{20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
       95, 19},
      {{20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
       99, 20},
  };
  for (const Case& c : cases) {
    const double got = NearestRank(c.samples, c.p);
    if (got != c.want) {
      *why = "NearestRank(p=" + std::to_string(c.p) + ") gave " +
             std::to_string(got) + ", want " + std::to_string(c.want);
      return false;
    }
  }
  struct QuartileCase {
    std::vector<double> samples;
    Quartiles want;
  };
  const QuartileCase quartile_cases[] = {
      // n = 10: ranks ceil(2.5) = 3, ceil(5) = 5, ceil(7.5) = 8.
      {{3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, {7, 8, 15}},
      // n = 11: ranks ceil(2.75) = 3, ceil(5.5) = 6, ceil(8.25) = 9.
      {{3, 6, 7, 8, 8, 9, 10, 13, 15, 16, 20}, {7, 9, 15}},
      // n = 4: ranks 1, 2, 3.
      {{4, 1, 3, 2}, {1, 2, 3}},
  };
  for (const QuartileCase& c : quartile_cases) {
    const Quartiles q = NearestRankQuartiles(c.samples);
    if (q.q1 != c.want.q1 || q.median != c.want.median || q.q3 != c.want.q3) {
      *why = "NearestRankQuartiles gave " + std::to_string(q.q1) + "/" +
             std::to_string(q.median) + "/" + std::to_string(q.q3) +
             ", want " + std::to_string(c.want.q1) + "/" +
             std::to_string(c.want.median) + "/" + std::to_string(c.want.q3);
      return false;
    }
  }
  struct MeanCase {
    std::vector<double> samples;
    double want;
  };
  const MeanCase mean_cases[] = {
      {{100, 1, 2, 3, 4, 5, 6, 0}, 3.5},  // n = 8: 2 left out at each end
      {{5, 1, 4, 2, 3}, 3},               // n = 5: 1 left out at each end
      {{1, 2, 3}, 2},                     // n = 3: none left out
      {{7}, 7},
      {{}, 0},
  };
  for (const MeanCase& c : mean_cases) {
    const double got = MiddleHalfMean(c.samples);
    if (got != c.want) {
      *why = "MiddleHalfMean gave " + std::to_string(got) + ", want " +
             std::to_string(c.want);
      return false;
    }
  }
  return true;
}

void Report::Check(bool ok, const std::string& what) {
  Ops(1, ok ? 0 : 1, what);
}

void Report::Ops(std::uint64_t n, std::uint64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && failures.size() < 20) {
    failures.push_back(what);
  }
}

int SpanLog::Begin(const char* name, int parent) {
  const std::uint64_t now = NowNs();
  spans_.push_back(Span{name, now, now, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int span) { spans_[static_cast<std::size_t>(span)].end_ns = NowNs(); }

double SpanLog::Seconds(int span) const {
  const Span& s = spans_[static_cast<std::size_t>(span)];
  return SecondsBetween(s.start_ns, s.end_ns);
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    out << line;
  }
  out << "\n]}\n";
  return out.good();
}

std::vector<std::size_t> Shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

namespace {

KernConfig KnobsFor(const std::string& config) {
  KernConfig knobs;
  knobs.cksum_unrolled = config == "cksum" || config == "all";
  knobs.pmap_batch_pte = config == "pmap" || config == "all";
  knobs.namei_cache = config == "namei" || config == "all";
  return knobs;
}

}  // namespace

CapturePool BuildCapturePool(bool with_binary) {
  CapturePool pool;
  for (const char* workload : kPoolWorkloads) {
    for (const char* config : kPoolConfigs) {
      PoolCapture cap;
      cap.workload = workload;
      cap.config = config;
      const std::string w = workload;
      const std::uint64_t t0 = NowNs();
      TestbedConfig tb_config;
      tb_config.kernel.knobs = KnobsFor(config);
      Testbed tb(tb_config);
      tb.Arm();
      // hwprof_capture's per-workload defaults (the committed goldens).
      if (w == "net_receive") {
        cap.virtual_ns = RunNetworkReceive(tb, Msec(2000), 128 * 1024, false).elapsed;
      } else if (w == "mixed") {
        cap.virtual_ns = RunMixed(tb, Msec(300)).elapsed;
      } else if (w == "fork_exec") {
        cap.virtual_ns = RunForkExec(tb, 3, Msec(2000)).elapsed;
      } else {
        cap.virtual_ns = RunLookupMix(tb, 20, Msec(1000)).elapsed;
      }
      cap.raw = tb.StopAndUpload();
      const std::uint64_t t1 = NowNs();
      cap.text = cap.raw.Serialize();
      if (with_binary) {
        cap.binary = EncodeCaptureBinary(cap.raw);
      }
      const std::uint64_t t2 = NowNs();
      pool.sim_s += SecondsBetween(t0, t1);
      pool.encode_s += SecondsBetween(t1, t2);
      pool.encode_bytes += cap.text.size() + cap.binary.size();
      pool.events += cap.raw.events.size();
      pool.virtual_s += static_cast<double>(cap.virtual_ns) / 1e9;
      const std::string names = tb.tags().Format();
      if (pool.names_text.empty()) {
        pool.names_text = names;
      } else if (names != pool.names_text) {
        pool.names_agree = false;
      }
      pool.captures.push_back(std::move(cap));
    }
  }
  return pool;
}

bool SamePool(const CapturePool& a, const CapturePool& b) {
  if (a.captures.size() != b.captures.size() || a.names_text != b.names_text) {
    return false;
  }
  for (std::size_t i = 0; i < a.captures.size(); ++i) {
    if (a.captures[i].text != b.captures[i].text ||
        a.captures[i].binary != b.captures[i].binary) {
      return false;
    }
  }
  return true;
}

DecodedTrace DecodeDefaultEngine(const RawTrace& raw, const TagFile& names) {
  ParallelAnalyzer analyzer(names, raw.timer_bits, raw.timer_clock_hz,
                            ParallelOptions{.jobs = 0});
  analyzer.NoteDropped(raw.dropped_events);
  analyzer.SetClockEnvelope(static_cast<Nanoseconds>(raw.capture_elapsed_ns));
  analyzer.Feed(raw.events);
  return analyzer.Finish(raw.overflowed);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

void TrimHeap() { malloc_trim(0); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace pipebench
