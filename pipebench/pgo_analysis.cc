// pgo_analysis: the measure-fix-measure loop run offline. Setup simulates
// the 20 one-shot text captures (the four hwprof_capture workloads x the
// five --config variants); each pass loads every capture, renders every
// report and export hwprof_analyze offers, then the 16 baseline-vs-variant
// diffs under the PGO gate flags. No simulation is timed.

#include "pipebench/bench.h"
#include "src/analysis/callgraph.h"
#include "src/analysis/diff.h"
#include "src/analysis/export.h"
#include "src/analysis/grouping.h"
#include "src/analysis/process_report.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"
#include "src/profhw/binary_trace.h"

namespace pipebench {
namespace {

using namespace hwprof;

// hwprof_analyze --diff A B names --noise-pct 2 --quantum-us 2 --gate net
constexpr DiffOptions kPgoDiff{.noise_pct = 2.0, .quantum_us = 2.0, .gate_edges = false};

// Committed reports the unmodified tree regenerates byte for byte.
struct CommittedDiff {
  const char* workload;
  const char* config;
  const char* path;
};
constexpr CommittedDiff kCommittedDiffs[] = {
    {"net_receive", "cksum", "bench/pgo/cksum_net_receive.diff"},
    {"fork_exec", "pmap", "bench/pgo/pmap_fork_exec.diff"},
    {"lookup", "namei", "bench/pgo/namei_lookup.diff"},
};

struct PassTimes {
  double total = 0;
  double parse = 0;
  double decode = 0;
  double summary = 0;
  double trace = 0;
  double callgraph = 0;
  double groups = 0;
  double processes = 0;
  double exports = 0;
  double diff = 0;
  std::uint64_t diff_rows = 0;
};

struct PassOutput {
  TagFile names;  // the decoded traces point into it
  std::vector<DecodedTrace> decoded;
  std::vector<std::string> summaries;
  std::vector<std::string> diffs;
  std::size_t report_bytes = 0;
  bool parsed_ok = true;
};

struct DiffPair {
  std::size_t baseline;
  std::size_t variant;
};

// Each workload's baseline against each of its four variants (the pool is
// workload-major, config-minor, baseline first).
std::vector<DiffPair> DiffPairs(const CapturePool& pool) {
  std::vector<DiffPair> pairs;
  const std::size_t per_workload = std::size(kPoolConfigs);
  for (std::size_t i = 0; i < pool.captures.size(); ++i) {
    if (i % per_workload != 0) {
      pairs.push_back({i - i % per_workload, i});
    }
  }
  return pairs;
}

std::size_t IndexOf(const CapturePool& pool, const std::string& workload,
                    const std::string& config) {
  for (std::size_t i = 0; i < pool.captures.size(); ++i) {
    if (pool.captures[i].workload == workload && pool.captures[i].config == config) {
      return i;
    }
  }
  return pool.captures.size();
}

void CheckFile(const std::string& path, const std::string& actual, Report* report) {
  std::string expected;
  report->Check(ReadFile(path, &expected) && expected == actual,
                "pgo: output differs from " + path);
}

PassTimes RunPass(const CapturePool& pool, const std::vector<std::size_t>& order,
                  const std::vector<DiffPair>& pairs,
                  const std::vector<std::size_t>& diff_order, SpanLog* spans,
                  PassOutput* out) {
  PassTimes t;
  const std::uint64_t t0 = NowNs();
  const int pass = spans != nullptr ? spans->Begin("pass") : -1;
  TimeLayer(spans, pass, "parse", &t.parse,
            [&] { out->parsed_ok = TagFile::Parse(pool.names_text, &out->names); });
  const std::map<std::string, std::string> groups = out->names.GroupsByName();
  out->decoded.resize(pool.captures.size());
  out->summaries.resize(pool.captures.size());
  for (const std::size_t i : order) {
    const int cap = spans != nullptr ? spans->Begin("capture", pass) : -1;
    RawTrace raw;
    TimeLayer(spans, cap, "parse", &t.parse, [&] {
      out->parsed_ok &= RawTrace::Deserialize(pool.captures[i].text, &raw);
    });
    DecodedTrace& d = out->decoded[i];
    TimeLayer(spans, cap, "decode", &t.decode,
              [&] { d = DecodeDefaultEngine(raw, out->names); });
    TimeLayer(spans, cap, "report.summary", &t.summary,
              [&] { out->summaries[i] = Summary(d).Format(20); });
    TimeLayer(spans, cap, "report.trace", &t.trace,
              [&] { out->report_bytes += TraceReport::Format(d).size(); });
    TimeLayer(spans, cap, "report.callgraph", &t.callgraph,
              [&] { out->report_bytes += CallGraph(d).Format(d, 10).size(); });
    TimeLayer(spans, cap, "report.groups", &t.groups,
              [&] { out->report_bytes += Grouping(d, groups).Format().size(); });
    TimeLayer(spans, cap, "report.processes", &t.processes,
              [&] { out->report_bytes += ProcessReport(d).Format(d).size(); });
    TimeLayer(spans, cap, "export", &t.exports, [&] {
      out->report_bytes += ExportTraceEventJson(d).size() + ExportFoldedStacks(d).size();
    });
    if (spans != nullptr) {
      spans->End(cap);
    }
  }
  out->diffs.resize(pairs.size());
  for (const std::size_t k : diff_order) {
    TimeLayer(spans, pass, "diff", &t.diff, [&] {
      const TraceDiff diff(out->decoded[pairs[k].baseline], out->decoded[pairs[k].variant],
                           groups, kPgoDiff);
      out->diffs[k] = diff.FormatText();
      t.diff_rows += diff.functions().size() + diff.edges().size() + diff.groups().size();
    });
  }
  if (spans != nullptr) {
    spans->End(pass);
  }
  t.total = SecondsBetween(t0, NowNs());
  return t;
}

double Median(const std::vector<double>& v) { return NearestRank(v, 50); }

}  // namespace

void RunPgoAnalysis(const Options& options, Report* report) {
  std::vector<double> setup_s;
  std::vector<double> sim_s;
  std::vector<double> encode_s;
  CapturePool pool;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t s0 = NowNs();
    CapturePool built = BuildCapturePool(/*with_binary=*/false);
    setup_s.push_back(SecondsBetween(s0, NowNs()));
    sim_s.push_back(built.sim_s);
    encode_s.push_back(built.encode_s);
    if (i == 0) {
      pool = std::move(built);
    } else {
      report->Check(SamePool(pool, built), "pgo: repeated capture simulation differs");
    }
  }
  report->Check(pool.names_agree, "pgo: the captures disagree on the names file");

  // The baseline net_receive capture is the committed golden, in both
  // interchanges.
  const std::size_t net = IndexOf(pool, "net_receive", "baseline");
  const std::size_t mixed = IndexOf(pool, "mixed", "baseline");
  const std::size_t fork = IndexOf(pool, "fork_exec", "baseline");
  CheckFile("tests/golden/net_receive.capture", pool.captures[net].text, report);
  CheckFile("tests/golden/net_receive.names", pool.names_text, report);
  CheckFile("tests/golden/net_receive.capture.bin",
            EncodeCaptureBinary(pool.captures[net].raw), report);

  const std::vector<DiffPair> pairs = DiffPairs(pool);
  std::vector<std::pair<std::size_t, std::string>> committed;  // diff index, text
  for (const CommittedDiff& c : kCommittedDiffs) {
    const std::size_t variant = IndexOf(pool, c.workload, c.config);
    std::string text;
    report->Check(ReadFile(c.path, &text), std::string("pgo: cannot read ") + c.path);
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      if (pairs[k].variant == variant) {
        committed.emplace_back(k, text);
      }
    }
  }

  Rng rng(options.seed);
  const std::vector<std::size_t> order = Shuffled(pool.captures.size(), rng);
  const std::vector<std::size_t> diff_order = Shuffled(pairs.size(), rng);

  std::vector<double> untraced_s;
  std::vector<PassTimes> traced;
  std::vector<std::string> first_summaries;
  SpanLog spans;
  obs::Snapshot obs_before;
  obs::Snapshot obs_after;

  const int min_passes = options.trace ? 4 : 3;
  const std::uint64_t start = NowNs();
  for (int pass = 0;
       pass < min_passes || SecondsBetween(start, NowNs()) < options.seconds; ++pass) {
    const bool traced_pass = options.trace && pass % 2 == 1;
    const bool first_traced = traced_pass && traced.empty();
    if (first_traced) {
      obs_before = obs::GlobalSnapshot();
    }
    PassOutput out;
    const PassTimes times =
        RunPass(pool, order, pairs, diff_order, traced_pass ? &spans : nullptr, &out);
    if (pass == 0) {
      report->e2e["peak_rss_mb"] = PeakRssMb();  // setup plus one pass
    }
    if (first_traced) {
      obs_after = obs::GlobalSnapshot();
    }
    if (traced_pass) {
      traced.push_back(times);
    } else {
      untraced_s.push_back(times.total);
    }

    report->Ops(pool.captures.size() + pairs.size(), out.parsed_ok ? 0 : 1,
                "pgo: a capture or the names file failed to parse");
    for (const auto& [k, text] : committed) {
      report->Check(out.diffs[k] == text, "pgo: a diff differs from its bench/pgo/ report");
    }
    if (pass == 0) {
      // The goldens golden_test pins, rendered from this pass's decodes.
      TraceReportOptions net_trace;
      net_trace.max_lines = 120;
      TraceReportOptions fork_trace;
      fork_trace.max_lines = 160;
      CheckFile("tests/golden/net_receive_summary.txt", out.summaries[net], report);
      CheckFile("tests/golden/net_receive_trace.txt",
                TraceReport::Format(out.decoded[net], net_trace), report);
      CheckFile("tests/golden/mixed_summary.txt", Summary(out.decoded[mixed]).Format(30),
                report);
      CheckFile("tests/golden/fork_exec_trace.txt",
                TraceReport::Format(out.decoded[fork], fork_trace), report);
      first_summaries = out.summaries;
    } else {
      report->Check(out.summaries == first_summaries, "pgo: summaries differ between passes");
    }
    out = PassOutput{};
    TrimHeap();
  }

  std::vector<double> all_s = untraced_s;
  for (const PassTimes& t : traced) {
    all_s.push_back(t.total);
  }
  // Throughput over all passes of the run. A shared host runs in fast and
  // slow stretches of several seconds; the mean moves smoothly with the
  // share of slow passes, where a median would jump between the two.
  double busy_s = 0;
  for (const double s : all_s) {
    busy_s += s;
  }
  report->e2e["setup_s"] = Median(setup_s);
  report->e2e["events_per_s"] =
      static_cast<double>(pool.events) * static_cast<double>(all_s.size()) / busy_s;
  // Latency of one measure-fix-measure iteration: every capture's reports
  // and exports plus the 16 diffs. (Per-capture times would put the median
  // on the boundary between two capture types and flip with noise.)
  report->e2e["latency_p50_ms"] = NearestRank(all_s, 50) * 1e3;
  report->e2e["latency_p95_ms"] = NearestRank(all_s, 95) * 1e3;
  const Quartiles q = NearestRankQuartiles(all_s);
  report->Note(StrFormat("pgo: %zu captures (%llu events), %zu diffs; %zu passes "
                         "(%zu traced), pass time q1/median/q3 %.1f/%.1f/%.1f ms",
                         pool.captures.size(), static_cast<unsigned long long>(pool.events),
                         pairs.size(), all_s.size(), traced.size(), q.q1 * 1e3,
                         q.median * 1e3, q.q3 * 1e3));
  if (!options.trace) {
    return;
  }

  auto median_of = [&](double PassTimes::*field) {
    std::vector<double> v;
    for (const PassTimes& t : traced) {
      v.push_back(t.*field);
    }
    return Median(v);
  };
  auto counter = [&](const char* name) {
    return static_cast<double>(obs_after.CounterValue(name) -
                               obs_before.CounterValue(name));
  };
  std::uint64_t text_bytes = 0;
  for (const PoolCapture& cap : pool.captures) {
    text_bytes += cap.text.size();
  }
  auto& layer = report->layer;
  layer["sim.host_s"] = Median(sim_s);
  layer["sim.host_ns_per_event"] = layer["sim.host_s"] * 1e9 / static_cast<double>(pool.events);
  layer["sim.virtual_s"] = pool.virtual_s;
  layer["encode.s"] = Median(encode_s);
  layer["encode.bytes"] = static_cast<double>(pool.encode_bytes);
  layer["parse.s"] = median_of(&PassTimes::parse);
  layer["parse.mb_per_s"] = static_cast<double>(text_bytes) / 1e6 / layer["parse.s"];
  layer["decode.s"] = median_of(&PassTimes::decode);
  layer["decode.events_per_s"] = static_cast<double>(pool.events) / layer["decode.s"];
  layer["decode.shards"] = counter("parallel.shards");
  layer["decode.events"] = counter("decode.events");
  layer["report.summary_s"] = median_of(&PassTimes::summary);
  layer["report.trace_s"] = median_of(&PassTimes::trace);
  layer["report.callgraph_s"] = median_of(&PassTimes::callgraph);
  layer["report.groups_s"] = median_of(&PassTimes::groups);
  layer["report.processes_s"] = median_of(&PassTimes::processes);
  layer["export.s"] = median_of(&PassTimes::exports);
  layer["diff.s"] = median_of(&PassTimes::diff);
  layer["diff.rows"] = static_cast<double>(traced.front().diff_rows);
  const double traced_total = median_of(&PassTimes::total);
  layer["trace.overhead_pct"] = (traced_total / Median(untraced_s) - 1.0) * 100.0;

  auto share = [&](const char* metric) { return 100 * layer[metric] / traced_total; };
  const double reports = share("report.summary_s") + share("report.trace_s") +
                         share("report.callgraph_s") + share("report.groups_s") +
                         share("report.processes_s");
  report->Note(StrFormat(
      "pgo layer shares of a traced pass (%.3f s): parse %.1f%%, decode %.1f%%, "
      "reports %.1f%% (trace %.1f%%), export %.1f%%, diff %.1f%%, other %.1f%%",
      traced_total, share("parse.s"), share("decode.s"), reports, share("report.trace_s"),
      share("export.s"), share("diff.s"),
      100.0 - share("parse.s") - share("decode.s") - reports - share("export.s") -
          share("diff.s")));
  spans.Write(options.workdir + "/spans-pgo_analysis.json");
}

}  // namespace pipebench
