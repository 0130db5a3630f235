// Decode-engine throughput: replays a Figure-3-scale streaming capture (the
// saturating network receive run far past the 16K one-shot RAM, drained
// bank by bank) through the StreamingDecoder in retain mode (full trees and
// steps, what the CLI reports use) and in fold mode (stats only, what
// hwprofd uses), reporting the wall-clock distributions, the shard count
// and a machine-readable BENCH_parallel_analysis.json. Every fold decode is
// checked against the retain decode's summary before its time is counted.
//
// This is a genuine wall-clock microbenchmark of this repository's host
// code. The capture spans several shards, so pooled replay starts
// ThreadPool::DefaultJobs() workers; on a one-CPU host it stays inline.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/obs/telemetry.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

int Run() {
  TestbedConfig config;
  config.profiler.double_buffer = true;
  Testbed tb(config);
  tb.Arm();
  const StreamingRunResult run =
      RunStreamingNetworkReceive(tb, Sec(30), 2048 * 1024, Msec(50));

  PaperHeader("decode engine (host tooling; no paper artefact)",
              "streamed Fig-3 capture decode, retain vs fold");
  std::printf("  capture: %llu events in %zu drained banks; host reports %u "
              "hardware thread(s)\n\n",
              static_cast<unsigned long long>(run.events_drained),
              run.chunks.size(), std::thread::hardware_concurrency());

  auto decode = [&](bool retain) {
    StreamingDecoder dec(tb.tags(), 24, 1'000'000,
                         StreamingOptions{.retain_structure = retain});
    for (const TraceChunk& chunk : run.chunks) {
      dec.FeedChunk(chunk);
    }
    return dec.Finish();
  };
  const std::uint64_t shards_before = obs::GlobalSnapshot().CounterValue("parallel.shards");
  const std::string reference = Summary(decode(true)).Format(0);
  const std::uint64_t shards =
      obs::GlobalSnapshot().CounterValue("parallel.shards") - shards_before;
  constexpr int kRepeats = 9;
  BenchJson json("parallel_analysis");

  for (const bool retain : {true, false}) {
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const DecodedTrace d = decode(retain);
      samples.push_back(MsSince(start));
      if (Summary(d).Format(0) != reference) {
        std::printf("FAIL: %s decode diverged from the first retain decode\n",
                    retain ? "retain" : "fold");
        return 1;
      }
    }
    const BenchStats stats = ComputeStats(samples);
    StatRow(retain ? "StreamingDecoder retain" : "StreamingDecoder fold", stats, "ms");
    json.Add(retain ? "retain_decode_ms" : "fold_decode_ms", stats, "ms");
  }

  std::printf("\n  planner cut the capture into %llu shards\n",
              static_cast<unsigned long long>(shards));
  json.AddScalar("shards_planned", static_cast<double>(shards), "shards");
  json.AddScalar("events", static_cast<double>(run.events_drained), "events");
  json.Write();
  return 0;
}

}  // namespace
}  // namespace hwprof

int main() { return hwprof::Run(); }
