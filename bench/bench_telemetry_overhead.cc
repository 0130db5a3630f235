// Cost of the src/obs pipeline telemetry on the decode hot path: the same
// capture is decoded with telemetry live, with the runtime kill-switch off
// (SetEnabled(false)), and — when this binary is built in a
// -DHWPROF_NO_TELEMETRY tree — fully compiled out. EXPERIMENTS.md asserts
// the enabled-vs-disabled throughput gap stays under 3%; this benchmark
// produces the numbers backing that claim. BM_TelemetryPrimitives prices
// the individual macros so a regression can be attributed.

#include <benchmark/benchmark.h>

#include "src/analysis/decoder.h"
#include "src/obs/telemetry.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

struct CaptureFixture {
  CaptureFixture() {
    tb = std::make_unique<Testbed>();
    tb->Arm();
    RunNetworkReceive(*tb, Sec(5), 1 * kMiB, false);
    raw = tb->StopAndUpload();
  }
  std::unique_ptr<Testbed> tb;
  RawTrace raw;
};

CaptureFixture& SharedFixture() {
  static CaptureFixture fixture;
  return fixture;
}

DecodedTrace DecodeOnce(const CaptureFixture& f) {
  StreamingDecoder decoder(f.tb->tags(), f.raw.timer_bits,
                           f.raw.timer_clock_hz,
                           StreamingOptions{.retain_structure = true});
  decoder.SetClockEnvelope(f.raw.capture_elapsed_ns);
  decoder.Feed(f.raw.events);
  return decoder.Finish(f.raw.overflowed);
}

// The headline pair: identical decode work, telemetry live vs killed. In a
// -DHWPROF_NO_TELEMETRY build both collapse to the compiled-out cost.
void BM_DecodeTelemetryEnabled(benchmark::State& state) {
  CaptureFixture& f = SharedFixture();
  obs::SetEnabled(true);
  for (auto _ : state) {
    DecodedTrace d = DecodeOnce(f);
    benchmark::DoNotOptimize(d.per_function.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.raw.events.size()));
  state.SetLabel(obs::kTelemetryCompiledIn ? "telemetry=on"
                                           : "telemetry=compiled-out");
}
BENCHMARK(BM_DecodeTelemetryEnabled);

void BM_DecodeTelemetryDisabled(benchmark::State& state) {
  CaptureFixture& f = SharedFixture();
  obs::SetEnabled(false);
  for (auto _ : state) {
    DecodedTrace d = DecodeOnce(f);
    benchmark::DoNotOptimize(d.per_function.size());
  }
  obs::SetEnabled(true);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.raw.events.size()));
  state.SetLabel(obs::kTelemetryCompiledIn ? "telemetry=killed"
                                           : "telemetry=compiled-out");
}
BENCHMARK(BM_DecodeTelemetryDisabled);

// Per-primitive costs: one loop iteration = one macro hit on a hot cell.
void BM_TelemetryCounterHit(benchmark::State& state) {
  obs::SetEnabled(true);
  for (auto _ : state) {
    OBS_COUNT("bench.counter", 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterHit);

void BM_TelemetryHistogramHit(benchmark::State& state) {
  obs::SetEnabled(true);
  std::uint64_t ns = 1;
  for (auto _ : state) {
    OBS_HIST_NS("bench.hist", ns);
    ns = ns * 7 + 1;  // walk the bucket ladder
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryHistogramHit);

void BM_TelemetryScopedSpan(benchmark::State& state) {
  obs::SetEnabled(true);
  for (auto _ : state) {
    OBS_SCOPED_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryScopedSpan);

void BM_TelemetrySnapshot(benchmark::State& state) {
  obs::SetEnabled(true);
  OBS_COUNT("bench.snapshot_warm", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::GlobalSnapshot().metrics.size());
  }
}
BENCHMARK(BM_TelemetrySnapshot);

}  // namespace
}  // namespace hwprof

BENCHMARK_MAIN();
