// Host-side tooling performance: how fast the analysis software itself
// chews through captures (a genuine wall-clock microbenchmark of this
// repository's code, not of the simulated machine).

#include <benchmark/benchmark.h>

#include <algorithm>

#include "src/analysis/decoder.h"
#include "src/analysis/export.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/instr/tag_file.h"
#include "src/profhw/binary_trace.h"
#include "src/profhw/smart_socket.h"
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

CaptureFixture& Fixture() {
  static CaptureFixture fixture;
  return fixture;
}

void BM_DecodeCapture(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  for (auto _ : state) {
    DecodedTrace d = Decoder::Decode(f.raw, f.tb->tags());
    benchmark::DoNotOptimize(d.per_function.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.raw.events.size()));
}
BENCHMARK(BM_DecodeCapture);

void BM_SummarizeCapture(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  const DecodedTrace d = Decoder::Decode(f.raw, f.tb->tags());
  for (auto _ : state) {
    Summary s(d);
    benchmark::DoNotOptimize(s.rows().size());
  }
}
BENCHMARK(BM_SummarizeCapture);

void BM_FormatSummary(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  const DecodedTrace d = Decoder::Decode(f.raw, f.tb->tags());
  const Summary s(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.Format().size());
  }
}
BENCHMARK(BM_FormatSummary);

void BM_FormatTraceReport(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  const DecodedTrace d = Decoder::Decode(f.raw, f.tb->tags());
  for (auto _ : state) {
    TraceReportOptions opts;
    opts.max_lines = 1000;
    benchmark::DoNotOptimize(TraceReport::Format(d, opts).size());
  }
}
BENCHMARK(BM_FormatTraceReport);

void BM_ExportTraceEventJson(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  const DecodedTrace d = Decoder::Decode(f.raw, f.tb->tags());
  for (auto _ : state) {
    const std::string json = ExportTraceEventJson(d);
    benchmark::DoNotOptimize(json.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.raw.events.size()));
}
BENCHMARK(BM_ExportTraceEventJson);

void BM_ExportFoldedStacks(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  const DecodedTrace d = Decoder::Decode(f.raw, f.tb->tags());
  for (auto _ : state) {
    const std::string folded = ExportFoldedStacks(d);
    benchmark::DoNotOptimize(folded.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.raw.events.size()));
}
BENCHMARK(BM_ExportFoldedStacks);

void BM_SerializeRawTrace(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  for (auto _ : state) {
    const std::string text = f.raw.Serialize();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.raw.events.size()));
}
BENCHMARK(BM_SerializeRawTrace);

void BM_SerializeRoundTrip(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  for (auto _ : state) {
    RawTrace loaded;
    benchmark::DoNotOptimize(RawTrace::Deserialize(f.raw.Serialize(), &loaded));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.raw.events.size()));
}
BENCHMARK(BM_SerializeRoundTrip);

// --- Container decode: the text parser vs the binary (hwpb) reader ----------
//
// The headline format-matrix ratio: items/s of BM_DecodeBinaryContainer (or
// the SoA variant, which skips the RawEvent zip) over BM_ParseTextContainer
// is the binary container's decode speedup. CI puts it in the job summary.

void BM_ParseTextContainer(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  const std::string text = f.raw.Serialize();
  for (auto _ : state) {
    RawTrace loaded;
    benchmark::DoNotOptimize(RawTrace::Deserialize(text, &loaded));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.raw.events.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseTextContainer);

// The other two text parsers: the same events as a chunked stream file (what
// `hwprof_analyze --follow` re-reads), and the names file every tool loads.

void BM_ParseStreamText(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  StreamCapture stream;
  stream.timer_bits = f.raw.timer_bits;
  stream.timer_clock_hz = f.raw.timer_clock_hz;
  constexpr std::size_t kChunks = 8;
  const std::size_t per_chunk = f.raw.events.size() / kChunks + 1;
  for (std::size_t begin = 0; begin < f.raw.events.size(); begin += per_chunk) {
    const std::size_t end = std::min(f.raw.events.size(), begin + per_chunk);
    TraceChunk chunk;
    chunk.dropped_before = begin / 64;
    chunk.events.assign(f.raw.events.begin() + static_cast<std::ptrdiff_t>(begin),
                        f.raw.events.begin() + static_cast<std::ptrdiff_t>(end));
    stream.chunks.push_back(std::move(chunk));
  }
  const std::string text = SerializeStreamText(stream);
  for (auto _ : state) {
    StreamCapture loaded;
    benchmark::DoNotOptimize(
        ParseStreamText(text, &loaded, nullptr, /*salvage=*/false, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.raw.events.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseStreamText);

void BM_ParseTagFile(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  const std::string text = f.tb->tags().Format();
  for (auto _ : state) {
    TagFile loaded;
    benchmark::DoNotOptimize(TagFile::Parse(text, &loaded));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.tb->tags().size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseTagFile);

void BM_DecodeBinaryContainer(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  const std::string bin = EncodeCaptureBinary(f.raw);
  for (auto _ : state) {
    RawTrace loaded;
    benchmark::DoNotOptimize(DecodeCaptureBinary(bin, &loaded, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.raw.events.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bin.size()));
}
BENCHMARK(BM_DecodeBinaryContainer);

void BM_DecodeBinaryContainerSoA(benchmark::State& state) {
  CaptureFixture& f = Fixture();
  const std::string bin = EncodeCaptureBinary(f.raw);
  for (auto _ : state) {
    BinaryChunkReader reader(bin, /*salvage=*/false);
    SoaChunk chunk;
    std::uint64_t total = 0;
    while (reader.Next(&chunk)) {
      total += chunk.tags.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.raw.events.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bin.size()));
}
BENCHMARK(BM_DecodeBinaryContainerSoA);

// End to end, capture bytes to DecodedTrace, per format: the one decode
// path `hwprof_analyze` takes, in its retain mode, so the two differ only in
// the container parse.

void AnalyzeFromBytes(benchmark::State& state, const std::string& bytes) {
  CaptureFixture& f = Fixture();
  for (auto _ : state) {
    const CaptureDecode d = DecodeCaptureBytes(bytes, f.tb->tags(), /*salvage=*/false,
                                               StreamingOptions{.retain_structure = true});
    benchmark::DoNotOptimize(d.trace.per_function.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.raw.events.size()));
}

void BM_AnalyzeFromText(benchmark::State& state) {
  AnalyzeFromBytes(state, Fixture().raw.Serialize());
}
BENCHMARK(BM_AnalyzeFromText);

void BM_AnalyzeFromBinary(benchmark::State& state) {
  AnalyzeFromBytes(state, EncodeCaptureBinary(Fixture().raw));
}
BENCHMARK(BM_AnalyzeFromBinary);

}  // namespace
}  // namespace hwprof

BENCHMARK_MAIN();
