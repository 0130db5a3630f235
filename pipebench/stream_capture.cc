// stream_capture: the saturating TCP receive on a double-buffered board,
// drained every 100 ms, carried through every offline layer per pass:
// simulate + drain -> hwpb stream encode -> parse -> decode (the CLI's
// default engine) -> Figure 3 summary.

#include <functional>
#include <memory>

#include "pipebench/bench.h"
#include "src/analysis/parallel.h"
#include "src/analysis/summary.h"
#include "src/base/strings.h"
#include "src/instr/readout.h"
#include "src/obs/telemetry.h"
#include "src/profhw/binary_trace.h"
#include "src/service/ingest.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace pipebench {
namespace {

using namespace hwprof;

constexpr Nanoseconds kDrainPeriod = 100 * kMillisecond;
// Just longer than the receive needs to reach EOF for every variant below,
// so little idle time is simulated after it.
constexpr Nanoseconds kRunFor = Sec(18);

// The seed picks one of these stream sizes (8 MiB plus a few KiB, so every
// variant costs the same). 8 MiB keeps a pass near 0.2 s on a 4-CPU host,
// so a run holds enough passes for steady medians. The drain accounting and
// the FNV-1a of the hwpb stream encoding were recorded from the unmodified
// tree: the simulator is bit-exact, so a change in any of them is a change
// in modeled output.
struct Variant {
  std::uint64_t stream_bytes;
  std::uint64_t events_drained;
  std::uint64_t events_dropped;
  std::uint64_t hwpb_hash;
};
constexpr Variant kVariants[] = {
    {(8u << 20) + 0 * 4096, 656420, 0, 0x4c6493512e31c4a4},
    {(8u << 20) + 1 * 4096, 656778, 0, 0xc26c598034d40d59},
    {(8u << 20) + 2 * 4096, 657092, 0, 0xf811a4471a21303b},
    {(8u << 20) + 3 * 4096, 657438, 0, 0x1936f3b221a71362},
};

TestbedConfig StreamConfig() {
  TestbedConfig config;
  config.profiler.double_buffer = true;
  return config;
}

// Host seconds of one pass; traced passes also fill the layer breakdown.
struct PassTimes {
  double total = 0;
  double sim = 0;  // simulation self time (drain calls excluded)
  double drain = 0;
  double encode = 0;
  double parse = 0;
  double decode = 0;
  double summary = 0;
  double free = 0;  // destroying the decoded call trees
  std::uint64_t drain_calls = 0;
};

struct PassOutput {
  StreamingRunResult run;
  StreamCapture sent;    // the drained chunks, as encoded
  StreamCapture parsed;  // the hwpb round trip
  std::string hwpb;
  std::string summary;
  bool parsed_ok = false;
};

// RunStreamingNetworkReceive with DrainChunk driven from this benchmark's
// own callback on the same schedule (first poll one period after the start,
// then one period after each poll; DrainRemaining after the receive), so
// that each drain call gets a span. Produces the same chunks, bit for bit.
StreamingRunResult TracedStreamingReceive(Testbed& tb, std::uint64_t stream_bytes,
                                          SpanLog* spans, int pass, PassTimes* times) {
  auto result = std::make_shared<StreamingRunResult>();
  auto stopped = std::make_shared<bool>(false);
  const int sim = spans->Begin("sim", pass);
  auto drain = std::make_shared<std::function<void()>>();
  *drain = [&tb, result, stopped, spans, sim, times, drain] {
    if (*stopped) {
      return;
    }
    ++result->polls;
    TraceChunk chunk;
    const int span = spans->Begin("instr.drain", sim);
    const bool got = DrainChunk(tb.machine(), tb.instr(), tb.profiler(), &chunk);
    spans->End(span);
    times->drain += spans->Seconds(span);
    ++times->drain_calls;
    if (got) {
      ++result->drains;
      result->chunks.push_back(std::move(chunk));
    }
    tb.machine().events().ScheduleAt(tb.machine().Now() + kDrainPeriod,
                                     [drain] { (*drain)(); });
  };
  tb.machine().events().ScheduleAt(tb.machine().Now() + kDrainPeriod,
                                   [drain] { (*drain)(); });

  result->net = RunNetworkReceive(tb, kRunFor, stream_bytes, /*verify_payload=*/false);
  spans->End(sim);
  times->sim = spans->Seconds(sim) - times->drain;
  *stopped = true;
  tb.profiler().Disarm();
  const int tail = spans->Begin("instr.drain_remaining", pass);
  DrainRemaining(tb.machine(), tb.instr(), tb.profiler(), &result->chunks);
  spans->End(tail);
  *drain = nullptr;  // breaks the closure's reference cycle
  times->drain += spans->Seconds(tail);
  times->drain_calls += 2;  // DrainRemaining polls the board twice
  for (const TraceChunk& c : result->chunks) {
    result->events_drained += c.events.size();
    result->events_dropped += c.dropped_before;
  }
  return *result;
}

// One pass over `tb` (constructed and armed by the caller). `spans` is
// non-null for a traced pass.
PassTimes RunPass(Testbed& tb, const Variant& variant, SpanLog* spans,
                  PassOutput* out) {
  PassTimes times;
  const std::uint64_t t0 = NowNs();
  const int pass = spans != nullptr ? spans->Begin("pass") : -1;
  if (spans != nullptr) {
    out->run = TracedStreamingReceive(tb, variant.stream_bytes, spans, pass, &times);
  } else {
    out->run = RunStreamingNetworkReceive(tb, kRunFor, variant.stream_bytes,
                                          kDrainPeriod);
  }
  TimeLayer(spans, pass, "encode", &times.encode, [&] {
    out->sent.timer_bits = tb.profiler().timer().bits();
    out->sent.timer_clock_hz = tb.profiler().timer().clock_hz();
    out->sent.chunks = std::move(out->run.chunks);
    out->hwpb = EncodeStreamBinary(out->sent);
  });
  TimeLayer(spans, pass, "parse", &times.parse, [&] {
    std::vector<TraceDiag> diags;
    out->parsed_ok = DecodeStreamBinary(out->hwpb, &out->parsed, &diags) && diags.empty();
  });
  auto decoded = std::make_unique<DecodedTrace>();
  TimeLayer(spans, pass, "decode", &times.decode, [&] {
    ParallelAnalyzer analyzer(tb.tags(), out->parsed.timer_bits,
                              out->parsed.timer_clock_hz, ParallelOptions{.jobs = 0});
    for (const TraceChunk& chunk : out->parsed.chunks) {
      analyzer.FeedChunk(chunk);
    }
    *decoded = analyzer.Finish(out->parsed.truncated_tail);
  });
  TimeLayer(spans, pass, "report.summary", &times.summary,
            [&] { out->summary = Summary(*decoded).Format(20); });
  // Freeing the call trees is part of the pass, as it is of a CLI run.
  TimeLayer(spans, pass, "free decoded trace", &times.free, [&] { decoded.reset(); });
  if (spans != nullptr) {
    spans->End(pass);
  }
  times.total = SecondsBetween(t0, NowNs());
  return times;
}

// Serial StreamingDecoder reference over the same chunks: the default
// engine's summary must equal it.
std::string SerialReferenceSummary(const TagFile& names, const StreamCapture& stream) {
  StreamingDecoder decoder(names, stream.timer_bits, stream.timer_clock_hz);
  for (const TraceChunk& chunk : stream.chunks) {
    decoder.FeedChunk(chunk);
  }
  return Summary(decoder.Finish(stream.truncated_tail)).Format(20);
}

double Median(const std::vector<double>& v) { return NearestRank(v, 50); }

}  // namespace

void RunStreamCapture(const Options& options, Report* report) {
  const Variant& variant = kVariants[options.seed % std::size(kVariants)];
  report->Note(StrFormat("stream: %llu bytes, drained every %llu ms",
                         static_cast<unsigned long long>(variant.stream_bytes),
                         static_cast<unsigned long long>(kDrainPeriod / kMillisecond)));

  std::vector<double> setup_s;
  std::vector<double> untraced_s;
  std::vector<PassTimes> traced;
  std::uint64_t events_per_pass = 0;
  SpanLog spans;
  obs::Snapshot obs_before;
  obs::Snapshot obs_after;

  const int min_passes = options.trace ? 4 : 3;
  const std::uint64_t start = NowNs();
  for (int pass = 0;
       pass < min_passes || SecondsBetween(start, NowNs()) < options.seconds; ++pass) {
    // Traced runs alternate untraced and traced passes, so the tracing
    // overhead is measured under the same conditions.
    const bool traced_pass = options.trace && pass % 2 == 1;
    const std::uint64_t s0 = NowNs();
    auto tb = std::make_unique<Testbed>(StreamConfig());
    tb->Arm();
    setup_s.push_back(SecondsBetween(s0, NowNs()));

    PassOutput out;
    const bool first_traced = traced_pass && traced.empty();
    if (first_traced) {
      obs_before = obs::GlobalSnapshot();
    }
    const PassTimes times = RunPass(*tb, variant, traced_pass ? &spans : nullptr, &out);
    if (pass == 0) {
      // One pass's footprint, as one capture-to-report process has it.
      // Later passes would add the drained chunks each
      // RunStreamingNetworkReceive call keeps alive through its drain
      // closure's reference cycle (8 bytes per event).
      report->e2e["peak_rss_mb"] = PeakRssMb();
    }
    if (first_traced) {
      obs_after = obs::GlobalSnapshot();
    }
    if (traced_pass) {
      traced.push_back(times);
    } else {
      untraced_s.push_back(times.total);
    }
    events_per_pass = out.run.events_drained;

    // Modeled outputs only: the hwpb round trip, EOF, the drain accounting
    // and the bytes of the encoding.
    report->Check(out.parsed_ok && out.parsed.chunks == out.sent.chunks &&
                      !out.parsed.truncated_tail,
                  "stream: hwpb round trip differs from the drained chunks");
    report->Check(out.run.net.done_at != 0 &&
                      out.run.net.bytes_received == variant.stream_bytes,
                  "stream: the receive did not reach EOF");
    const std::uint64_t hash = service::IngestService::HashPayload(out.hwpb);
    report->Check(out.run.events_drained == variant.events_drained &&
                      out.run.events_dropped == variant.events_dropped &&
                      hash == variant.hwpb_hash,
                  StrFormat("stream: drained %llu dropped %llu hwpb %016llx, "
                            "recorded %llu / %llu / %016llx",
                            static_cast<unsigned long long>(out.run.events_drained),
                            static_cast<unsigned long long>(out.run.events_dropped),
                            static_cast<unsigned long long>(hash),
                            static_cast<unsigned long long>(variant.events_drained),
                            static_cast<unsigned long long>(variant.events_dropped),
                            static_cast<unsigned long long>(variant.hwpb_hash)));
    if (pass == 0) {
      report->Check(SerialReferenceSummary(tb->tags(), out.parsed) == out.summary,
                    "stream: default-engine summary differs from the serial "
                    "StreamingDecoder's");
      report->Note(StrFormat(
          "stream: %llu events drained, %llu dropped, %llu bank swaps, "
          "EOF at %.3f of %.3f s virtual, hwpb %zu bytes, fnv %016llx",
          static_cast<unsigned long long>(out.run.events_drained),
          static_cast<unsigned long long>(out.run.events_dropped),
          static_cast<unsigned long long>(tb->profiler().bank_switches()),
          static_cast<double>(out.run.net.done_at) / 1e9,
          static_cast<double>(out.run.net.elapsed) / 1e9, out.hwpb.size(),
          static_cast<unsigned long long>(hash)));
    }
    if (traced_pass) {
      report->layer["sim.virtual_s"] = static_cast<double>(out.run.net.elapsed) / 1e9;
      report->layer["profhw.events_drained"] = static_cast<double>(out.run.events_drained);
      report->layer["profhw.events_dropped"] = static_cast<double>(out.run.events_dropped);
      report->layer["encode.bytes"] = static_cast<double>(out.hwpb.size());
    }
    out = PassOutput{};
    tb.reset();
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
      static_cast<double>(events_per_pass) * static_cast<double>(all_s.size()) / busy_s;
  report->e2e["latency_p50_ms"] = NearestRank(all_s, 50) * 1e3;
  report->e2e["latency_p95_ms"] = NearestRank(all_s, 95) * 1e3;
  const Quartiles q = NearestRankQuartiles(all_s);
  std::string in_order;
  for (const double s : untraced_s) {
    in_order += StrFormat(" %.0f", s * 1e3);
  }
  report->Note(StrFormat("stream: %zu passes (%zu traced), pass time q1/median/q3 "
                         "%.1f/%.1f/%.1f ms; untraced passes in order (ms):%s",
                         all_s.size(), traced.size(), q.q1 * 1e3, q.median * 1e3,
                         q.q3 * 1e3, in_order.c_str()));
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
  auto& layer = report->layer;
  const auto events = static_cast<double>(events_per_pass);
  layer["sim.host_s"] = median_of(&PassTimes::sim);
  layer["sim.host_ns_per_event"] = layer["sim.host_s"] * 1e9 / events;
  layer["instr.drain_s"] = median_of(&PassTimes::drain);
  layer["instr.drain_ns_per_event"] = layer["instr.drain_s"] * 1e9 / events;
  layer["instr.drain_calls"] = static_cast<double>(traced.front().drain_calls);
  layer["instr.drain_events"] = counter("instr.drain_events");
  layer["profhw.bank_swaps"] = counter("profhw.bank_swaps");
  layer["encode.s"] = median_of(&PassTimes::encode);
  layer["parse.s"] = median_of(&PassTimes::parse);
  layer["parse.mb_per_s"] = layer["encode.bytes"] / 1e6 / layer["parse.s"];
  layer["decode.s"] = median_of(&PassTimes::decode);
  layer["decode.events_per_s"] = events / layer["decode.s"];
  layer["decode.shards"] = counter("parallel.shards");
  layer["decode.events"] = counter("decode.events");
  layer["report.summary_s"] = median_of(&PassTimes::summary);
  const double traced_total = median_of(&PassTimes::total);
  layer["trace.overhead_pct"] = (traced_total / Median(untraced_s) - 1.0) * 100.0;

  const double free_s = median_of(&PassTimes::free);
  auto share = [&](const char* metric) { return 100 * layer[metric] / traced_total; };
  report->Note(StrFormat(
      "stream layer shares of a traced pass (%.3f s): sim %.1f%%, drain %.1f%%, "
      "encode %.1f%%, parse %.1f%%, decode %.1f%%, summary %.2f%%, freeing the "
      "decoded trace %.1f%%, other %.1f%%",
      traced_total, share("sim.host_s"), share("instr.drain_s"), share("encode.s"),
      share("parse.s"), share("decode.s"), share("report.summary_s"),
      100 * free_s / traced_total,
      100.0 - share("sim.host_s") - share("instr.drain_s") - share("encode.s") -
          share("parse.s") - share("decode.s") - share("report.summary_s") -
          100 * free_s / traced_total));
  spans.Write(options.workdir + "/spans-stream_capture.json");
}

}  // namespace pipebench
