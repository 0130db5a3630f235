// fleet_ingest: an in-process hwprofd. IngestService (2 decode workers, its
// clock set to this benchmark's steady clock) behind OpsServer on a private
// AF_UNIX socket. One generator offers uploads over OpsUpload open loop at a
// fixed rate; a closing burst then submits a fixed count back to back, with
// a bounded window in flight and the summary cache disabled.

#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "pipebench/bench.h"
#include "src/analysis/summary.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"
#include "src/obs/timeseries.h"
#include "src/service/ingest.h"
#include "src/service/ops_socket.h"

namespace pipebench {
namespace {

using namespace hwprof;

// About a third of the 2-worker capacity the burst measures on a 4-CPU
// host: queues stay short, so latency is mostly service time.
constexpr double kOfferedPerSec = 300;
constexpr double kOpenLoopShare = 0.7;  // of --seconds; the burst follows
// Every 4th upload repeats the previous payload at once; 8 cache entries
// against 34 distinct payloads, so the cache serves some uploads, not most.
constexpr std::size_t kReuploadEvery = 4;
constexpr std::size_t kCacheEntries = 8;
constexpr std::size_t kTenants = 8;
constexpr std::size_t kBursts = 8;
constexpr std::size_t kBurstRounds = 10;    // per burst; a round offers all 40 payloads
constexpr std::uint64_t kBurstWindow = 24;  // uploads in flight

struct Payload {
  std::size_t capture = 0;
  const std::string* bytes = nullptr;
  std::uint64_t hash = 0;
};

// What an offline hwprof_analyze of a capture produces.
struct Expected {
  std::string summary;
  std::uint64_t events = 0;
};

struct Upload {
  std::size_t payload = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t ingest_id = 0;
  bool accepted = false;
  std::string error;
};

// One upload's capture -> decode -> summary trail in the service EventLog.
struct Trail {
  std::uint64_t accept_ns = 0;
  std::uint64_t summary_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t summary_bytes = 0;
  std::uint64_t hash = 0;
  bool cache_hit = false;
  bool summarized = false;
};

struct Phase {
  std::vector<Upload> uploads;
  std::map<std::uint64_t, Trail> trails;
  service::ServiceStats stats;
  bool log_complete = false;
};

std::map<std::uint64_t, Trail> ReadTrails(const service::EventLog& log) {
  std::map<std::uint64_t, Trail> trails;
  for (const service::LogEvent& e : log.Tail(0)) {
    if (e.ingest_id == 0) {
      continue;
    }
    Trail& t = trails[e.ingest_id];
    unsigned long long a = 0;
    unsigned long long b = 0;
    if (e.stage == "capture" && StartsWith(e.detail, "accept ")) {
      t.accept_ns = e.t_ns;
    } else if (e.stage == "decode" &&
               std::sscanf(e.detail.c_str(), "events=%llu anomalies=%llu", &a, &b) == 2) {
      t.events = a;
      t.cache_hit = e.detail.find("cache=hit") != std::string::npos;
    } else if (e.stage == "summary" &&
               std::sscanf(e.detail.c_str(), "bytes=%llu hash=%llx", &a, &b) == 2) {
      t.summary_ns = e.t_ns;
      t.summary_bytes = a;
      t.hash = b;
      t.summarized = true;
    }
  }
  return trails;
}

// A private directory for the sockets, removed with everything in it on
// every exit path.
class PrivateDir {
 public:
  explicit PrivateDir(const std::string& parent) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    std::string path = parent + "/fleet-XXXXXX";
    if (mkdtemp(path.data()) != nullptr) {
      path_ = path;
    }
  }
  ~PrivateDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  PrivateDir(const PrivateDir&) = delete;
  PrivateDir& operator=(const PrivateDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The tenant (and so the decode worker) follows the payload, not the
// upload's position: each worker then gets the same share of the work
// whatever order the seed deals the payloads in.
void Offer(const std::string& socket_path, const std::vector<Payload>& payloads,
           Upload* u) {
  const std::string tenant = StrFormat("m%zu", u->payload % kTenants);
  const Payload& payload = payloads[u->payload];
  std::string drop;
  std::string error;
  u->start_ns = NowNs();
  u->accepted = service::OpsUpload(socket_path, tenant, *payload.bytes, &u->ingest_id,
                                   &drop, &error);
  u->end_ns = NowNs();
  if (!u->accepted) {
    u->error = drop.empty() ? error : "drop " + drop;
  }
}

void ReadPhase(const service::IngestService& svc, Phase* phase) {
  phase->stats = svc.Stats();
  phase->trails = ReadTrails(svc.event_log());
  phase->log_complete = svc.event_log().appended() == svc.event_log().size();
}

// Every upload accepted and summarized from the payload it sent, with the
// offline summary's size and event count; nothing lost at the service edge.
void CheckPhase(const char* name, const Phase& phase, const std::vector<Payload>& payloads,
                const std::vector<Expected>& expected, Report* report) {
  std::uint64_t bad = 0;
  std::string first;
  for (const Upload& u : phase.uploads) {
    const Payload& p = payloads[u.payload];
    const auto it = phase.trails.find(u.ingest_id);
    std::string why;
    if (!u.accepted) {
      why = u.error;
    } else if (it == phase.trails.end() || !it->second.summarized) {
      why = "no summary";
    } else if (it->second.hash != p.hash) {
      why = "summary of another payload";
    } else if (it->second.summary_bytes != expected[p.capture].summary.size() ||
               it->second.events != expected[p.capture].events) {
      why = "summary size or event count differs from the offline decode";
    }
    if (!why.empty()) {
      ++bad;
      if (first.empty()) {
        first = why;
      }
    }
  }
  report->Ops(phase.uploads.size(), bad,
              StrFormat("fleet %s: %llu uploads failed (first: %s)", name,
                        static_cast<unsigned long long>(bad), first.c_str()));
  const service::ServiceStats& s = phase.stats;
  report->Check(s.offered == phase.uploads.size() &&
                    s.offered == s.accepted + s.DroppedTotal() &&
                    s.offered_bytes == s.accepted_bytes + s.dropped_bytes,
                StrFormat("fleet %s: offered != accepted + typed drops", name));
  report->Check(s.malformed == 0 && s.summaries == s.accepted,
                StrFormat("fleet %s: accepted != summaries", name));
  report->Check(phase.log_complete, StrFormat("fleet %s: the event log wrapped", name));
}

// The histogram's samples between two snapshots (its max is the later one).
obs::MetricValue HistogramDelta(const obs::Snapshot& before, const obs::Snapshot& after,
                                const char* name) {
  obs::MetricValue delta;
  if (const obs::MetricValue* a = after.Find(name)) {
    delta = *a;
    if (const obs::MetricValue* b = before.Find(name)) {
      delta.count -= b->count;
      delta.sum_ns -= b->sum_ns;
      for (std::size_t i = 0; i < delta.buckets.size(); ++i) {
        delta.buckets[i] -= b->buckets[i];
      }
    }
  }
  return delta;
}

// Traced runs trace every other block of kReuploadEvery uploads (each block
// holds one re-upload), so the tracing overhead is the latency difference
// between two halves with the same cache behaviour.
bool Traced(std::size_t upload) { return (upload / kReuploadEvery) % 2 == 1; }

double Median(const std::vector<double>& v) { return NearestRank(v, 50); }

// Open-loop latency percentiles are taken per window of due instants and
// averaged over the middle half of the windows. A shared host runs in fast
// and slow stretches of several seconds and now and then stalls for a few
// hundred ms, which the open loop's queue turns into a run of late
// summaries: a stall (or the warm-up) inflates one window, not the result,
// and the mean moves smoothly with the share of slow stretches where a
// percentile over the whole loop jumps between them.
constexpr std::uint64_t kWindowNs = 1'000'000'000;

double WindowedPercentile(const std::map<std::uint64_t, std::vector<double>>& windows,
                          double p) {
  std::vector<double> per_window;
  for (const auto& [window, samples] : windows) {
    per_window.push_back(NearestRank(samples, p));
  }
  return MiddleHalfMean(per_window);
}

double Ms(std::uint64_t from_ns, std::uint64_t to_ns) {
  return (static_cast<double>(to_ns) - static_cast<double>(from_ns)) / 1e6;
}

}  // namespace

void RunFleetIngest(const Options& options, Report* report) {
  std::vector<double> setup_s;
  std::vector<double> sim_s;
  std::vector<double> encode_s;
  CapturePool pool;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t s0 = NowNs();
    CapturePool built = BuildCapturePool(/*with_binary=*/true);
    setup_s.push_back(SecondsBetween(s0, NowNs()));
    sim_s.push_back(built.sim_s);
    encode_s.push_back(built.encode_s);
    if (i == 0) {
      pool = std::move(built);
    } else {
      report->Check(SamePool(pool, built), "fleet: repeated capture simulation differs");
    }
  }
  TagFile names;
  report->Check(pool.names_agree && TagFile::Parse(pool.names_text, &names),
                "fleet: the captures' names file is inconsistent or does not parse");

  // The offline reference each upload is checked against.
  std::vector<Expected> expected;
  std::vector<Payload> payloads;
  std::set<std::uint64_t> distinct;
  for (std::size_t i = 0; i < pool.captures.size(); ++i) {
    const PoolCapture& cap = pool.captures[i];
    const DecodedTrace decoded = Decoder::Decode(cap.raw, names);
    expected.push_back({Summary(decoded).Format(0), decoded.event_count});
    for (const std::string* bytes : {&cap.text, &cap.binary}) {
      payloads.push_back({i, bytes, service::IngestService::HashPayload(*bytes)});
      distinct.insert(payloads.back().hash);
    }
  }

  PrivateDir dir(options.workdir);
  report->Check(!dir.path().empty(), "fleet: cannot create a private socket directory");
  if (dir.path().empty()) {
    return;
  }
  Rng rng(options.seed);
  service::ServiceOptions so;
  so.workers = 2;
  so.cache_capacity = kCacheEntries;
  // Admission limits well above what the open loop can queue: a host stall
  // shows up as latency, not as typed drops.
  so.queue_max_depth = 4096;
  so.queue_max_bytes = std::size_t{1} << 30;
  so.event_log_capacity = std::size_t{1} << 18;
  so.clock = [] { return NowNs(); };

  // --- Open loop --------------------------------------------------------------
  Phase open;
  SpanLog spans;
  const obs::Snapshot obs0 = obs::GlobalSnapshot();
  obs::Snapshot obs1;
  {
    service::IngestService svc(names, so);
    service::OpsServer server(svc, dir.path() + "/open.sock");
    if (!server.Start()) {
      report->Check(false, "fleet: " + server.last_error());
      return;
    }
    const auto n = std::max<std::size_t>(
        1, static_cast<std::size_t>(kOfferedPerSec * options.seconds * kOpenLoopShare));
    open.uploads.resize(n);
    std::vector<std::size_t> deck;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % kReuploadEvery == kReuploadEvery - 1) {
        open.uploads[i].payload = open.uploads[i - 1].payload;
        continue;
      }
      if (deck.empty()) {
        deck = Shuffled(payloads.size(), rng);
      }
      open.uploads[i].payload = deck.back();
      deck.pop_back();
    }
    const auto period_ns = static_cast<std::uint64_t>(1e9 / kOfferedPerSec);
    const std::uint64_t t0 = NowNs() + 10'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      Upload& u = open.uploads[i];
      u.due_ns = t0 + i * period_ns;
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(u.due_ns))));
      const int span = options.trace && Traced(i) ? spans.Begin("ops.upload") : -1;
      Offer(server.socket_path(), payloads, &u);
      if (span >= 0) {
        spans.End(span);
      }
    }
    svc.WaitIdle();
    obs1 = obs::GlobalSnapshot();
    ReadPhase(svc, &open);
    // Every summary still cached must equal the offline one.
    for (const Payload& p : payloads) {
      service::UploadOutcome outcome;
      if (distinct.count(p.hash) > 0 && svc.LookupOutcome(p.hash, &outcome)) {
        report->Check(outcome.summary == expected[p.capture].summary,
                      "fleet: a cached summary differs from the offline decode");
      }
    }
    server.Stop();
    svc.Stop();
  }
  CheckPhase("open loop", open, payloads, expected, report);

  std::vector<double> latency_ms;
  std::map<std::uint64_t, std::vector<double>> latency_windows;  // by due instant
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> sojourn_ms;
  std::vector<double> miss_sojourn_ms;  // uploads the cache did not serve
  std::vector<double> admit_ms;
  std::vector<double> late_ms;
  for (std::size_t i = 0; i < open.uploads.size(); ++i) {
    const Upload& u = open.uploads[i];
    const auto it = open.trails.find(u.ingest_id);
    if (!u.accepted || it == open.trails.end() || !it->second.summarized) {
      continue;
    }
    const Trail& t = it->second;
    latency_ms.push_back(Ms(u.due_ns, t.summary_ns));
    latency_windows[(u.due_ns - open.uploads.front().due_ns) / kWindowNs].push_back(
        latency_ms.back());
    (options.trace && Traced(i) ? traced_ms : untraced_ms).push_back(latency_ms.back());
    sojourn_ms.push_back(Ms(t.accept_ns, t.summary_ns));
    if (!t.cache_hit) {
      miss_sojourn_ms.push_back(sojourn_ms.back());
    }
    admit_ms.push_back(Ms(u.start_ns, u.end_ns));
    late_ms.push_back(Ms(u.due_ns, u.start_ns));
  }

  // --- Bursts, summary cache off ----------------------------------------------
  // Each burst runs against a fresh service, so its worker threads land on
  // CPUs afresh. events_per_s averages the middle half of the bursts' rates,
  // for the reason the open loop's latency is windowed; ingest_uploads_per_s
  // is over all bursts.
  std::vector<double> burst_uploads_per_s;
  std::vector<double> burst_events_per_s;
  double burst_s = 0;
  std::size_t burst_uploads = 0;
  std::size_t burst_peak_queue_bytes = 0;
  std::uint64_t burst_drops = 0;
  so.cache_capacity = 0;
  for (std::size_t b = 0; b < kBursts; ++b) {
    Phase burst;
    {
      service::IngestService svc(names, so);
      service::OpsServer server(svc, StrFormat("%s/burst%zu.sock", dir.path().c_str(), b));
      if (!server.Start()) {
        report->Check(false, "fleet: " + server.last_error());
        return;
      }
      for (std::size_t r = 0; r < kBurstRounds; ++r) {
        for (const std::size_t p : Shuffled(payloads.size(), rng)) {
          burst.uploads.emplace_back();
          burst.uploads.back().payload = p;
        }
      }
      const std::uint64_t b0 = NowNs();
      for (Upload& u : burst.uploads) {
        for (;;) {
          const service::ServiceStats s = svc.Stats();
          if (s.accepted - s.summaries - s.malformed < kBurstWindow) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        u.due_ns = NowNs();
        Offer(server.socket_path(), payloads, &u);
      }
      svc.WaitIdle();
      ReadPhase(svc, &burst);
      std::uint64_t last = b0;
      std::uint64_t events = 0;
      for (const auto& [id, t] : burst.trails) {
        if (t.summarized) {
          last = std::max(last, t.summary_ns);
          events += t.events;
        }
      }
      const double seconds = SecondsBetween(b0, last);
      burst_uploads_per_s.push_back(static_cast<double>(burst.uploads.size()) / seconds);
      burst_events_per_s.push_back(static_cast<double>(events) / seconds);
      burst_s += seconds;
      server.Stop();
      svc.Stop();
    }
    CheckPhase("burst", burst, payloads, expected, report);
    burst_uploads += burst.uploads.size();
    burst_peak_queue_bytes = std::max(burst_peak_queue_bytes, burst.stats.peak_queue_bytes);
    burst_drops += burst.stats.DroppedTotal();
  }
  const obs::Snapshot obs2 = obs::GlobalSnapshot();

  const double uploads_per_s = static_cast<double>(burst_uploads) / burst_s;
  const double hit_ratio = open.stats.summaries == 0
                               ? 0
                               : static_cast<double>(open.stats.cache_hits) /
                                     static_cast<double>(open.stats.summaries);
  report->e2e["setup_s"] = Median(setup_s);
  report->e2e["events_per_s"] = MiddleHalfMean(burst_events_per_s);
  report->e2e["latency_p50_ms"] = WindowedPercentile(latency_windows, 50);
  report->e2e["latency_p95_ms"] = WindowedPercentile(latency_windows, 95);
  const Quartiles q = NearestRankQuartiles(burst_uploads_per_s);
  report->Note(StrFormat(
      "fleet: %zu payloads (%zu distinct); open loop %zu uploads at %.0f/s, cache hit "
      "ratio %.3f, latency over the whole loop p50 %.3f ms, p95 %.3f ms, %zu windows; "
      "%zu bursts, %zu uploads, ingest_uploads_per_s %.1f (bursts q1 %.1f, q3 %.1f)",
      payloads.size(), distinct.size(), open.uploads.size(), kOfferedPerSec, hit_ratio,
      NearestRank(latency_ms, 50), NearestRank(latency_ms, 95), latency_windows.size(),
      burst_uploads_per_s.size(), burst_uploads, uploads_per_s, q.q1, q.q3));
  if (!options.trace) {
    return;
  }

  auto counter = [&](const obs::Snapshot& before, const obs::Snapshot& after,
                     const char* name) {
    return static_cast<double>(after.CounterValue(name) - before.CounterValue(name));
  };
  const obs::MetricValue decode_open = HistogramDelta(obs0, obs1, "service.decode");
  const obs::MetricValue decode_all = HistogramDelta(obs0, obs2, "service.decode");
  auto& layer = report->layer;
  layer["sim.host_s"] = Median(sim_s);
  layer["sim.host_ns_per_event"] = layer["sim.host_s"] * 1e9 / static_cast<double>(pool.events);
  layer["sim.virtual_s"] = pool.virtual_s;
  layer["encode.s"] = Median(encode_s);
  layer["encode.bytes"] = static_cast<double>(pool.encode_bytes);
  layer["decode.s"] = static_cast<double>(decode_all.sum_ns) / 1e9;
  layer["decode.events"] = counter(obs0, obs2, "decode.events");
  layer["decode.events_per_s"] = layer["decode.events"] / layer["decode.s"];
  layer["decode.shards"] = counter(obs0, obs2, "parallel.shards");
  const double sojourn_p50 = NearestRank(sojourn_ms, 50);
  // The span histogram's ladder buckets are coarse (1/2/5 steps), so the
  // queue wait subtracts the exact mean decode from the cache misses'
  // median sojourn.
  const double decode_p50 =
      static_cast<double>(obs::HistogramPercentileNs(decode_open, 50)) / 1e6;
  const double decode_mean =
      decode_open.count == 0 ? 0
                             : static_cast<double>(decode_open.sum_ns) /
                                   static_cast<double>(decode_open.count) / 1e6;
  const double queue_wait = NearestRank(miss_sojourn_ms, 50) - decode_mean;
  layer["service.admit_ms_p50"] = NearestRank(admit_ms, 50);
  layer["service.sojourn_ms_p50"] = sojourn_p50;
  layer["service.sojourn_ms_p95"] = NearestRank(sojourn_ms, 95);
  layer["service.decode_ms_p50"] = decode_p50;
  layer["service.queue_wait_ms_p50"] = queue_wait;
  layer["service.cache_hit_ratio"] = hit_ratio;
  layer["service.cache_hits"] = counter(obs0, obs1, "service.cache_hits");
  layer["service.peak_queue_bytes"] =
      static_cast<double>(std::max(open.stats.peak_queue_bytes, burst_peak_queue_bytes));
  layer["service.drops"] = static_cast<double>(open.stats.DroppedTotal() + burst_drops);
  for (const char* reason : {"empty", "oversize", "queue_full", "draining"}) {
    const std::string name = std::string("service.drop.") + reason;
    layer[name] = counter(obs0, obs2, name.c_str());
  }
  layer["gen.late_ms_p99"] = NearestRank(late_ms, 99);
  layer["trace.overhead_pct"] = (Median(traced_ms) / Median(untraced_ms) - 1.0) * 100.0;
  report->Note(StrFormat(
      "fleet open loop: latency p50 %.3f ms, sojourn p50 %.3f ms (cache misses: "
      "mean decode %.3f ms + queue wait %.3f ms), admit p50 %.3f ms; "
      "service.decode spans %llu, %.3f s",
      NearestRank(latency_ms, 50), sojourn_p50, decode_mean, queue_wait,
      layer["service.admit_ms_p50"],
      static_cast<unsigned long long>(decode_all.count), layer["decode.s"]));
  spans.Write(options.workdir + "/spans-fleet_ingest.json");
}

}  // namespace pipebench
