#include "src/service/ingest.h"

#include <algorithm>

#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"

namespace hwprof {
namespace service {

namespace {

// Records one magnitude sample into a hand-built ladder MetricValue (the
// deterministic self-snapshot's histograms reuse the 1/2/5 ns ladder as a
// generic magnitude ladder).
void LadderRecord(obs::MetricValue* m, std::uint64_t v) {
  m->min_ns = m->count == 0 ? v : std::min(m->min_ns, v);
  m->max_ns = std::max(m->max_ns, v);
  ++m->count;
  m->sum_ns += v;
  const auto& bounds = obs::HistogramBoundsNs();
  int b = 0;
  while (b < obs::kHistogramBuckets - 1 &&
         v > bounds[static_cast<std::size_t>(b)]) {
    ++b;
  }
  ++m->buckets[static_cast<std::size_t>(b)];
}

void CountDropTelemetry(DropReason reason) {
  switch (reason) {
    case DropReason::kNone:
      break;
    case DropReason::kEmpty:
      OBS_COUNT("service.drop.empty", 1);
      break;
    case DropReason::kOversize:
      OBS_COUNT("service.drop.oversize", 1);
      break;
    case DropReason::kQueueFull:
      OBS_COUNT("service.drop.queue_full", 1);
      break;
    case DropReason::kDraining:
      OBS_COUNT("service.drop.draining", 1);
      break;
  }
}

}  // namespace

const char* DropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kNone:
      return "none";
    case DropReason::kEmpty:
      return "empty";
    case DropReason::kOversize:
      return "oversize";
    case DropReason::kQueueFull:
      return "queue_full";
    case DropReason::kDraining:
      return "draining";
  }
  return "unknown";
}

const char* HealthName(Health health) {
  switch (health) {
    case Health::kReady:
      return "ready";
    case Health::kDegraded:
      return "degraded";
    case Health::kDraining:
      return "draining";
  }
  return "unknown";
}

std::uint64_t IngestService::HashPayload(std::string_view payload) {
  // FNV-1a 64.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

IngestService::IngestService(const TagFile& names, ServiceOptions options)
    : names_(names),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock : [] { return obs::MonotonicNowNs(); }),
      event_log_(options_.event_log_capacity),
      timeseries_(options_.timeseries_capacity) {
  start_t_ns_ = clock_();
  upload_bytes_ladder_.name = "svc.upload_bytes";
  upload_bytes_ladder_.kind = obs::MetricKind::kHistogram;
  upload_events_ladder_.name = "svc.upload_events";
  upload_events_ladder_.kind = obs::MetricKind::kHistogram;
  const unsigned workers = options_.workers;
  shards_.resize(workers == 0 ? 1 : workers);
  event_log_.Append(start_t_ns_, 0, "", "service",
                    StrFormat("start workers=%u", workers));
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

IngestService::~IngestService() { Stop(); }

unsigned IngestService::workers() const { return options_.workers; }

SubmitResult IngestService::Submit(const std::string& tenant,
                                   std::string payload) {
  const std::size_t bytes = payload.size();
  SubmitResult result;
  QueueItem item;
  bool inline_process = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    result.ingest_id = next_ingest_id_++;
    TenantCounters& tc = tenants_[tenant];
    ++tc.offered;
    tc.offered_bytes += bytes;
    ++totals_.offered;
    totals_.offered_bytes += bytes;
    tc.last_ingest_id = result.ingest_id;

    DropReason reason = DropReason::kNone;
    const std::size_t shard_index =
        static_cast<std::size_t>(HashPayload(tenant) % shards_.size());
    if (draining_ || stopping_) {
      reason = DropReason::kDraining;
    } else if (bytes == 0) {
      reason = DropReason::kEmpty;
    } else if (bytes > options_.max_upload_bytes) {
      reason = DropReason::kOversize;
    } else if (options_.workers > 0 &&
               (shards_[shard_index].queue.size() >= options_.queue_max_depth ||
                queue_bytes_ + bytes > options_.queue_max_bytes)) {
      reason = DropReason::kQueueFull;
    }

    if (reason != DropReason::kNone) {
      const auto ri = static_cast<std::size_t>(reason);
      ++tc.dropped[ri];
      ++totals_.dropped[ri];
      totals_.dropped_bytes += bytes;
      event_log_.Append(clock_(), result.ingest_id, tenant, "capture",
                        StrFormat("drop reason=%s bytes=%zu",
                                  DropReasonName(reason), bytes));
      result.accepted = false;
      result.reason = reason;
      lock.unlock();
      OBS_COUNT("service.uploads_offered", 1);
      CountDropTelemetry(reason);
      return result;
    }

    ++tc.accepted;
    tc.accepted_bytes += bytes;
    ++totals_.accepted;
    totals_.accepted_bytes += bytes;
    LadderRecord(&upload_bytes_ladder_, bytes);
    event_log_.Append(clock_(), result.ingest_id, tenant, "capture",
                      StrFormat("accept bytes=%zu shard=%zu", bytes,
                                shard_index));
    result.accepted = true;

    item.ingest_id = result.ingest_id;
    item.tenant = tenant;
    item.payload = std::move(payload);
    if (options_.workers == 0) {
      inline_process = true;
    } else {
      ++in_flight_;
      queue_bytes_ += bytes;
      peak_queue_bytes_ = std::max(peak_queue_bytes_, queue_bytes_);
      shards_[shard_index].queue.push_back(std::move(item));
    }
  }
  OBS_COUNT("service.uploads_offered", 1);
  OBS_COUNT("service.uploads_accepted", 1);
  OBS_COUNT("service.upload_bytes", bytes);
  if (inline_process) {
    Process(item);
  } else {
    OBS_GAUGE_ADD("service.queue_bytes", static_cast<std::int64_t>(bytes));
    OBS_GAUGE_ADD("service.queue_depth", 1);
    work_cv_.notify_all();
  }
  return result;
}

SubmitResult IngestService::RejectOversize(const std::string& tenant,
                                           std::uint64_t declared_bytes) {
  SubmitResult result;
  result.reason = DropReason::kOversize;
  {
    std::lock_guard<std::mutex> lock(mu_);
    result.ingest_id = next_ingest_id_++;
    TenantCounters& tc = tenants_[tenant];
    ++tc.offered;
    tc.offered_bytes += declared_bytes;
    ++totals_.offered;
    totals_.offered_bytes += declared_bytes;
    tc.last_ingest_id = result.ingest_id;
    const auto ri = static_cast<std::size_t>(DropReason::kOversize);
    ++tc.dropped[ri];
    ++totals_.dropped[ri];
    totals_.dropped_bytes += declared_bytes;
    event_log_.Append(
        clock_(), result.ingest_id, tenant, "capture",
        StrFormat("drop reason=oversize bytes=%llu",
                  static_cast<unsigned long long>(declared_bytes)));
  }
  OBS_COUNT("service.uploads_offered", 1);
  CountDropTelemetry(DropReason::kOversize);
  return result;
}

void IngestService::WorkerLoop(std::size_t shard_index) {
  for (;;) {
    QueueItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      Shard& shard = shards_[shard_index];
      work_cv_.wait(lock, [&] { return stopping_ || !shard.queue.empty(); });
      if (shard.queue.empty()) {
        return;  // stopping_ and drained
      }
      item = std::move(shard.queue.front());
      shard.queue.pop_front();
      queue_bytes_ -= item.payload.size();
    }
    OBS_GAUGE_ADD("service.queue_bytes",
                  -static_cast<std::int64_t>(item.payload.size()));
    OBS_GAUGE_ADD("service.queue_depth", -1);
    Process(item);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

void IngestService::Process(const QueueItem& item) {
  const std::uint64_t hash = HashPayload(item.payload);
  UploadOutcome cached;
  if (LookupOutcome(hash, &cached)) {
    FinishUpload(item, cached, /*malformed=*/false, /*cache_hit=*/true);
    return;
  }
  bool malformed = false;
  UploadOutcome outcome = DecodePayload(item.payload, &malformed);
  outcome.hash = hash;
  FinishUpload(item, outcome, malformed, /*cache_hit=*/false);
}

UploadOutcome IngestService::DecodePayload(const std::string& payload,
                                           bool* malformed) const {
  UploadOutcome out;
  *malformed = false;
  OBS_SCOPED_SPAN("service.decode");
  // Strict decode, like the offline loader without --salvage: damaged
  // payloads and streams (hwprofd takes one-shot captures only) are typed
  // as malformed rather than partially digested.
  const CaptureDecode capture = DecodeCaptureBytes(
      payload, names_, /*salvage=*/false, StreamingOptions{.retain_structure = false});
  if (!capture.ok || capture.shape.is_stream) {
    *malformed = true;
    return out;
  }
  const DecodedTrace& decoded = capture.trace;
  out.summary = Summary(decoded).Format(options_.summary_rows);
  out.events = decoded.event_count;
  out.anomalies = decoded.AnomalyTotal();
  return out;
}

void IngestService::FinishUpload(const QueueItem& item,
                                 const UploadOutcome& outcome, bool malformed,
                                 bool cache_hit) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TenantCounters& tc = tenants_[item.tenant];
    if (malformed) {
      ++tc.malformed;
      ++totals_.malformed;
      event_log_.Append(clock_(), item.ingest_id, item.tenant, "decode",
                        "malformed payload");
    } else {
      if (cache_hit) {
        ++tc.cache_hits;
        ++totals_.cache_hits;
      }
      tc.decoded_events += outcome.events;
      tc.anomalies += outcome.anomalies;
      totals_.decoded_events += outcome.events;
      totals_.anomalies += outcome.anomalies;
      LadderRecord(&upload_events_ladder_, outcome.events);
      event_log_.Append(
          clock_(), item.ingest_id, item.tenant, "decode",
          StrFormat("events=%llu anomalies=%llu cache=%s",
                    static_cast<unsigned long long>(outcome.events),
                    static_cast<unsigned long long>(outcome.anomalies),
                    cache_hit ? "hit" : "miss"));
      ++tc.summaries;
      ++totals_.summaries;
      event_log_.Append(
          clock_(), item.ingest_id, item.tenant, "summary",
          StrFormat("bytes=%zu hash=%016llx", outcome.summary.size(),
                    static_cast<unsigned long long>(outcome.hash)));
      if (!cache_hit) {
        // Insert (or refresh) under LRU eviction.
        auto it = cache_.find(outcome.hash);
        if (it == cache_.end() && options_.cache_capacity > 0) {
          cache_.emplace(outcome.hash, outcome);
          cache_pos_[outcome.hash] =
              cache_lru_.insert(cache_lru_.end(), outcome.hash);
          while (cache_.size() > options_.cache_capacity) {
            const std::uint64_t oldest = cache_lru_.front();
            cache_.erase(oldest);
            cache_pos_.erase(oldest);
            cache_lru_.pop_front();
          }
        }
      } else {
        // Touch: splice the node to the back of the recency list, O(1).
        const auto pos = cache_pos_.find(outcome.hash);
        if (pos != cache_pos_.end()) {
          cache_lru_.splice(cache_lru_.end(), cache_lru_, pos->second);
        }
      }
    }
  }
  if (malformed) {
    OBS_COUNT("service.malformed", 1);
  } else {
    OBS_COUNT("service.summaries", 1);
    OBS_COUNT("service.decoded_events", outcome.events);
    if (cache_hit) {
      OBS_COUNT("service.cache_hits", 1);
    }
  }
}

bool IngestService::LookupOutcome(std::uint64_t payload_hash,
                                  UploadOutcome* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_.find(payload_hash);
  if (it == cache_.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

void IngestService::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void IngestService::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!draining_) {
    draining_ = true;
    event_log_.Append(clock_(), 0, "", "service", "drain");
  }
}

void IngestService::Stop() {
  BeginDrain();
  WaitIdle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    event_log_.Append(clock_(), 0, "", "service", "stop");
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  threads_.clear();
}

std::uint64_t IngestService::Tick() {
  obs::Snapshot snap = SelfSnapshot();
  const std::uint64_t t = clock_();
  timeseries_.Record(t, std::move(snap));
  return t;
}

Health IngestService::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_ || stopping_) {
    return Health::kDraining;
  }
  if (totals_.DroppedTotal() > 0 || totals_.malformed > 0) {
    return Health::kDegraded;
  }
  return Health::kReady;
}

std::string IngestService::HealthDetail() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_ || stopping_) {
    std::size_t queued = 0;
    for (const Shard& s : shards_) {
      queued += s.queue.size();
    }
    return StrFormat("queued=%zu in_flight=%zu", queued, in_flight_);
  }
  if (totals_.DroppedTotal() > 0 || totals_.malformed > 0) {
    return StrFormat(
        "drops=%llu malformed=%llu",
        static_cast<unsigned long long>(totals_.DroppedTotal()),
        static_cast<unsigned long long>(totals_.malformed));
  }
  return "ok";
}

ServiceStats IngestService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = totals_;
  out.queue_depth = 0;
  for (const Shard& s : shards_) {
    out.queue_depth += s.queue.size();
  }
  out.queue_bytes = queue_bytes_;
  out.peak_queue_bytes = peak_queue_bytes_;
  out.cache_entries = cache_.size();
  out.tenants = tenants_;
  return out;
}

obs::Snapshot IngestService::SelfSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::Snapshot snap;
  auto counter = [&](const char* name, std::uint64_t v) {
    obs::MetricValue m;
    m.name = name;
    m.kind = obs::MetricKind::kCounter;
    m.count = v;
    snap.metrics.push_back(std::move(m));
  };
  counter("svc.offered", totals_.offered);
  counter("svc.accepted", totals_.accepted);
  counter("svc.offered_bytes", totals_.offered_bytes);
  counter("svc.accepted_bytes", totals_.accepted_bytes);
  counter("svc.dropped_bytes", totals_.dropped_bytes);
  counter("svc.drop.empty",
          totals_.dropped[static_cast<std::size_t>(DropReason::kEmpty)]);
  counter("svc.drop.oversize",
          totals_.dropped[static_cast<std::size_t>(DropReason::kOversize)]);
  counter("svc.drop.queue_full",
          totals_.dropped[static_cast<std::size_t>(DropReason::kQueueFull)]);
  counter("svc.drop.draining",
          totals_.dropped[static_cast<std::size_t>(DropReason::kDraining)]);
  counter("svc.summaries", totals_.summaries);
  counter("svc.malformed", totals_.malformed);
  counter("svc.cache_hits", totals_.cache_hits);
  counter("svc.decoded_events", totals_.decoded_events);
  counter("svc.anomalies", totals_.anomalies);
  counter("svc.tenants", tenants_.size());

  obs::MetricValue depth;
  depth.name = "svc.queue_depth";
  depth.kind = obs::MetricKind::kGauge;
  std::size_t queued = 0;
  for (const Shard& s : shards_) {
    queued += s.queue.size();
  }
  depth.value = static_cast<std::int64_t>(queued);
  depth.peak = static_cast<std::int64_t>(options_.queue_max_depth);
  snap.metrics.push_back(std::move(depth));

  obs::MetricValue qbytes;
  qbytes.name = "svc.queue_bytes";
  qbytes.kind = obs::MetricKind::kGauge;
  qbytes.value = static_cast<std::int64_t>(queue_bytes_);
  qbytes.peak = static_cast<std::int64_t>(peak_queue_bytes_);
  snap.metrics.push_back(std::move(qbytes));

  snap.metrics.push_back(upload_bytes_ladder_);
  snap.metrics.push_back(upload_events_ladder_);

  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const obs::MetricValue& a, const obs::MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

}  // namespace service
}  // namespace hwprof
