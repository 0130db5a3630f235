#include "src/service/ops.h"

#include <limits>
#include <vector>

#include "src/base/strings.h"
#include "src/base/text_writer.h"
#include "src/obs/timeseries.h"

namespace hwprof {
namespace service {

namespace {

// One "key: value" line of a reply.
void Line(std::string_view key, std::uint64_t v, TextWriter* w) {
  w->Append(key).Append(": ").Uint(v).Append('\n');
}

std::string StatusResponse(IngestService& service) {
  const ServiceStats s = service.Stats();
  TextWriter w(640);
  w.Append("hwprofd status\n");
  Line("uptime_ns", service.NowNs() - service.start_t_ns(), &w);
  Line("workers", service.workers(), &w);
  w.Append("health: ").Append(HealthName(service.health())).Append(" (");
  w.Append(service.HealthDetail()).Append(")\n");
  Line("offered", s.offered, &w);
  Line("accepted", s.accepted, &w);
  w.Append("dropped: ").Uint(s.DroppedTotal());
  for (int r = 1; r < kDropReasonCount; ++r) {  // every reason but kNone
    w.Append(r == 1 ? " (" : " ").Append(DropReasonName(static_cast<DropReason>(r)));
    w.Append('=').Uint(s.dropped[r]);
  }
  w.Append(")\n");
  Line("malformed", s.malformed, &w);
  Line("summaries", s.summaries, &w);
  w.Append("cache: hits=").Uint(s.cache_hits).Append(" entries=").Uint(s.cache_entries);
  w.Append('\n');
  Line("decoded_events", s.decoded_events, &w);
  Line("anomalies", s.anomalies, &w);
  w.Append("queue: depth=").Uint(s.queue_depth).Append(" bytes=").Uint(s.queue_bytes);
  w.Append(" peak_bytes=").Uint(s.peak_queue_bytes).Append('\n');
  Line("tenants", s.tenants.size(), &w);
  Line("events_logged", service.event_log().appended(), &w);
  w.Append("timeseries: samples=").Uint(service.timeseries().size());
  w.Append(" capacity=").Uint(service.timeseries().capacity()).Append('\n');
  return w.Take();
}

std::string TenantsResponse(IngestService& service) {
  const ServiceStats s = service.Stats();
  TextWriter w(96 + 96 * s.tenants.size());
  w.Append("tenant offered accepted dropped summaries malformed cache_hits "
           "events anomalies last_ingest\n");
  for (const auto& [name, tc] : s.tenants) {
    w.Append(name);
    for (const std::uint64_t v :
         {tc.offered, tc.accepted, tc.DroppedTotal(), tc.summaries, tc.malformed,
          tc.cache_hits, tc.decoded_events, tc.anomalies, tc.last_ingest_id}) {
      w.Append(' ').Uint(v);
    }
    w.Append('\n');
  }
  return w.Take();
}

// One JSON object per event and line, then OK.
std::string EventLines(const std::vector<LogEvent>& events) {
  std::string out;
  for (const LogEvent& e : events) {
    out += FormatLogEventJson(e);
    out += "\n";
  }
  return out + "OK\n";
}

}  // namespace

std::string HandleOpsCommand(IngestService& service, const std::string& line) {
  std::vector<std::string_view> words;
  for (std::string_view w : Split(StripWhitespace(line), ' ')) {
    if (!w.empty()) {
      words.push_back(w);
    }
  }
  if (words.empty()) {
    return "ERR empty command\n";
  }
  const std::string_view cmd = words[0];
  if (cmd == "STATUS" && words.size() == 1) {
    return StatusResponse(service) + "OK\n";
  }
  if (cmd == "HEALTH" && words.size() == 1) {
    return std::string(HealthName(service.health())) + " " + service.HealthDetail() + "\nOK\n";
  }
  if (cmd == "TENANTS" && words.size() == 1) {
    return TenantsResponse(service) + "OK\n";
  }
  if (cmd == "METRICS" && words.size() <= 2) {
    std::uint64_t window_s = 0;
    if (words.size() == 2 && !ParseUint(words[1], &window_s)) {
      return "ERR METRICS window must be a non-negative integer\n";
    }
    // The ns conversion must not wrap: a wrapped window silently turns a
    // huge request into a tiny one and returns misleading stats.
    constexpr std::uint64_t kMaxWindowS =
        std::numeric_limits<std::uint64_t>::max() / 1'000'000'000ull;
    if (window_s > kMaxWindowS) {
      return "ERR METRICS window too large (use 0 for the whole ring)\n";
    }
    const obs::WindowStats stats =
        service.timeseries().Window(window_s * 1'000'000'000ull);
    return stats.FormatJson() + "\nOK\n";
  }
  if (cmd == "EVENTS" && words.size() <= 2) {
    std::uint64_t n = 20;
    if (words.size() == 2 && !ParseUint(words[1], &n)) {
      return "ERR EVENTS count must be a non-negative integer\n";
    }
    return EventLines(service.event_log().Tail(static_cast<std::size_t>(n)));
  }
  if (cmd == "INGEST" && words.size() == 2) {
    std::uint64_t id = 0;
    if (!ParseUint(words[1], &id)) {
      return "ERR INGEST id must be a non-negative integer\n";
    }
    return EventLines(service.event_log().ForIngest(id));
  }
  return std::string("ERR unknown command: ").append(cmd).append("\n");
}

}  // namespace service
}  // namespace hwprof
