#include "src/analysis/export.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/base/json.h"
#include "src/base/strings.h"

namespace hwprof {

namespace {

// --- Emission helpers --------------------------------------------------------

// `{"name":<name>` — how every named event starts.
std::string EventStart(std::string_view name) {
  std::string e = "{\"name\":";
  AppendJsonString(name, &e);
  return e;
}

// Chrome wants microseconds; integer-only rendering of the exact nanosecond
// value keeps the output byte-stable across platforms.
std::string UsecStr(Nanoseconds ns) {
  return StrFormat("%llu.%03llu", static_cast<unsigned long long>(ns / 1000),
                   static_cast<unsigned long long>(ns % 1000));
}

constexpr int kPid = 1;
constexpr int kAnomalyTid = 0;  // stacks are tid 1..N

void EmitNode(const CallNode& node, int tid, Nanoseconds trace_end,
              std::vector<std::string>* events) {
  if (node.fn != nullptr) {
    if (node.inline_marker) {
      std::string e = EventStart(node.fn->name);
      e += StrFormat(",\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"s\":\"t\"}",
                     kPid, tid, UsecStr(node.entry_time).c_str());
      events->push_back(std::move(e));
      return;  // inline markers have no duration and no children
    }
    const Nanoseconds exit = node.closed ? node.exit_time : trace_end;
    const Nanoseconds dur = exit >= node.entry_time ? exit - node.entry_time : 0;
    std::string args = StrFormat(
        "{\"net_ns\":%llu,\"elapsed_ns\":%llu",
        static_cast<unsigned long long>(node.Net()),
        static_cast<unsigned long long>(node.Elapsed()));
    if (node.forced_close) {
      args += ",\"forced_close\":1";
    }
    args += "}";
    std::string e = EventStart(node.fn->name);
    e += StrFormat(",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":%s}",
                   kPid, tid, UsecStr(node.entry_time).c_str(), UsecStr(dur).c_str(),
                   args.c_str());
    events->push_back(std::move(e));
  }
  for (const auto& child : node.children) {
    if (child != nullptr) {
      EmitNode(*child, tid, trace_end, events);
    }
  }
}

bool IsContextSwitchNode(const CallNode* node) {
  return node != nullptr && node->fn != nullptr &&
         node->fn->kind == TagKind::kContextSwitch;
}

struct AnomalyRow {
  const char* name;
  std::uint64_t count;
};

// The instant-event ledger: exactly the typed counters DecodedTrace keeps,
// so tests can assert instants == counters with no slack.
std::vector<AnomalyRow> AnomalyRows(const DecodedTrace& d) {
  return {
      {"corrupt_words", d.corrupt_words},
      {"impossible_deltas", d.impossible_deltas},
      {"wrap_ambiguous_gaps", d.wrap_ambiguous_gaps},
      {"unknown_tags", d.unknown_tags},
      {"orphan_exits", d.orphan_exits},
      {"dropped_events", d.dropped_events},
      {"capture_gaps", d.capture_gaps},
      {"mid_trace_unclosed_entries", d.MidTraceUnclosedEntries()},
  };
}

}  // namespace

std::string ExportTraceEventJson(const DecodedTrace& decoded) {
  return ExportTraceEventJson(decoded, nullptr);
}

std::string ExportTraceEventJson(const DecodedTrace& decoded,
                                 const obs::Snapshot* telemetry) {
  std::vector<std::string> events;
  events.push_back(StrFormat(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
      "\"args\":{\"name\":\"hwprof simulated machine\"}}",
      kPid));
  events.push_back(StrFormat(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
      "\"args\":{\"name\":\"anomalies\"}}",
      kPid, kAnomalyTid));
  for (const auto& stack : decoded.stacks) {
    events.push_back(StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"context %d\"}}",
        kPid, stack->id + 1, stack->id));
  }

  for (const auto& stack : decoded.stacks) {
    if (stack->root != nullptr) {
      EmitNode(*stack->root, stack->id + 1, decoded.end_time, &events);
    }
  }

  // Cumulative idle / interrupt counter track, sampled at every context
  // switch exit: the closing '!' node banks its net time as idle and its
  // children's elapsed time as interrupt work taken during the idle window.
  Nanoseconds idle_cum = 0;
  Nanoseconds intr_cum = 0;
  std::vector<std::string> counter_events;
  auto counter_sample = [&](Nanoseconds t) {
    counter_events.push_back(StrFormat(
        "{\"name\":\"cpu (cumulative us)\",\"ph\":\"C\",\"pid\":%d,\"ts\":%s,"
        "\"args\":{\"idle_us\":%s,\"interrupt_us\":%s}}",
        kPid, UsecStr(t).c_str(), UsecStr(idle_cum).c_str(),
        UsecStr(intr_cum).c_str()));
  };
  if (!decoded.steps.empty()) {
    counter_sample(decoded.start_time);
    for (const TraceStep& step : decoded.steps) {
      if (!step.is_exit || !IsContextSwitchNode(step.node)) {
        continue;
      }
      idle_cum += step.node->Net();
      for (const auto& child : step.node->children) {
        if (child != nullptr && !child->inline_marker) {
          intr_cum += child->Elapsed();
        }
      }
      counter_sample(step.t);
    }
  }
  for (std::string& e : counter_events) {
    events.push_back(std::move(e));
  }

  for (const AnomalyRow& row : AnomalyRows(decoded)) {
    if (row.count == 0) {
      continue;
    }
    events.push_back(StrFormat(
        "{\"name\":\"anomaly: %s\",\"ph\":\"i\",\"pid\":%d,\"tid\":%d,"
        "\"ts\":%s,\"s\":\"g\",\"args\":{\"count\":%llu}}",
        row.name, kPid, kAnomalyTid, UsecStr(decoded.end_time).c_str(),
        static_cast<unsigned long long>(row.count)));
  }

  // Pipeline-telemetry counter tracks (snapshots are name-sorted, so the
  // emission order — and the rendered bytes — are deterministic).
  if (telemetry != nullptr) {
    for (const obs::MetricValue& m : telemetry->metrics) {
      if (m.kind != obs::MetricKind::kCounter) {
        continue;
      }
      std::string e = EventStart("telemetry: " + m.name);
      e += StrFormat(",\"ph\":\"C\",\"pid\":%d,\"ts\":%s,\"args\":{\"count\":%llu}}",
                     kPid, UsecStr(decoded.end_time).c_str(),
                     static_cast<unsigned long long>(m.count));
      events.push_back(std::move(e));
    }
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out += events[i];
    if (i + 1 != events.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "]}\n";
  return out;
}

namespace {

void FoldNode(const CallNode& node, const std::string& prefix,
              std::map<std::string, std::uint64_t>* agg) {
  std::string path = prefix;
  if (node.fn != nullptr) {
    if (node.inline_marker) {
      return;  // markers carry no time
    }
    path += ";";
    path += node.fn->name;
    (*agg)[path] += static_cast<std::uint64_t>(node.Net());
  }
  for (const auto& child : node.children) {
    if (child != nullptr) {
      FoldNode(*child, path, agg);
    }
  }
}

}  // namespace

std::string ExportFoldedStacks(const DecodedTrace& decoded) {
  std::map<std::string, std::uint64_t> agg;
  for (const auto& stack : decoded.stacks) {
    if (stack->root != nullptr) {
      FoldNode(*stack->root, StrFormat("context %d", stack->id), &agg);
    }
  }
  std::string out;
  for (const auto& [path, net_ns] : agg) {
    out += path;
    out += StrFormat(" %llu\n", static_cast<unsigned long long>(net_ns));
  }
  return out;
}

namespace {

bool NumberField(const JsonValue& event, const char* key, double* out) {
  const JsonValue* v = event.Get(key);
  if (v == nullptr || v->kind != JsonValue::kNumber) return false;
  *out = v->number;
  return true;
}

bool GetTraceEvents(const JsonValue& root, const JsonValue** out,
                    std::string* error) {
  if (root.kind != JsonValue::kObject) {
    *error = "top level is not an object";
    return false;
  }
  const JsonValue* events = root.Get("traceEvents");
  if (events == nullptr || events->kind != JsonValue::kArray) {
    *error = "missing traceEvents array";
    return false;
  }
  *out = events;
  return true;
}

std::uint64_t ToNs(double usec) {
  return static_cast<std::uint64_t>(std::llround(usec * 1000.0));
}

}  // namespace

bool ValidateTraceEventJson(const std::string& json, std::string* error) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  JsonValue root;
  if (!ParseJson(json, &root, error)) {
    return false;
  }
  const JsonValue* events = nullptr;
  if (!GetTraceEvents(root, &events, error)) {
    return false;
  }
  struct Slice {
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
  };
  std::map<std::pair<int, int>, std::vector<Slice>> slices;
  for (std::size_t i = 0; i < events->arr.size(); ++i) {
    const JsonValue& e = events->arr[i];
    auto fail = [&](const char* why) {
      *error = StrFormat("event %zu: %s", i, why);
      return false;
    };
    if (e.kind != JsonValue::kObject) return fail("not an object");
    const JsonValue* ph = e.Get("ph");
    if (ph == nullptr || ph->kind != JsonValue::kString || ph->str.size() != 1) {
      return fail("missing one-char ph");
    }
    double pid = 0;
    double tid = 0;
    if (!NumberField(e, "pid", &pid)) return fail("missing numeric pid");
    const JsonValue* name = e.Get("name");
    const bool has_name =
        name != nullptr && name->kind == JsonValue::kString && !name->str.empty();
    double ts = 0;
    switch (ph->str[0]) {
      case 'X': {
        if (!has_name) return fail("X event without a name");
        if (!NumberField(e, "tid", &tid)) return fail("missing numeric tid");
        double dur = 0;
        if (!NumberField(e, "ts", &ts)) return fail("X event without ts");
        if (!NumberField(e, "dur", &dur) || dur < 0) {
          return fail("X event without dur >= 0");
        }
        slices[{static_cast<int>(pid), static_cast<int>(tid)}].push_back(
            Slice{ToNs(ts), ToNs(dur)});
        break;
      }
      case 'i':
      case 'I':
        if (!has_name) return fail("instant without a name");
        if (!NumberField(e, "ts", &ts)) return fail("instant without ts");
        break;
      case 'C': {
        if (!has_name) return fail("counter without a name");
        if (!NumberField(e, "ts", &ts)) return fail("counter without ts");
        const JsonValue* args = e.Get("args");
        if (args == nullptr || args->kind != JsonValue::kObject ||
            args->obj.empty()) {
          return fail("counter without an args object");
        }
        break;
      }
      case 'M':
        if (!has_name) return fail("metadata without a name");
        break;
      default:
        // Other phases (B/E, async, flow...) are legal trace-event JSON;
        // the minimal checker only insists on the fields above.
        break;
    }
  }
  for (auto& [key, list] : slices) {
    std::sort(list.begin(), list.end(), [](const Slice& a, const Slice& b) {
      return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.dur_ns > b.dur_ns;
    });
    std::vector<std::uint64_t> open_ends;
    for (const Slice& s : list) {
      while (!open_ends.empty() && s.ts_ns >= open_ends.back()) {
        open_ends.pop_back();
      }
      if (!open_ends.empty() && s.ts_ns + s.dur_ns > open_ends.back()) {
        *error = StrFormat(
            "pid %d tid %d: slice at ts=%lluns (dur %lluns) straddles its "
            "enclosing slice's end",
            key.first, key.second, static_cast<unsigned long long>(s.ts_ns),
            static_cast<unsigned long long>(s.dur_ns));
        return false;
      }
      open_ends.push_back(s.ts_ns + s.dur_ns);
    }
  }
  return true;
}

bool SummarizeTraceEventJson(const std::string& json, TraceEventTotals* out,
                             std::string* error) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  JsonValue root;
  if (!ParseJson(json, &root, error)) {
    return false;
  }
  const JsonValue* events = nullptr;
  if (!GetTraceEvents(root, &events, error)) {
    return false;
  }
  *out = TraceEventTotals{};
  for (const JsonValue& e : events->arr) {
    if (e.kind != JsonValue::kObject) continue;
    const JsonValue* ph = e.Get("ph");
    const JsonValue* name = e.Get("name");
    if (ph == nullptr || ph->kind != JsonValue::kString || name == nullptr ||
        name->kind != JsonValue::kString) {
      continue;
    }
    if (ph->str == "X") {
      ++out->slices;
      const JsonValue* args = e.Get("args");
      if (args != nullptr) {
        double v = 0;
        if (NumberField(*args, "net_ns", &v)) {
          out->net_ns[name->str] += static_cast<std::uint64_t>(v);
        }
        if (NumberField(*args, "elapsed_ns", &v)) {
          out->elapsed_ns[name->str] += static_cast<std::uint64_t>(v);
        }
      }
    } else if (ph->str == "i") {
      ++out->instants;
      const std::string prefix = "anomaly: ";
      if (name->str.rfind(prefix, 0) == 0) {
        const JsonValue* args = e.Get("args");
        double v = 0;
        if (args != nullptr && NumberField(*args, "count", &v)) {
          out->anomaly_counts[name->str.substr(prefix.size())] +=
              static_cast<std::uint64_t>(v);
        }
      }
    } else if (ph->str == "C") {
      ++out->counter_samples;
    }
  }
  return true;
}

}  // namespace hwprof
