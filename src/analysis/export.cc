#include "src/analysis/export.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/json.h"
#include "src/base/strings.h"
#include "src/base/text_writer.h"

namespace hwprof {

namespace {

// Bytes of one event beyond its name, for the reserve: an "X" slice's ids,
// µs fields and ns args at capture-scale values, and a cumulative counter
// sample. An estimate, not a bound; the buffer grows if it is exceeded.
constexpr std::size_t kSliceBytes = 112;
constexpr std::size_t kCounterBytes = 120;

bool IsContextSwitchNode(const CallNode* node) {
  return node != nullptr && node->fn != nullptr &&
         node->fn->kind == TagKind::kContextSwitch;
}

// The "traceEvents" array body: events separated by ",\n".
class EventList {
 public:
  explicit EventList(TextWriter* w) : w_(w) {}
  TextWriter& Next() {
    if (!first_) {
      w_->Append(",\n");
    }
    first_ = false;
    return *w_;
  }

 private:
  TextWriter* w_;
  bool first_ = true;
};

// `prefixes` holds `{"name":<escaped name>` by TagEntry::index, each
// escaped the first time its function is emitted.
void EmitNode(const CallNode& node, int tid, Nanoseconds trace_end,
              std::vector<std::string>* prefixes, EventList* events) {
  if (node.fn == nullptr) {
    return;
  }
  std::string& prefix = (*prefixes)[node.fn->index];
  if (prefix.empty()) {
    prefix = "{\"name\":";
    AppendJsonString(node.fn->name, &prefix);
  }
  TextWriter& w = events->Next().Append(prefix);
  if (node.inline_marker) {
    w.Append(",\"ph\":\"i\",\"pid\":1,\"tid\":").Int(tid).Append(",\"ts\":");
    w.UsecFromNs(node.entry_time).Append(",\"s\":\"t\"}");
    return;
  }
  const Nanoseconds exit = node.closed ? node.exit_time : trace_end;
  const Nanoseconds dur = exit >= node.entry_time ? exit - node.entry_time : 0;
  w.Append(",\"ph\":\"X\",\"pid\":1,\"tid\":").Int(tid).Append(",\"ts\":");
  w.UsecFromNs(node.entry_time).Append(",\"dur\":").UsecFromNs(dur);
  w.Append(",\"args\":{\"net_ns\":").Uint(node.Net());
  w.Append(",\"elapsed_ns\":").Uint(node.Elapsed());
  w.Append(node.forced_close ? ",\"forced_close\":1}}" : "}}");
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

// One slice or instant per entry step and one counter sample per context
// switch exit, plus the metadata and the tail events.
std::size_t EstimateJsonBytes(const DecodedTrace& decoded) {
  std::size_t bytes = 1024 + 128 * decoded.stacks.size();
  for (const TraceStep& step : decoded.steps) {
    if (!step.is_exit) {
      bytes += step.node->fn->name.size() + kSliceBytes;
    } else if (IsContextSwitchNode(step.node)) {
      bytes += kCounterBytes;
    }
  }
  return bytes;
}

}  // namespace

std::string ExportTraceEventJson(const DecodedTrace& decoded) {
  return ExportTraceEventJson(decoded, nullptr);
}

std::string ExportTraceEventJson(const DecodedTrace& decoded,
                                 const obs::Snapshot* telemetry) {
  TextWriter w(EstimateJsonBytes(decoded));
  w.Append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  // Every event is on pid 1: tid 0 holds the anomaly instants, and
  // activity stack k is tid k + 1.
  EventList events(&w);
  events.Next().Append(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"hwprof simulated machine\"}}");
  events.Next().Append(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"anomalies\"}}");
  for (const auto& stack : decoded.stacks) {
    events.Next().Append(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":").Int(stack->id + 1);
    w.Append(",\"args\":{\"name\":\"context ").Int(stack->id).Append("\"}}");
  }

  std::vector<std::string> prefixes(decoded.per_function.size());
  for (const auto& stack : decoded.stacks) {
    if (stack->root != nullptr) {
      WalkTree(*stack->root, [&](const CallNode& node) {
        EmitNode(node, stack->id + 1, decoded.end_time, &prefixes, &events);
      });
    }
  }

  // Cumulative idle / interrupt counter track, sampled at every context
  // switch exit: the closing '!' node banks its net time as idle and its
  // children's elapsed time as interrupt work taken during the idle window.
  Nanoseconds idle_cum = 0;
  Nanoseconds intr_cum = 0;
  auto counter_sample = [&](Nanoseconds t) {
    events.Next().Append("{\"name\":\"cpu (cumulative us)\",\"ph\":\"C\",\"pid\":1,\"ts\":");
    w.UsecFromNs(t).Append(",\"args\":{\"idle_us\":").UsecFromNs(idle_cum);
    w.Append(",\"interrupt_us\":").UsecFromNs(intr_cum).Append("}}");
  };
  if (!decoded.steps.empty()) {
    counter_sample(decoded.start_time);
    for (const TraceStep& step : decoded.steps) {
      if (!step.is_exit || !IsContextSwitchNode(step.node)) {
        continue;
      }
      idle_cum += step.node->Net();
      for (const CallNode* child : step.node->Children()) {
        if (!child->inline_marker) {
          intr_cum += child->Elapsed();
        }
      }
      counter_sample(step.t);
    }
  }

  for (const AnomalyRow& row : AnomalyRows(decoded)) {
    if (row.count == 0) {
      continue;
    }
    events.Next().Append("{\"name\":\"anomaly: ").Append(row.name);
    w.Append("\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":").UsecFromNs(decoded.end_time);
    w.Append(",\"s\":\"g\",\"args\":{\"count\":").Uint(row.count).Append("}}");
  }

  // Pipeline-telemetry counter tracks (snapshots are name-sorted, so the
  // emission order — and the rendered bytes — are deterministic).
  if (telemetry != nullptr) {
    for (const obs::MetricValue& m : telemetry->metrics) {
      if (m.kind != obs::MetricKind::kCounter) {
        continue;
      }
      events.Next().Append("{\"name\":").JsonString("telemetry: " + m.name);
      w.Append(",\"ph\":\"C\",\"pid\":1,\"ts\":").UsecFromNs(decoded.end_time);
      w.Append(",\"args\":{\"count\":").Uint(m.count).Append("}}");
    }
  }

  w.Append("\n]}\n");
  return w.Take();
}

std::string ExportFoldedStacks(const DecodedTrace& decoded) {
  // Each distinct path is one id, keyed by its parent path's id and the
  // callee's names-file entry, so a call costs one integer-keyed lookup and
  // a path's string is built once, when the path is first seen. Markers
  // carry no time and are skipped.
  struct Path {
    std::string text;
    std::uint64_t net_ns = 0;
  };
  std::vector<Path> paths;
  std::vector<std::uint32_t> calls;  // the ids of call paths (not context roots)
  std::unordered_map<std::uint64_t, std::uint32_t> child_path;
  std::vector<std::uint32_t> open;  // path ids from the root to the current call
  auto folds = [](const CallNode& node) {
    return node.fn != nullptr && !node.inline_marker;
  };
  for (const auto& stack : decoded.stacks) {
    if (stack->root == nullptr) {
      continue;
    }
    open.assign(1, static_cast<std::uint32_t>(paths.size()));
    paths.push_back(Path{"context " + std::to_string(stack->id)});
    WalkTree(
        *stack->root,
        [&](const CallNode& node) {
          if (!folds(node)) {
            return;
          }
          const std::uint64_t key = (std::uint64_t{open.back()} << 32) | node.fn->index;
          const auto [it, added] =
              child_path.try_emplace(key, static_cast<std::uint32_t>(paths.size()));
          if (added) {
            paths.push_back(Path{paths[open.back()].text + ';' + node.fn->name});
            calls.push_back(it->second);
          }
          paths[it->second].net_ns += static_cast<std::uint64_t>(node.Net());
          open.push_back(it->second);
        },
        [&](const CallNode& node) {
          if (folds(node)) {
            open.pop_back();
          }
        });
  }
  // One line per distinct path string, in byte order. Paths that print
  // alike (two contexts with one id, two names-file entries with one name)
  // sort next to each other and share a line.
  std::sort(calls.begin(), calls.end(), [&paths](std::uint32_t a, std::uint32_t b) {
    return paths[a].text < paths[b].text;
  });
  std::vector<std::pair<const std::string*, std::uint64_t>> lines;
  for (const std::uint32_t id : calls) {
    if (!lines.empty() && *lines.back().first == paths[id].text) {
      lines.back().second += paths[id].net_ns;
    } else {
      lines.emplace_back(&paths[id].text, paths[id].net_ns);
    }
  }
  std::size_t bytes = 0;
  for (const auto& [text, net_ns] : lines) {
    bytes += text->size() + 2 + DecimalDigits(net_ns);
  }
  TextWriter w(bytes);
  for (const auto& [text, net_ns] : lines) {
    w.Append(*text).Append(' ').Uint(net_ns).Append('\n');
  }
  return w.Take();
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
