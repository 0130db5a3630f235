#include "src/analysis/export.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/base/strings.h"

namespace hwprof {

namespace {

// --- Emission helpers --------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
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
      events->push_back(StrFormat(
          "{\"name\":\"%s\",\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%s,"
          "\"s\":\"t\"}",
          JsonEscape(node.fn->name).c_str(), kPid, tid,
          UsecStr(node.entry_time).c_str()));
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
    events->push_back(StrFormat(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,"
        "\"dur\":%s,\"args\":%s}",
        JsonEscape(node.fn->name).c_str(), kPid, tid,
        UsecStr(node.entry_time).c_str(), UsecStr(dur).c_str(), args.c_str()));
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
      events.push_back(StrFormat(
          "{\"name\":\"telemetry: %s\",\"ph\":\"C\",\"pid\":%d,\"ts\":%s,"
          "\"args\":{\"count\":%llu}}",
          JsonEscape(m.name).c_str(), kPid,
          UsecStr(decoded.end_time).c_str(),
          static_cast<unsigned long long>(m.count)));
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

// --- Minimal JSON reader (validation side) -----------------------------------
// Dependency-free recursive-descent parser, just enough for trace-event
// files: objects, arrays, strings (with escapes), numbers, true/false/null.

namespace {

struct JValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;

  const JValue* Get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  bool Parse(JValue* out, std::string* error) {
    SkipWs();
    if (!ParseValue(out)) {
      if (error != nullptr) {
        *error = StrFormat("JSON parse error at offset %zu: %s", i_,
                           err_.empty() ? "malformed value" : err_.c_str());
      }
      return false;
    }
    SkipWs();
    if (i_ != s_.size()) {
      if (error != nullptr) {
        *error = StrFormat("trailing garbage at offset %zu", i_);
      }
      return false;
    }
    return true;
  }

 private:
  void SkipWs() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool Literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }

  bool ParseValue(JValue* out) {
    if (i_ >= s_.size()) return Fail("unexpected end of input");
    switch (s_[i_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JValue::kString;
        return ParseString(&out->str);
      case 't':
        out->kind = JValue::kBool;
        out->boolean = true;
        return Literal("true") || Fail("bad literal");
      case 'f':
        out->kind = JValue::kBool;
        out->boolean = false;
        return Literal("false") || Fail("bad literal");
      case 'n':
        out->kind = JValue::kNull;
        return Literal("null") || Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JValue* out) {
    out->kind = JValue::kObject;
    ++i_;  // '{'
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (i_ >= s_.size() || s_[i_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') return Fail("expected ':'");
      ++i_;
      SkipWs();
      JValue value;
      if (!ParseValue(&value)) return false;
      out->obj.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (i_ < s_.size() && s_[i_] == '}') {
        ++i_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JValue* out) {
    out->kind = JValue::kArray;
    ++i_;  // '['
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    while (true) {
      SkipWs();
      JValue value;
      if (!ParseValue(&value)) return false;
      out->arr.push_back(std::move(value));
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (i_ < s_.size() && s_[i_] == ']') {
        ++i_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++i_;  // opening quote
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_];
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size()) return Fail("unterminated escape");
        switch (s_[i_]) {
          case '"':
            c = '"';
            break;
          case '\\':
            c = '\\';
            break;
          case '/':
            c = '/';
            break;
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          case 'b':
            c = '\b';
            break;
          case 'f':
            c = '\f';
            break;
          case 'u': {
            if (i_ + 4 >= s_.size()) return Fail("short \\u escape");
            unsigned code = 0;
            for (int k = 1; k <= 4; ++k) {
              const char h = s_[i_ + static_cast<std::size_t>(k)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape");
              }
            }
            i_ += 4;
            c = static_cast<char>(code & 0xFF);  // enough for our ASCII output
            break;
          }
          default:
            return Fail("unknown escape");
        }
      }
      out->push_back(c);
      ++i_;
    }
    if (i_ >= s_.size()) return Fail("unterminated string");
    ++i_;  // closing quote
    return true;
  }

  bool ParseNumber(JValue* out) {
    const std::size_t start = i_;
    if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
    bool any = false;
    while (i_ < s_.size() &&
           ((s_[i_] >= '0' && s_[i_] <= '9') || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '-' || s_[i_] == '+')) {
      any = true;
      ++i_;
    }
    if (!any) return Fail("expected a value");
    out->kind = JValue::kNumber;
    out->number = std::strtod(s_.substr(start, i_ - start).c_str(), nullptr);
    return true;
  }

  bool Fail(const char* why) {
    if (err_.empty()) err_ = why;
    return false;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  std::string err_;
};

bool NumberField(const JValue& event, const char* key, double* out) {
  const JValue* v = event.Get(key);
  if (v == nullptr || v->kind != JValue::kNumber) return false;
  *out = v->number;
  return true;
}

bool GetTraceEvents(const JValue& root, const JValue** out,
                    std::string* error) {
  if (root.kind != JValue::kObject) {
    *error = "top level is not an object";
    return false;
  }
  const JValue* events = root.Get("traceEvents");
  if (events == nullptr || events->kind != JValue::kArray) {
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
  JValue root;
  if (!JsonReader(json).Parse(&root, error)) {
    return false;
  }
  const JValue* events = nullptr;
  if (!GetTraceEvents(root, &events, error)) {
    return false;
  }
  struct Slice {
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
  };
  std::map<std::pair<int, int>, std::vector<Slice>> slices;
  for (std::size_t i = 0; i < events->arr.size(); ++i) {
    const JValue& e = events->arr[i];
    auto fail = [&](const char* why) {
      *error = StrFormat("event %zu: %s", i, why);
      return false;
    };
    if (e.kind != JValue::kObject) return fail("not an object");
    const JValue* ph = e.Get("ph");
    if (ph == nullptr || ph->kind != JValue::kString || ph->str.size() != 1) {
      return fail("missing one-char ph");
    }
    double pid = 0;
    double tid = 0;
    if (!NumberField(e, "pid", &pid)) return fail("missing numeric pid");
    const JValue* name = e.Get("name");
    const bool has_name =
        name != nullptr && name->kind == JValue::kString && !name->str.empty();
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
        const JValue* args = e.Get("args");
        if (args == nullptr || args->kind != JValue::kObject ||
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
  JValue root;
  if (!JsonReader(json).Parse(&root, error)) {
    return false;
  }
  const JValue* events = nullptr;
  if (!GetTraceEvents(root, &events, error)) {
    return false;
  }
  *out = TraceEventTotals{};
  for (const JValue& e : events->arr) {
    if (e.kind != JValue::kObject) continue;
    const JValue* ph = e.Get("ph");
    const JValue* name = e.Get("name");
    if (ph == nullptr || ph->kind != JValue::kString || name == nullptr ||
        name->kind != JValue::kString) {
      continue;
    }
    if (ph->str == "X") {
      ++out->slices;
      const JValue* args = e.Get("args");
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
        const JValue* args = e.Get("args");
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
