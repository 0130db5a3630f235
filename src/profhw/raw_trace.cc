#include "src/profhw/raw_trace.h"

#include "src/base/strings.h"
#include "src/base/text_writer.h"

namespace hwprof {

namespace {

void Note(std::vector<TraceDiag>* diags, int line, std::string message) {
  if (diags != nullptr) {
    diags->push_back(TraceDiag{line, std::move(message)});
  }
}

// Shared parser behind the strict and salvage entry points. In strict mode
// every problem is a failure (but parsing continues so one pass reports them
// all); in salvage mode bad event lines are counted and skipped.
bool Parse(std::string_view text, RawTrace* out, std::vector<TraceDiag>* diags,
           bool salvage, std::uint64_t* corrupt_words) {
  const std::vector<std::string_view> lines = SplitLines(text);
  if (lines.empty()) {
    Note(diags, 1, "empty file: expected 'hwprof-raw v1 ...' header");
    return false;
  }
  const std::vector<std::string_view> header = Split(lines[0], ' ');
  if (header.size() < 5 || header[0] != "hwprof-raw" || header[1] != "v1") {
    Note(diags, 1, "bad header: expected 'hwprof-raw v1 <bits> <hz> <overflowed>'");
    return false;
  }
  std::uint64_t bits = 0;
  std::uint64_t hz = 0;
  std::uint64_t overflow = 0;
  if (!ParseUint(header[2], &bits) || bits < 8 || bits > 32) {
    Note(diags, 1, "timer width must be a number in 8..32");
    return false;
  }
  if (!ParseUint(header[3], &hz) || hz == 0) {
    Note(diags, 1, "timer clock rate must be a positive number");
    return false;
  }
  if (!ParseUint(header[4], &overflow) || overflow > 1) {
    Note(diags, 1, "overflowed flag must be 0 or 1");
    return false;
  }
  RawTrace trace;
  trace.timer_bits = static_cast<unsigned>(bits);
  trace.timer_clock_hz = hz;
  trace.overflowed = overflow == 1;
  // Optional key=value header tokens (dropped=N, elapsed=NS).
  for (std::size_t h = 5; h < header.size(); ++h) {
    const std::string_view token = header[h];
    const std::size_t eq = token.find('=');
    std::uint64_t value = 0;
    if (eq == std::string_view::npos || !ParseUint(token.substr(eq + 1), &value)) {
      Note(diags, 1, StrFormat("bad header token '%.*s': expected key=<number>",
                               static_cast<int>(token.size()), token.data()));
      return false;
    }
    const std::string_view key = token.substr(0, eq);
    if (key == "dropped") {
      trace.dropped_events = value;
    } else if (key == "elapsed") {
      trace.capture_elapsed_ns = value;
    } else {
      Note(diags, 1, StrFormat("unknown header token '%.*s'",
                               static_cast<int>(token.size()), token.data()));
      return false;
    }
  }

  const std::uint32_t mask = trace.TimerMask();
  bool events_ok = true;
  trace.events.reserve(lines.size() - 1);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    const std::vector<std::string_view> fields = Split(lines[i], ' ');
    std::uint64_t tag = 0;
    std::uint64_t timestamp = 0;
    std::string reason;
    if (fields.size() != 2) {
      reason = StrFormat("expected '<tag> <timestamp>', got %zu fields", fields.size());
    } else if (!ParseUint(fields[0], &tag) || !ParseUint(fields[1], &timestamp)) {
      reason = "tag and timestamp must be non-negative decimal numbers";
    } else if (tag > 0xFFFF) {
      reason = StrFormat("tag %llu exceeds the 16-bit tag section",
                         static_cast<unsigned long long>(tag));
    } else if (timestamp > mask) {
      reason = StrFormat("timestamp %llu exceeds the %u-bit timer mask (%lu)",
                         static_cast<unsigned long long>(timestamp), trace.timer_bits,
                         static_cast<unsigned long>(mask));
    }
    if (!reason.empty()) {
      Note(diags, line_no, std::move(reason));
      if (salvage) {
        if (corrupt_words != nullptr) {
          ++*corrupt_words;
        }
        continue;
      }
      events_ok = false;
      continue;
    }
    trace.events.push_back(RawEvent{static_cast<std::uint16_t>(tag),
                                    static_cast<std::uint32_t>(timestamp)});
  }
  if (!events_ok) {
    return false;
  }
  *out = std::move(trace);
  return true;
}

}  // namespace

std::string RawTrace::Serialize() const {
  // The header's longest form plus each event's exact digits.
  std::size_t bytes = 128;
  for (const RawEvent& e : events) {
    bytes += DecimalDigits(e.tag) + DecimalDigits(e.timestamp) + 2;
  }
  TextWriter w(bytes);
  w.Append("hwprof-raw v1 ").Uint(timer_bits).Append(' ').Uint(timer_clock_hz);
  w.Append(overflowed ? " 1" : " 0");
  if (dropped_events > 0) {
    w.Append(" dropped=").Uint(dropped_events);
  }
  if (capture_elapsed_ns > 0) {
    w.Append(" elapsed=").Uint(capture_elapsed_ns);
  }
  w.Append('\n');
  for (const RawEvent& e : events) {
    w.Uint(e.tag).Append(' ').Uint(e.timestamp).Append('\n');
  }
  return w.Take();
}

bool RawTrace::Deserialize(std::string_view text, RawTrace* out,
                           std::vector<TraceDiag>* diags) {
  return Parse(text, out, diags, /*salvage=*/false, nullptr);
}

bool RawTrace::DeserializeSalvage(std::string_view text, RawTrace* out,
                                  std::vector<TraceDiag>* diags,
                                  std::uint64_t* corrupt_words) {
  return Parse(text, out, diags, /*salvage=*/true, corrupt_words);
}

}  // namespace hwprof
