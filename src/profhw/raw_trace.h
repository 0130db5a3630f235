// Raw capture data: the exact information the Profiler's RAM holds.
//
// Each stored event is 40 bits wide — a 16-bit tag section and a 24-bit (by
// default) timer section. This is *all* the analysis software ever receives;
// keeping the container this narrow enforces the paper's information
// boundary between hardware capture and host-side analysis.
//
// The board is physically fragile by design (battery-backed RAMs carried
// between hosts, an overflow LED, a counter that wraps every ~16.7 s), so
// the upload format distinguishes the two loss conditions the hardware can
// report — "storing stopped" (single-buffer address-counter overflow) and
// "events dropped" (double-buffer drain races) — and carries an optional
// host wall-clock envelope so the analyser can detect quiet gaps longer
// than one timer wrap.

#ifndef HWPROF_SRC_PROFHW_RAW_TRACE_H_
#define HWPROF_SRC_PROFHW_RAW_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/line_cursor.h"

namespace hwprof {

struct RawEvent {
  std::uint16_t tag = 0;
  std::uint32_t timestamp = 0;  // masked to the timer width

  friend bool operator==(const RawEvent&, const RawEvent&) = default;
};

// Timer counter mask (2^timer_bits - 1) of a `timer_bits`-wide counter.
inline std::uint32_t TimerMaskFor(unsigned timer_bits) {
  return timer_bits >= 32 ? 0xFFFFFFFFu : ((1u << timer_bits) - 1u);
}

// Parses one "<tag> <timestamp>" line of a text capture or stream file in a
// single pass: two decimal fields joined by one space, the tag within the
// 16-bit tag section and the timestamp within `mask`. Only a line this
// rejects pays for EventLineError's diagnosis.
inline bool ParseEventLine(std::string_view line, std::uint32_t mask, RawEvent* out) {
  FieldCursor fields(line, ' ');
  std::uint64_t tag = 0;
  std::uint64_t timestamp = 0;
  if (!fields.NextUint(&tag) || !fields.NextUint(&timestamp) || !fields.done() ||
      tag > 0xFFFF || timestamp > mask) {
    return false;
  }
  out->tag = static_cast<std::uint16_t>(tag);
  out->timestamp = static_cast<std::uint32_t>(timestamp);
  return true;
}

// Why ParseEventLine rejects `line` under a `timer_bits`-wide timer: the
// reason a text parse reports for the line (empty when it is accepted).
std::string EventLineError(std::string_view line, unsigned timer_bits);

// One drained bank of a streaming (double-buffered) capture: the events in
// address order plus the number of events the board dropped immediately
// before the first one (the drain lost the race to the fill).
struct TraceChunk {
  std::vector<RawEvent> events;
  std::uint64_t dropped_before = 0;

  friend bool operator==(const TraceChunk&, const TraceChunk&) = default;
};

// One parse problem in an uploaded capture or stream file, attributed to a
// 1-based line of the input text (same shape as TagDiag for names files).
struct TraceDiag {
  int line = 0;
  std::string message;
};

struct RawTrace {
  std::vector<RawEvent> events;
  unsigned timer_bits = 24;
  std::uint64_t timer_clock_hz = 1'000'000;
  bool overflowed = false;  // address counter hit the end; capture stopped

  // Events a double-buffered board dropped while both banks were full
  // (drain races). Distinct from `overflowed`: dropping loses events but
  // storing continues; overflow stops storing entirely.
  std::uint64_t dropped_events = 0;

  // Host wall-clock envelope: how long the board was armed, as measured by
  // the host that started/stopped the capture. 0 = unknown. When present,
  // the analyser can detect quiet gaps longer than one timer wrap (which
  // otherwise silently decode as short deltas).
  std::uint64_t capture_elapsed_ns = 0;

  // Timer counter mask (2^timer_bits - 1) for this capture's header.
  std::uint32_t TimerMask() const { return TimerMaskFor(timer_bits); }

  // Serialises to the simple line format uploaded to the UNIX host:
  //   "hwprof-raw v1 <timer_bits> <clock_hz> <overflowed>[ dropped=N][ elapsed=NS]"
  // then one "<tag> <timestamp>" line per event. The optional key=value
  // header tokens are emitted only when nonzero, so captures from
  // single-buffer boards round-trip through the original 5-field header.
  std::string Serialize() const;

  // Parses the upload format. Returns false on malformed input, leaving
  // `*out` unspecified. When `diags` is non-null every problem found is
  // appended with its 1-based line number and reason (parsing continues
  // past bad event lines so one pass reports them all).
  static bool Deserialize(std::string_view text, RawTrace* out,
                          std::vector<TraceDiag>* diags);
  static bool Deserialize(std::string_view text, RawTrace* out) {
    return Deserialize(text, out, nullptr);
  }

  // Salvage parse: the header must be sound, but corrupt event lines are
  // counted into `*corrupt_words`, reported into `diags` (when non-null)
  // and skipped; every parseable event is kept. A timestamp wider than the
  // header's timer mask is a corrupt word here (the counter cannot have
  // produced it). Returns false only when the header itself is unusable.
  static bool DeserializeSalvage(std::string_view text, RawTrace* out,
                                 std::vector<TraceDiag>* diags,
                                 std::uint64_t* corrupt_words);
};

}  // namespace hwprof

#endif  // HWPROF_SRC_PROFHW_RAW_TRACE_H_
