// The Profiler board (Figure 1), behaviourally modelled.
//
// Plugged into the EPROM socket of the target, the board sees the 16 address
// lines plus the chip enables of every read decoded to the socket window.
// When armed (the start switch), each observed read latches the address
// lines as the event tag together with the free-running timer value, and the
// address counter advances. Two LEDs report state: "active" (armed and
// storing) and "overflow" (address counter wrapped; storing stopped).
//
// Streaming upgrade (the paper's future-work direction, pushed further):
// a second event RAM and a PAL term on A15 turn the board into a
// double-buffered capture device. Reads in the *lower* half of the socket
// window (A15 = 0 — every compiler-emitted trigger; tags are far below
// 0x8000) latch events into the active bank as before. Reads in the *upper*
// half are drain-port cycles: they are never latched as events, and they
// address a small register file plus an auto-incrementing data port through
// which the host reads out the sealed (full) standby bank *while capture
// continues* in the other bank. When the active bank fills and the standby
// has not been released yet, further events are dropped and counted — the
// board trades completeness for an unbounded capture window, and it tells
// you exactly how much it traded.

#ifndef HWPROF_SRC_PROFHW_PROFILER_H_
#define HWPROF_SRC_PROFHW_PROFILER_H_

#include <cstdint>

#include "src/base/units.h"
#include "src/profhw/event_ram.h"
#include "src/profhw/raw_trace.h"
#include "src/profhw/usec_timer.h"
#include "src/sim/bus.h"

namespace hwprof {

struct ProfilerConfig {
  std::size_t ram_depth = kDefaultEventRamDepth;
  unsigned timer_bits = 24;
  std::uint64_t timer_clock_hz = 1'000'000;
  // Fit the second event RAM and the bank-switch PAL terms: capture runs
  // double-buffered and the drain window decodes in the upper half of the
  // socket window. Event tags must stay below kDrainWindowBase.
  bool double_buffer = false;
};

// Which RAM bank the ZIF readout multiplexes into the socket window
// (single-buffer boards only; double-buffered boards use the drain ports).
enum class ReadoutBank : std::uint8_t { kTags, kTimestamps };

// --- Drain-port register file (double-buffer mode) ---------------------------
// All offsets are address-line values within the socket window; reads with
// A15 = 1 decode here and are never captured as events.
inline constexpr std::uint16_t kDrainWindowBase = 0x8000;
// Status byte: bit0 = a sealed bank is ready to drain, bit1 = armed,
// bit2 = events have been dropped since Arm().
inline constexpr std::uint16_t kDrainStatusPort = kDrainWindowBase + 0;
inline constexpr std::uint8_t kDrainStatusReady = 0x01;
inline constexpr std::uint8_t kDrainStatusArmed = 0x02;
inline constexpr std::uint8_t kDrainStatusDropped = 0x04;
// Sealed-bank event count, little-endian u32 at +1..+4.
inline constexpr std::uint16_t kDrainCountPort = kDrainWindowBase + 1;
// Events dropped immediately *before* the sealed bank's first event,
// little-endian u32 at +5..+8.
inline constexpr std::uint16_t kDrainDropPort = kDrainWindowBase + 5;
// Auto-incrementing data port: successive reads walk the sealed bank's
// serialised contents — count × 2 tag bytes, then count × 3 timestamp bytes
// (both little-endian). 0xFF past the end.
inline constexpr std::uint16_t kDrainDataPort = kDrainWindowBase + 9;
// Reading the release port frees the sealed bank (capture may swap into it
// again) and resets the data-port cursor. Acknowledges with kDrainAck.
inline constexpr std::uint16_t kDrainReleasePort = kDrainWindowBase + 10;
// Reading the seal port seals the *active* bank (host-commanded flush at the
// end of a run) if no bank is currently sealed. Acknowledges with kDrainAck.
inline constexpr std::uint16_t kDrainSealPort = kDrainWindowBase + 11;
inline constexpr std::uint8_t kDrainAck = 0xA5;

class Profiler final : public EpromTapListener {
 public:
  explicit Profiler(ProfilerConfig config = ProfilerConfig{});

  // Attaches the board to `bus`'s EPROM socket. The board powers from the
  // socket, so attachment is the only connection required.
  void PlugInto(IsaBus& bus);
  void Unplug(IsaBus& bus);

  // The start switch: begins a capture (clears RAM, address counter and the
  // overflow latch; in double-buffer mode also the drop counters and the
  // bank-switch state).
  void Arm();
  // Stops capturing without clearing RAM.
  void Disarm();

  bool armed() const { return armed_; }
  // LED 1: armed and still storing. LED 2: single-buffer — address counter
  // overflowed (storing stopped); double-buffer — events have been dropped.
  bool led_active() const;
  bool led_overflow() const;

  // Events currently resident in the board's RAM (both banks).
  std::size_t events_captured() const;
  // Depth of one bank.
  std::size_t capacity() const { return ram_.depth(); }
  const UsecTimer& timer() const { return timer_; }

  // --- Streaming (double-buffer) state ---------------------------------------
  bool double_buffered() const { return double_buffer_; }
  // A sealed bank is waiting for the host to drain it.
  bool standby_ready() const { return sealed_ >= 0; }
  // Lifetime counters since Arm().
  std::uint64_t total_captured() const { return total_captured_; }
  std::uint64_t dropped_events() const { return dropped_; }
  std::uint64_t bank_switches() const { return bank_switches_; }
  // Drops accumulated after the last stored event (not yet attributed to a
  // bank header; reported by the host's final flush).
  std::uint64_t pending_drops() const { return pending_drops_; }

  // EpromTapListener: one bus read decoded to the socket — every profiling
  // trigger. Inline, with the store it makes, so a trigger's host cost is
  // the one call into the listener.
  void OnEpromRead(std::uint16_t addr_lines, Nanoseconds now) override {
    if (double_buffer_) {
      if (addr_lines >= kDrainWindowBase) {
        return;  // drain-port cycle: A15 gates the event latch
      }
      if (!armed_) {
        return;
      }
      StoreDoubleBuffered(addr_lines, timer_.Sample(now));
      return;
    }
    if (!armed_ || readout_) {
      return;
    }
    // The PAL gates the store on the armed flip-flop and the not-overflowed
    // latch; the RAM handles the latter.
    ram_.Store(addr_lines, timer_.Sample(now));
  }

  // --- ZIF readout (single-buffer boards) ------------------------------------
  // Multiplexes a storage RAM bank into the socket window so the *target*
  // can read the capture in place, instead of carrying battery-backed RAMs
  // to another host. Capturing stops while in readout mode.
  //
  // Bank layouts (little-endian):
  //   kTags:        [count u32][tag u16 per event]
  //   kTimestamps:  [timestamp u24 per event]
  void EnterReadoutMode(ReadoutBank bank);
  void ExitReadoutMode();
  bool in_readout() const { return readout_; }
  bool ProvideEpromData(std::uint16_t addr_lines, std::uint8_t* data) override;
  // A data-port span copies the sealed bank's bytes through the cursor in
  // bulk (0xFF past the end, or with no sealed bank); any other span is n
  // single reads.
  void OnEpromReadSpan(std::uint16_t addr_lines, Nanoseconds now, std::uint8_t* data,
                       std::size_t n) override;

  // Models pulling the battery-backed Smart-Socket RAMs and uploading their
  // contents to a host: returns the raw capture (sealed bank first — its
  // events are older). The board keeps its data (reading RAM is
  // non-destructive). Single-buffer boards report RAM overflow through
  // RawTrace::overflowed (storing stopped); double-buffered boards report
  // drain races through RawTrace::dropped_events (storing continued, events
  // were lost mid-stream) and never set `overflowed`.
  RawTrace Upload() const;

 private:
  EventRam& bank(int i) { return i == 0 ? ram_ : ram_b_; }
  const EventRam& bank(int i) const { return i == 0 ? ram_ : ram_b_; }
  void StoreDoubleBuffered(std::uint16_t tag, std::uint32_t timestamp) {
    EventRam* act = &bank(active_);
    if (act->full()) {
      if (sealed_ >= 0) {
        DropEvent();
        return;
      }
      SealActiveAndSwap();
      act = &bank(active_);
    }
    act->Store(tag, timestamp);
    ++total_captured_;
  }
  // Counts an event lost because both banks hold data.
  void DropEvent();
  // Seals the active bank and swaps capture to the other one. The caller
  // guarantees no bank is currently sealed.
  void SealActiveAndSwap();
  bool ProvideDrainData(std::uint16_t addr_lines, std::uint8_t* data);
  // Copies up to `n` data-port bytes of the sealed bank from the cursor into
  // `data` and advances the cursor; returns how many there were.
  std::size_t CopyDrainBytes(std::uint8_t* data, std::size_t n);

  UsecTimer timer_;
  EventRam ram_;    // bank 0
  EventRam ram_b_;  // bank 1 (unused unless double_buffer_)
  bool armed_ = false;
  bool readout_ = false;
  ReadoutBank readout_bank_ = ReadoutBank::kTags;

  bool double_buffer_ = false;
  int active_ = 0;
  int sealed_ = -1;  // bank index, or -1
  // Stamped when a bank starts filling: events dropped immediately before
  // its first event (the drain-port header of that bank once sealed).
  std::uint32_t drops_before_[2] = {0, 0};
  std::uint64_t pending_drops_ = 0;  // drops since the last bank swap
  std::uint64_t total_captured_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t bank_switches_ = 0;
  std::size_t drain_cursor_ = 0;  // data-port auto-increment state
};

}  // namespace hwprof

#endif  // HWPROF_SRC_PROFHW_PROFILER_H_
