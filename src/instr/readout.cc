#include "src/instr/readout.h"

#include <cstdint>
#include <vector>

#include "src/base/assert.h"
#include "src/instr/profile_scope.h"
#include "src/obs/telemetry.h"

namespace hwprof {

namespace {

FuncInfo* DumpFunc(Instrumenter& instr, const char* name) {
  FuncInfo* f = instr.Find(name);
  return f != nullptr ? f : instr.RegisterFunction(name, Subsys::kLib);
}

}  // namespace

RawTrace InBandReadout(Machine& machine, Instrumenter& instr, Profiler& profiler) {
  HWPROF_CHECK_MSG(instr.linked(), "in-band readout needs a resolved ProfileBase");
  HWPROF_CHECK_MSG(!profiler.double_buffered(),
                   "double-buffered boards drain through DrainChunk");
  HWPROF_CHECK_MSG(profiler.timer().bits() <= 24,
                   "the ZIF readout banks carry 24 timer bits");
  FuncInfo* f_profdump = DumpFunc(instr, "profdump");
  // The dump routine itself is instrumented — but its own triggers would be
  // swallowed by readout mode anyway, which is exactly what the hardware
  // would do (the RAMs are disconnected from the capture path).
  ProfileScope scope(machine, instr, f_profdump);
  const std::uint32_t base = instr.profile_base();

  auto read_byte = [&](std::uint32_t offset) {
    return machine.SocketRead(base + offset);
  };

  RawTrace trace;
  trace.timer_bits = profiler.timer().bits();
  trace.timer_clock_hz = profiler.timer().clock_hz();
  trace.overflowed = profiler.led_overflow();

  // Bank 1: the count header and the 16-bit tags.
  profiler.EnterReadoutMode(ReadoutBank::kTags);
  std::uint32_t count = 0;
  for (int i = 0; i < 4; ++i) {
    count |= static_cast<std::uint32_t>(read_byte(static_cast<std::uint32_t>(i))) << (8 * i);
  }
  HWPROF_CHECK_MSG(count <= profiler.capacity(), "implausible readout count");
  trace.events.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t lo = read_byte(4 + 2 * i);
    const std::uint16_t hi = read_byte(4 + 2 * i + 1);
    trace.events[i].tag = static_cast<std::uint16_t>(lo | (hi << 8));
  }

  // Bank 2: the 24-bit timestamps.
  profiler.EnterReadoutMode(ReadoutBank::kTimestamps);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t timestamp = 0;
    for (std::uint32_t b = 0; b < 3; ++b) {
      timestamp |= static_cast<std::uint32_t>(read_byte(3 * i + b)) << (8 * b);
    }
    trace.events[i].timestamp = timestamp;
  }
  profiler.ExitReadoutMode();
  return trace;
}

bool DrainChunk(Machine& machine, Instrumenter& instr, Profiler& profiler, TraceChunk* out) {
  HWPROF_CHECK_MSG(instr.linked(), "the streaming drain needs a resolved ProfileBase");
  HWPROF_CHECK_MSG(profiler.double_buffered(), "DrainChunk needs a double-buffered board");
  HWPROF_CHECK_MSG(profiler.timer().bits() <= 24, "the drain port carries 24 timer bits");
  out->events.clear();
  out->dropped_before = 0;
  OBS_SPAN_BEGIN(drain);

  FuncInfo* f_profdrain = DumpFunc(instr, "profdrain");
  // Unlike profdump, the drain's own triggers ARE captured (into the active
  // bank) — streaming observes its own cost, as real double-buffered
  // tracers do.
  ProfileScope scope(machine, instr, f_profdrain);
  const std::uint32_t base = instr.profile_base();
  auto read_byte = [&](std::uint32_t offset) { return machine.SocketRead(base + offset); };
  auto read_u32 = [&](std::uint32_t port) {
    std::uint32_t value = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(read_byte(port + i)) << (8 * i);
    }
    return value;
  };

  if ((read_byte(kDrainStatusPort) & kDrainStatusReady) == 0) {
    OBS_SPAN_END(drain, "instr.drain_poll_empty");
    return false;
  }
  const std::uint32_t count = read_u32(kDrainCountPort);
  HWPROF_CHECK_MSG(count <= profiler.capacity(), "implausible drain count");
  out->dropped_before = read_u32(kDrainDropPort);
  // The data port walks count × 2 tag bytes, then count × 3 timestamp bytes,
  // one ISA cycle each; the bank is sealed, so they move as one span.
  std::vector<std::uint8_t> bytes(std::size_t{count} * 5);
  machine.SocketReadSpan(base + kDrainDataPort, bytes.data(), bytes.size());
  const std::uint8_t* tag = bytes.data();
  const std::uint8_t* stamp = tag + std::size_t{count} * 2;
  out->events.resize(count);
  for (RawEvent& e : out->events) {
    e.tag = static_cast<std::uint16_t>(tag[0] | (tag[1] << 8));
    e.timestamp = static_cast<std::uint32_t>(stamp[0] | (stamp[1] << 8) | (stamp[2] << 16));
    tag += 2;
    stamp += 3;
  }
  const std::uint8_t ack = read_byte(kDrainReleasePort);
  HWPROF_CHECK_MSG(ack == kDrainAck, "drain release not acknowledged");
  OBS_COUNT("instr.drain_chunks", 1);
  OBS_COUNT("instr.drain_events", count);
  OBS_SPAN_END(drain, "instr.drain_chunk");
  return true;
}

void DrainRemaining(Machine& machine, Instrumenter& instr, Profiler& profiler,
                    std::vector<TraceChunk>* out) {
  HWPROF_CHECK_MSG(profiler.double_buffered(), "DrainRemaining needs a double-buffered board");
  TraceChunk chunk;
  // A bank may already be sealed (the fill won the race at the very end).
  if (DrainChunk(machine, instr, profiler, &chunk)) {
    out->push_back(std::move(chunk));
  }
  // Drops after the last stored event would be stamped into the next bank's
  // header by the seal's swap — a bank that will never fill or drain. Note
  // them now and report them as a trailing, event-free chunk instead.
  const std::uint64_t trailing_drops = profiler.pending_drops();
  // Seal whatever the active bank holds, then drain it.
  const std::uint32_t base = instr.profile_base();
  machine.SocketRead(base + kDrainSealPort);
  if (DrainChunk(machine, instr, profiler, &chunk)) {
    out->push_back(std::move(chunk));
  }
  if (trailing_drops > 0) {
    TraceChunk tail;
    tail.dropped_before = trailing_drops;
    out->push_back(std::move(tail));
  }
}

}  // namespace hwprof
