// Test-only differential oracle: the streaming drain as a byte loop. Every
// data-port byte is its own Machine::SocketRead — one Cpu::Use of
// trigger_read_ns, then one bus read — which is the cycle-by-cycle model the
// span drain (DrainChunk / DrainRemaining, one SocketReadSpan per sealed
// bank) must reproduce exactly: the same chunks, virtual time, busy time,
// bus read count and board counters. It shares no drain code with
// src/instr/readout.cc.

#ifndef HWPROF_TESTS_REFERENCE_DRAIN_H_
#define HWPROF_TESTS_REFERENCE_DRAIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/instr/instrumenter.h"
#include "src/instr/profile_scope.h"
#include "src/profhw/profiler.h"
#include "src/sim/machine.h"

namespace hwprof {

inline FuncInfo* ReferenceDrainFunc(Instrumenter& instr) {
  FuncInfo* f = instr.Find("profdrain");
  return f != nullptr ? f : instr.RegisterFunction("profdrain", Subsys::kLib);
}

inline bool ReferenceDrainChunk(Machine& machine, Instrumenter& instr, Profiler& profiler,
                                TraceChunk* out) {
  out->events.clear();
  out->dropped_before = 0;
  ProfileScope scope(machine, instr, ReferenceDrainFunc(instr));
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
    return false;
  }
  const std::uint32_t count = read_u32(kDrainCountPort);
  HWPROF_CHECK(count <= profiler.capacity());
  out->dropped_before = read_u32(kDrainDropPort);
  out->events.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t lo = read_byte(kDrainDataPort);
    const std::uint16_t hi = read_byte(kDrainDataPort);
    out->events[i].tag = static_cast<std::uint16_t>(lo | (hi << 8));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t timestamp = 0;
    for (std::uint32_t b = 0; b < 3; ++b) {
      timestamp |= static_cast<std::uint32_t>(read_byte(kDrainDataPort)) << (8 * b);
    }
    out->events[i].timestamp = timestamp;
  }
  HWPROF_CHECK(read_byte(kDrainReleasePort) == kDrainAck);
  return true;
}

inline void ReferenceDrainRemaining(Machine& machine, Instrumenter& instr, Profiler& profiler,
                                    std::vector<TraceChunk>* out) {
  TraceChunk chunk;
  if (ReferenceDrainChunk(machine, instr, profiler, &chunk)) {
    out->push_back(std::move(chunk));
  }
  const std::uint64_t trailing_drops = profiler.pending_drops();
  machine.SocketRead(instr.profile_base() + kDrainSealPort);
  if (ReferenceDrainChunk(machine, instr, profiler, &chunk)) {
    out->push_back(std::move(chunk));
  }
  if (trailing_drops > 0) {
    TraceChunk tail;
    tail.dropped_before = trailing_drops;
    out->push_back(std::move(tail));
  }
}

}  // namespace hwprof

#endif  // HWPROF_TESTS_REFERENCE_DRAIN_H_
