// In-band capture readout through the EPROM socket — the paper's planned
// fix for its "one clumsy aspect": "currently [uploading the data] is
// manually performed, which slows down the profiling process somewhat...
// each of the storage RAMs in turn can be multiplexed into the EPROM
// address space, and the data can be read as if it were an EPROM. This
// would allow fast turnaround for processing the Profiler data."
//
// The kernel-side dump routine (profdump) reads every capture byte with
// ordinary socket reads, each costing one real 8-bit ISA cycle — so the
// turnaround win over the manual RAM-carry is itself measurable.

#ifndef HWPROF_SRC_INSTR_READOUT_H_
#define HWPROF_SRC_INSTR_READOUT_H_

#include "src/instr/instrumenter.h"
#include "src/profhw/profiler.h"
#include "src/sim/machine.h"

namespace hwprof {

// Reads the whole capture in place via the socket. The profiler is switched
// bank-by-bank into readout mode and left disarmed afterwards. The result
// is bit-identical to Profiler::Upload(). Charges real bus time on
// `machine` (profiled as "profdump" when instrumentation is linked).
// Single-buffer boards only.
RawTrace InBandReadout(Machine& machine, Instrumenter& instr, Profiler& profiler);

// --- Streaming drain (double-buffered boards) --------------------------------
// The kernel-side drain routine (profdrain): reads the sealed standby bank
// through the drain ports in the upper half of the socket window while
// capture continues in the other bank, then releases the bank back to the
// board. Every byte costs a real ISA cycle in virtual time; the sealed
// bank's data bytes move host-side as one Machine::SocketReadSpan. The
// routine's own entry/exit triggers land in the active bank — the drain
// profiles itself.
//
// Returns false (and leaves `*out` empty) when no sealed bank is ready.
bool DrainChunk(Machine& machine, Instrumenter& instr, Profiler& profiler, TraceChunk* out);

// End-of-run flush: drains a ready standby bank if any, commands the board
// to seal the active bank, and drains that too. Appends in capture order.
// A final chunk with no events is appended if the board dropped events
// after the last one it stored. Call with the board disarmed.
void DrainRemaining(Machine& machine, Instrumenter& instr, Profiler& profiler,
                    std::vector<TraceChunk>* out);

}  // namespace hwprof

#endif  // HWPROF_SRC_INSTR_READOUT_H_
