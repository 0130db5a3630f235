// The simulated PC: clock, event queue, CPU, ISA bus, IRQ controller and the
// virtual-memory address map, wired together.
//
// Kernel code holds a Machine& and expresses all computation and bus traffic
// through it; the Profiler attaches to the bus's EPROM socket tap.

#ifndef HWPROF_SRC_SIM_MACHINE_H_
#define HWPROF_SRC_SIM_MACHINE_H_

#include <cstddef>
#include <cstdint>

#include "src/base/units.h"
#include "src/sim/bus.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu.h"
#include "src/sim/event_queue.h"
#include "src/sim/irq.h"
#include "src/sim/time.h"

namespace hwprof {

// Default physical location of the spare boot-ROM socket on the WD8003E the
// paper attached the Profiler to.
inline constexpr std::uint32_t kDefaultEpromSocketPhys = 0xD0000;

class Machine {
 public:
  explicit Machine(CostModel model = CostModel::I386Dx40());
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  VirtualClock& clock() { return clock_; }
  EventQueue& events() { return events_; }
  Cpu& cpu() { return cpu_; }
  IsaBus& bus() { return bus_; }
  IrqController& irq() { return irq_; }
  AddressMap& address_map() { return address_map_; }
  const CostModel& cost() const { return cost_; }
  CostModel& mutable_cost() { return cost_; }

  Nanoseconds Now() const { return clock_.Now(); }

  // In-band socket read: like TriggerRead but returns the byte the socket
  // device drives (the ZIF-readout path). Reads outside the remapped window
  // return 0xFF.
  std::uint8_t SocketRead(std::uint32_t va);

  // `n` back-to-back SocketRead(va) calls (a data port's auto-increment
  // walk) as one bus span: the same virtual time, n × trigger_read_ns via
  // Cpu::UseRepeated, with the bytes moved after the charge. Sound only for
  // a device whose answers no event or interrupt handler can change mid-span
  // (the Profiler's sealed bank). Unmapped reads fill `data` with 0xFF.
  void SocketReadSpan(std::uint32_t va, std::uint8_t* data, std::size_t n);

  // Executes one profiling trigger: a byte read of kernel virtual address
  // `va`, translated through the ISA remap and decoded on the bus (where the
  // Profiler, if attached, latches the event). Charges the trigger cost.
  // Reads outside the remapped ISA window are ignored (an uninstrumented
  // build pokes nothing). Inline, with the bus read and the common case of
  // the CPU charge, so a trigger costs the host one call: the tap
  // listener's.
  void TriggerRead(std::uint32_t va) {
    // The trigger instruction itself (movb _ProfileBase+tag,%al) costs one
    // ISA bus cycle; this is the measurable intrusiveness of the whole
    // scheme.
    cpu_.Use(cost_.trigger_read_ns);
    std::uint32_t phys = 0;
    if (address_map_.mapped() && address_map_.VirtualToIsaPhys(va, &phys)) {
      bus_.Read8(phys, clock_.Now());
    }
  }

 private:
  CostModel cost_;
  VirtualClock clock_;
  EventQueue events_;
  Cpu cpu_;
  IsaBus bus_;
  IrqController irq_;
  AddressMap address_map_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_SIM_MACHINE_H_
