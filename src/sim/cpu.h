// CPU model: the single consumer of virtual time.
//
// Kernel and user code express computation as Use(cost) calls. While the CPU
// "executes", device events that fall inside the interval fire at their
// scheduled instants and the interrupt hook runs — so interrupt handlers
// preempt modelled work exactly where they would preempt an instruction
// stream, and the preempted work still completes its remaining cost
// afterwards (the deadline is extended by the service time).

#ifndef HWPROF_SRC_SIM_CPU_H_
#define HWPROF_SRC_SIM_CPU_H_

#include <cstdint>
#include <functional>

#include "src/base/units.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace hwprof {

class Cpu {
 public:
  Cpu(VirtualClock* clock, EventQueue* queue);
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  // Installs the kernel's interrupt-dispatch check. It runs after every
  // device event dispatch and decides, based on spl state, whether any
  // pending IRQ is serviced now. May be empty.
  void SetInterruptHook(std::function<void()> hook) { intr_hook_ = std::move(hook); }

  // Consumes `cost` of CPU time. Device events inside the window fire at
  // their scheduled virtual times; time spent inside interrupt service
  // extends the window (preemption, not theft).
  void Use(Nanoseconds cost) {
    const Nanoseconds deadline = clock_->Now() + cost;
    if (queue_->NextTime() >= deadline) {
      // No event falls inside the window: the common case, inline.
      busy_ns_ += cost;
      clock_->AdvanceTo(deadline);
      return;
    }
    UseUntil(deadline);
  }

  // Exactly `count` back-to-back Use(cost) calls — same clock, busy time,
  // event dispatch instants and interrupt-hook runs — in as few Use calls as
  // that allows: each run of calls that ends no later than the next pending
  // event dispatches nothing, so it is charged as one Use; a call that an
  // event falls inside (or starts on) is charged on its own. The split is
  // what makes it exact: events run inside Use (such as a drain scheduled
  // as a device event) may consume CPU time that is *not* added to the
  // deadline, so one Use(count * cost) across such an event could end at a
  // different instant than the calls it stands for.
  void UseRepeated(Nanoseconds cost, std::uint64_t count);

  // Idles (scheduler idle loop) until the next device event at or before
  // `until` has been dispatched, or until `until` if nothing is pending.
  // Returns true if an event was dispatched. Idle time is accounted
  // separately from busy time.
  bool IdleWait(Nanoseconds until);

  // Runs any already-due events plus the interrupt hook without consuming
  // time. Used by spl-lowering points that must deliver pended interrupts.
  void PollInterrupts();

  Nanoseconds busy_ns() const { return busy_ns_; }
  Nanoseconds idle_ns() const { return idle_ns_; }
  VirtualClock& clock() { return *clock_; }

 private:
  // Use's general case: runs to `deadline`, dispatching the events inside
  // the window and extending it by their interrupt service time.
  void UseUntil(Nanoseconds deadline);
  // Dispatches due events and the hook; adds interrupt service time to
  // `*deadline` when provided.
  void DispatchAt(Nanoseconds* deadline);

  VirtualClock* clock_;
  EventQueue* queue_;
  std::function<void()> intr_hook_;
  Nanoseconds busy_ns_ = 0;
  Nanoseconds idle_ns_ = 0;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_SIM_CPU_H_
