#include "src/sim/cpu.h"

#include <algorithm>

#include "src/base/assert.h"

namespace hwprof {

Cpu::Cpu(VirtualClock* clock, EventQueue* queue) : clock_(clock), queue_(queue) {
  HWPROF_CHECK(clock != nullptr && queue != nullptr);
}

void Cpu::DispatchAt(Nanoseconds* deadline) {
  queue_->RunDue(clock_->Now());
  if (intr_hook_) {
    const Nanoseconds before = clock_->Now();
    intr_hook_();
    const Nanoseconds service = clock_->Now() - before;
    if (deadline != nullptr) {
      *deadline += service;
    }
  }
}

void Cpu::UseUntil(Nanoseconds deadline) {
  while (clock_->Now() < deadline) {
    const Nanoseconds next = queue_->NextTime();
    if (next <= clock_->Now()) {
      // An event became due at the current instant (e.g. scheduled by an
      // interrupt handler); dispatch without advancing.
      DispatchAt(&deadline);
      continue;
    }
    if (next < deadline) {
      busy_ns_ += next - clock_->Now();
      clock_->AdvanceTo(next);
      DispatchAt(&deadline);
    } else {
      busy_ns_ += deadline - clock_->Now();
      clock_->AdvanceTo(deadline);
    }
  }
}

void Cpu::UseRepeated(Nanoseconds cost, std::uint64_t count) {
  if (cost == 0) {
    return;  // Use(0) neither advances time nor dispatches
  }
  while (count > 0) {
    // The calls that end no later than the next event dispatch nothing (one
    // exactly at a call's deadline is left to the next call), so they merge
    // into one Use; a call that an event falls inside or starts on runs alone.
    const Nanoseconds now = clock_->Now();
    const Nanoseconds next = queue_->NextTime();
    std::uint64_t run = count;
    if (next != EventQueue::kNever) {
      run = next <= now ? 1 : std::clamp<std::uint64_t>((next - now) / cost, 1, count);
    }
    Use(run * cost);
    count -= run;
  }
}

bool Cpu::IdleWait(Nanoseconds until) {
  const Nanoseconds next = queue_->NextTime();
  if (next == EventQueue::kNever || next > until) {
    if (until > clock_->Now()) {
      idle_ns_ += until - clock_->Now();
      clock_->AdvanceTo(until);
    }
    return false;
  }
  if (next > clock_->Now()) {
    idle_ns_ += next - clock_->Now();
    clock_->AdvanceTo(next);
  }
  DispatchAt(nullptr);
  return true;
}

void Cpu::PollInterrupts() { DispatchAt(nullptr); }

}  // namespace hwprof
