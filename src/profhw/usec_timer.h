// Free-running microsecond counter of the Profiler board.
//
// The prototype clocks a 24-bit counter at 1 MHz: the count wraps every
// ~16.7 s, which bounds the *interval between events*, not the total run
// (the analysis software only ever uses deltas). The paper's future-work
// section considers a wider counter ("fitting a wider RAM module for
// accepting more clock data bits") and a higher clock rate; both are
// parameters here so that trade-off is explorable.

#ifndef HWPROF_SRC_PROFHW_USEC_TIMER_H_
#define HWPROF_SRC_PROFHW_USEC_TIMER_H_

#include <cstdint>

#include "src/base/assert.h"
#include "src/base/units.h"

namespace hwprof {

class UsecTimer {
 public:
  // `bits` is the counter width (the prototype's RAM holds 24 timer bits);
  // `clock_hz` is the oscillator rate (prototype: 1 MHz).
  explicit UsecTimer(unsigned bits = 24, std::uint64_t clock_hz = 1'000'000);

  unsigned bits() const { return bits_; }
  std::uint64_t clock_hz() const { return clock_hz_; }

  // Counter mask (2^bits - 1).
  std::uint32_t Mask() const { return mask_; }

  // Raw counter value latched at virtual time `now`:
  // floor(now * clock_hz / 10^9), masked to the counter width.
  std::uint32_t Sample(Nanoseconds now) const {
    if (ns_per_tick_ != 0) {
      return static_cast<std::uint32_t>(now / ns_per_tick_) & mask_;
    }
    const unsigned __int128 ticks =
        static_cast<unsigned __int128>(now) * clock_hz_ / 1'000'000'000ULL;
    return static_cast<std::uint32_t>(ticks) & mask_;
  }

  // Longest interval between two events that is still unambiguous, in
  // nanoseconds (one full wrap period).
  Nanoseconds WrapPeriod() const;

  // Interval, in timer ticks, from an earlier sample to a later one,
  // assuming at most one wrap between them (the analyser's contract).
  std::uint32_t TicksBetween(std::uint32_t earlier, std::uint32_t later) const;

  // Converts timer ticks to nanoseconds: floor(ticks * 10^9 / clock_hz),
  // modulo 2^64.
  Nanoseconds TicksToNs(std::uint64_t ticks) const {
    if (ns_per_tick_ != 0) {
      return ticks * ns_per_tick_;
    }
    return static_cast<Nanoseconds>(static_cast<unsigned __int128>(ticks) * 1'000'000'000ULL /
                                    clock_hz_);
  }

 private:
  unsigned bits_;
  std::uint64_t clock_hz_;
  std::uint32_t mask_;
  // 10^9 / clock_hz when the rate divides 10^9 (1 MHz: 1000), else 0. A
  // whole tick length makes both conversions exact without the 128-bit
  // product and division the other rates need.
  std::uint64_t ns_per_tick_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_PROFHW_USEC_TIMER_H_
