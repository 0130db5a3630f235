#include "src/profhw/usec_timer.h"

namespace hwprof {

UsecTimer::UsecTimer(unsigned bits, std::uint64_t clock_hz)
    : bits_(bits), clock_hz_(clock_hz) {
  HWPROF_CHECK_MSG(bits >= 8 && bits <= 32, "timer width must be 8..32 bits");
  HWPROF_CHECK(clock_hz > 0);
  mask_ = bits == 32 ? 0xFFFFFFFFu : ((1u << bits) - 1u);
  ns_per_tick_ = 1'000'000'000ULL % clock_hz == 0 ? 1'000'000'000ULL / clock_hz : 0;
}

Nanoseconds UsecTimer::WrapPeriod() const {
  const unsigned __int128 period =
      (static_cast<unsigned __int128>(mask_) + 1) * 1'000'000'000ULL / clock_hz_;
  return static_cast<Nanoseconds>(period);
}

std::uint32_t UsecTimer::TicksBetween(std::uint32_t earlier, std::uint32_t later) const {
  return (later - earlier) & mask_;
}

}  // namespace hwprof
