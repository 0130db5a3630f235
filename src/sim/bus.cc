#include "src/sim/bus.h"

#include <algorithm>

#include "src/base/assert.h"

namespace hwprof {

void IsaBus::InstallEpromSocket(std::uint32_t phys_base) {
  HWPROF_CHECK_MSG(phys_base >= kIsaHoleBase && phys_base + kEpromWindowSize <= kIsaHoleEnd,
                   "EPROM socket must sit inside the ISA memory hole");
  HWPROF_CHECK_MSG(phys_base % kEpromWindowSize == 0, "socket window must be aligned");
  eprom_base_ = phys_base;
}

void IsaBus::AddTapListener(EpromTapListener* listener) {
  HWPROF_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

void IsaBus::RemoveTapListener(EpromTapListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

Nanoseconds IsaBus::Read8(std::uint32_t phys, Nanoseconds now, std::uint8_t* data) {
  HWPROF_CHECK_MSG(phys >= kIsaHoleBase && phys < kIsaHoleEnd,
                   "8-bit read outside the ISA hole");
  if (data != nullptr) {
    *data = 0xFF;  // floating bus unless a device drives it
  }
  if (eprom_base_ != 0 && phys >= eprom_base_ && phys < eprom_base_ + kEpromWindowSize) {
    ++eprom_reads_;
    const auto addr_lines = static_cast<std::uint16_t>(phys - eprom_base_);
    for (EpromTapListener* l : listeners_) {
      l->OnEpromRead(addr_lines, now);
      std::uint8_t byte = 0;
      if (data != nullptr && l->ProvideEpromData(addr_lines, &byte)) {
        *data = byte;
      }
    }
  }
  // One 8-bit ISA memory cycle: ~3 BCLK at 8.33 MHz plus wait states; the
  // profiling-relevant figure is that two of these per function cost the
  // paper ~400 ns, so a single cycle is ~200 ns. The CPU charges this cost
  // via the cost model; the bus itself reports a nominal occupancy.
  return 200;
}

void IsaBus::ReadSpan(std::uint32_t phys, Nanoseconds now, std::uint8_t* data, std::size_t n) {
  HWPROF_CHECK_MSG(phys >= kIsaHoleBase && phys < kIsaHoleEnd,
                   "8-bit read outside the ISA hole");
  std::fill_n(data, n, std::uint8_t{0xFF});
  if (eprom_base_ != 0 && phys >= eprom_base_ && phys < eprom_base_ + kEpromWindowSize) {
    eprom_reads_ += n;
    const auto addr_lines = static_cast<std::uint16_t>(phys - eprom_base_);
    for (EpromTapListener* l : listeners_) {
      l->OnEpromReadSpan(addr_lines, now, data, n);
    }
  }
}

void AddressMap::MapKernel(std::uint32_t kernel_size) {
  HWPROF_CHECK(kernel_size > 0);
  const std::uint32_t rounded = (kernel_size + kPageSize - 1) / kPageSize * kPageSize;
  isa_va_base_ = kKernelBase + rounded + kFixedPages * kPageSize;
  mapped_ = true;
}

std::uint32_t AddressMap::IsaVirtualBase() const {
  HWPROF_CHECK_MSG(mapped_, "kernel not yet mapped");
  return isa_va_base_;
}

bool AddressMap::VirtualToIsaPhys(std::uint32_t va, std::uint32_t* phys) const {
  HWPROF_CHECK_MSG(mapped_, "kernel not yet mapped");
  const std::uint32_t hole_size = kIsaHoleEnd - kIsaHoleBase;
  if (va < isa_va_base_ || va >= isa_va_base_ + hole_size) {
    return false;
  }
  *phys = kIsaHoleBase + (va - isa_va_base_);
  return true;
}

}  // namespace hwprof
