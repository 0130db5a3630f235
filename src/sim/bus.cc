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

}  // namespace hwprof
