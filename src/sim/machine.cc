#include "src/sim/machine.h"

#include <algorithm>

namespace hwprof {

Machine::Machine(CostModel model)
    : cost_(model), cpu_(&clock_, &events_) {
  bus_.InstallEpromSocket(kDefaultEpromSocketPhys);
}

std::uint8_t Machine::SocketRead(std::uint32_t va) {
  cpu_.Use(cost_.trigger_read_ns);
  std::uint8_t data = 0xFF;
  std::uint32_t phys = 0;
  if (address_map_.mapped() && address_map_.VirtualToIsaPhys(va, &phys)) {
    bus_.Read8(phys, clock_.Now(), &data);
  }
  return data;
}

void Machine::SocketReadSpan(std::uint32_t va, std::uint8_t* data, std::size_t n) {
  cpu_.UseRepeated(cost_.trigger_read_ns, n);
  std::uint32_t phys = 0;
  if (address_map_.mapped() && address_map_.VirtualToIsaPhys(va, &phys)) {
    bus_.ReadSpan(phys, clock_.Now(), data, n);
  } else {
    std::fill_n(data, n, std::uint8_t{0xFF});
  }
}

}  // namespace hwprof
