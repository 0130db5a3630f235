// ISA bus model with EPROM-socket tap — the Profiler's attachment point.
//
// The Profiler piggy-backs on a JEDEC EPROM socket (the paper used the spare
// boot-ROM socket of a WD8003E ethernet card). Reading any byte inside the
// socket's 64 KiB window presents the low 16 address lines plus the chip
// enables to whatever is plugged in; the Profiler latches those lines as the
// event tag. This file models the physical side: the ISA memory hole
// (0xA0000–0xFFFFF), the socket's window inside it, and the read tap.
//
// The *virtual* address the kernel must poke to reach the socket is a
// separate concern (386BSD remaps ISA memory above the kernel image, Fig 2)
// handled by AddressMap below and resolved by instr::Linker.

#ifndef HWPROF_SRC_SIM_BUS_H_
#define HWPROF_SRC_SIM_BUS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/assert.h"
#include "src/base/units.h"

namespace hwprof {

// Physical ISA memory hole boundaries on a PC.
inline constexpr std::uint32_t kIsaHoleBase = 0xA0000;
inline constexpr std::uint32_t kIsaHoleEnd = 0x100000;
// 27C512-class EPROM socket: 64 KiB window, 16 address lines.
inline constexpr std::uint32_t kEpromWindowSize = 0x10000;

// Observer of reads decoded to the EPROM socket. `addr_lines` carries A0–A15.
class EpromTapListener {
 public:
  virtual ~EpromTapListener() = default;
  virtual void OnEpromRead(std::uint16_t addr_lines, Nanoseconds now) = 0;
  // A device plugged into the socket may also *drive the data lines* (the
  // future-work ZIF readout: the Profiler's RAMs multiplexed into the EPROM
  // address space). Return true and fill `*data` to answer the read.
  virtual bool ProvideEpromData(std::uint16_t addr_lines, std::uint8_t* data) {
    (void)addr_lines;
    (void)data;
    return false;
  }
  // `n` back-to-back reads of one address (IsaBus::ReadSpan), all observed at
  // `now`, the instant the last cycle completed. `data[i]` arrives holding
  // the bus value so far (0xFF, or what an earlier listener drove); overwrite
  // it to drive read `i`. The default is `n` single reads, so a device only
  // overrides this to move a span in bulk.
  virtual void OnEpromReadSpan(std::uint16_t addr_lines, Nanoseconds now, std::uint8_t* data,
                               std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      OnEpromRead(addr_lines, now);
      std::uint8_t byte = 0;
      if (ProvideEpromData(addr_lines, &byte)) {
        data[i] = byte;
      }
    }
  }
};

class IsaBus {
 public:
  IsaBus() = default;

  // Places the EPROM socket window at physical address `phys_base`, which
  // must lie inside the ISA hole and leave room for the 64 KiB window.
  void InstallEpromSocket(std::uint32_t phys_base);

  std::uint32_t eprom_socket_base() const { return eprom_base_; }
  bool has_eprom_socket() const { return eprom_base_ != 0; }

  // Registers a device on the socket (the Profiler). Several listeners may
  // observe the same socket (e.g. a logic analyser model in tests).
  void AddTapListener(EpromTapListener* listener);
  void RemoveTapListener(EpromTapListener* listener);

  // Performs an 8-bit read at ISA physical address `phys` at time `now`.
  // If the address decodes to the EPROM socket, all listeners observe the
  // low 16 address lines and may drive the data lines (`*data`, when
  // non-null; 0xFF — floating bus — if nobody drives them). Returns the bus
  // occupancy cost of the cycle. Inline: every profiling trigger is one of
  // these reads.
  Nanoseconds Read8(std::uint32_t phys, Nanoseconds now, std::uint8_t* data = nullptr) {
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

  // Performs `n` 8-bit reads of the one address `phys`, reported to each
  // listener as one span at `now` (see EpromTapListener::OnEpromReadSpan).
  // Fills `data[0..n)`: 0xFF where nobody drives the lines, including every
  // byte of a read outside the socket window. The caller charges the bus
  // time (Machine::SocketReadSpan).
  void ReadSpan(std::uint32_t phys, Nanoseconds now, std::uint8_t* data, std::size_t n);

  // Total reads decoded to the socket window (for overhead accounting).
  std::uint64_t eprom_read_count() const { return eprom_reads_; }

 private:
  std::uint32_t eprom_base_ = 0;
  std::uint64_t eprom_reads_ = 0;
  std::vector<EpromTapListener*> listeners_;
};

// The 386BSD virtual-address layout of Figure 2: the kernel is linked at
// 0xFE000000; after the image (rounded to a page and padded with fixed pages
// for the kernel stack, proto-udot, etc.) the ISA memory hole is remapped.
// The virtual address of the EPROM socket therefore varies with kernel size,
// which is why the paper needs a two-stage link to resolve _ProfileBase.
class AddressMap {
 public:
  static constexpr std::uint32_t kKernelBase = 0xFE000000;
  static constexpr std::uint32_t kPageSize = 4096;
  // Kernel stack + proto udot + other fixed VM pages appended to the image.
  static constexpr std::uint32_t kFixedPages = 4;

  // Installs the mapping for a kernel image of `kernel_size` bytes.
  void MapKernel(std::uint32_t kernel_size);

  bool mapped() const { return mapped_; }

  // Virtual address at which the ISA hole (physical 0xA0000) begins.
  std::uint32_t IsaVirtualBase() const;

  // Translates a kernel virtual address inside the remapped ISA window to an
  // ISA physical address. Returns false if `va` is outside the window.
  bool VirtualToIsaPhys(std::uint32_t va, std::uint32_t* phys) const {
    HWPROF_CHECK_MSG(mapped_, "kernel not yet mapped");
    const std::uint32_t hole_size = kIsaHoleEnd - kIsaHoleBase;
    if (va < isa_va_base_ || va >= isa_va_base_ + hole_size) {
      return false;
    }
    *phys = kIsaHoleBase + (va - isa_va_base_);
    return true;
  }

 private:
  bool mapped_ = false;
  std::uint32_t isa_va_base_ = 0;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_SIM_BUS_H_
