// mbufs: the BSD network buffer abstraction, carrying real payload bytes so
// checksums and data integrity are verifiable end-to-end.
//
// Small mbufs hold up to 112 bytes inline; clusters hold up to 1 KiB
// (the era's MCLBYTES). A cluster may be marked as *living in ISA controller
// memory* — the paper's what-if of linking receive buffers straight out of
// the WD8003E's on-board RAM — in which case every subsequent touch
// (checksum, copyout) pays the 8-bit ISA rate instead of the DRAM rate.

#ifndef HWPROF_SRC_KERN_MBUF_H_
#define HWPROF_SRC_KERN_MBUF_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/instr/instrumenter.h"

namespace hwprof {

class Kernel;

inline constexpr std::size_t kMlen = 112;       // data bytes in a small mbuf
inline constexpr std::size_t kMclBytes = 1024;  // cluster size

struct Mbuf {
  std::vector<std::uint8_t> data;  // m_len == data.size()
  bool is_cluster = false;
  bool in_isa_memory = false;  // external buffer on the controller
  bool has_pkthdr = false;
  std::size_t pkthdr_len = 0;  // total packet length (first mbuf only)
  Mbuf* next = nullptr;        // same-packet chain
  Mbuf* nextpkt = nullptr;     // queue linkage

  std::size_t Capacity() const { return is_cluster ? kMclBytes : kMlen; }
};

class MbufPool {
 public:
  explicit MbufPool(Kernel& kernel);
  ~MbufPool();
  MbufPool(const MbufPool&) = delete;
  MbufPool& operator=(const MbufPool&) = delete;

  // MGET: allocates a small mbuf (inline '=' trigger, as in the paper's
  // sample names file).
  Mbuf* MGet(bool pkthdr);

  // MCLGET: attaches cluster storage to `m`.
  void MClGet(Mbuf* m);

  // m_free: frees one mbuf, returns its chain successor.
  Mbuf* MFree(Mbuf* m);

  // m_freem: frees a whole chain.
  void MFreem(Mbuf* m);

  // Builds a chain holding `payload`, charging copy costs. If `in_isa`
  // the data is left in controller memory (external-cluster ablation).
  Mbuf* FromBytes(std::span<const std::uint8_t> payload, bool in_isa);

  // m_copydata: copies up to `len` bytes of the chain, starting `off` bytes
  // in, to `out`; returns how many there were. No cost charge (the callers
  // charge their own copies).
  static std::size_t CopyData(const Mbuf* m, std::size_t off, std::size_t len,
                              std::uint8_t* out);

  // The chain's first min(n, chain length) bytes as one contiguous view: in
  // place when the first mbuf holds them (as it holds every header the
  // driver receives), else copied to `scratch` (n bytes) — how protocol
  // input reads its header without flattening the packet.
  static std::span<const std::uint8_t> Front(const Mbuf* m, std::size_t n,
                                             std::uint8_t* scratch);

  // Total data length of a chain.
  static std::size_t ChainLen(const Mbuf* m);

  // Trims `len` bytes from the front of the chain (m_adj), freeing emptied
  // mbufs. Returns the new head.
  Mbuf* AdjFront(Mbuf* m, std::size_t len);

  // Truncates the chain to its first `len` bytes (m_adj with a negative
  // count), freeing fully trimmed mbufs — how the stack sheds Ethernet
  // minimum-frame padding once the IP length is known.
  void TrimTail(Mbuf* m, std::size_t len);

  std::uint64_t allocated() const { return allocated_; }
  std::uint64_t freed() const { return freed_; }
  std::uint64_t live() const { return allocated_ - freed_; }

 private:
  Kernel& kernel_;
  std::uint64_t allocated_ = 0;
  std::uint64_t freed_ = 0;
  FuncInfo* t_mget_;  // inline tag
  FuncInfo* f_mclget_;
  FuncInfo* f_mfree_;
  FuncInfo* f_mfreem_;
};

// FIFO packet queue with a drop limit (struct ifqueue).
struct IfQueue {
  Mbuf* head = nullptr;
  Mbuf* tail = nullptr;
  std::size_t len = 0;
  std::size_t maxlen = 50;
  std::uint64_t drops = 0;

  // Enqueues a packet chain; returns false (caller frees) when full.
  bool Enqueue(Mbuf* m);
  // Dequeues the next packet, or nullptr.
  Mbuf* Dequeue();
  bool Empty() const { return head == nullptr; }
};

}  // namespace hwprof

#endif  // HWPROF_SRC_KERN_MBUF_H_
