#include "src/kern/mbuf.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/kern/kernel.h"

namespace hwprof {

MbufPool::MbufPool(Kernel& kernel)
    : kernel_(kernel),
      t_mget_(kernel.RegInline("MGET", Subsys::kNet)),
      f_mclget_(kernel.RegFn("mclget", Subsys::kNet)),
      f_mfree_(kernel.RegFn("m_free", Subsys::kNet)),
      f_mfreem_(kernel.RegFn("m_freem", Subsys::kNet)) {}

MbufPool::~MbufPool() = default;

Mbuf* MbufPool::MGet(bool pkthdr) {
  // MGET is a macro in the real kernel — hence the inline '=' tag rather
  // than an entry/exit pair. The free list is interrupt-shared, so every
  // grab pays the splimp/splx round trip (part of the 9 % spl tax).
  InlineTrigger(kernel_.machine(), kernel_.instr(), t_mget_);
  const int s = kernel_.spl().splimp();
  kernel_.cpu().Use(kernel_.cost().mbuf_get_ns);
  kernel_.spl().splx(s);
  auto* m = new Mbuf();
  m->has_pkthdr = pkthdr;
  ++allocated_;
  return m;
}

void MbufPool::MClGet(Mbuf* m) {
  KPROF(kernel_, f_mclget_);
  const int s = kernel_.spl().splimp();
  kernel_.cpu().Use(kernel_.cost().mbuf_get_ns);
  kernel_.spl().splx(s);
  HWPROF_CHECK(m != nullptr && !m->is_cluster);
  m->is_cluster = true;
}

Mbuf* MbufPool::MFree(Mbuf* m) {
  KPROF(kernel_, f_mfree_);
  const int s = kernel_.spl().splimp();
  kernel_.cpu().Use(kernel_.cost().mbuf_free_ns);
  kernel_.spl().splx(s);
  HWPROF_CHECK(m != nullptr);
  Mbuf* next = m->next;
  delete m;
  ++freed_;
  return next;
}

void MbufPool::MFreem(Mbuf* m) {
  if (m == nullptr) {
    return;
  }
  KPROF(kernel_, f_mfreem_);
  kernel_.cpu().Use(2 * kMicrosecond);
  while (m != nullptr) {
    m = MFree(m);
  }
}

Mbuf* MbufPool::FromBytes(std::span<const std::uint8_t> payload, bool in_isa) {
  Mbuf* head = nullptr;
  Mbuf* tail = nullptr;
  std::size_t off = 0;
  while (off < payload.size() || head == nullptr) {
    Mbuf* m = MGet(head == nullptr);
    if (payload.size() - off > kMlen) {
      MClGet(m);
    }
    m->in_isa_memory = in_isa;
    const std::size_t take = std::min(payload.size() - off, m->Capacity());
    m->data.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                   payload.begin() + static_cast<std::ptrdiff_t>(off + take));
    off += take;
    if (head == nullptr) {
      head = m;
    } else {
      tail->next = m;
    }
    tail = m;
    if (payload.empty()) {
      break;
    }
  }
  head->pkthdr_len = payload.size();
  return head;
}

std::size_t MbufPool::CopyData(const Mbuf* m, std::size_t off, std::size_t len,
                               std::uint8_t* out) {
  std::size_t copied = 0;
  for (; m != nullptr && copied < len; m = m->next) {
    if (off >= m->data.size()) {
      off -= m->data.size();
      continue;
    }
    const std::size_t take = std::min(m->data.size() - off, len - copied);
    std::copy_n(m->data.begin() + static_cast<std::ptrdiff_t>(off), take, out + copied);
    copied += take;
    off = 0;
  }
  return copied;
}

std::span<const std::uint8_t> MbufPool::Front(const Mbuf* m, std::size_t n,
                                              std::uint8_t* scratch) {
  if (m != nullptr && m->data.size() >= n) {
    return {m->data.data(), n};
  }
  return {scratch, CopyData(m, 0, n, scratch)};
}

std::size_t MbufPool::ChainLen(const Mbuf* m) {
  std::size_t n = 0;
  for (; m != nullptr; m = m->next) {
    n += m->data.size();
  }
  return n;
}

Mbuf* MbufPool::AdjFront(Mbuf* m, std::size_t len) {
  while (m != nullptr && len > 0) {
    if (m->data.size() > len) {
      m->data.erase(m->data.begin(), m->data.begin() + static_cast<std::ptrdiff_t>(len));
      len = 0;
    } else {
      len -= m->data.size();
      const bool pkthdr = m->has_pkthdr;
      const std::size_t pkt_len = m->pkthdr_len;
      Mbuf* next = MFree(m);
      if (next != nullptr && pkthdr) {
        next->has_pkthdr = true;
        next->pkthdr_len = pkt_len;
      }
      m = next;
    }
  }
  return m;
}

void MbufPool::TrimTail(Mbuf* m, std::size_t len) {
  std::size_t kept = 0;
  Mbuf* cursor = m;
  while (cursor != nullptr) {
    if (kept + cursor->data.size() > len) {
      cursor->data.resize(len > kept ? len - kept : 0);
    }
    kept += cursor->data.size();
    if (kept >= len && cursor->next != nullptr) {
      MFreem(cursor->next);
      cursor->next = nullptr;
      break;
    }
    cursor = cursor->next;
  }
  if (m != nullptr && m->has_pkthdr) {
    m->pkthdr_len = std::min(m->pkthdr_len, len);
  }
}

bool IfQueue::Enqueue(Mbuf* m) {
  if (len >= maxlen) {
    ++drops;
    return false;
  }
  m->nextpkt = nullptr;
  if (tail == nullptr) {
    head = tail = m;
  } else {
    tail->nextpkt = m;
    tail = m;
  }
  ++len;
  return true;
}

Mbuf* IfQueue::Dequeue() {
  if (head == nullptr) {
    return nullptr;
  }
  Mbuf* m = head;
  head = m->nextpkt;
  if (head == nullptr) {
    tail = nullptr;
  }
  m->nextpkt = nullptr;
  --len;
  return m;
}

}  // namespace hwprof
