// Kernel allocators and mbuf machinery.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/kern/kmem.h"
#include "src/kern/mbuf.h"
#include "src/kern/net_pkt.h"
#include "src/kern/user_env.h"
#include "src/workloads/testbed.h"

namespace hwprof {
namespace {

// Runs `body` inside a process context on a booted testbed.
void InProc(Testbed& tb, std::function<void(Kernel&)> body) {
  Kernel& k = tb.kernel();
  bool done = false;
  k.Spawn("t", [&, body = std::move(body)](UserEnv& env) {
    (void)env;
    body(k);
    done = true;
  });
  k.Run(Sec(10));
  ASSERT_TRUE(done) << "test body did not complete";
}

TEST(Kmem, MallocFreeBookkeeping) {
  Testbed tb;
  InProc(tb, [](Kernel& k) {
    const auto a = k.kmem().Malloc(128, "test");
    const auto b = k.kmem().Malloc(256, "test");
    EXPECT_EQ(k.kmem().live_allocations(), 2u);
    EXPECT_GE(k.kmem().bytes_allocated(), 384u);
    k.kmem().Free(a);
    k.kmem().Free(b);
    EXPECT_EQ(k.kmem().live_allocations(), 0u);
  });
}

TEST(KmemDeath, DoubleFreeAborts) {
  Testbed tb;
  Kernel& k = tb.kernel();
  k.Spawn("t", [&](UserEnv& env) {
    (void)env;
    const auto a = k.kmem().Malloc(128, "test");
    k.kmem().Free(a);
    k.kmem().Free(a);  // kernel bug: modelled as a panic
  });
  EXPECT_DEATH(k.Run(Msec(100)), "dead kernel allocation");
}

TEST(Kmem, MallocCostMatchesTable1) {
  Testbed tb;
  InProc(tb, [](Kernel& k) {
    const Nanoseconds t0 = k.Now();
    const auto a = k.kmem().Malloc(64, "x");
    const Nanoseconds malloc_time = k.Now() - t0;
    // Table 1: malloc ≈ 37 µs (we include the spl dance).
    EXPECT_GT(malloc_time, Usec(25));
    EXPECT_LT(malloc_time, Usec(65));
    k.kmem().Free(a);
  });
}

TEST(Kmem, KmemAllocCostMatchesTable1) {
  Testbed tb;
  InProc(tb, [](Kernel& k) {
    const Nanoseconds t0 = k.Now();
    const auto a = k.kmem().KmemAlloc(1);
    const Nanoseconds t = k.Now() - t0;
    // Table 1: kmem_alloc ≈ 801 µs.
    EXPECT_GT(t, Usec(500));
    EXPECT_LT(t, Usec(1100));
    k.kmem().KmemFree(a);
  });
}

// --- Mbufs -------------------------------------------------------------------------

TEST(Mbuf, SmallAndClusterCapacity) {
  Testbed tb;
  InProc(tb, [](Kernel& k) {
    Mbuf* m = k.mbufs().MGet(true);
    EXPECT_EQ(m->Capacity(), kMlen);
    k.mbufs().MClGet(m);
    EXPECT_EQ(m->Capacity(), kMclBytes);
    k.mbufs().MFreem(m);
    EXPECT_EQ(k.mbufs().live(), 0u);
  });
}

// The chain's bytes, copied out with m_copydata.
Bytes Flatten(const Mbuf* chain) {
  Bytes out(MbufPool::ChainLen(chain));
  EXPECT_EQ(MbufPool::CopyData(chain, 0, out.size(), out.data()), out.size());
  return out;
}

class MbufRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MbufRoundTripTest, FromBytesToBytesPreservesPayload) {
  Testbed tb;
  const std::size_t size = GetParam();
  InProc(tb, [size](Kernel& k) {
    Bytes payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 7);
    }
    Mbuf* chain = k.mbufs().FromBytes(payload, false);
    EXPECT_EQ(MbufPool::ChainLen(chain), size);
    EXPECT_EQ(chain->pkthdr_len, size);
    EXPECT_EQ(Flatten(chain), payload);
    k.mbufs().MFreem(chain);
    EXPECT_EQ(k.mbufs().live(), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, MbufRoundTripTest,
                         ::testing::Values(0u, 1u, 111u, 112u, 113u, 1024u, 1025u, 1460u,
                                           1500u, 4000u));

TEST(Mbuf, AdjFrontTrimsAcrossMbufs) {
  Testbed tb;
  InProc(tb, [](Kernel& k) {
    Bytes payload(300);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i);
    }
    Mbuf* chain = k.mbufs().FromBytes(payload, false);
    chain = k.mbufs().AdjFront(chain, 150);
    const Bytes rest = Flatten(chain);
    ASSERT_EQ(rest.size(), 150u);
    EXPECT_EQ(rest[0], static_cast<std::uint8_t>(150));
    k.mbufs().MFreem(chain);
  });
}

TEST(Mbuf, CopyDataAndFrontReadAcrossMbufs) {
  Testbed tb;
  InProc(tb, [](Kernel& k) {
    Bytes payload(1500);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 11);
    }
    // A 5-byte mbuf, then a cluster and a small mbuf for the rest.
    Mbuf* chain = k.mbufs().FromBytes(ByteView(payload).first(5), false);
    chain->next = k.mbufs().FromBytes(ByteView(payload).subspan(5), false);
    for (const std::size_t off : {0, 3, 5, 6, 1028, 1029, 1499, 1500}) {
      Bytes out(40, 0xEE);
      const std::size_t got = MbufPool::CopyData(chain, off, out.size(), out.data());
      const std::size_t want = std::min<std::size_t>(40, payload.size() - off);
      ASSERT_EQ(got, want) << off;
      EXPECT_TRUE(std::equal(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(got),
                             payload.begin() + static_cast<std::ptrdiff_t>(off)))
          << off;
    }
    // Front: in place when the first mbuf holds the bytes, else via scratch.
    std::uint8_t scratch[20];
    const ByteView head = MbufPool::Front(chain, 4, scratch);
    EXPECT_EQ(head.data(), chain->data.data());
    const ByteView straddling = MbufPool::Front(chain, 20, scratch);
    EXPECT_EQ(straddling.data(), scratch);
    EXPECT_EQ(Bytes(straddling.begin(), straddling.end()),
              Bytes(payload.begin(), payload.begin() + 20));
    EXPECT_TRUE(MbufPool::Front(nullptr, 20, scratch).empty());
    k.mbufs().MFreem(chain);
  });
}

TEST(Mbuf, AdjFrontEntireChain) {
  Testbed tb;
  InProc(tb, [](Kernel& k) {
    Mbuf* chain = k.mbufs().FromBytes(Bytes(100, 1), false);
    chain = k.mbufs().AdjFront(chain, 100);
    EXPECT_EQ(chain, nullptr);
    EXPECT_EQ(k.mbufs().live(), 0u);
  });
}

TEST(Mbuf, ExternalIsaFlagPropagates) {
  Testbed tb;
  InProc(tb, [](Kernel& k) {
    Mbuf* chain = k.mbufs().FromBytes(Bytes(2000, 1), /*in_isa=*/true);
    for (Mbuf* m = chain; m != nullptr; m = m->next) {
      EXPECT_TRUE(m->in_isa_memory);
    }
    k.mbufs().MFreem(chain);
  });
}

TEST(IfQueue, EnqueueDequeueFifoWithDrops) {
  IfQueue q;
  q.maxlen = 2;
  Mbuf a;
  Mbuf b;
  Mbuf c;
  EXPECT_TRUE(q.Enqueue(&a));
  EXPECT_TRUE(q.Enqueue(&b));
  EXPECT_FALSE(q.Enqueue(&c));  // full
  EXPECT_EQ(q.drops, 1u);
  EXPECT_EQ(q.Dequeue(), &a);
  EXPECT_EQ(q.Dequeue(), &b);
  EXPECT_EQ(q.Dequeue(), nullptr);
  EXPECT_TRUE(q.Empty());
}

}  // namespace
}  // namespace hwprof
