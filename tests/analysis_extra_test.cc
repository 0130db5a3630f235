// Per-process report, IP fragmentation round trips, and the 68020 cost
// model's side-by-side properties.

#include <gtest/gtest.h>

#include <memory>

#include "src/analysis/decoder.h"
#include "src/analysis/grouping.h"
#include "src/analysis/process_report.h"
#include "src/kern/net_pkt.h"
#include "src/kern/kmem.h"
#include "src/kern/nfs.h"
#include "src/kern/sched.h"
#include "src/kern/net.h"
#include "src/kern/user_env.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

// --- ProcessReport ----------------------------------------------------------------

TEST(ProcessReport, SeparatesTwoComputeProcs) {
  Testbed tb;
  Kernel& k = tb.kernel();
  tb.Arm();
  // Two processes with clearly different kernel footprints. The faulter
  // never sleeps, so its activity block is unambiguously its own (two
  // processes parked in *identical* call chains cannot be told apart from
  // the tag stream — see the ProcessReport caveat).
  k.Spawn("mallocer", [&](UserEnv& env) {
    (void)env;
    for (int i = 0; i < 100; ++i) {
      for (int j = 0; j < 30; ++j) {
        k.kmem().Free(k.kmem().Malloc(64, "a"));
      }
      k.sched().Tsleep(&k, "pace", Msec(10));
    }
  });
  k.Spawn(
      "faulter",
      [&](UserEnv& env) {
        env.TouchPages(600, true);  // 600 demand faults, then exit
      },
      /*resident_pages=*/1);
  k.Run(Sec(2));
  DecodedTrace d = Decoder::Decode(tb.StopAndUpload(), tb.tags());
  ProcessReport report(d);
  ASSERT_GE(report.rows().size(), 2u);
  // One context's top function involves malloc, another's vm_page_alloc.
  bool saw_malloc_ctx = false;
  bool saw_fault_ctx = false;
  for (const ProcessRow& row : report.rows()) {
    saw_malloc_ctx |= row.top_function == "malloc";
    saw_fault_ctx |= row.top_function == "vm_page_alloc" || row.top_function == "vm_fault";
  }
  EXPECT_TRUE(saw_malloc_ctx);
  EXPECT_TRUE(saw_fault_ctx);
  // Busy totals reconcile with the run time (within unattributed slack).
  EXPECT_LE(report.TotalBusy(), d.RunTime());
  EXPECT_GT(report.TotalBusy(), d.RunTime() / 2);
  const std::string text = report.Format(d);
  EXPECT_NE(text.find("top function"), std::string::npos);
}

TEST(ProcessReport, IdleHostedLandsOnTheBlockingContext) {
  Testbed tb;
  Kernel& k = tb.kernel();
  tb.Arm();
  k.Spawn("sleeper", [&](UserEnv& env) {
    (void)env;
    k.sched().Tsleep(&k, "long", Msec(500));
  });
  k.Run(Sec(1));
  DecodedTrace d = Decoder::Decode(tb.StopAndUpload(), tb.tags());
  ProcessReport report(d);
  Nanoseconds hosted = 0;
  for (const ProcessRow& row : report.rows()) {
    hosted += row.idle_hosted;
  }
  EXPECT_EQ(hosted, d.idle_time);
  EXPECT_GT(hosted, Msec(400));
}

// --- IP fragmentation -------------------------------------------------------------

TEST(IpFragments, SmallPayloadIsOnePacket) {
  IpHeader ih;
  ih.proto = kIpProtoUdp;
  ih.src = 1;
  ih.dst = 2;
  const auto packets = BuildIpFragments(ih, Bytes(100, 7));
  ASSERT_EQ(packets.size(), 1u);
  IpHeader parsed;
  ByteView payload;
  ASSERT_TRUE(ParseIpPacket(packets[0], &parsed, &payload));
  EXPECT_FALSE(parsed.more_frags);
  EXPECT_EQ(parsed.frag_off, 0);
}

class IpFragmentSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IpFragmentSizeTest, FragmentsReassembleExactly) {
  IpHeader ih;
  ih.proto = kIpProtoUdp;
  ih.src = 1;
  ih.dst = 2;
  ih.id = 42;
  Bytes payload(GetParam());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 13);
  }
  const auto packets = BuildIpFragments(ih, payload);
  // Reassemble by offset.
  Bytes whole;
  bool saw_last = false;
  for (const Bytes& packet : packets) {
    IpHeader parsed;
    ByteView part;
    ASSERT_TRUE(ParseIpPacket(packet, &parsed, &part));
    EXPECT_EQ(parsed.id, 42);
    if (whole.size() < parsed.frag_off + part.size()) {
      whole.resize(parsed.frag_off + part.size());
    }
    std::copy(part.begin(), part.end(), whole.begin() + parsed.frag_off);
    if (!parsed.more_frags) {
      saw_last = true;
    }
    // All but the last fragment carry 8-byte-aligned payloads.
    if (parsed.more_frags) {
      EXPECT_EQ(part.size() % 8, 0u);
    }
    EXPECT_LE(packet.size(), kEtherMaxPayload);
  }
  EXPECT_TRUE(saw_last);
  EXPECT_EQ(whole, payload);
  if (GetParam() + IpHeader::kBytes > kEtherMaxPayload) {
    EXPECT_GT(packets.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IpFragmentSizeTest,
                         ::testing::Values(1480u, 1481u, 8192u, 8200u, 20000u));

TEST(IpFragments, KernelReassemblyCountsDatagrams) {
  // An 8 KiB NFS read forces real fragmentation + reassembly in the stack.
  Testbed tb;
  Kernel& k = tb.kernel();
  auto server = std::make_shared<NfsServerHost>(tb.machine(), k.wire());
  const std::uint32_t fh = server->Export("f", PatternBytes(8192));
  Bytes out;
  k.Spawn("c", [&](UserEnv& env) {
    k.nfs().Init();
    env.NfsRead(fh, 0, 8192, &out);
  });
  k.Run(Sec(10));
  EXPECT_EQ(out.size(), 8192u);
  EXPECT_GE(k.net().reassemblies(), 1u);
}

// --- 68020 model ----------------------------------------------------------------------

TEST(CpuModels, M68020HasCheapSynchronisation) {
  const CostModel pc = CostModel::I386Dx40();
  const CostModel emb = CostModel::M68020At25();
  EXPECT_GT(pc.spl_raise_ns, 10 * emb.spl_raise_ns);
  EXPECT_EQ(emb.ast_emulation_ns, 0u);
  EXPECT_GT(pc.ast_emulation_ns, 0u);
}

TEST(CpuModels, SameKernelRunsOnBothModels) {
  auto spl_share = [](const CostModel& model) {
    TestbedConfig config;
    config.cost = model;
    Testbed tb(config);
    tb.Arm();
    RunNetworkReceive(tb, Sec(2), 128 * 1024, false);
    DecodedTrace d = Decoder::Decode(tb.StopAndUpload(), tb.tags());
    Grouping spl(d, Grouping::SplGroup(d));
    const GroupRow* row = spl.Row("spl*");
    return row != nullptr ? row->pct_net : 0.0;
  };
  const double pc = spl_share(CostModel::I386Dx40());
  const double emb = spl_share(CostModel::M68020At25());
  EXPECT_GT(pc, 2 * emb) << "the 386's spl emulation burden should dominate";
}

}  // namespace
}  // namespace hwprof
