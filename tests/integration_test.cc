// Integration tests: the paper's experiments at reduced scale, with the
// headline observations asserted as (generous) bands, plus cross-cutting
// invariants every capture must satisfy.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/decoder.h"
#include "src/analysis/grouping.h"
#include "src/analysis/summary.h"
#include "src/kern/clock.h"
#include "src/kern/fs.h"
#include "src/kern/net.h"
#include "src/kern/user_env.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

// Every decoded capture must satisfy these.
void CheckCaptureInvariants(const DecodedTrace& d) {
  EXPECT_EQ(d.unknown_tags, 0u);
  EXPECT_EQ(d.orphan_exits, 0u);
  // Truncation may leave unclosed entries; nothing else should.
  if (!d.truncated) {
    EXPECT_LE(d.unclosed_entries, 2u);
  }
  // Time accounting: idle + run == elapsed; per-function net sums to at
  // most the elapsed total.
  EXPECT_EQ(d.RunTime() + d.idle_time, d.ElapsedTotal());
  Nanoseconds total_net = 0;
  d.ForEachFunction([&total_net](const TagEntry&, const FuncStats& stats) {
    total_net += stats.net;
    EXPECT_GE(stats.elapsed, stats.net);
    EXPECT_LE(stats.min_net, stats.max_net);
  });
  EXPECT_LE(total_net, d.ElapsedTotal());
}

TEST(Integration, NetworkReceiveMatchesFigure3Shape) {
  Testbed tb;
  tb.Arm();
  NetReceiveResult res = RunNetworkReceive(tb, Sec(5), 512 * 1024);
  EXPECT_TRUE(res.integrity_ok);
  RawTrace raw = tb.StopAndUpload();
  DecodedTrace d = Decoder::Decode(raw, tb.tags());
  CheckCaptureInvariants(d);
  Summary s(d);

  // Paper Fig 3: bcopy and in_cksum are the top two functions, each around
  // a third of the CPU.
  ASSERT_GE(s.rows().size(), 2u);
  std::vector<std::string> top2{s.rows()[0].name, s.rows()[1].name};
  std::sort(top2.begin(), top2.end());
  // swtch (idle) may sneak in; look at the top non-swtch rows.
  std::vector<const SummaryRow*> busy;
  for (const SummaryRow& row : s.rows()) {
    if (row.name != "swtch") {
      busy.push_back(&row);
    }
  }
  ASSERT_GE(busy.size(), 2u);
  EXPECT_TRUE((busy[0]->name == "bcopy" && busy[1]->name == "in_cksum") ||
              (busy[0]->name == "in_cksum" && busy[1]->name == "bcopy"))
      << busy[0]->name << ", " << busy[1]->name;
  EXPECT_GT(busy[0]->pct_net, 25.0);
  EXPECT_LT(busy[0]->pct_net, 50.0);
  EXPECT_GT(busy[1]->pct_net, 25.0);

  // spl* overhead: the paper measures ~9%; we land in a 3–12% band.
  Grouping spl(d, Grouping::SplGroup(d));
  const GroupRow* spl_row = spl.Row("spl*");
  ASSERT_NE(spl_row, nullptr);
  EXPECT_GT(spl_row->pct_net, 3.0);
  EXPECT_LT(spl_row->pct_net, 12.0);

  // The CPU is close to saturated (paper: 99% busy).
  EXPECT_LT(ToMsecF(d.idle_time) / ToMsecF(d.ElapsedTotal()), 0.15);

  // Per-packet driver copy ~1 ms (paper: 1045 µs for a full frame).
  const FuncStats* bcopy = d.Stats("bcopy");
  ASSERT_NE(bcopy, nullptr);
  EXPECT_GT(ToWholeUsec(bcopy->max_net), 900u);
  EXPECT_LT(ToWholeUsec(bcopy->max_net), 1200u);
}

TEST(Integration, ForkExecMatchesFigure5Shape) {
  Testbed tb;
  tb.Arm();
  ForkExecResult res = RunForkExec(tb, 6, Sec(10));
  ASSERT_GE(res.iterations_done, 3);
  RawTrace raw = tb.StopAndUpload();
  DecodedTrace d = Decoder::Decode(raw, tb.tags());
  CheckCaptureInvariants(d);

  // Paper: vfork ~24 ms + execve ~28 ms ≈ 52 ms per cycle (warm cache).
  ASSERT_GE(res.cycle_times.size(), 2u);
  for (std::size_t i = 1; i < res.cycle_times.size(); ++i) {
    EXPECT_GT(res.cycle_times[i], Msec(30)) << "cycle " << i;
    EXPECT_LT(res.cycle_times[i], Msec(90)) << "cycle " << i;
  }

  // Fig 5: the pmap module dominates; pmap_remove outweighs pmap_pte.
  const FuncStats* remove = d.Stats("pmap_remove");
  const FuncStats* pte = d.Stats("pmap_pte");
  ASSERT_NE(remove, nullptr);
  ASSERT_NE(pte, nullptr);
  EXPECT_GT(remove->net, pte->net);
  EXPECT_GT(remove->net, d.RunTime() / 10);  // >10% of busy time

  // "pmap_pte is called 1053 times when a fork is executed": per cycle we
  // see on the order of a thousand calls.
  const std::uint64_t per_cycle =
      pte->calls / static_cast<std::uint64_t>(res.iterations_done);
  EXPECT_GT(per_cycle, 500u);
  EXPECT_LT(per_cycle, 2500u);

  // vm_fault per-call net is small (paper: 42 µs avg net; 410 µs elapsed).
  const FuncStats* fault = d.Stats("vm_fault");
  ASSERT_NE(fault, nullptr);
  EXPECT_LT(ToWholeUsec(fault->AvgNet()), 90u);
  EXPECT_GT(ToWholeUsec(fault->elapsed / fault->calls), 280u);

  // The console scroll shows up as bcopyb, just like Fig 5.
  EXPECT_NE(d.Stats("bcopyb"), nullptr);
}

TEST(Integration, Table1FunctionTimings) {
  Testbed tb;
  tb.Arm();
  RunMixed(tb, Sec(3));
  RawTrace raw = tb.StopAndUpload();
  DecodedTrace d = Decoder::Decode(raw, tb.tags());
  CheckCaptureInvariants(d);

  struct Expectation {
    const char* name;
    std::uint64_t paper_us;
    double tolerance;  // fraction
    bool leaf;         // leaf functions compare net (interrupts that land on
                       // top are not "subroutines called")
  };
  const Expectation expectations[] = {
      {"vm_fault", 410, 0.45, false}, {"kmem_alloc", 801, 0.45, false},
      {"malloc", 37, 0.5, false},     {"free", 32, 0.5, false},
      {"splnet", 11, 0.5, true},      {"spl0", 25, 0.5, true},
      {"copyinstr", 170, 0.6, true},
  };
  for (const Expectation& e : expectations) {
    const FuncStats* stats = d.Stats(e.name);
    ASSERT_NE(stats, nullptr) << e.name << " never ran in the mixed workload";
    const Nanoseconds basis = e.leaf ? stats->net : stats->elapsed;
    const double avg_us =
        static_cast<double>(ToWholeUsec(basis)) / static_cast<double>(stats->calls);
    EXPECT_GT(avg_us, static_cast<double>(e.paper_us) * (1.0 - e.tolerance)) << e.name;
    EXPECT_LT(avg_us, static_cast<double>(e.paper_us) * (1.0 + e.tolerance)) << e.name;
  }
}

TEST(Integration, ClockTickCostNear94us) {
  Testbed tb;
  tb.Arm();
  tb.kernel().Run(Sec(3));
  RawTrace raw = tb.StopAndUpload();
  DecodedTrace d = Decoder::Decode(raw, tb.tags());
  CheckCaptureInvariants(d);
  // The whole tick: ISAINTR wrapping hardclock (+AST emulation).
  const FuncStats* isaintr = d.Stats("ISAINTR");
  ASSERT_NE(isaintr, nullptr);
  const std::uint64_t tick_us = ToWholeUsec(isaintr->elapsed / isaintr->calls);
  EXPECT_GT(tick_us, 75u);
  EXPECT_LT(tick_us, 115u);
}

TEST(Integration, TriggerOverheadMatchesPaper) {
  // "this has been calculated at around 1 to 1.2% extra CPU cycles".
  // Run the same deterministic workload profiled and unprofiled and compare
  // total busy time.
  auto run_one = [](bool profiled) {
    TestbedConfig config;
    config.profiled = profiled;
    Testbed tb(config);
    Kernel& k = tb.kernel();
    k.fs().InstallFile("/bin/test", PatternBytes(64 * 1024));
    k.Spawn(
        "sh",
        [&k](UserEnv& env) {
          for (int i = 0; i < 3 && !k.stopping(); ++i) {
            env.Vfork([](UserEnv& c) {
              c.Execve("/bin/test");
              c.Exit(0);
            });
            env.Wait();
          }
        },
        600);
    k.Run(Sec(2));
    return tb.kernel().cpu().busy_ns();
  };
  const double with = static_cast<double>(run_one(true));
  const double without = static_cast<double>(run_one(false));
  const double overhead_pct = 100.0 * (with - without) / without;
  EXPECT_GT(overhead_pct, 0.1);
  EXPECT_LT(overhead_pct, 3.0) << "trigger overhead should be a few percent at most";
}

TEST(Integration, CaptureFillRateUnderLoad) {
  // "the Profiler RAM could be filled (16384 events) in as short a time as
  // 300 milliseconds" — under network load ours fills within a second.
  Testbed tb;
  tb.Arm();
  RunNetworkReceive(tb, Sec(5), 2 * kMiB, false);
  RawTrace raw = tb.StopAndUpload();
  EXPECT_TRUE(raw.overflowed);
  EXPECT_EQ(raw.events.size(), 16384u);
  DecodedTrace d = Decoder::Decode(raw, tb.tags());
  EXPECT_LT(d.ElapsedTotal(), Sec(1));
}

TEST(Integration, SelectiveMicroProfilingLimitsEvents) {
  // Compile only the VM module with profiling: the capture contains vm
  // functions and nothing else, stretching the RAM much further.
  Testbed tb;
  Kernel& k = tb.kernel();
  tb.instr().DisableAll();
  tb.instr().SetSubsysEnabled(Subsys::kVm, true);
  k.fs().InstallFile("/bin/test", PatternBytes(64 * 1024));
  tb.Arm();
  RunForkExec(tb, 3, Sec(10));
  RawTrace raw = tb.StopAndUpload();
  ASSERT_GT(raw.events.size(), 0u);
  DecodedTrace d = Decoder::Decode(raw, tb.tags());
  d.ForEachFunction([&tb](const TagEntry& fn, const FuncStats&) {
    const FuncInfo* info = tb.instr().Find(fn.name);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->subsys, Subsys::kVm) << fn.name << " leaked into a VM-only capture";
  });
}

TEST(Integration, ProfiledAndUnprofiledKernelsAgreeOnResults) {
  // "No noticeable difference can be detected between a profiled and a
  // non-profiled kernel": the *work done* must be identical; only the time
  // differs by the trigger overhead.
  auto run_one = [](bool profiled) {
    TestbedConfig config;
    config.profiled = profiled;
    Testbed tb(config);
    NetReceiveResult r = RunNetworkReceive(tb, Sec(4), 128 * 1024);
    return r;
  };
  const NetReceiveResult with = run_one(true);
  const NetReceiveResult without = run_one(false);
  EXPECT_EQ(with.bytes_received, without.bytes_received);
  EXPECT_TRUE(with.integrity_ok);
  EXPECT_TRUE(without.integrity_ok);
  // Completion times within ~4%.
  ASSERT_NE(with.done_at, 0u);
  ASSERT_NE(without.done_at, 0u);
  const double ratio = static_cast<double>(with.done_at) / static_cast<double>(without.done_at);
  EXPECT_GT(ratio, 0.99);
  EXPECT_LT(ratio, 1.04);
}

TEST(Integration, EveryWorkloadDecodesCleanly) {
  // Sweep all workloads; each capture must satisfy the invariants.
  {
    Testbed tb;
    tb.Arm();
    RunNetworkReceive(tb, Sec(2), 64 * 1024, false);
    CheckCaptureInvariants(Decoder::Decode(tb.StopAndUpload(), tb.tags()));
  }
  {
    Testbed tb;
    tb.Arm();
    RunForkExec(tb, 2, Sec(5));
    CheckCaptureInvariants(Decoder::Decode(tb.StopAndUpload(), tb.tags()));
  }
  {
    Testbed tb;
    tb.Arm();
    RunFsWrite(tb, 256 * 1024, Sec(30));
    CheckCaptureInvariants(Decoder::Decode(tb.StopAndUpload(), tb.tags()));
  }
  {
    Testbed tb;
    tb.Arm();
    RunFsRandomReads(tb, 10, Sec(30));
    CheckCaptureInvariants(Decoder::Decode(tb.StopAndUpload(), tb.tags()));
  }
  {
    Testbed tb;
    tb.Arm();
    RunMixed(tb, Sec(2));
    CheckCaptureInvariants(Decoder::Decode(tb.StopAndUpload(), tb.tags()));
  }
}

TEST(Integration, ProfilerEventCountMatchesBusReads) {
  Testbed tb;
  Kernel& k = tb.kernel();
  const std::uint64_t reads0 = tb.machine().bus().eprom_read_count();
  tb.Arm();
  k.Run(Msec(500));
  RawTrace raw = tb.StopAndUpload();
  const std::uint64_t reads = tb.machine().bus().eprom_read_count() - reads0;
  EXPECT_EQ(raw.events.size(), reads);
}

TEST(Integration, FullKernelInstrumentationScale) {
  // The paper's kernel: 1392 C functions -> 2784 trigger points (+35 asm).
  // Ours is a miniature; verify the bookkeeping at our scale.
  Testbed tb;
  EXPECT_GT(tb.instr().function_count(), 90u);
  EXPECT_GE(tb.instr().inline_count(), 1u);
  // Every registered function has a tag-file entry and even entry tag.
  for (const TagEntry& e : tb.tags().entries()) {
    if (e.IsFunctionLike()) {
      EXPECT_EQ(e.tag % 2, 0u) << e.name;
    }
  }
}

}  // namespace
}  // namespace hwprof
