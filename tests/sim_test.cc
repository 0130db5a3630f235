// Unit tests for src/sim: clock, event queue, CPU, bus decode, address map.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/sim/bus.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu.h"
#include "src/sim/event_queue.h"
#include "src/sim/machine.h"
#include "src/sim/time.h"

namespace hwprof {
namespace {

// --- VirtualClock -----------------------------------------------------------------

TEST(VirtualClock, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.Advance(5);
  clock.AdvanceTo(10);
  EXPECT_EQ(clock.Now(), 10u);
}

TEST(VirtualClockDeath, RefusesToGoBackwards) {
  VirtualClock clock;
  clock.AdvanceTo(10);
  EXPECT_DEATH(clock.AdvanceTo(9), "backwards");
}

// --- EventQueue --------------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunDue(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  q.ScheduleAt(10, [&] { order.push_back(3); });
  q.RunDue(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunDueStopsAtNow) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10, [&] { ++fired; });
  q.ScheduleAt(20, [&] { ++fired; });
  q.RunDue(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.NextTime(), 20u);
}

TEST(EventQueue, CancelPreventsRun) {
  EventQueue q;
  int fired = 0;
  const auto id = q.ScheduleAt(10, [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // second cancel is a no-op
  q.RunDue(100);
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, EventsMayScheduleMoreDueEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10, [&] {
    ++fired;
    q.ScheduleAt(10, [&] { ++fired; });  // same instant, newly due
  });
  q.RunDue(10);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, NextTimeEmptyIsNever) {
  EventQueue q;
  EXPECT_EQ(q.NextTime(), EventQueue::kNever);
  EXPECT_TRUE(q.Empty());
}

// --- Cpu -----------------------------------------------------------------------------

TEST(Cpu, UseAdvancesClockAndAccountsBusy) {
  VirtualClock clock;
  EventQueue q;
  Cpu cpu(&clock, &q);
  cpu.Use(1000);
  EXPECT_EQ(clock.Now(), 1000u);
  EXPECT_EQ(cpu.busy_ns(), 1000u);
  EXPECT_EQ(cpu.idle_ns(), 0u);
}

TEST(Cpu, EventsFireAtTheirInstantDuringUse) {
  VirtualClock clock;
  EventQueue q;
  Cpu cpu(&clock, &q);
  Nanoseconds fired_at = 0;
  q.ScheduleAt(400, [&] { fired_at = clock.Now(); });
  cpu.Use(1000);
  EXPECT_EQ(fired_at, 400u);
  EXPECT_EQ(clock.Now(), 1000u);
}

TEST(Cpu, InterruptServiceExtendsTheWorkWindow) {
  VirtualClock clock;
  EventQueue q;
  Cpu cpu(&clock, &q);
  bool pending = false;
  cpu.SetInterruptHook([&] {
    if (pending) {
      pending = false;
      cpu.Use(500);  // interrupt handler consumes CPU
    }
  });
  q.ScheduleAt(300, [&] { pending = true; });
  cpu.Use(1000);
  // The preempted work still completes its full 1000ns: total = 1500.
  EXPECT_EQ(clock.Now(), 1500u);
  EXPECT_EQ(cpu.busy_ns(), 1500u);
}

// One CPU with a logged event schedule that stresses every way a span of
// back-to-back Use calls can interleave with device activity.
struct UseRig {
  VirtualClock clock;
  EventQueue q;
  Cpu cpu{&clock, &q};
  bool irq_pending = false;
  std::vector<std::pair<int, Nanoseconds>> log;  // (what, when)

  explicit UseRig(Nanoseconds cost) {
    cpu.SetInterruptHook([this] {
      if (irq_pending) {
        irq_pending = false;
        log.push_back({0, clock.Now()});
        cpu.Use(350);  // handler service extends the window
      }
    });
    auto mark = [this](int what) { log.push_back({what, clock.Now()}); };
    q.ScheduleAt(0, [mark] { mark(1); });  // already due when the span starts
    q.ScheduleAt(2 * cost, [mark] { mark(2); });  // exactly on a byte boundary
    q.ScheduleAt(3 * cost + 50, [this, mark] {  // inside a byte, raises the IRQ
      mark(3);
      irq_pending = true;
    });
    q.ScheduleAt(6 * cost, [this, mark, cost] {  // consumes CPU from event context,
      mark(4);                                   // across the next byte boundary
      cpu.Use(cost + 120);
    });
    q.ScheduleAt(4 * cost, [this, mark] {  // schedules one due right now
      mark(5);
      q.ScheduleAt(clock.Now(), [mark] { mark(6); });
    });
  }
};

TEST(Cpu, UseRepeatedMatchesBackToBackUse) {
  constexpr Nanoseconds kCost = 200;
  constexpr std::uint64_t kCount = 12;
  UseRig loop(kCost);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    loop.cpu.Use(kCost);
  }
  UseRig span(kCost);
  span.cpu.UseRepeated(kCost, kCount);
  EXPECT_EQ(span.log, loop.log);
  EXPECT_EQ(span.clock.Now(), loop.clock.Now());
  EXPECT_EQ(span.cpu.busy_ns(), loop.cpu.busy_ns());
  EXPECT_EQ(span.q.PendingCount(), loop.q.PendingCount());
  ASSERT_EQ(loop.log.size(), 7u);  // every event and the handler ran

  // An event exactly at the span's end is left to whatever runs next, as
  // the last of the back-to-back calls leaves it.
  VirtualClock clock;
  EventQueue q;
  Cpu cpu(&clock, &q);
  Nanoseconds fired_at = 0;
  q.ScheduleAt(5 * kCost, [&] { fired_at = clock.Now(); });
  cpu.UseRepeated(kCost, 5);
  EXPECT_EQ(clock.Now(), 5 * kCost);
  EXPECT_EQ(fired_at, 0u);
  cpu.Use(kCost);
  EXPECT_EQ(fired_at, 5 * kCost);

  // Why the split: one Use of the whole span would let the CPU-consuming
  // event eat into the span and end elsewhere.
  UseRig whole(kCost);
  whole.cpu.Use(kCost * kCount);
  EXPECT_NE(whole.clock.Now(), loop.clock.Now());
}

TEST(Cpu, IdleWaitAccountsIdleSeparately) {
  VirtualClock clock;
  EventQueue q;
  Cpu cpu(&clock, &q);
  int fired = 0;
  q.ScheduleAt(700, [&] { ++fired; });
  EXPECT_TRUE(cpu.IdleWait(1000));
  EXPECT_EQ(clock.Now(), 700u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cpu.idle_ns(), 700u);
  EXPECT_EQ(cpu.busy_ns(), 0u);
  // Nothing left: idles through to the deadline.
  EXPECT_FALSE(cpu.IdleWait(1000));
  EXPECT_EQ(clock.Now(), 1000u);
}

// --- IsaBus / EPROM tap -----------------------------------------------------------------

class RecordingTap : public EpromTapListener {
 public:
  void OnEpromRead(std::uint16_t addr, Nanoseconds now) override {
    reads.push_back({addr, now});
  }
  std::vector<std::pair<std::uint16_t, Nanoseconds>> reads;
};

TEST(IsaBus, DecodesSocketWindowReads) {
  IsaBus bus;
  bus.InstallEpromSocket(0xD0000);
  RecordingTap tap;
  bus.AddTapListener(&tap);
  bus.Read8(0xD0000 + 1386, 100);
  bus.Read8(0xD0000 + 0xFFFF, 200);
  bus.Read8(0xC0000, 300);  // outside the window: not decoded
  ASSERT_EQ(tap.reads.size(), 2u);
  EXPECT_EQ(tap.reads[0].first, 1386);
  EXPECT_EQ(tap.reads[0].second, 100u);
  EXPECT_EQ(tap.reads[1].first, 0xFFFF);
  EXPECT_EQ(bus.eprom_read_count(), 2u);
}

TEST(IsaBus, RemoveTapListenerStopsDelivery) {
  IsaBus bus;
  bus.InstallEpromSocket(0xD0000);
  RecordingTap tap;
  bus.AddTapListener(&tap);
  bus.Read8(0xD0000, 1);
  bus.RemoveTapListener(&tap);
  bus.Read8(0xD0000, 2);
  EXPECT_EQ(tap.reads.size(), 1u);
}

// Drives the data lines with a running byte count.
class DrivingTap : public RecordingTap {
 public:
  bool ProvideEpromData(std::uint16_t, std::uint8_t* data) override {
    *data = next++;
    return true;
  }
  std::uint8_t next = 7;
};

TEST(IsaBus, ReadSpanIsNReadsOfOneAddress) {
  IsaBus bus;
  bus.InstallEpromSocket(0xD0000);
  RecordingTap tap;
  bus.AddTapListener(&tap);
  std::vector<std::uint8_t> data(4, 0);
  bus.ReadSpan(0xD0000 + 0x8009, 500, data.data(), data.size());
  ASSERT_EQ(tap.reads.size(), 4u);
  for (const auto& [addr, now] : tap.reads) {
    EXPECT_EQ(addr, 0x8009);
    EXPECT_EQ(now, 500u);
  }
  EXPECT_EQ(data, std::vector<std::uint8_t>(4, 0xFF));  // nobody drives: floating
  EXPECT_EQ(bus.eprom_read_count(), 4u);

  std::fill(data.begin(), data.end(), 0);
  bus.ReadSpan(0xC0000, 600, data.data(), 3);  // outside the window: not decoded
  EXPECT_EQ(tap.reads.size(), 4u);
  EXPECT_EQ(bus.eprom_read_count(), 4u);
  EXPECT_EQ(data, (std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF, 0}));
}

TEST(IsaBus, ReadSpanDeliversWhatNSingleReadsWould) {
  IsaBus bus;
  bus.InstallEpromSocket(0xD0000);
  DrivingTap tap;
  bus.AddTapListener(&tap);
  std::vector<std::uint8_t> singles(5);
  for (std::uint8_t& b : singles) {
    bus.Read8(0xD0000 + 42, 100, &b);
  }
  tap.next = 7;
  std::vector<std::uint8_t> span(5);
  bus.ReadSpan(0xD0000 + 42, 100, span.data(), span.size());
  EXPECT_EQ(span, singles);
  EXPECT_EQ(span, (std::vector<std::uint8_t>{7, 8, 9, 10, 11}));
  EXPECT_EQ(bus.eprom_read_count(), 10u);
}

TEST(IsaBusDeath, SocketMustSitInsideIsaHole) {
  IsaBus bus;
  EXPECT_DEATH(bus.InstallEpromSocket(0x10000), "ISA memory hole");
}

// --- AddressMap (Figure 2) ---------------------------------------------------------------

TEST(AddressMap, IsaWindowFollowsKernelRoundedToPages) {
  AddressMap map;
  map.MapKernel(600 * 1024);  // exactly page aligned
  const std::uint32_t base = map.IsaVirtualBase();
  EXPECT_EQ(base, AddressMap::kKernelBase + 600 * 1024 +
                      AddressMap::kFixedPages * AddressMap::kPageSize);
}

TEST(AddressMap, KernelSizeChangesTheWindow) {
  AddressMap small_map;
  AddressMap big_map;
  small_map.MapKernel(600 * 1024);
  big_map.MapKernel(600 * 1024 + 1);  // one byte more: one page more
  EXPECT_EQ(big_map.IsaVirtualBase(), small_map.IsaVirtualBase() + AddressMap::kPageSize);
}

TEST(AddressMap, TranslatesInsideWindowOnly) {
  AddressMap map;
  map.MapKernel(4096);
  const std::uint32_t base = map.IsaVirtualBase();
  std::uint32_t phys = 0;
  EXPECT_TRUE(map.VirtualToIsaPhys(base, &phys));
  EXPECT_EQ(phys, kIsaHoleBase);
  EXPECT_TRUE(map.VirtualToIsaPhys(base + 0x30000, &phys));
  EXPECT_EQ(phys, kIsaHoleBase + 0x30000);
  EXPECT_FALSE(map.VirtualToIsaPhys(base - 1, &phys));
  EXPECT_FALSE(map.VirtualToIsaPhys(base + (kIsaHoleEnd - kIsaHoleBase), &phys));
}

// --- Machine ----------------------------------------------------------------------------

TEST(Machine, TriggerReadReachesTheSocket) {
  Machine machine;
  machine.address_map().MapKernel(600 * 1024);
  RecordingTap tap;
  machine.bus().AddTapListener(&tap);
  const std::uint32_t profile_base = machine.address_map().IsaVirtualBase() +
                                     (kDefaultEpromSocketPhys - kIsaHoleBase);
  machine.TriggerRead(profile_base + 502);
  ASSERT_EQ(tap.reads.size(), 1u);
  EXPECT_EQ(tap.reads[0].first, 502);
  // The trigger costs what the paper measured (~200 ns per trigger).
  EXPECT_EQ(machine.Now(), machine.cost().trigger_read_ns);
}

TEST(Machine, TriggerOutsideWindowIsInert) {
  Machine machine;
  machine.address_map().MapKernel(600 * 1024);
  RecordingTap tap;
  machine.bus().AddTapListener(&tap);
  machine.TriggerRead(0x1000);  // nowhere near the remapped ISA hole
  EXPECT_TRUE(tap.reads.empty());
}

TEST(Machine, SocketReadSpanOffTheSocketFloatsButCharges) {
  Machine unmapped;  // no kernel mapped yet: nothing decodes
  std::vector<std::uint8_t> data(6, 0);
  unmapped.SocketReadSpan(0x1234, data.data(), data.size());
  EXPECT_EQ(data, std::vector<std::uint8_t>(6, 0xFF));
  EXPECT_EQ(unmapped.Now(), 6 * unmapped.cost().trigger_read_ns);
  EXPECT_EQ(unmapped.cpu().busy_ns(), 6 * unmapped.cost().trigger_read_ns);
  EXPECT_EQ(unmapped.bus().eprom_read_count(), 0u);

  Machine mapped;
  mapped.address_map().MapKernel(600 * 1024);
  RecordingTap tap;
  mapped.bus().AddTapListener(&tap);
  std::fill(data.begin(), data.end(), 0);
  mapped.SocketReadSpan(0x1000, data.data(), data.size());  // outside the remap
  EXPECT_EQ(data, std::vector<std::uint8_t>(6, 0xFF));
  EXPECT_EQ(mapped.Now(), 6 * mapped.cost().trigger_read_ns);
  EXPECT_TRUE(tap.reads.empty());
}

TEST(Machine, SocketReadSpanReportsAtTheEndOfTheSpan) {
  Machine machine;
  machine.address_map().MapKernel(600 * 1024);
  DrivingTap tap;
  machine.bus().AddTapListener(&tap);
  const std::uint32_t profile_base = machine.address_map().IsaVirtualBase() +
                                     (kDefaultEpromSocketPhys - kIsaHoleBase);
  std::vector<std::uint8_t> data(3);
  machine.SocketReadSpan(profile_base + 0x8009, data.data(), data.size());
  EXPECT_EQ(data, (std::vector<std::uint8_t>{7, 8, 9}));
  ASSERT_EQ(tap.reads.size(), 3u);
  EXPECT_EQ(tap.reads[2].second, 3 * machine.cost().trigger_read_ns);
  EXPECT_EQ(machine.bus().eprom_read_count(), 3u);
}

// --- CostModel ------------------------------------------------------------------------------

TEST(CostModel, DerivedHelpersScaleLinearly) {
  const CostModel m = CostModel::I386Dx40();
  EXPECT_EQ(m.MainCopy(1000), 1000 * m.main_copy_ns_per_byte);
  EXPECT_EQ(m.Isa8Copy(1500), 1500 * m.isa8_ns_per_byte);
  // The headline calibration: a 1500-byte driver copy is ~1045 µs.
  EXPECT_NEAR(static_cast<double>(m.Isa8Copy(1500)) / 1000.0, 1045.0, 10.0);
  // ISA is ~18x slower than DRAM ("up to 20 times slower").
  EXPECT_GT(m.isa8_ns_per_byte, 15 * m.main_copy_ns_per_byte);
  EXPECT_LT(m.isa8_ns_per_byte, 20 * m.main_copy_ns_per_byte);
}

TEST(CostModel, ChecksumRates) {
  const CostModel m = CostModel::I386Dx40();
  // Unoptimised C checksum beats nothing; data in controller memory is
  // worse; assembler is close to copy speed.
  EXPECT_LT(m.Checksum(1024, false), m.Checksum(1024, true));
  const CostModel asm_model = CostModel::I386Dx40AsmCksum();
  EXPECT_LT(asm_model.Checksum(1024, false), m.Checksum(1024, false) / 3);
}

TEST(CostModel, EtherWireRate) {
  const CostModel m = CostModel::I386Dx40();
  // 10 Mb/s: 1518 bytes ≈ 1.2 ms + IFG.
  EXPECT_NEAR(static_cast<double>(m.EtherWire(1518)) / 1e6, 1.22, 0.05);
}

}  // namespace
}  // namespace hwprof
