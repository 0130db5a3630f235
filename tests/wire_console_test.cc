// Remaining device models: the shared Ethernet medium's serialisation and
// the console's scroll accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/kern/console.h"
#include "src/kern/net_hosts.h"
#include "src/kern/net_wire.h"
#include "src/kern/user_env.h"
#include "src/sim/machine.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

class RecordingNode : public EtherNode {
 public:
  explicit RecordingNode(std::uint8_t id) : id_(id) {}
  std::uint8_t node_id() const override { return id_; }
  void OnFrame(Bytes frame) override {
    arrivals_.push_back({frame, 0});
    arrivals_.back().second = frame.size();
  }
  std::vector<std::pair<Bytes, std::size_t>> arrivals_;

 private:
  std::uint8_t id_;
};

TEST(EtherSegment, DeliversToAllButTheSender) {
  Machine machine;
  EtherSegment wire(machine);
  RecordingNode a(1);
  RecordingNode b(2);
  RecordingNode c(3);
  wire.Attach(&a);
  wire.Attach(&b);
  wire.Attach(&c);
  wire.Transmit(1, Bytes(100, 0xAA));
  while (machine.cpu().IdleWait(Sec(1))) {
  }
  EXPECT_EQ(a.arrivals_.size(), 0u);
  EXPECT_EQ(b.arrivals_.size(), 1u);
  EXPECT_EQ(c.arrivals_.size(), 1u);
  EXPECT_EQ(wire.frames_carried(), 1u);
  EXPECT_EQ(wire.bytes_carried(), 100u);
}

TEST(EtherSegment, MediumSerialisesBackToBackFrames) {
  Machine machine;
  EtherSegment wire(machine);
  RecordingNode rx(2);
  wire.Attach(&rx);
  // Two 1250-byte frames queued at t=0: each takes 1 ms + IFG on the wire.
  const Nanoseconds done1 = wire.Transmit(1, Bytes(1250, 1));
  const Nanoseconds done2 = wire.Transmit(1, Bytes(1250, 2));
  const Nanoseconds per_frame = machine.cost().EtherWire(1250);
  EXPECT_EQ(done1, per_frame);
  EXPECT_EQ(done2, 2 * per_frame);  // waited for the medium
  while (machine.cpu().IdleWait(Sec(1))) {
  }
  ASSERT_EQ(rx.arrivals_.size(), 2u);
  EXPECT_EQ(rx.arrivals_[0].first[0], 1);
  EXPECT_EQ(rx.arrivals_[1].first[0], 2);
}

// Counts deliveries in storage that outlives the node.
class CountingNode : public EtherNode {
 public:
  CountingNode(std::uint8_t id, int* frames) : id_(id), frames_(frames) {}
  std::uint8_t node_id() const override { return id_; }
  void OnFrame(Bytes) override { ++*frames_; }

 private:
  std::uint8_t id_;
  int* frames_;
};

TEST(EtherSegment, DestroyedNodeReceivesNoFrames) {
  Machine machine;
  EtherSegment wire(machine);
  RecordingNode rx(2);
  wire.Attach(&rx);
  int gone_frames = 0;
  {
    auto host = std::make_unique<CountingNode>(3, &gone_frames);
    wire.Attach(host.get());
    wire.Transmit(1, Bytes(100, 1));  // in flight when the host goes away
  }
  // A real remote host, destroyed the way a workload drops its SenderHost.
  std::make_unique<SenderHost>(machine, wire, kSenderNodeId, kSenderIpAddr).reset();
  wire.Transmit(1, Bytes(100, 2));
  while (machine.cpu().IdleWait(Sec(1))) {
  }
  EXPECT_EQ(gone_frames, 0);
  ASSERT_EQ(rx.arrivals_.size(), 2u);  // later frames still reach the rest
  EXPECT_EQ(rx.arrivals_[0].first[0], 1);
  EXPECT_EQ(rx.arrivals_[1].first[0], 2);
}

TEST(EtherSegment, NodeMayOutliveItsSegment) {
  Machine machine;
  int frames = 0;
  CountingNode node(2, &frames);
  {
    EtherSegment wire(machine);
    wire.Attach(&node);
    wire.Detach(&node);
    wire.Attach(&node);  // detached nodes may attach again
  }
  EtherSegment other(machine);
  other.Attach(&node);  // released by the destroyed segment
  other.Transmit(1, Bytes(10, 0));
  while (machine.cpu().IdleWait(Sec(1))) {
  }
  EXPECT_EQ(frames, 1);
}

TEST(EtherSegment, PendingHostOutlivesTheRig) {
  // A receive stopped before its 20 ms stream start leaves the SenderHost
  // owned by that pending event. The Testbed destroys the kernel, and with
  // it the segment, before the machine's event queue, so the host's
  // destructor runs against a segment that is already gone.
  Testbed tb;
  RunNetworkReceive(tb, Msec(5), 1024, /*verify_payload=*/false);
  EXPECT_FALSE(tb.machine().events().Empty());
}

TEST(EtherSegment, WireRateIs10Mbit) {
  Machine machine;
  // 1250 bytes = 10000 bits at 10 Mb/s = 1 ms + 9.6 us IFG.
  EXPECT_EQ(machine.cost().EtherWire(1250), 1'000'000u + 9'600u);
}

TEST(Console, ScrollsOnlyPastTheBottomRow) {
  Testbed tb;
  Kernel& k = tb.kernel();
  // Boot chatter already filled the screen (26 lines on a 25-row screen:
  // one scroll happened during Boot).
  const std::uint64_t scrolls_after_boot = k.console().scrolls();
  EXPECT_GE(scrolls_after_boot, 1u);
  bool ran = false;
  k.Spawn("writer", [&](UserEnv& env) {
    for (int i = 0; i < 10; ++i) {
      env.Print("line\n");
    }
    ran = true;
  });
  k.Run(Sec(1));
  ASSERT_TRUE(ran);
  // Every further line scrolls.
  EXPECT_EQ(k.console().scrolls(), scrolls_after_boot + 10);
}

TEST(Console, LongLinesWrap) {
  Testbed tb;
  Kernel& k = tb.kernel();
  const std::uint64_t scrolls0 = k.console().scrolls();
  bool ran = false;
  k.Spawn("writer", [&](UserEnv& env) {
    // 240 columns without a newline: wraps into 3 rows -> 3 scrolls on a
    // full screen.
    env.Print(std::string(240, 'x'));
    ran = true;
  });
  k.Run(Sec(1));
  ASSERT_TRUE(ran);
  EXPECT_EQ(k.console().scrolls(), scrolls0 + 3);
}

TEST(Console, ScrollCostIsMilliseconds) {
  // Fig 5's bcopyb: one scroll of the ISA video memory costs ~2-4 ms.
  Testbed tb;
  Kernel& k = tb.kernel();
  Nanoseconds took = 0;
  k.Spawn("writer", [&](UserEnv& env) {
    const Nanoseconds t0 = k.Now();
    env.Print("scroll me\n");
    took = k.Now() - t0;
  });
  k.Run(Sec(1));
  EXPECT_GT(took, Msec(2));
  EXPECT_LT(took, Msec(5));
}

}  // namespace
}  // namespace hwprof
