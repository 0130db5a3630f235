#include "src/kern/net_wire.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"

namespace hwprof {

EtherNode::~EtherNode() {
  if (segment_ != nullptr) {
    segment_->Detach(this);
  }
}

EtherSegment::EtherSegment(Machine& machine) : machine_(machine) {}

EtherSegment::~EtherSegment() {
  for (EtherNode* node : nodes_) {
    node->segment_ = nullptr;
  }
}

void EtherSegment::Attach(EtherNode* node) {
  HWPROF_CHECK(node != nullptr);
  HWPROF_CHECK_MSG(node->segment_ == nullptr, "node already attached to a segment");
  node->segment_ = this;
  nodes_.push_back(node);
}

void EtherSegment::Detach(EtherNode* node) {
  if (node == nullptr || node->segment_ != this) {
    return;
  }
  node->segment_ = nullptr;
  nodes_.erase(std::remove(nodes_.begin(), nodes_.end(), node), nodes_.end());
}

Nanoseconds EtherSegment::Transmit(std::uint8_t sender, Bytes frame) {
  const Nanoseconds start = std::max(machine_.Now(), busy_until_);
  const Nanoseconds done = start + machine_.cost().EtherWire(frame.size());
  busy_until_ = done;
  ++frames_carried_;
  bytes_carried_ += frame.size();
  machine_.events().ScheduleAt(done, [this, sender, f = std::move(frame)]() mutable {
    EtherNode* last = nullptr;
    for (EtherNode* node : nodes_) {
      if (node->node_id() == sender) {
        continue;
      }
      if (last != nullptr) {
        last->OnFrame(f);
      }
      last = node;
    }
    if (last != nullptr) {
      last->OnFrame(std::move(f));
    }
  });
  return done;
}

}  // namespace hwprof
