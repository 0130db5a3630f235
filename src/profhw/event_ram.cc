#include "src/profhw/event_ram.h"

#include "src/base/assert.h"

namespace hwprof {

EventRam::EventRam(std::size_t depth) : depth_(depth) {
  HWPROF_CHECK(depth > 0);
  words_.reserve(depth);
}

void EventRam::Reset() {
  words_.clear();
  overflowed_ = false;
  sealed_ = false;
}

}  // namespace hwprof
