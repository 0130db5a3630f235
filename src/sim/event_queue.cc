#include "src/sim/event_queue.h"

#include <utility>

#include "src/base/assert.h"

namespace hwprof {

EventQueue::EventId EventQueue::ScheduleAt(Nanoseconds when, std::function<void()> fn) {
  HWPROF_CHECK(fn != nullptr);
  const EventId id = next_id_++;
  const Key key{when, id};
  events_.emplace(key, std::move(fn));
  index_.emplace(id, key);
  return id;
}

bool EventQueue::Cancel(EventId id) {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return false;
  }
  events_.erase(it->second);
  index_.erase(it);
  return true;
}

void EventQueue::RunDue(Nanoseconds now) {
  while (!events_.empty() && events_.begin()->first.when <= now) {
    auto it = events_.begin();
    std::function<void()> fn = std::move(it->second);
    index_.erase(it->first.id);
    events_.erase(it);
    fn();
  }
}

}  // namespace hwprof
