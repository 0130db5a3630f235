// Discrete-event queue driving the simulated machine.
//
// Device models (ethernet wire, disk mechanics, the clock chip) schedule
// callbacks at absolute virtual times. The CPU drains due events whenever it
// advances time across them, so device activity is interleaved with modelled
// computation at nanosecond granularity.

#ifndef HWPROF_SRC_SIM_EVENT_QUEUE_H_
#define HWPROF_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>

#include "src/base/units.h"

namespace hwprof {

class EventQueue {
 public:
  using EventId = std::uint64_t;
  static constexpr Nanoseconds kNever = std::numeric_limits<Nanoseconds>::max();

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `when`. Events at equal times run
  // in scheduling order. Returns an id usable with Cancel().
  EventId ScheduleAt(Nanoseconds when, std::function<void()> fn);

  // Cancels a pending event. Returns false if the event already ran or was
  // already cancelled.
  bool Cancel(EventId id);

  // Absolute time of the earliest pending event, or kNever if empty.
  Nanoseconds NextTime() const {
    return events_.empty() ? kNever : events_.begin()->first.when;
  }

  // Runs all events scheduled at or before `now`, in time order. Events may
  // schedule further events; newly due ones run in the same call.
  void RunDue(Nanoseconds now);

  bool Empty() const { return events_.empty(); }
  std::size_t PendingCount() const { return events_.size(); }

 private:
  struct Key {
    Nanoseconds when;
    EventId id;
    bool operator<(const Key& o) const {
      return when != o.when ? when < o.when : id < o.id;
    }
  };

  std::map<Key, std::function<void()>> events_;
  std::map<EventId, Key> index_;
  EventId next_id_ = 1;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_SIM_EVENT_QUEUE_H_
