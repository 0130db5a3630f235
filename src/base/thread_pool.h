// Dependency-free fixed-size thread pool for the host-side analysis tools.
//
// The simulator itself stays single-threaded (bit-exact reproducibility);
// the pool exists for embarrassingly parallel *host* work — per-shard trace
// replay — where determinism is recovered by an order-independent merge,
// not by execution order.
//
// Two deliberate properties:
//  * `workers == 0` (or 1) runs every job inline on the submitting thread
//    with zero thread machinery (what DefaultJobs() gives a one-CPU host).
//  * Submission order is preserved per worker pickup but nothing else is
//    guaranteed; callers must not depend on completion order.

#ifndef HWPROF_SRC_BASE_THREAD_POOL_H_
#define HWPROF_SRC_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hwprof {

class ThreadPool {
 public:
  // `workers` threads are spawned; 0 and 1 both mean "inline mode" (no
  // threads at all, Submit runs the job before returning).
  explicit ThreadPool(unsigned workers);
  // Finishes every job already submitted, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `job`. In inline mode the job runs on the calling thread
  // before Submit returns.
  void Submit(std::function<void()> job);

  // Number of worker threads (0 in inline mode).
  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  // The hardware concurrency, never less than 1.
  static unsigned DefaultJobs();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_BASE_THREAD_POOL_H_
