/**
 * @file
 * FIFO thread pool for campaign fan-out.
 *
 * One queue under one mutex: tasks start in submit order, whichever
 * thread submits them (a task a worker submits queues behind every
 * task already waiting). A run queues at most a few thousand coarse
 * tasks — 64-lane waves, 64-job march batches, 2048-device fleet
 * chunks, each 0.1 ms of work or more — so the lock is held for a push
 * or a pop a few thousand times per run, never long enough to matter.
 *
 * Start order is the only promise; completion order is arbitrary, so
 * campaign determinism never relies on it: jobs write results into
 * slots keyed by job id.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vega::campaign {

class ThreadPool
{
  public:
    /** Spawns @p num_threads workers (0 ⇒ hardware_concurrency). */
    explicit ThreadPool(size_t num_threads);
    /** Runs every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t size() const { return workers_.size(); }

    /**
     * Enqueue @p task behind every task submitted before it; it may
     * start before submit returns. A task must not throw: an exception
     * that escapes it ends the program.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait_idle();

    /** High-water mark of tasks waiting in the queue. */
    uint64_t peak_queued() const;

    /**
     * Worker slot of the calling thread in the pool it belongs to, or
     * -1 when the caller is not a pool worker. Slots are dense [0, N),
     * so per-worker metrics can key on them.
     */
    static int current_worker();

  private:
    void worker_loop(int wid);

    mutable std::mutex mu_; ///< guards the members up to workers_
    std::condition_variable work_cv_; ///< queue_ non-empty, or stop_
    std::condition_variable idle_cv_; ///< queue_ empty, running_ 0
    std::deque<std::function<void()>> queue_;
    size_t running_ = 0; ///< tasks taken, not yet finished
    uint64_t peak_queued_ = 0;
    bool stop_ = false;

    /** Last: the workers use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace vega::campaign
