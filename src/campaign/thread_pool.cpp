#include "campaign/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace vega::campaign {

namespace {

/** Worker slot of the current thread; -1 off the pool. */
thread_local int tl_worker = -1;

} // namespace

ThreadPool::ThreadPool(size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this, i] { worker_loop(int(i)); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

int
ThreadPool::current_worker()
{
    return tl_worker;
}

void
ThreadPool::submit(std::function<void()> task)
{
    size_t depth = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.push_back(std::move(task));
        depth = queue_.size();
        peak_queued_ = std::max<uint64_t>(peak_queued_, depth);
    }
    static obs::Gauge &depth_gauge = obs::gauge("campaign.queue_depth");
    depth_gauge.record_max(int64_t(depth));
    work_cv_.notify_one();
}

void
ThreadPool::worker_loop(int wid)
{
    tl_worker = wid;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stopping, and nothing left to run
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++running_;
        lk.unlock();
        task();
        task = nullptr; // release its captures outside the lock
        lk.lock();
        if (--running_ == 0 && queue_.empty())
            idle_cv_.notify_all();
    }
}

void
ThreadPool::wait_idle()
{
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return queue_.empty() && running_ == 0; });
}

uint64_t
ThreadPool::peak_queued() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return peak_queued_;
}

} // namespace vega::campaign
