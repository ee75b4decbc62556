/**
 * @file
 * Observability for long campaigns: a thread-safe meter that counts
 * finished jobs and simulated cycles and emits rate-limited progress
 * lines (jobs/s, sims/s, ETA) through a pluggable sink, so a
 * million-job campaign is never a silent black box.
 *
 * The meter is pure bookkeeping on the side: nothing in a
 * CampaignReport's deterministic fields ever comes from it.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

namespace vega::campaign {

class ProgressMeter
{
  public:
    /** Receives one rendered progress line (no trailing newline). */
    using Sink = std::function<void(const std::string &)>;

    /**
     * @param total_jobs jobs the campaign will run (for % and ETA)
     * @param interval   minimum spacing between emitted lines;
     *                   zero emits on every completion
     * @param sink       line consumer; null ⇒ stderr
     */
    explicit ProgressMeter(uint64_t total_jobs,
                           std::chrono::milliseconds interval =
                               std::chrono::milliseconds(2000),
                           Sink sink = nullptr);

    /** Record one finished job; may emit a progress line. */
    void job_done(uint64_t sim_cycles);

    /** Emit the final summary line unconditionally. */
    void finish();

  private:
    std::string render_line() const; ///< callers hold mu_

    using Clock = std::chrono::steady_clock;

    std::mutex mu_;
    uint64_t total_;
    std::chrono::milliseconds interval_;
    Sink sink_;
    Clock::time_point start_;
    Clock::time_point last_emit_;
    uint64_t done_ = 0;
    uint64_t cycles_ = 0;
    bool final_emitted_ = false;
};

} // namespace vega::campaign
