#include "campaign/progress.h"

#include <cinttypes>
#include <cstdio>

namespace vega::campaign {

namespace {

void
stderr_sink(const std::string &line)
{
    std::fprintf(stderr, "%s\n", line.c_str());
}

/** 12345678 → "12.3M", keeping progress lines one glance wide. */
std::string
human(double v)
{
    char buf[32];
    if (v >= 1e9)
        std::snprintf(buf, sizeof buf, "%.1fG", v / 1e9);
    else if (v >= 1e6)
        std::snprintf(buf, sizeof buf, "%.1fM", v / 1e6);
    else if (v >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.1f", v);
    return buf;
}

} // namespace

ProgressMeter::ProgressMeter(uint64_t total_jobs,
                             std::chrono::milliseconds interval, Sink sink)
    : total_(total_jobs), interval_(interval),
      sink_(sink ? std::move(sink) : stderr_sink), start_(Clock::now()),
      last_emit_(start_)
{
}

void
ProgressMeter::job_done(uint64_t sim_cycles)
{
    std::string line;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++done_;
        cycles_ += sim_cycles;
        auto now = Clock::now();
        if (done_ < total_ && now - last_emit_ < interval_)
            return;
        last_emit_ = now;
        if (done_ >= total_)
            final_emitted_ = true;
        line = render_line();
    }
    sink_(line);
}

void
ProgressMeter::finish()
{
    std::string line;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // The last job_done() already printed the 100% line.
        if (final_emitted_)
            return;
        final_emitted_ = true;
        line = render_line();
    }
    sink_(line);
}

std::string
ProgressMeter::render_line() const
{
    double secs = std::chrono::duration<double>(Clock::now() - start_)
                      .count();
    double jps = secs > 0 ? double(done_) / secs : 0.0;
    double sps = secs > 0 ? double(cycles_) / secs : 0.0;
    double pct = total_ ? 100.0 * double(done_) / double(total_) : 100.0;
    char buf[160];
    if (done_ < total_ && jps > 0) {
        double eta = double(total_ - done_) / jps;
        std::snprintf(buf, sizeof buf,
                      "campaign: %" PRIu64 "/%" PRIu64
                      " jobs (%.1f%%) | %s jobs/s | %s sims/s | "
                      "eta %.1fs",
                      done_, total_, pct, human(jps).c_str(),
                      human(sps).c_str(), eta);
    } else {
        std::snprintf(buf, sizeof buf,
                      "campaign: %" PRIu64 "/%" PRIu64
                      " jobs (%.1f%%) | %s jobs/s | %s sims/s | "
                      "%.1fs elapsed",
                      done_, total_, pct, human(jps).c_str(),
                      human(sps).c_str(), secs);
    }
    return buf;
}

} // namespace vega::campaign
