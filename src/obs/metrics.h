/**
 * @file
 * Process-wide metrics registry: counters, gauges, and fixed-bucket
 * histograms registered by stable dotted names ("sat.conflicts",
 * "sim.batch_cycles", "campaign.steals").
 *
 * Design goals, in order:
 *  - hot-path cheapness: Counter::add is one relaxed fetch_add on a
 *    cache-line-padded shard picked by thread; Gauge::set is one
 *    relaxed store. No locks anywhere on the update path.
 *  - stable handles: counter()/gauge()/histogram() return references
 *    that stay valid for the life of the process, so call sites look
 *    a metric up once (function-local static) and then update it
 *    lock-free forever.
 *  - deterministic snapshots: MetricsSnapshot::to_json() renders
 *    entries sorted by name with integer-exact counts, so two
 *    snapshots of the same state are byte-identical.
 *
 * Metrics are process-global and cumulative — a snapshot reflects
 * everything since process start (or the last reset_metrics(), which
 * only tests should call). Nothing in a CampaignReport's deterministic
 * fields may ever be derived from a metric.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vega::obs {

/** Monotonic event count, sharded to keep concurrent bumps cheap. */
class Counter
{
  public:
    void add(uint64_t n = 1)
    {
        shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
    }
    void inc() { add(1); }

    /** Sum over shards; exact once concurrent writers are quiescent. */
    uint64_t value() const
    {
        uint64_t total = 0;
        for (const Shard &s : shards_)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    void reset()
    {
        for (Shard &s : shards_)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    static constexpr size_t kShards = 8;
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> v{0};
    };
    /** Stable per-thread shard pick; round-robin over thread births. */
    static size_t shard_index();

    Shard shards_[kShards];
};

/** Instantaneous signed level (queue depth, bytes buffered, ...). */
class Gauge
{
  public:
    void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
    int64_t value() const { return v_.load(std::memory_order_relaxed); }

    /** Raise the gauge to @p v if it is above the current value. */
    void record_max(int64_t v)
    {
        int64_t cur = v_.load(std::memory_order_relaxed);
        while (v > cur &&
               !v_.compare_exchange_weak(cur, v,
                                         std::memory_order_relaxed))
            ;
    }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    friend class Registry;
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    std::atomic<int64_t> v_{0};
};

/**
 * Linearly-interpolated quantile over fixed histogram buckets: the
 * value v such that a fraction @p q of the @p count observations fall
 * at or below v, assuming observations spread uniformly within their
 * bucket. The first bucket's lower edge is taken as min(0, bounds[0]);
 * ranks landing in the overflow bucket clamp to the last bound (the
 * overflow has no upper edge to interpolate toward). Returns 0 when
 * the histogram is empty. @p buckets must have bounds.size() + 1
 * entries and @p count must equal their sum.
 */
double histogram_quantile(const std::vector<double> &bounds,
                          const std::vector<uint64_t> &buckets,
                          uint64_t count, double q);

/**
 * Fixed-bucket histogram. Bucket i counts observations v with
 * bounds[i-1] < v <= bounds[i]; one implicit overflow bucket catches
 * everything above the last bound. Bounds are fixed at registration so
 * observation is a binary search plus one relaxed fetch_add.
 *
 * Besides the registry-owned metric use, Histogram is directly
 * constructible for local accumulation (the tests' per-slot fleet
 * reference folds its distributions through it): fills are exact
 * integer counts, so a serially-filled local histogram renders
 * byte-identically run to run. Reports that fold in parallel keep plain
 * bucket counts and call histogram_quantile on the merged buckets.
 */
class Histogram
{
  public:
    /** Standalone histogram with the given bucket upper bounds. */
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    /** Interpolated quantile of everything observed so far. */
    double quantile(double q) const;
    /** Shorthand percentiles for report export. */
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    const std::vector<double> &bounds() const { return bounds_; }
    /** Count in bucket @p i (i == bounds().size() is the overflow). */
    uint64_t bucket_count(size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }
    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const;

    void reset();

  private:
    friend class Registry;
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> buckets_; ///< bounds_.size() + 1
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_bits_{0}; ///< bit_cast'd double, CAS-added
};

/** Timing buckets (seconds), 100us .. 100s, ~3x apart. */
const std::vector<double> &default_time_bounds();

/**
 * Look up (or register on first use) a metric by dotted name. The
 * returned reference is valid forever. Re-registering a histogram
 * under the same name keeps the original bounds.
 *
 * Naming scheme: "<subsystem>.<what>[.<qualifier>]", lower-case,
 * e.g. "sat.conflicts", "campaign.jobs.w3". Stick to it — exporters
 * sort by name, so a consistent scheme groups related metrics.
 */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name,
                     const std::vector<double> &bounds =
                         default_time_bounds());

/** Point-in-time copy of every registered metric. */
struct MetricsSnapshot
{
    struct HistogramEntry
    {
        std::string name;
        std::vector<double> bounds;
        std::vector<uint64_t> buckets; ///< bounds.size() + 1 (overflow)
        uint64_t count = 0;
        double sum = 0.0;

        /** Interpolated percentile of the snapshotted counts. */
        double quantile(double q) const
        {
            return histogram_quantile(bounds, buckets, count, q);
        }
    };

    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<HistogramEntry> histograms;

    /** Deterministic JSON: entries sorted by name, integers exact. */
    std::string to_json() const;
    /** Human-oriented flat "name value" lines for a stderr summary. */
    std::string summary() const;
};

/** Snapshot every registered metric, sorted by name. */
MetricsSnapshot snapshot_metrics();

/** Zero every registered metric (tests only; handles stay valid). */
void reset_metrics();

} // namespace vega::obs
