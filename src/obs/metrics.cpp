#include "obs/metrics.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.h"

namespace vega::obs {

/**
 * The process-wide registry. Entities are heap-allocated once so the
 * references handed out never move; the name maps are only touched
 * under the mutex, which update paths never take (they hold direct
 * references).
 */
class Registry
{
  public:
    static Registry &
    instance()
    {
        static Registry *r = new Registry; // never destroyed: handles
        return *r;                         // outlive static teardown
    }

    Counter &
    counter(const std::string &name)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = counters_by_name_.find(name);
        if (it != counters_by_name_.end())
            return *it->second;
        Counter *c = new Counter();
        counters_by_name_.emplace(name, std::unique_ptr<Counter>(c));
        return *c;
    }

    Gauge &
    gauge(const std::string &name)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = gauges_by_name_.find(name);
        if (it != gauges_by_name_.end())
            return *it->second;
        Gauge *g = new Gauge();
        gauges_by_name_.emplace(name, std::unique_ptr<Gauge>(g));
        return *g;
    }

    Histogram &
    histogram(const std::string &name, const std::vector<double> &bounds)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = histograms_by_name_.find(name);
        if (it != histograms_by_name_.end())
            return *it->second;
        Histogram *h = new Histogram(bounds);
        histograms_by_name_.emplace(name,
                                    std::unique_ptr<Histogram>(h));
        return *h;
    }

    MetricsSnapshot
    snapshot()
    {
        std::lock_guard<std::mutex> lk(mu_);
        MetricsSnapshot s;
        for (const auto &[name, c] : counters_by_name_)
            s.counters.emplace_back(name, c->value());
        for (const auto &[name, g] : gauges_by_name_)
            s.gauges.emplace_back(name, g->value());
        for (const auto &[name, h] : histograms_by_name_) {
            MetricsSnapshot::HistogramEntry e;
            e.name = name;
            e.bounds = h->bounds();
            e.buckets.reserve(e.bounds.size() + 1);
            for (size_t i = 0; i <= e.bounds.size(); ++i)
                e.buckets.push_back(h->bucket_count(i));
            e.count = h->count();
            e.sum = h->sum();
            s.histograms.push_back(std::move(e));
        }
        return s; // std::map iteration is already name-sorted
    }

    void
    reset()
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto &[name, c] : counters_by_name_)
            c->reset();
        for (auto &[name, g] : gauges_by_name_)
            g->reset();
        for (auto &[name, h] : histograms_by_name_)
            h->reset();
    }

  private:
    std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_by_name_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_by_name_;
    std::map<std::string, std::unique_ptr<Histogram>>
        histograms_by_name_;
};

double
histogram_quantile(const std::vector<double> &bounds,
                   const std::vector<uint64_t> &buckets, uint64_t count,
                   double q)
{
    if (count == 0 || buckets.empty())
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the target observation, 1-based so q=0 lands on the
    // first observation and q=1 on the last.
    double rank = q * double(count);
    if (rank < 1.0)
        rank = 1.0;
    uint64_t below = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        uint64_t in_bucket = buckets[i];
        if (in_bucket == 0)
            continue;
        if (rank > double(below + in_bucket)) {
            below += in_bucket;
            continue;
        }
        if (i >= bounds.size()) // overflow: no upper edge to lerp to
            return bounds.empty() ? 0.0 : bounds.back();
        double lo = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
        double hi = bounds[i];
        double frac = (rank - double(below)) / double(in_bucket);
        return lo + (hi - lo) * frac;
    }
    return bounds.back();
}

double
Histogram::quantile(double q) const
{
    std::vector<uint64_t> counts;
    counts.reserve(bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); ++i)
        counts.push_back(bucket_count(i));
    return histogram_quantile(bounds_, counts, count(), q);
}

size_t
Counter::shard_index()
{
    static std::atomic<size_t> next{0};
    static thread_local size_t idx =
        next.fetch_add(1, std::memory_order_relaxed);
    return idx % kShards;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
    // Bounds must ascend for the binary search to mean "first bound
    // that is >= v"; sorting here makes the contract unconditional.
    std::sort(bounds_.begin(), bounds_.end());
}

void
Histogram::observe(double v)
{
    size_t i = size_t(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin());
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);

    uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
    double sum;
    uint64_t next;
    do {
        std::memcpy(&sum, &cur, sizeof sum);
        sum += v;
        std::memcpy(&next, &sum, sizeof next);
    } while (!sum_bits_.compare_exchange_weak(cur, next,
                                              std::memory_order_relaxed));
}

double
Histogram::sum() const
{
    uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_bits_.store(0, std::memory_order_relaxed);
}

const std::vector<double> &
default_time_bounds()
{
    static const std::vector<double> bounds = {
        1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 100};
    return bounds;
}

Counter &
counter(const std::string &name)
{
    return Registry::instance().counter(name);
}

Gauge &
gauge(const std::string &name)
{
    return Registry::instance().gauge(name);
}

Histogram &
histogram(const std::string &name, const std::vector<double> &bounds)
{
    return Registry::instance().histogram(name, bounds);
}

MetricsSnapshot
snapshot_metrics()
{
    return Registry::instance().snapshot();
}

void
reset_metrics()
{
    Registry::instance().reset();
}

std::string
MetricsSnapshot::to_json() const
{
    std::string out;
    out.reserve(1024 + 48 * (counters.size() + gauges.size()) +
                256 * histograms.size());
    out += "{\"counters\":{";
    for (size_t i = 0; i < counters.size(); ++i) {
        if (i)
            out += ',';
        json_string(out, counters[i].first);
        out += ':';
        json_number(out, counters[i].second);
    }
    out += "},\"gauges\":{";
    for (size_t i = 0; i < gauges.size(); ++i) {
        if (i)
            out += ',';
        json_string(out, gauges[i].first);
        out += ':';
        json_number(out, gauges[i].second);
    }
    out += "},\"histograms\":{";
    for (size_t i = 0; i < histograms.size(); ++i) {
        const HistogramEntry &h = histograms[i];
        if (i)
            out += ',';
        json_string(out, h.name);
        out += ":{";
        kv(out, "count", h.count);
        kv(out, "sum", h.sum);
        kv(out, "p50", h.quantile(0.50));
        kv(out, "p95", h.quantile(0.95));
        kv(out, "p99", h.quantile(0.99));
        out += "\"buckets\":[";
        for (size_t b = 0; b < h.buckets.size(); ++b) {
            if (b)
                out += ',';
            out += '{';
            if (b < h.bounds.size())
                kv(out, "le", h.bounds[b]);
            else
                kv(out, "le", "inf");
            kv(out, "count", h.buckets[b], false);
            out += '}';
        }
        out += "]}";
    }
    out += "}}";
    return out;
}

std::string
MetricsSnapshot::summary() const
{
    std::string out;
    for (const auto &[name, v] : counters) {
        out += name;
        out += ' ';
        json_number(out, v);
        out += '\n';
    }
    for (const auto &[name, v] : gauges) {
        out += name;
        out += ' ';
        json_number(out, v);
        out += '\n';
    }
    for (const HistogramEntry &h : histograms) {
        out += h.name;
        out += " count=";
        json_number(out, h.count);
        out += " sum=";
        json_number(out, h.sum);
        if (h.count) {
            out += " mean=";
            json_number(out, h.sum / double(h.count));
        }
        out += '\n';
    }
    return out;
}

} // namespace vega::obs
