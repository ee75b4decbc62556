#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "json_lint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega::obs {
namespace {

// Metrics are process-global, so every test uses names under "test."
// that no production code touches.

TEST(ObsCounter, ConcurrentAddsSumExactly)
{
    Counter &c = counter("test.counter.concurrent");
    c.reset();
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 100000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&c] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsCounter, SameNameSameHandle)
{
    Counter &a = counter("test.counter.handle");
    Counter &b = counter("test.counter.handle");
    EXPECT_EQ(&a, &b);
    a.reset();
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST(ObsGauge, SetAddRecordMax)
{
    Gauge &g = gauge("test.gauge");
    g.set(5);
    EXPECT_EQ(g.value(), 5);
    g.add(-2);
    EXPECT_EQ(g.value(), 3);
    g.record_max(10);
    EXPECT_EQ(g.value(), 10);
    g.record_max(7); // below current: no effect
    EXPECT_EQ(g.value(), 10);
}

TEST(ObsHistogram, BucketBoundariesAreUpperInclusive)
{
    Histogram &h = histogram("test.histo.bounds", {1.0, 2.0, 4.0});
    h.reset();
    // Bucket i counts bounds[i-1] < v <= bounds[i].
    h.observe(0.5); // bucket 0
    h.observe(1.0); // bucket 0 (boundary is inclusive above)
    h.observe(1.5); // bucket 1
    h.observe(2.0); // bucket 1
    h.observe(4.0); // bucket 2
    h.observe(9.0); // overflow bucket
    EXPECT_EQ(h.bucket_count(0), 2u);
    EXPECT_EQ(h.bucket_count(1), 2u);
    EXPECT_EQ(h.bucket_count(2), 1u);
    EXPECT_EQ(h.bucket_count(3), 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 9.0);
}

TEST(ObsHistogram, ReRegistrationKeepsOriginalBounds)
{
    Histogram &a = histogram("test.histo.rereg", {1.0, 2.0});
    Histogram &b = histogram("test.histo.rereg", {99.0});
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.bounds().size(), 2u);
}

TEST(ObsSnapshot, JsonIsSortedDeterministicAndValid)
{
    counter("test.snap.b").reset();
    counter("test.snap.a").reset();
    counter("test.snap.a").add(1);
    counter("test.snap.b").add(2);
    gauge("test.snap.g").set(-7);
    MetricsSnapshot s1 = snapshot_metrics();
    MetricsSnapshot s2 = snapshot_metrics();
    std::string j1 = s1.to_json();
    EXPECT_EQ(j1, s2.to_json());
    EXPECT_TRUE(json_validate(j1).ok());
    // Sorted by name: a before b.
    size_t pa = j1.find("test.snap.a");
    size_t pb = j1.find("test.snap.b");
    ASSERT_NE(pa, std::string::npos);
    ASSERT_NE(pb, std::string::npos);
    EXPECT_LT(pa, pb);
    EXPECT_NE(j1.find("\"test.snap.g\":-7"), std::string::npos);
    // The summary names every metric too.
    std::string sum = s1.summary();
    EXPECT_NE(sum.find("test.snap.a"), std::string::npos);
}

TEST(ObsTrace, DisabledSpansRecordNothing)
{
    trace_disable();
    trace_enable(16); // clears prior events
    trace_disable();
    {
        VEGA_SPAN("test.disabled");
    }
    for (const TraceEvent &e : trace_collect())
        EXPECT_STRNE(e.name, "test.disabled");
}

TEST(ObsTrace, SpansNestAndExportIsValidChromeJson)
{
    trace_enable(1024);
    {
        VEGA_SPAN("test.outer");
        {
            VEGA_SPAN("test.inner");
        }
    }
    trace_disable();
    std::vector<TraceEvent> events = trace_collect();
    const TraceEvent *outer = nullptr, *inner = nullptr;
    for (const TraceEvent &e : events) {
        if (std::string(e.name) == "test.outer")
            outer = &e;
        if (std::string(e.name) == "test.inner")
            inner = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // Proper nesting: inner begins after outer and ends before it.
    EXPECT_GE(inner->ts_ns, outer->ts_ns);
    EXPECT_LE(inner->ts_ns + inner->dur_ns,
              outer->ts_ns + outer->dur_ns);
    EXPECT_EQ(inner->tid, outer->tid);

    std::string json = chrome_trace_json(events);
    EXPECT_TRUE(json_validate(json).ok());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("test.outer"), std::string::npos);
}

TEST(ObsTrace, FullRingDropsOldestAndCounts)
{
    trace_enable(4);
    for (int i = 0; i < 20; ++i) {
        VEGA_SPAN("test.ring");
    }
    trace_disable();
    EXPECT_GT(trace_dropped(), 0u);
    size_t ours = 0;
    for (const TraceEvent &e : trace_collect())
        if (std::string(e.name) == "test.ring")
            ++ours;
    EXPECT_LE(ours, 4u);
    EXPECT_GT(ours, 0u);
}

TEST(ObsLogging, ParseLogLevelAndOverride)
{
    LogLevel lvl = LogLevel::Info;
    EXPECT_TRUE(parse_log_level("debug", lvl));
    EXPECT_EQ(lvl, LogLevel::Debug);
    EXPECT_TRUE(parse_log_level("error", lvl));
    EXPECT_EQ(lvl, LogLevel::Error);
    EXPECT_FALSE(parse_log_level("verbose", lvl));
    EXPECT_FALSE(parse_log_level("", lvl));
    EXPECT_FALSE(parse_log_level("Debug", lvl)); // case-sensitive

    // set_log_level wins over whatever the environment said.
    LogLevel before = log_level();
    set_log_level(LogLevel::Warn);
    EXPECT_EQ(log_level(), LogLevel::Warn);
    set_log_level(before);
}

TEST(ObsHistogramQuantile, EmptyHistogramIsZero)
{
    Histogram h({1.0, 2.0, 4.0});
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.p99(), 0.0);
}

TEST(ObsHistogramQuantile, InterpolatesWithinBuckets)
{
    // 1..30 once each over bounds {10,20,30}: 10 per bucket, so the
    // interpolated quantile tracks the underlying uniform values.
    Histogram h({10.0, 20.0, 30.0});
    for (int v = 1; v <= 30; ++v)
        h.observe(double(v));
    EXPECT_NEAR(h.p50(), 15.0, 1e-9);
    EXPECT_NEAR(h.p95(), 28.5, 1e-9);
    EXPECT_NEAR(h.p99(), 29.7, 1e-9);
    EXPECT_NEAR(h.quantile(1.0), 30.0, 1e-9);
    // q=0 lands on the first observation's bucket, interpolated from
    // the implicit 0 lower edge.
    EXPECT_NEAR(h.quantile(0.0), 1.0, 1e-9);
}

TEST(ObsHistogramQuantile, OverflowClampsToLastBound)
{
    Histogram h({10.0});
    h.observe(5.0);
    for (int i = 0; i < 99; ++i)
        h.observe(1e6); // overflow bucket: no upper edge
    EXPECT_EQ(h.p99(), 10.0);
    EXPECT_EQ(h.quantile(1.0), 10.0);
}

TEST(ObsHistogramQuantile, MonotonicAcrossQ)
{
    Histogram h({1.0, 4.0, 16.0, 64.0});
    uint64_t x = 12345;
    for (int i = 0; i < 1000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        h.observe(double(x % 100));
    }
    double prev = -1.0;
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        double v = h.quantile(q);
        EXPECT_GE(v, prev) << "q=" << q;
        prev = v;
    }
}

TEST(ObsHistogramQuantile, SnapshotExportsPercentileKeys)
{
    Histogram &h = histogram("test.histo.quantile", {10.0, 20.0});
    h.reset();
    for (int v = 1; v <= 20; ++v)
        h.observe(double(v));
    std::string json = snapshot_metrics().to_json();
    EXPECT_NE(json.find("\"p50\":"), std::string::npos);
    EXPECT_NE(json.find("\"p95\":"), std::string::npos);
    EXPECT_NE(json.find("\"p99\":"), std::string::npos);
    EXPECT_TRUE(json_validate(json).ok());

    // Snapshot entries answer the same quantile as the live histogram.
    MetricsSnapshot snap = snapshot_metrics();
    for (const auto &entry : snap.histograms) {
        if (entry.name != "test.histo.quantile")
            continue;
        EXPECT_NEAR(entry.quantile(0.5), h.p50(), 1e-9);
        EXPECT_NEAR(entry.quantile(0.99), h.p99(), 1e-9);
    }
}

TEST(ObsJsonLint, AcceptsValidRejectsGarbage)
{
    EXPECT_TRUE(json_validate("{\"a\":[1,2.5e3,true,null,\"x\"]}").ok());
    EXPECT_TRUE(json_validate("[]").ok());
    EXPECT_FALSE(json_validate("").ok());
    EXPECT_FALSE(json_validate("{").ok());
    EXPECT_FALSE(json_validate("{\"a\":1,}").ok());
    EXPECT_FALSE(json_validate("{\"a\":01}").ok());
    EXPECT_FALSE(json_validate("{\"a\":1} trailing").ok());
    EXPECT_FALSE(json_validate("nope").ok());
    EXPECT_FALSE(json_validate("\"unterminated").ok());
}

} // namespace
} // namespace vega::obs
