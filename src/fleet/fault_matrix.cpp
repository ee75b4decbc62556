#include "fleet/fault_matrix.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>

#include "campaign/job.h"
#include "campaign/thread_pool.h"
#include "campaign/wave.h"
#include "common/logging.h"
#include "mem/decoder_lift.h"
#include "mem/mem_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega::fleet {

size_t
FaultMatrix::detectable_classes() const
{
    size_t n = 0;
    for (const FaultClass &f : faults)
        if (f.detecting_tests)
            ++n;
    return n;
}

size_t
FaultMatrix::corrupting_classes() const
{
    size_t n = 0;
    for (const FaultClass &f : faults)
        if (f.corrupts)
            ++n;
    return n;
}

namespace {

/**
 * Screen one memory fault class: the aged decode gate lifts to a
 * wrong-address class, and each test runs through the faulty-memory
 * ISS instead of a netlist mount. A worst path without a decode gate
 * cannot be characterized; it throws, as in the campaign, so the class
 * is poisoned (counted and logged) rather than silently inert.
 */
void
characterize_mem(const HwModule &module,
                 const std::vector<runtime::TestCase> &suite,
                 const sta::EndpointPair &pair, FaultClass &out)
{
    CellId gate = mem::pick_decoder_gate(module.netlist, pair.worst);
    if (gate == kInvalidId)
        throw std::runtime_error("no decode gate on worst path");
    mem::MemFaultClass cls = mem::classify_slow_gate(module.netlist, gate);
    if (cls.kind == mem::MemFaultKind::None)
        return;
    out.corrupts = mem::mem_workload_corrupts(cls);
    for (size_t t = 0; t < suite.size(); ++t) {
        mem::MarchEngine engine(cls);
        out.per_test[t] = engine.run(suite[t]);
    }
}

} // namespace

Expected<FaultMatrix>
build_fault_matrix(const HwModule &module,
                   const std::vector<sta::EndpointPair> &pairs,
                   const std::vector<runtime::TestCase> &suite,
                   const std::vector<lift::FaultConstant> &constants,
                   size_t threads, uint64_t seed)
{
    if (pairs.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "fault matrix needs endpoint pairs");
    if (suite.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "fault matrix needs a non-empty suite");
    if (constants.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "fault matrix needs fault constants");

    VEGA_SPAN("fleet.matrix");
    FaultMatrix m;
    m.module = module.kind;
    m.num_pairs = pairs.size();
    m.num_tests = suite.size();
    m.faults.resize(pairs.size() * constants.size());
    for (size_t idx = 0; idx < m.faults.size(); ++idx) {
        FaultClass &f = m.faults[idx];
        f.pair_index = idx / constants.size();
        f.constant = constants[idx % constants.size()];
        f.per_test.assign(suite.size(), runtime::Detection::None);
    }
    m.test_cycles.reserve(suite.size());
    for (const runtime::TestCase &tc : suite) {
        m.test_cycles.push_back(tc.cycle_cost);
        m.suite_cycles += tc.cycle_cost;
    }

    // A class whose characterization throws is recorded inert rather
    // than sinking the whole fleet characterization — but counted and
    // logged, never silently.
    std::mutex poison_mu;
    std::vector<std::string> poisoned(m.faults.size());
    auto poison = [&](size_t idx) {
        std::string why = current_exception_text();
        std::lock_guard<std::mutex> lk(poison_mu);
        poisoned[idx] = why;
    };

    // Functional units: every class goes into one fault bank (bank
    // index = class index), and each (class × test) screen — plus one
    // workload probe per class — runs as a from-reset wave lane, the
    // "fresh engine per test" model: hardware state carried across
    // tests is a second-order effect at fleet granularity. Class idx's
    // splitmix64 stream seeds the probe with its first draw and test t
    // with draw t + 2. Probes and tests run in separate waves, because
    // a pass costs the same however many lanes it fills and a probe
    // runs ~100x longer than a test. The probe waves are queued first,
    // so the pool starts them before any screen wave.
    campaign::ThreadPool pool(threads);
    campaign::WaveContext ctx;
    std::vector<campaign::Episode> probes, screens; // screens class-major
    auto submit_waves = [&](const std::vector<campaign::Episode> *eps,
                            bool probing) {
        for (size_t base = 0; base < eps->size();
             base += campaign::kWaveLanes) {
            size_t end = std::min(base + campaign::kWaveLanes, eps->size());
            pool.submit([&, eps, base, end, probing] {
                VEGA_SPAN("fleet.characterize");
                try {
                    std::vector<campaign::EpisodeResult> got =
                        campaign::characterize_wave(
                            ctx, {eps->begin() + long(base),
                                  eps->begin() + long(end)});
                    for (size_t i = base; i < end; ++i) {
                        FaultClass &f = m.faults[(*eps)[i].bank_index];
                        if (probing)
                            f.corrupts = campaign::probe_corrupts(
                                module.kind, got[i - base]);
                        else
                            f.per_test[i % suite.size()] =
                                got[i - base].detection;
                    }
                } catch (...) {
                    for (size_t i = base; i < end; ++i)
                        poison((*eps)[i].bank_index);
                }
            });
        }
    };
    if (is_mem_module(module.kind)) {
        for (size_t idx = 0; idx < m.faults.size(); ++idx)
            pool.submit([&, idx] {
                VEGA_SPAN("fleet.characterize");
                try {
                    characterize_mem(module, suite,
                                     pairs[m.faults[idx].pair_index],
                                     m.faults[idx]);
                } catch (...) {
                    poison(idx);
                }
            });
    } else {
        try {
            std::vector<lift::FailureModelSpec> specs;
            for (const FaultClass &f : m.faults)
                specs.push_back(
                    campaign::fault_spec(pairs[f.pair_index], f.constant));
            ctx = campaign::make_wave_context(module, specs);
        } catch (...) {
            for (size_t idx = 0; idx < m.faults.size(); ++idx)
                poison(idx);
        }
        for (size_t idx = 0; ctx.tape && idx < m.faults.size(); ++idx) {
            uint64_t stream = campaign::job_stream(seed, uint64_t(idx));
            probes.push_back(campaign::probe_episode(
                module.kind, idx, splitmix64(stream)));
            for (const runtime::TestCase &tc : suite)
                screens.push_back({idx, splitmix64(stream),
                                   &tc.program, campaign::kTestWatchdog});
        }
        submit_waves(&probes, true);
        submit_waves(&screens, false);
    }
    pool.wait_idle();

    static obs::Counter &poisoned_counter =
        obs::counter("fleet.classes_poisoned");
    for (size_t idx = 0; idx < m.faults.size(); ++idx) {
        FaultClass &f = m.faults[idx];
        if (!poisoned[idx].empty()) {
            f.corrupts = false;
            f.per_test.assign(suite.size(), runtime::Detection::None);
            poisoned_counter.inc();
            log(LogLevel::Warn, "fleet: fault class " + std::to_string(idx) +
                                    " recorded inert: characterization "
                                    "threw: " +
                                    poisoned[idx]);
        }
        for (runtime::Detection d : f.per_test)
            if (d != runtime::Detection::None)
                ++f.detecting_tests;
    }

    static obs::Counter &classes = obs::counter("fleet.fault_classes");
    classes.add(m.faults.size());
    return m;
}

} // namespace vega::fleet
