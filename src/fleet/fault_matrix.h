/**
 * @file
 * Fleet-shared fault characterization: the detectability matrix.
 *
 * A fleet run cannot afford a gate-level netlist simulation per
 * device-epoch (millions of them), and does not need one: every device
 * instance injects a fault drawn from the same small set of lifted
 * failure models and screens it with the same generated suite. The
 * matrix is that product computed once — for each (endpoint pair ×
 * fault constant) class, each suite test's Detection outcome on the
 * failing netlist, plus whether the representative workload's output
 * corrupts — and shared read-only by all devices.
 *
 * Functional-unit classes are spliced into one fault bank compiled to
 * one EvalTape, and every (class × test) screen and per-class workload
 * probe runs as a from-reset lane of a 64-lane wave (campaign/wave.h).
 * Characterization therefore costs one netlist lowering plus one wave
 * per 64 probes and per 64 screens, regardless of fleet size. Memory
 * classes screen on the march engine instead.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "lift/failure_model.h"
#include "rtl/module.h"
#include "runtime/test_case.h"
#include "sta/sta.h"

namespace vega::fleet {

/** One lifted fault class and what the suite sees of it. */
struct FaultClass
{
    size_t pair_index = 0;
    lift::FaultConstant constant = lift::FaultConstant::Zero;
    /** The representative workload's checksum deviates (SDC-capable). */
    bool corrupts = false;
    /** Suite tests that flag this fault. */
    uint64_t detecting_tests = 0;
    /** Per-test outcome on the failing netlist (suite order). */
    std::vector<runtime::Detection> per_test;
};

struct FaultMatrix
{
    ModuleKind module = ModuleKind::Alu32;
    size_t num_pairs = 0;
    size_t num_tests = 0;
    /** pair-major: faults[pair * num_constants + constant_index]. */
    std::vector<FaultClass> faults;
    /** Passing-execution CPU cycles per suite test (overhead cost). */
    std::vector<uint64_t> test_cycles;
    uint64_t suite_cycles = 0;

    double mean_test_cycles() const
    {
        return num_tests ? double(suite_cycles) / double(num_tests)
                         : 0.0;
    }
    /** Fault classes at least one test flags. */
    size_t detectable_classes() const;
    /** Fault classes whose workload corrupts (the SDC-capable set). */
    size_t corrupting_classes() const;
};

/**
 * Characterize every (pair × constant) fault class of @p module against
 * @p suite, fanning out over @p threads workers. Deterministic: results
 * are keyed by fault index and every lane seed derives from @p seed.
 * Empty pairs/suite/constants come back as InvalidArgument. A class
 * whose characterization throws is recorded inert (per_test all None,
 * non-corrupting), counted in `fleet.classes_poisoned` and logged as a
 * warning.
 */
Expected<FaultMatrix>
build_fault_matrix(const HwModule &module,
                   const std::vector<sta::EndpointPair> &pairs,
                   const std::vector<runtime::TestCase> &suite,
                   const std::vector<lift::FaultConstant> &constants,
                   size_t threads, uint64_t seed);

} // namespace vega::fleet
