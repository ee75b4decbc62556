/**
 * @file
 * 64-lane gate-level execution: the only functional-unit executor of
 * campaigns and fleet characterization.
 *
 * A *wave* runs up to 64 independent episodes in lockstep on one
 * BatchSimulator pass over a shared fault-bank tape
 * (lift::build_fault_bank): each lane enables its own fault, seeds its
 * own fm_rand stream, and runs its own scalar ISS through the
 * split-transaction protocol (cpu::FuIssue / Iss::step_one), while
 * cpu::BatchNetlistEngine shares every module clock edge across lanes.
 * characterize_wave() runs from-reset episodes (workload probes, fleet
 * per-test screens); run_wave() runs campaign jobs, each lane's
 * hardware state carried across its tests.
 *
 * Waves also run the Table 6/7 and extension evaluations (bench/quality.h)
 * and the fpu_fault_injection example: there is no other way to run an
 * ISS against a gate-level unit.
 *
 * Semantics contract: per-lane results are bit-identical to one scalar
 * run on the standalone failing netlist, and independent of wave
 * composition — which episodes share a wave, in which lanes. That is
 * what keeps sharded, resumed, and mid-wave-killed campaigns
 * byte-identical to a straight run. The scalar protocol lives on only
 * as the test oracle (tests/reference_fu.h, driven by
 * tests/reference_campaign.h).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "campaign/job.h"
#include "cpu/isa.h"
#include "lift/failure_model.h"
#include "rtl/module.h"
#include "runtime/test_case.h"
#include "sim/eval_tape.h"
#include "sta/sta.h"
#include "workloads/kernels.h"

namespace vega::campaign {

/** Episodes per wave (mirrors cpu::BatchNetlistEngine::kLanes). */
constexpr size_t kWaveLanes = 64;

/**
 * Instruction budgets for gate-level runs. A fault that corrupts loop
 * control flow can turn a terminating kernel into an infinite one, and
 * the ISS default watchdog (100M instructions) is far too generous
 * when every instruction is a gate-level netlist simulation.
 *
 * kWorkloadWatchdog is only the cap of a workload probe's budget: a
 * probe stops at kProbeLengthFactor times its kernel's golden length
 * (probe_watchdog()), and a probe still running there is a hang, which
 * corrupts. Every instruction past that is pure wall-clock on a run
 * already known corrupt: in the census that
 * WaveCampaign.ProbeBoundKeepsEveryVerdict keeps, every faulty ALU
 * probe that halts does so by 1.12x golden. The cap binds for minver
 * (79,495 golden instructions) and ud (80,505); crc32 (35,775) stops
 * at 71,550.
 */
constexpr uint64_t kWorkloadWatchdog = 120000;
constexpr uint64_t kProbeLengthFactor = 2;
constexpr uint64_t kTestWatchdog = 1000000;

/**
 * The kernel whose checksum stands in for "application data" when a
 * fault in @p kind's unit is probed: minver (FP) for the FPU, crc32
 * for the ALU, ud (divide/remainder chains) for the MDU.
 */
const workloads::Kernel &representative_kernel(ModuleKind kind);

/**
 * A workload probe's instruction budget: min(kWorkloadWatchdog,
 * kProbeLengthFactor x the instructions representative_kernel(kind)
 * retires on the golden ISS). Measured once per kind, on first use.
 * probe_episode() and the scalar test oracle both take it from here.
 */
uint64_t probe_watchdog(ModuleKind kind);

/** The failure model of @p pair with constant @p c (no mitigation). */
lift::FailureModelSpec fault_spec(const sta::EndpointPair &pair,
                                  lift::FaultConstant c);

/** Read-only context shared by every wave over one fault bank. */
struct WaveContext
{
    ModuleKind kind = ModuleKind::Alu32;
    /** Compiled fault-bank tape; it keeps the bank netlist alive. */
    std::shared_ptr<const EvalTape> tape;
    /** Per bank position: does the fault read "fm_rand"? */
    std::vector<char> fault_random;
    /** The campaign's runtime suite (run_wave only; never copied). */
    const std::vector<runtime::TestCase> *suite = nullptr;
};

/**
 * Splice @p faults into one bank copy of @p module and compile it:
 * enable bit i of the bank activates faults[i].
 */
WaveContext
make_wave_context(const HwModule &module,
                  const std::vector<lift::FailureModelSpec> &faults);

/** One from-reset lane: @p program on bank fault @p bank_index. */
struct Episode
{
    size_t bank_index = 0;
    /** Seed of the lane's fm_rand stream. */
    uint64_t seed = 0;
    /** Must outlive the wave. */
    const std::vector<cpu::Instr> *program = nullptr;
    /** Instruction budget (probe_watchdog() or kTestWatchdog). */
    uint64_t watchdog = 0;
};

/** How an episode stopped. */
struct EpisodeResult
{
    /** The stop read as a suite test would read it (see run_wave). */
    runtime::Detection detection = runtime::Detection::None;
    /** Word at workloads::kChecksumAddr when the run stopped. */
    uint32_t checksum = 0;
};

/** Run up to 64 episodes; results come back in input order. */
std::vector<EpisodeResult>
characterize_wave(const WaveContext &ctx,
                  const std::vector<Episode> &episodes);

/** The workload probe: @p kind's representative kernel on one fault. */
Episode probe_episode(ModuleKind kind, size_t bank_index, uint64_t seed);

/**
 * A probe episode's verdict: the run did not stop cleanly or its
 * stored checksum deviates — the fault reaches application data.
 */
bool probe_corrupts(ModuleKind kind, const EpisodeResult &result);

/**
 * One lane's work order in an injection wave. It carries no
 * characterization verdict: a wave runs without one, so a campaign can
 * inject while its probe waves are still running.
 */
struct WaveJob
{
    JobSpec spec;
    /** Enable bit of this job's fault in the bank. */
    size_t bank_index = 0;
};

/**
 * Run up to 64 injection jobs in lockstep; JobResults come back in
 * input order. A test that stops uncleanly (handshake hang, watchdog,
 * trap) detects as Stall, else x31 != 0 as Mismatch, else a new dbg
 * tag mismatch as TagAnomaly. Each result's corrupts_workload and
 * escape stay false: the caller sets them from its fault's
 * characterization verdict.
 */
std::vector<JobResult> run_wave(const WaveContext &ctx,
                                const std::vector<WaveJob> &jobs);

} // namespace vega::campaign
