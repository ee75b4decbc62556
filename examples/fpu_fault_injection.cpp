/**
 * @file
 * Silent data corruption, end to end: run the minver kernel on a CPU
 * whose FPU carries an aging fault (a failing netlist from Error
 * Lifting) and watch the checksum silently corrupt — no trap, no log,
 * exactly the failure class the paper targets. Then show Vega's aging
 * library detecting the same fault and raising a catchable exception.
 *
 * Every gate-level run is a lane of a campaign wave over one fault bank
 * (campaign/wave.h): one wave probes every candidate fault on minver,
 * a second runs the suite against the chosen one.
 */
#include <cstdio>

#include "campaign/wave.h"
#include "rtl/fpu32.h"
#include "vega/workflow.h"
#include "workloads/kernels.h"

using namespace vega;

int
main()
{
    std::printf("=== Aging-related SDC demo on fpu32 ===\n\n");

    HwModule fpu = rtl::make_fpu32();
    auto lib = aging::AgingTimingLibrary::build(aging::RdModelParams{});

    // Vega's analysis finds the aging-prone pairs and builds tests.
    WorkflowConfig cfg;
    cfg.aging.max_trace = 4000;
    cfg.lift.max_pairs = 8;
    cfg.lift.bmc.max_frames = 4;
    WorkflowResult wf = run_workflow(fpu, lib, minver_trace(), cfg);
    std::printf("Vega generated %zu FPU tests from the %zu worst "
                "aging-prone pairs.\n\n",
                wf.suite.size(), size_t(8));
    if (wf.suite.empty())
        return 0;

    const workloads::Kernel &minver =
        campaign::representative_kernel(ModuleKind::Fpu32);

    // Age each of those pairs into a real fault (C = 1, then C = 0) and
    // run minver on every one, preferring a fault whose corruption
    // actually reaches this workload's data — many do not, which is
    // exactly why SDCs hide.
    std::vector<lift::FailureModelSpec> candidates;
    for (const auto &pr : wf.lift.pairs)
        for (auto c : {lift::FaultConstant::One, lift::FaultConstant::Zero})
            candidates.push_back(campaign::fault_spec(pr.pair, c));
    campaign::WaveContext ctx = campaign::make_wave_context(fpu, candidates);
    std::vector<campaign::Episode> probes;
    for (size_t i = 0; i < candidates.size(); ++i)
        probes.push_back(campaign::probe_episode(ModuleKind::Fpu32, i, 1));
    std::vector<campaign::EpisodeResult> runs =
        campaign::characterize_wave(ctx, probes);
    size_t aged = 1; // the first pair's C = 0 fault
    bool corrupts_minver = false;
    for (size_t i = 0; i < runs.size() && !corrupts_minver; ++i) {
        if (runs[i].detection != runtime::Detection::Stall &&
            runs[i].checksum != minver.expected_checksum) {
            aged = i;
            corrupts_minver = true;
        }
    }
    if (!corrupts_minver)
        std::printf("(none of the modeled faults perturbs this "
                    "workload's data — one reason SDCs hide)\n");

    // Healthy run, on the golden FPU model: the healthy netlist computes
    // the same checksum.
    {
        cpu::Iss iss(minver.program);
        iss.run();
        std::printf("healthy FPU:  minver checksum %08x (expected "
                    "%08x) -- ok\n",
                    iss.read_u32(workloads::kChecksumAddr),
                    minver.expected_checksum);
    }

    // Aged run: the corruption is silent.
    {
        const campaign::EpisodeResult &run = runs[aged];
        std::printf("aged FPU:     minver checksum %08x (expected %08x) "
                    "-- %s, program %s\n",
                    run.checksum, minver.expected_checksum,
                    run.checksum == minver.expected_checksum ? "ok"
                                                             : "CORRUPTED",
                    run.detection != runtime::Detection::Stall
                        ? "finished normally (silent!)"
                        : "stalled");
    }

    // Vega's library catches it and raises a handleable exception: the
    // suite runs in order on the aged FPU, hardware state carried from
    // test to test, and the library reports the first detection.
    runtime::AgingLibraryOptions opt;
    opt.throw_on_detect = true;
    runtime::AgingLibrary library(wf.suite, opt);
    std::printf("\nrunning the Vega aging library on the aged FPU...\n");
    campaign::WaveJob job;
    job.bank_index = aged;
    job.spec.policy = runtime::SchedulePolicy::Sequential;
    job.spec.max_slots = wf.suite.size();
    ctx.suite = &wf.suite;
    campaign::JobResult res = campaign::run_wave(ctx, {job}).front();
    try {
        if (res.detected)
            library.record_result(res.slots_to_detect - 1, res.kind);
        std::printf("no detection (unexpected for this fault)\n");
    } catch (const runtime::HardwareFaultError &e) {
        std::printf("caught HardwareFaultError: %s\n", e.what());
        std::printf("the application can now fail over before silent "
                    "corruption spreads.\n");
    }
    return 0;
}
