#include "reference_campaign.h"

#include <map>

#include "campaign/wave.h"
#include "common/logging.h"
#include "mem/decoder_lift.h"
#include "mem/mem_backend.h"

namespace vega::campaign {

namespace {

/** The slot loop on one fault's engine (the scalar run_job). */
template <typename FaultEngine>
JobResult
run_job(FaultEngine &engine, const std::vector<runtime::TestCase> &suite,
        const JobSpec &spec, bool corrupts)
{
    JobResult res;
    res.id = spec.id;
    res.pair_index = spec.pair_index;
    res.constant = spec.constant;
    res.policy = spec.policy;

    runtime::AgingLibraryOptions opt;
    opt.policy = spec.policy;
    opt.probability = spec.probability;
    opt.seed = spec.seed;
    runtime::AgingLibrary lib(suite, opt);

    for (uint64_t slot = 0; slot < spec.max_slots; ++slot) {
        runtime::Detection d = lib.run_next(engine);
        if (d != runtime::Detection::None) {
            res.detected = true;
            res.kind = d;
            res.slots_to_detect = slot + 1;
            break;
        }
    }
    res.tests_dispatched = lib.runs();
    res.sim_cycles = engine.cycles();
    res.corrupts_workload = corrupts;
    res.escape = corrupts && !res.detected;
    return res;
}

/**
 * A fault's standalone netlist, or for a memory module its slow-gate
 * class, and its characterization verdict.
 */
struct ReferenceFault
{
    lift::FailingNetlist failing;
    mem::MemFaultClass cls;
    bool corrupts = false;
};

ReferenceFault
reference_fault(const HwModule &module,
                const std::vector<sta::EndpointPair> &pairs,
                const CampaignConfig &cfg, const JobSpec &spec)
{
    ReferenceFault f;
    if (is_mem_module(module.kind)) {
        CellId gate = mem::pick_decoder_gate(
            module.netlist, pairs[spec.pair_index].worst);
        VEGA_CHECK(gate != kInvalidId, "no decode gate on worst path");
        f.cls = mem::classify_slow_gate(module.netlist, gate);
        f.corrupts = mem::mem_workload_corrupts(f.cls);
        return f;
    }
    f.failing = lift::build_failing_netlist(
        module.netlist, fault_spec(pairs[spec.pair_index], spec.constant));
    uint64_t idx = spec.pair_index * kFaultConstants.size() +
                   spec.constant_index;
    f.corrupts = workload_corrupts(module.kind, f.failing.netlist,
                                   f.failing.has_random_input,
                                   job_stream(~cfg.seed, idx));
    return f;
}

JobResult
run_fault(ModuleKind kind, const ReferenceFault &f,
          const std::vector<runtime::TestCase> &suite, const JobSpec &spec)
{
    if (is_mem_module(kind)) {
        mem::MarchEngine engine(f.cls);
        return run_job(engine, suite, spec, f.corrupts);
    }
    NetlistEngine engine(kind, f.failing.netlist, f.failing.has_random_input,
                         spec.seed);
    return run_job(engine, suite, spec, f.corrupts);
}

} // namespace

NetlistEngine::NetlistEngine(ModuleKind kind, const Netlist &netlist,
                             bool has_random_input, uint64_t seed)
    : fu_(kind, netlist, has_random_input, seed)
{
}

runtime::Detection
NetlistEngine::run(const runtime::TestCase &tc)
{
    cpu::IssConfig cfg;
    cfg.max_instructions = kTestWatchdog;
    cpu::Iss iss(tc.program, cfg);
    auto status = run_reference(iss, fu_);

    // A test that never completes cleanly is a stall-class detection,
    // whether the handshake hung (Stalled), the fault sent execution
    // into a loop the watchdog had to break (Watchdog), or a corrupted
    // address left the architectural envelope (Trap).
    runtime::Detection det = runtime::Detection::None;
    if (status != cpu::Iss::Status::Halted)
        det = runtime::Detection::Stall;
    else if (iss.reg(31) != 0)
        det = runtime::Detection::Mismatch;
    else if (fu_.tag_mismatches() > tags_seen_)
        det = runtime::Detection::TagAnomaly;
    tags_seen_ = fu_.tag_mismatches();
    return det;
}

bool
workload_corrupts(ModuleKind kind, const Netlist &netlist,
                  bool has_random_input, uint64_t seed)
{
    ReferenceFu fu(kind, netlist, has_random_input, seed);
    const workloads::Kernel &kernel = representative_kernel(kind);
    cpu::IssConfig cfg;
    cfg.max_instructions = probe_watchdog(kind);
    cpu::Iss iss(kernel.program, cfg);
    if (run_reference(iss, fu) != cpu::Iss::Status::Halted)
        return true;
    return iss.read_u32(workloads::kChecksumAddr) !=
           kernel.expected_checksum;
}

JobSpec
reference_spec(const CampaignConfig &cfg, size_t npairs, size_t suite_size,
               uint64_t id)
{
    JobSpec spec;
    spec.id = id;
    spec.pair_index = size_t(id % npairs);
    uint64_t stream = job_stream(cfg.seed, id);
    spec.constant_index =
        size_t(splitmix64(stream) % kFaultConstants.size());
    spec.constant = kFaultConstants[spec.constant_index];
    spec.policy = kPolicies[splitmix64(stream) % kPolicies.size()];
    spec.probability = cfg.probability;
    spec.seed = splitmix64(stream);
    spec.max_slots = cfg.max_slots ? cfg.max_slots : 2 * suite_size;
    return spec;
}

JobResult
reference_job(const HwModule &module,
              const std::vector<sta::EndpointPair> &pairs,
              const std::vector<runtime::TestCase> &suite,
              const CampaignConfig &cfg, const JobSpec &spec)
{
    return run_fault(module.kind, reference_fault(module, pairs, cfg, spec),
                     suite, spec);
}

std::vector<JobResult>
reference_campaign(const HwModule &module,
                   const std::vector<sta::EndpointPair> &pairs,
                   const std::vector<runtime::TestCase> &suite,
                   const CampaignConfig &cfg)
{
    // Characterize each fault once, as the campaign does.
    size_t npairs = pairs.size();
    std::map<std::pair<size_t, size_t>, ReferenceFault> faults;
    std::vector<JobResult> out;
    for (uint64_t id = 0; id < cfg.num_jobs; ++id) {
        JobSpec spec = reference_spec(cfg, npairs, suite.size(), id);
        auto key = std::make_pair(spec.pair_index, spec.constant_index);
        auto it = faults.find(key);
        if (it == faults.end())
            it = faults
                     .emplace(key,
                              reference_fault(module, pairs, cfg, spec))
                     .first;
        out.push_back(run_fault(module.kind, it->second, suite, spec));
    }
    return out;
}

} // namespace vega::campaign

namespace vega::fleet {

FaultClass
reference_fault_class(const HwModule &module,
                      const std::vector<runtime::TestCase> &suite,
                      const sta::EndpointPair &pair,
                      lift::FaultConstant constant, uint64_t stream_root)
{
    FaultClass out;
    out.constant = constant;
    out.per_test.assign(suite.size(), runtime::Detection::None);
    lift::FailingNetlist failing = lift::build_failing_netlist(
        module.netlist, campaign::fault_spec(pair, constant));
    uint64_t stream = stream_root;
    out.corrupts = campaign::workload_corrupts(
        module.kind, failing.netlist, failing.has_random_input,
        splitmix64(stream));
    for (size_t t = 0; t < suite.size(); ++t) {
        // Fresh engine per test: the matrix models each dispatch as an
        // independent screen.
        campaign::NetlistEngine engine(module.kind, failing.netlist,
                                       failing.has_random_input,
                                       splitmix64(stream));
        runtime::Detection d = engine.run(suite[t]);
        out.per_test[t] = d;
        if (d != runtime::Detection::None)
            ++out.detecting_tests;
    }
    return out;
}

} // namespace vega::fleet
