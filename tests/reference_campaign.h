/**
 * @file
 * Reference gate-level executor for the campaign and fleet tests.
 *
 * Scalar execution: each fault is spliced into its own standalone
 * failing netlist (lift::build_failing_netlist), mounted as the ISS's
 * unit through the scalar FU protocol and ISS routing of
 * tests/reference_fu.h (one instruction stream), and every run
 * simulates that netlist alone. No fault bank, no per-lane protocol,
 * no shared passes — so its verdicts are an independent oracle for
 * campaign::characterize_wave, campaign::run_wave and everything built
 * on them (try_run_campaign, fleet::build_fault_matrix, the Table 6/7
 * evaluations). The tape interpreter both sides share, BatchSimulator,
 * is checked separately against the pre-tape ReferenceSim
 * (tests/reference_sim.h).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/campaign.h"
#include "fleet/fault_matrix.h"
#include "reference_fu.h"
#include "runtime/aging_library.h"

namespace vega::campaign {

/**
 * Mounts one (typically failing) netlist as the ISS's functional unit
 * and runs aging-library test blocks against it, exactly like the
 * Table 6/7 evaluation: hardware state persists across test blocks,
 * and stalls / wrong results / transaction-tag anomalies surface as
 * runtime::Detection outcomes.
 */
class NetlistEngine : public runtime::Engine
{
  public:
    NetlistEngine(ModuleKind kind, const Netlist &netlist,
                  bool has_random_input = false, uint64_t seed = 1);

    runtime::Detection run(const runtime::TestCase &tc) override;

    /** Gate-level cycles simulated so far. */
    uint64_t cycles() const { return fu_.cycles(); }

  private:
    ReferenceFu fu_;
    uint64_t tags_seen_ = 0;
};

/**
 * Run the representative kernel with @p netlist mounted as the unit,
 * for at most probe_watchdog(kind) instructions, the wave probe's
 * budget. True when the run stalls or the stored checksum deviates —
 * i.e. the fault reaches this workload's data.
 */
bool workload_corrupts(ModuleKind kind, const Netlist &netlist,
                       bool has_random_input = false, uint64_t seed = 1);

/** Job @p id of campaign @p cfg, drawn from its splitmix64 stream. */
JobSpec reference_spec(const CampaignConfig &cfg, size_t npairs,
                       size_t suite_size, uint64_t id);

/**
 * Job @p spec of campaign @p cfg run standalone: its fault's failing
 * netlist, its characterization probe, then the slot loop on a fresh
 * NetlistEngine. A memory module's job classifies its pair's slow
 * decoder gate on its own and runs the slot loop on a fresh
 * mem::MarchEngine. attempts is 1.
 */
JobResult reference_job(const HwModule &module,
                        const std::vector<sta::EndpointPair> &pairs,
                        const std::vector<runtime::TestCase> &suite,
                        const CampaignConfig &cfg, const JobSpec &spec);

/** Every job of @p cfg through reference_job, in id order. */
std::vector<JobResult>
reference_campaign(const HwModule &module,
                   const std::vector<sta::EndpointPair> &pairs,
                   const std::vector<runtime::TestCase> &suite,
                   const CampaignConfig &cfg);

} // namespace vega::campaign

namespace vega::fleet {

/**
 * A functional-unit fault class characterized the scalar way: one
 * failing netlist, a workload probe seeded by the first draw of
 * @p stream_root, then a fresh NetlistEngine per suite test seeded by
 * the following draws. Fills corrupts, detecting_tests and per_test.
 */
FaultClass reference_fault_class(const HwModule &module,
                                 const std::vector<runtime::TestCase> &suite,
                                 const sta::EndpointPair &pair,
                                 lift::FaultConstant constant,
                                 uint64_t stream_root);

} // namespace vega::fleet
