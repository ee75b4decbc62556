#include "lift/error_lifting.h"

#include "common/logging.h"
#include "formal/cover_batch.h"
#include "lift/fuzz_lifting.h"
#include "obs/metrics.h"
#include "sim/batch_sim.h"

namespace vega::lift {

const char *
pair_status_name(PairStatus s)
{
    switch (s) {
      case PairStatus::Success:          return "S";
      case PairStatus::Unreachable:      return "UR";
      case PairStatus::Timeout:          return "FF";
      case PairStatus::ConversionFailed: return "FC";
    }
    return "?";
}

std::vector<runtime::TestCase>
LiftResult::suite() const
{
    std::vector<runtime::TestCase> out;
    for (const PairResult &p : pairs)
        for (const runtime::TestCase &t : p.tests)
            out.push_back(t);
    return out;
}

uint64_t
LiftResult::suite_cycles() const
{
    uint64_t total = 0;
    for (const PairResult &p : pairs)
        for (const runtime::TestCase &t : p.tests)
            total += t.cycle_cost;
    return total;
}

runtime::Detection
replay_on_module(const runtime::TestCase &tc, const Netlist &netlist)
{
    BatchSimulator sim(netlist);
    const bool is_fpu = tc.module == ModuleKind::Fpu32;
    const size_t op_width = netlist.bus("op").size();

    size_t n = tc.stimulus.size();
    std::vector<uint32_t> r_out(n, 0);
    std::vector<bool> valid_out(n, false), ack_out(n, false);
    bool tag_anomaly = false;

    for (size_t t = 0; t < n + 2; ++t) {
        if (t < n) {
            const runtime::ModuleStep &s = tc.stimulus[t];
            sim.set_bus_all("a", BitVec(32, s.a));
            sim.set_bus_all("b", BitVec(32, s.b));
            sim.set_bus_all("op", BitVec(op_width, s.op));
            if (is_fpu) {
                sim.set_bus_all("valid", BitVec(1, s.valid ? 1 : 0));
                sim.set_bus_all("clear", BitVec(1, s.clear ? 1 : 0));
            }
        } else if (is_fpu) {
            sim.set_bus_all("valid", BitVec(1, 0));
            sim.set_bus_all("clear", BitVec(1, 0));
        }
        if (t >= 2) {
            size_t k = t - 2;
            r_out[k] = uint32_t(sim.bus_value("r", 0).to_u64());
            if (is_fpu) {
                valid_out[k] = sim.bus_value("valid_out", 0).to_u64() != 0;
                ack_out[k] = sim.bus_value("ack", 0).to_u64() != 0;
            }
        }
        if (is_fpu) {
            // The transaction tag is checked continuously by the core:
            // dbg_out after t edges shows the parity of ops issued at
            // cycles <= t-3.
            size_t ops_visible = 0;
            for (size_t k = 0; k + 3 <= t && k < n; ++k)
                if (tc.stimulus[k].valid)
                    ++ops_visible;
            bool dbg = sim.bus_value("dbg_out", 0).to_u64() != 0;
            if (dbg != (ops_visible % 2 == 1))
                tag_anomaly = true;
        }
        sim.step();
    }

    // A parked handshake is a stall the software watchdog catches.
    if (is_fpu) {
        for (size_t k = 0; k < n; ++k)
            if (tc.stimulus[k].valid && !(valid_out[k] && ack_out[k]))
                return runtime::Detection::Stall;
    }

    for (const runtime::ResultCheck &c : tc.checks)
        if (r_out[c.step] != c.expected)
            return runtime::Detection::Mismatch;

    if (is_fpu) {
        if (tc.check_final_flags) {
            uint8_t flags = uint8_t(sim.bus_value("flags", 0).to_u64());
            if (flags != tc.expected_flags)
                return runtime::Detection::Mismatch;
        }
        // Transaction tag: settled state must show the parity of all
        // accepted ops, and no transient disagreement may have occurred.
        size_t n_ops = 0;
        for (const auto &s : tc.stimulus)
            if (s.valid)
                ++n_ops;
        bool dbg = sim.bus_value("dbg_out", 0).to_u64() != 0;
        if (tag_anomaly || dbg != (n_ops % 2 == 1))
            return runtime::Detection::TagAnomaly;
    }
    return runtime::Detection::None;
}

namespace {

/** Episode budget of the fuzz fallback (the ladder's last rung). */
constexpr size_t kFuzzEpisodes = 1500;

/**
 * Endpoint pairs per formal::CoverBatch suite: all fault configurations
 * of this many pairs are solved as one batch against a multi-cone
 * shadow bank, so the shared module logic is unrolled once per frame
 * for the whole batch.
 */
constexpr size_t kBatchPairs = 8;

std::vector<std::pair<std::string, FailureModelSpec>>
make_configs(const sta::EndpointPair &pair, bool mitigation)
{
    std::vector<std::pair<std::string, FailureModelSpec>> out;
    FailureModelSpec base;
    base.launch = pair.launch;
    base.capture = pair.capture;
    base.is_setup = pair.is_setup;
    for (FaultConstant c : {FaultConstant::Zero, FaultConstant::One}) {
        if (!mitigation) {
            FailureModelSpec s = base;
            s.constant = c;
            s.mitigation = Mitigation::None;
            out.emplace_back(fault_constant_name(c), s);
        } else {
            for (Mitigation m :
                 {Mitigation::RisingEdge, Mitigation::FallingEdge}) {
                FailureModelSpec s = base;
                s.constant = c;
                s.mitigation = m;
                out.emplace_back(std::string(fault_constant_name(c)) + "," +
                                     mitigation_name(m),
                                 s);
            }
        }
    }
    return out;
}

/** Per-pair Table-4 rollup flags, filled config by config. */
struct PairFlags
{
    bool any_success = false;
    bool any_timeout = false;
    bool any_fc = false;
};

/**
 * Conversion + validation tail: lower a Covered trace to a software
 * test case, validate it against the matching failing netlist, and
 * record the ConfigOutcome.
 */
void
finalize_config(const HwModule &module, size_t pi, const std::string &name,
                const FailureModelSpec &spec, formal::BmcResult &&bmc,
                ConfigOutcome &&co, PairResult &pr, PairFlags &flags)
{
    co.bmc = bmc.status;
    co.proven_by_induction = bmc.proven_by_induction;
    co.frames = bmc.frames;
    co.conflicts = bmc.conflicts;

    if (bmc.status == formal::BmcStatus::Covered) {
        ConversionResult conv =
            build_test_case(module.kind, bmc.trace, int(pi), name);
        co.converted = conv.ok;
        co.failure_reason = conv.reason;
        if (conv.ok) {
            // Validate against the matching failing netlist: can this
            // block observe the modeled fault at all?
            FailingNetlist failing =
                build_failing_netlist(module.netlist, spec);
            runtime::Detection det =
                replay_on_module(conv.test, failing.netlist);
            co.validated = det != runtime::Detection::None;
            if (co.validated) {
                pr.tests.push_back(std::move(conv.test));
                flags.any_success = true;
            } else {
                co.failure_reason =
                    "no observable output distinguishes the fault";
                flags.any_fc = true;
            }
        } else {
            flags.any_fc = true;
        }
    } else if (bmc.status == formal::BmcStatus::Timeout) {
        flags.any_timeout = true;
    }
    pr.configs.push_back(std::move(co));
}

/** Fold one finished pair into the Table-4 aggregates. */
void
finish_pair(PairResult &&pr, const PairFlags &flags, LiftResult &result)
{
    if (flags.any_success)
        pr.status = PairStatus::Success;
    else if (flags.any_fc)
        pr.status = PairStatus::ConversionFailed;
    else if (flags.any_timeout)
        pr.status = PairStatus::Timeout;
    else
        pr.status = PairStatus::Unreachable;

    switch (pr.status) {
      case PairStatus::Success: ++result.n_success; break;
      case PairStatus::Unreachable: ++result.n_unreachable; break;
      case PairStatus::Timeout: ++result.n_timeout; break;
      case PairStatus::ConversionFailed:
        ++result.n_conversion_failed;
        break;
    }
    result.pairs.push_back(std::move(pr));
}

/** The Timeout-triggered fuzz fallback + Exhausted bookkeeping (the
 *  last rungs of the degradation ladder). */
void
apply_degradation(const LiftConfig &config,
                  const ShadowInstrumentation &shadow, ModuleKind kind,
                  size_t pi, int attempts, uint64_t total_conflicts,
                  formal::BmcResult &bmc, ConfigOutcome &co)
{
    if (bmc.status == formal::BmcStatus::Timeout &&
        config.degrade_to_fuzz) {
        // Last rung of the ladder: trade proof power for a cheap
        // chance at a concrete trace.
        FuzzConfig fcfg;
        fcfg.max_episodes = kFuzzEpisodes;
        fcfg.seed = 1234 + pi;
        FuzzResult fz = fuzz_cover(shadow, kind, fcfg);
        if (fz.found) {
            bmc.status = formal::BmcStatus::Covered;
            bmc.trace = std::move(fz.trace);
            bmc.frames = int(bmc.trace.num_cycles());
            co.degraded_to_fuzz = true;
        }
    }
    if (bmc.status == formal::BmcStatus::Timeout) {
        co.exhausted = true;
        co.error = make_error(
            ErrorCode::Exhausted,
            "formal engine timed out after " + std::to_string(attempts) +
                " attempt(s), " + std::to_string(total_conflicts) +
                " conflicts" +
                (config.degrade_to_fuzz
                     ? ", and the fuzz fallback found no trace"
                     : ""));
    }
}

} // namespace

/**
 * Every fault configuration of a pair-batch becomes one target of a
 * formal::CoverBatch over a shared shadow bank, so the module is unrolled
 * once per frame for the whole batch and the escalation ladder resumes
 * only the starved targets. Witnesses are re-derived on each config's
 * own shadow instrumentation, so per-config results do not depend on
 * how the configs were batched.
 */
LiftResult
run_error_lifting(const HwModule &module,
                  const std::vector<sta::EndpointPair> &pairs,
                  const LiftConfig &config)
{
    LiftResult result;
    size_t limit = std::min(pairs.size(), config.max_pairs);

    for (size_t chunk = 0; chunk < limit; chunk += kBatchPairs) {
        size_t chunk_end = std::min(limit, chunk + kBatchPairs);

        /** One fault configuration of the chunk; its index is its
         *  CoverBatch target index. */
        struct Entry
        {
            size_t pi = 0;
            std::string name;
            FailureModelSpec spec;
            ShadowInstrumentation shadow;
            ConfigOutcome co;
            formal::BmcResult bmc;
        };
        struct PairWork
        {
            PairResult pr;
            PairFlags flags;
            bool skipped = false;
            size_t first_entry = 0;
            size_t n_entries = 0;
        };
        std::vector<Entry> entries;
        std::vector<PairWork> work;

        for (size_t pi = chunk; pi < chunk_end; ++pi) {
            const sta::EndpointPair &pair = pairs[pi];
            PairWork pw;
            pw.pr.pair = pair;
            if (pair.launch == kInvalidId) {
                // Primary-input-launched path: the upstream register
                // lives outside this module; not modeled.
                pw.skipped = true;
                work.push_back(std::move(pw));
                continue;
            }
            pw.first_entry = entries.size();
            for (auto &[name, spec] :
                 make_configs(pair, config.mitigation)) {
                Entry e;
                e.pi = pi;
                e.name = name;
                e.spec = spec;
                e.co.spec = spec;
                e.co.name = name;
                e.shadow =
                    build_shadow_instrumentation(module.netlist, spec);
                entries.push_back(std::move(e));
            }
            pw.n_entries = entries.size() - pw.first_entry;
            work.push_back(std::move(pw));
        }

        if (!entries.empty()) {
            std::vector<FailureModelSpec> specs;
            specs.reserve(entries.size());
            for (const Entry &e : entries)
                specs.push_back(e.spec);
            ShadowBank bank = build_shadow_bank(module.netlist, specs);

            formal::BmcOptions opts = config.bmc;
            opts.assumes = build_assumes(bank.netlist, module.kind);
            formal::CoverBatch batch(bank.netlist, opts);
            for (size_t i = 0; i < entries.size(); ++i) {
                Entry &e = entries[i];
                formal::CoverTargetSpec ts;
                ts.target = bank.cones[i].mismatch;
                ts.state_equalities = bank.cones[i].state_pairs;
                ts.witness_netlist = &e.shadow.netlist;
                ts.witness_target = e.shadow.mismatch;
                ts.witness_assumes =
                    build_assumes(e.shadow.netlist, module.kind);
                batch.add_target(std::move(ts));
            }

            // The per-batch escalation ladder: each rung resumes only
            // the still-starved targets with the budget grown, frames
            // and learned clauses intact.
            static obs::Counter &escalations =
                obs::counter("bmc.escalations");
            int max_attempts = std::max(1, config.formal_attempts);
            int64_t budget = opts.conflict_budget;
            std::vector<uint64_t> total_conflicts(entries.size(), 0);
            std::vector<int> attempts(entries.size(), 0);
            for (int attempt = 1;; ++attempt) {
                batch.run(budget);
                for (int i = 0; i < batch.num_targets(); ++i) {
                    total_conflicts[i] += batch.result(i).conflicts;
                    if (attempts[i] == 0 && batch.settled(i))
                        attempts[i] = attempt;
                }
                if (attempt >= max_attempts || batch.all_settled())
                    break;
                escalations.inc();
                budget = int64_t(double(budget) *
                                 config.formal_budget_growth);
            }
            for (int i = 0; i < batch.num_targets(); ++i) {
                Entry &e = entries[i];
                e.bmc = batch.result(i);
                e.bmc.conflicts = total_conflicts[i];
                e.co.attempts =
                    attempts[i] ? attempts[i] : max_attempts;
                apply_degradation(config, e.shadow, module.kind, e.pi,
                                  e.co.attempts, total_conflicts[i],
                                  e.bmc, e.co);
            }
        }

        // Emit results in pair order, configs in make_configs order.
        for (PairWork &pw : work) {
            if (pw.skipped) {
                pw.pr.status = PairStatus::Unreachable;
                result.pairs.push_back(std::move(pw.pr));
                ++result.n_unreachable;
                continue;
            }
            for (size_t i = pw.first_entry;
                 i < pw.first_entry + pw.n_entries; ++i) {
                Entry &e = entries[i];
                finalize_config(module, e.pi, e.name, e.spec,
                                std::move(e.bmc), std::move(e.co), pw.pr,
                                pw.flags);
            }
            finish_pair(std::move(pw.pr), pw.flags, result);
        }
    }
    return result;
}

} // namespace vega::lift
