#include "mem/decoder_lift.h"

#include <algorithm>

#include "common/logging.h"
#include "mem/mem_backend.h"
#include "sim/batch_sim.h"
#include "workloads/march.h"

namespace vega::mem {

lift::FailingNetlist
build_slow_gate_netlist(const Netlist &nl, CellId gate)
{
    VEGA_CHECK(gate < nl.num_cells(), "slow-gate: cell ", gate,
               " out of range");
    lift::FailingNetlist out;
    out.netlist = nl;
    Netlist &n = out.netlist;
    VEGA_CHECK(n.cell(gate).type != CellType::Dff,
               "slow-gate fault targets a combinational cell");

    NetId o = n.cell(gate).out;
    NetId o_del = n.new_net(n.net(o).name + "$slow");
    // Move every reader of the gate's output behind the delay element;
    // the spliced DFF itself (added after the rewrite) keeps reading
    // the live output.
    for (CellId i = 0; i < CellId(n.num_cells()); ++i) {
        Cell &rc = n.cell_mut(i);
        for (int k = 0; k < rc.num_inputs(); ++k)
            if (rc.in[size_t(k)] == o)
                rc.in[size_t(k)] = o_del;
    }
    n.add_dff("slow$" + n.cell(gate).name, o, o_del, false, 0);
    n.validate();
    return out;
}

std::vector<CellId>
decoder_gates_on_path(const Netlist &nl, const sta::TimingPath &path)
{
    std::vector<CellId> gates;
    for (CellId c : path.cells) {
        CellType t = nl.cell(c).type;
        if (t == CellType::Nand2 || t == CellType::Nor2)
            gates.push_back(c);
    }
    return gates;
}

CellId
pick_decoder_gate(const Netlist &nl, const sta::TimingPath &path)
{
    std::vector<CellId> gates = decoder_gates_on_path(nl, path);
    return gates.empty() ? kInvalidId : gates.front();
}

namespace {

/** Anomalies of one kind observed on one wordline bus. */
struct Anomalies
{
    size_t count = 0;
    uint32_t victim = 0;    ///< from the lowest triggering pattern
    uint32_t aggressor = 0;
    bool seen = false;
};

void
note(Anomalies &a, uint32_t victim, uint32_t aggressor)
{
    ++a.count;
    if (!a.seen) {
        a.seen = true;
        a.victim = victim;
        a.aggressor = aggressor;
    }
}

/** Drive @p addr for @p cycles on both simulators (we=0, din=0). */
void
settle(BatchSimulator &sim, size_t addr_bits, uint32_t addr, int cycles)
{
    sim.set_bus_all("addr", BitVec(addr_bits, addr));
    sim.set_bus_all("we", BitVec(1, 0));
    for (int i = 0; i < cycles; ++i)
        sim.step();
}

} // namespace

MemFaultClass
classify_slow_gate(const Netlist &healthy, CellId gate)
{
    VEGA_CHECK(healthy.has_bus("rwl") && healthy.has_bus("wwl"),
               "classify_slow_gate needs a decoder substrate "
               "(rwl/wwl wordline buses)");
    uint32_t rows = uint32_t(healthy.bus("rwl").size());
    size_t addr_bits = healthy.bus("addr").size();

    lift::FailingNetlist faulty = build_slow_gate_netlist(healthy, gate);
    BatchSimulator golden(healthy);
    BatchSimulator bad(faulty.netlist);

    MemFaultClass cls;
    cls.rows = rows;

    // Per kind, split by which decode stage (bus) shows the anomaly.
    Anomalies wrong[2], multi[2], nosel[2]; // [0]=rwl/read, [1]=wwl/write
    const char *kBuses[2] = {"rwl", "wwl"};

    for (uint32_t prev = 0; prev < rows; ++prev) {
        for (uint32_t cur = 0; cur < rows; ++cur) {
            if (prev == cur)
                continue; // no transition, a slow gate cannot show
            golden.reset();
            bad.reset();
            // Hold prev until everything (including the spliced delay
            // DFF) reflects it, then present cur; the registered
            // wordlines show cur's decode two edges later — with the
            // slow gate still computing from prev for one cycle.
            settle(golden, addr_bits, prev, 4);
            settle(bad, addr_bits, prev, 4);
            settle(golden, addr_bits, cur, 2);
            settle(bad, addr_bits, cur, 2);
            for (int bi = 0; bi < 2; ++bi) {
                BitVec g = golden.bus_value(kBuses[bi], 0);
                BitVec f = bad.bus_value(kBuses[bi], 0);
                if (f == g)
                    continue;
                size_t pop = f.popcount();
                if (pop == 0) {
                    note(nosel[bi], cur, cur);
                } else if (pop == 1 && !f.get(cur)) {
                    uint32_t w = 0;
                    while (!f.get(w))
                        ++w;
                    note(wrong[bi], w, cur);
                } else {
                    // cur plus stragglers (or a multi-bit glitch):
                    // at least one extra row is selected.
                    uint32_t w = 0;
                    while (w < rows && (!f.get(w) || w == cur))
                        ++w;
                    if (w < rows)
                        note(multi[bi], w, cur);
                }
            }
        }
    }

    // Severity priority: a redirected access (silent wrong data in one
    // row) outranks a doubled access outranks a starved one.
    const Anomalies *chosen = nullptr;
    if (wrong[0].seen || wrong[1].seen) {
        chosen = wrong[0].seen ? &wrong[0] : &wrong[1];
        cls.kind = wrong[0].seen ? MemFaultKind::WrongRowRead
                                 : MemFaultKind::WrongRowWrite;
        cls.affects_read = wrong[0].seen;
        cls.affects_write = wrong[1].seen;
    } else if (multi[0].seen || multi[1].seen) {
        chosen = multi[0].seen ? &multi[0] : &multi[1];
        cls.kind = MemFaultKind::MultiSelect;
        cls.affects_read = multi[0].seen;
        cls.affects_write = multi[1].seen;
    } else if (nosel[0].seen || nosel[1].seen) {
        chosen = nosel[0].seen ? &nosel[0] : &nosel[1];
        cls.kind = MemFaultKind::NoSelect;
        cls.affects_read = nosel[0].seen;
        cls.affects_write = nosel[1].seen;
    }
    if (chosen) {
        cls.victim = chosen->victim;
        cls.aggressor = chosen->aggressor;
        for (int bi = 0; bi < 2; ++bi)
            cls.patterns += wrong[bi].count + multi[bi].count +
                            nosel[bi].count;
    }
    return cls;
}

namespace {

/** Random-rung shape: tests in the rung, ops per test, and the seed
 *  of the first test (test i draws from kRandomSeed + i). */
constexpr size_t kRandomTests = 4;
constexpr size_t kRandomOps = 24;
constexpr uint64_t kRandomSeed = 1;

/** The escalation-ladder candidate pool, rung order. Returns the index
 *  where each rung starts (random, mats+, march_c-). */
std::vector<runtime::TestCase>
build_candidates(size_t rung_start[3])
{
    std::vector<runtime::TestCase> pool;
    rung_start[0] = 0;
    for (size_t i = 0; i < kRandomTests; ++i)
        pool.push_back(workloads::make_random_march_test(
            runtime::kMemTestRows, kRandomOps, kRandomSeed + i));
    rung_start[1] = pool.size();
    pool.push_back(workloads::make_march_test(workloads::mats_plus(),
                                              runtime::kMemTestRows));
    rung_start[2] = pool.size();
    pool.push_back(workloads::make_march_test(workloads::march_cminus(),
                                              runtime::kMemTestRows));
    return pool;
}

} // namespace

MemLiftResult
run_decoder_lifting(const HwModule &module,
                    const std::vector<sta::EndpointPair> &pairs,
                    const MemLiftConfig &config)
{
    VEGA_CHECK(is_mem_module(module.kind),
               "decoder lifting targets memory substrates, got ",
               module_kind_name(module.kind));
    MemLiftResult result;
    size_t rung_start[3] = {0, 0, 0};
    result.candidates = build_candidates(rung_start);

    size_t limit = std::min(config.max_pairs, pairs.size());
    for (size_t pi = 0; pi < limit; ++pi) {
        MemPairResult pr;
        pr.pair = pairs[pi];
        pr.gate = pick_decoder_gate(module.netlist, pairs[pi].worst);
        if (pr.gate == kInvalidId) {
            // Pure datapath path: a slow gate there corrupts values,
            // not addresses — out of scope for this pass.
            pr.status = lift::PairStatus::Unreachable;
            result.pairs.push_back(std::move(pr));
            continue;
        }
        pr.cls = classify_slow_gate(module.netlist, pr.gate);
        if (pr.cls.kind == MemFaultKind::None) {
            pr.status = lift::PairStatus::Unreachable;
            result.pairs.push_back(std::move(pr));
            continue;
        }
        // Escalate: run every candidate (they are ISS-cheap) but report
        // the first rung that fires, mirroring the fuzz -> formal
        // ladder of the datapath flow.
        for (size_t t = 0; t < result.candidates.size(); ++t) {
            MarchEngine engine(pr.cls);
            if (engine.run(result.candidates[t]) !=
                runtime::Detection::None)
                pr.detected_by.push_back(t);
        }
        if (pr.detected_by.empty()) {
            pr.status = lift::PairStatus::ConversionFailed;
        } else {
            pr.status = lift::PairStatus::Success;
            size_t first = pr.detected_by.front();
            pr.escalation = first < rung_start[1]   ? "random"
                            : first < rung_start[2] ? "mats+"
                                                    : "march_c-";
        }
        result.pairs.push_back(std::move(pr));
    }

    for (const MemPairResult &pr : result.pairs) {
        if (pr.status == lift::PairStatus::Success)
            ++result.n_success;
        else if (pr.status == lift::PairStatus::Unreachable)
            ++result.n_unreachable;
        else
            ++result.n_conversion_failed;
    }

    // Greedy set cover: the smallest (then cheapest) candidate subset
    // that detects every Success pair's fault.
    std::vector<char> covered(result.pairs.size(), 0);
    size_t uncovered = result.n_success;
    std::vector<char> in_suite(result.candidates.size(), 0);
    while (uncovered > 0) {
        size_t best = SIZE_MAX, best_gain = 0;
        for (size_t t = 0; t < result.candidates.size(); ++t) {
            if (in_suite[t])
                continue;
            size_t gain = 0;
            for (size_t p = 0; p < result.pairs.size(); ++p) {
                if (covered[p] ||
                    result.pairs[p].status != lift::PairStatus::Success)
                    continue;
                const auto &db = result.pairs[p].detected_by;
                if (std::find(db.begin(), db.end(), t) != db.end())
                    ++gain;
            }
            bool better =
                gain > best_gain ||
                (gain == best_gain && gain > 0 && best != SIZE_MAX &&
                 result.candidates[t].cycle_cost <
                     result.candidates[best].cycle_cost);
            if (better) {
                best = t;
                best_gain = gain;
            }
        }
        if (best == SIZE_MAX || best_gain == 0)
            break; // nothing left that helps (shouldn't happen)
        in_suite[best] = 1;
        for (size_t p = 0; p < result.pairs.size(); ++p) {
            if (covered[p] ||
                result.pairs[p].status != lift::PairStatus::Success)
                continue;
            const auto &db = result.pairs[p].detected_by;
            if (std::find(db.begin(), db.end(), best) != db.end()) {
                covered[p] = 1;
                --uncovered;
            }
        }
    }
    for (size_t t = 0; t < result.candidates.size(); ++t)
        if (in_suite[t])
            result.suite.push_back(result.candidates[t]);
    return result;
}

} // namespace vega::mem
