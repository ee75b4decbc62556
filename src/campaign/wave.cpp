#include "campaign/wave.h"

#include <algorithm>
#include <optional>

#include "common/bitvec.h"
#include "common/logging.h"
#include "cpu/batch_backend.h"
#include "cpu/iss.h"
#include "obs/metrics.h"
#include "runtime/aging_library.h"

namespace vega::campaign {

static_assert(kWaveLanes == size_t(cpu::BatchNetlistEngine::kLanes),
              "wave.h lane count must match the batch engine");

const workloads::Kernel &
representative_kernel(ModuleKind kind)
{
    const auto &suite = workloads::embench_suite();
    const char *want = "minver";
    switch (kind) {
      case ModuleKind::Fpu32: want = "minver"; break;
      case ModuleKind::Alu32: want = "crc32"; break;
      case ModuleKind::Mdu32: want = "ud"; break;
      default:
        VEGA_CHECK(false, "not a CPU functional unit");
    }
    for (const auto &k : suite)
        if (k.name == want)
            return k;
    VEGA_CHECK(false, "kernel missing from embench suite");
    return suite.front();
}

namespace {

/** Instructions @p kind's representative kernel retires on the golden ISS. */
uint64_t
golden_length(ModuleKind kind)
{
    const workloads::Kernel &kernel = representative_kernel(kind);
    cpu::Iss iss(kernel.program);
    VEGA_CHECK(iss.run() == cpu::Iss::Status::Halted &&
                   iss.read_u32(workloads::kChecksumAddr) ==
                       kernel.expected_checksum,
               kernel.name, " fails on the golden ISS");
    return iss.instret();
}

} // namespace

uint64_t
probe_watchdog(ModuleKind kind)
{
    uint64_t golden = 0;
    switch (kind) {
      case ModuleKind::Fpu32: {
        static const uint64_t fpu = golden_length(kind);
        golden = fpu;
        break;
      }
      case ModuleKind::Alu32: {
        static const uint64_t alu = golden_length(kind);
        golden = alu;
        break;
      }
      case ModuleKind::Mdu32: {
        static const uint64_t mdu = golden_length(kind);
        golden = mdu;
        break;
      }
      default:
        VEGA_CHECK(false, "not a CPU functional unit");
    }
    return std::min(kWorkloadWatchdog, kProbeLengthFactor * golden);
}

lift::FailureModelSpec
fault_spec(const sta::EndpointPair &pair, lift::FaultConstant c)
{
    lift::FailureModelSpec fm;
    fm.launch = pair.launch;
    fm.capture = pair.capture;
    fm.is_setup = pair.is_setup;
    fm.constant = c;
    return fm;
}

namespace {

/** The bank netlist and its tape, owned together by the tape pointer. */
struct BankTape
{
    explicit BankTape(lift::FaultBank b)
        : bank(std::move(b)), tape(bank.netlist)
    {
    }
    lift::FaultBank bank;
    EvalTape tape;
};

} // namespace

WaveContext
make_wave_context(const HwModule &module,
                  const std::vector<lift::FailureModelSpec> &faults)
{
    auto owner = std::make_shared<const BankTape>(
        lift::build_fault_bank(module.netlist, faults));
    WaveContext ctx;
    ctx.kind = module.kind;
    ctx.tape = std::shared_ptr<const EvalTape>(owner, &owner->tape);
    ctx.fault_random = owner->bank.fault_random;
    return ctx;
}

namespace {

/** The transaction a lane has in flight during commit_round(). */
enum class Pending : uint8_t { None, Idle, Op, Read, Clear };

/**
 * Advance one lane's program until it posts exactly one engine
 * transaction (true) or stops without one (false). Every non-trapping
 * instruction costs the module one clock edge — FU instructions post
 * their own transaction, everything else posts an idle tick after
 * executing architecturally (the tick cannot feed back into ISS state,
 * so executing first is safe). A trapping instruction stops the lane
 * before its edge, hence no post. tests/reference_fu.h replays the
 * same interleaving on a standalone netlist.
 */
bool
advance_program(cpu::Iss &iss, cpu::BatchNetlistEngine &eng, int lane,
                ModuleKind kind, Pending &pending)
{
    while (iss.running()) {
        cpu::FuIssue issue = iss.peek_fu_issue(kind);
        switch (issue.kind) {
          case cpu::FuIssue::Kind::None:
            iss.step_one();
            if (!iss.running() &&
                iss.stop_status() == cpu::Iss::Status::Trap)
                return false;
            eng.post_idle(lane);
            pending = Pending::Idle;
            return true;
          case cpu::FuIssue::Kind::Op:
            eng.post_op(lane, issue.op, issue.a, issue.b);
            pending = Pending::Op;
            return true;
          case cpu::FuIssue::Kind::ReadFflags:
            eng.post_read_fflags(lane);
            pending = Pending::Read;
            return true;
          case cpu::FuIssue::Kind::ClearFflags:
            eng.post_clear_fflags(lane);
            pending = Pending::Clear;
            return true;
        }
    }
    return false;
}

/** Complete a lane's pending transaction after commit_round(). */
void
inject(cpu::Iss &iss, cpu::BatchNetlistEngine &eng, int lane,
       Pending &pending)
{
    switch (pending) {
      case Pending::None:
      case Pending::Idle:
        // Idle instructions already executed in advance_program().
        break;
      case Pending::Op:
      case Pending::Read:
        iss.step_one(&eng.result(lane));
        break;
      case Pending::Clear: {
        // csrw fflags,x0 has no architectural result to consume; the
        // injected value only satisfies the split-transaction protocol.
        cpu::FuResult r{};
        iss.step_one(&r);
        break;
      }
    }
    pending = Pending::None;
}

/**
 * A stopped test run as the aging library sees it. A test that never
 * completes cleanly is a stall-class detection, whether the handshake
 * hung (Stalled), the fault sent execution into a loop the watchdog
 * had to break (Watchdog), or a corrupted address left the
 * architectural envelope (Trap).
 */
runtime::Detection
stop_detection(const cpu::Iss &iss, bool new_tag_mismatch)
{
    if (iss.stop_status() != cpu::Iss::Status::Halted)
        return runtime::Detection::Stall;
    if (iss.reg(31) != 0)
        return runtime::Detection::Mismatch;
    if (new_tag_mismatch)
        return runtime::Detection::TagAnomaly;
    return runtime::Detection::None;
}

/** Start a wave: check its width and record how many lanes it fills. */
void
check_wave(const WaveContext &ctx, size_t lanes)
{
    VEGA_CHECK(ctx.tape, "wave context incomplete");
    VEGA_CHECK(lanes <= kWaveLanes, "wave exceeds lane count");
    // The top bucket counts full waves only.
    static obs::Histogram &lanes_used = obs::histogram(
        "campaign.wave_lanes_used", {1, 2, 4, 8, 16, 32, 63, 64});
    lanes_used.observe(double(lanes));
}

/** Enable lane @p lane's fault and seed its fm_rand stream. */
void
bind_lane_fault(const WaveContext &ctx, cpu::BatchNetlistEngine &eng,
                int lane, size_t bank_index, uint64_t seed)
{
    VEGA_CHECK(bank_index < ctx.fault_random.size(),
               "bank index out of range");
    BitVec en(ctx.fault_random.size());
    en.set(bank_index, true);
    eng.set_lane_bus("fm_en", lane, en);
    eng.configure_lane_random(lane, ctx.fault_random[bank_index] != 0,
                              seed);
}

} // namespace

std::vector<EpisodeResult>
characterize_wave(const WaveContext &ctx,
                  const std::vector<Episode> &episodes)
{
    check_wave(ctx, episodes.size());
    cpu::BatchNetlistEngine eng(ctx.kind, ctx.tape);

    const size_t n = episodes.size();
    std::vector<EpisodeResult> results(n);
    std::vector<std::unique_ptr<cpu::Iss>> iss(n);
    std::vector<Pending> pending(n, Pending::None);
    for (size_t i = 0; i < n; ++i) {
        const Episode &ep = episodes[i];
        bind_lane_fault(ctx, eng, int(i), ep.bank_index, ep.seed);
        cpu::IssConfig cfg;
        cfg.max_instructions = ep.watchdog;
        iss[i] = std::make_unique<cpu::Iss>(*ep.program, cfg);
    }

    while (true) {
        for (size_t i = 0; i < n; ++i) {
            if (!iss[i])
                continue;
            if (!advance_program(*iss[i], eng, int(i), ctx.kind,
                                 pending[i])) {
                // Every lane starts from reset, so any dbg-tag
                // mismatch at all is this episode's own.
                results[i].detection =
                    stop_detection(*iss[i], eng.tag_mismatches(int(i)) > 0);
                results[i].checksum =
                    iss[i]->read_u32(workloads::kChecksumAddr);
                iss[i].reset();
            }
        }
        if (!eng.has_posts())
            break;
        eng.commit_round();
        for (size_t i = 0; i < n; ++i)
            if (iss[i] && pending[i] != Pending::None)
                inject(*iss[i], eng, int(i), pending[i]);
    }
    return results;
}

Episode
probe_episode(ModuleKind kind, size_t bank_index, uint64_t seed)
{
    return {bank_index, seed, &representative_kernel(kind).program,
            probe_watchdog(kind)};
}

bool
probe_corrupts(ModuleKind kind, const EpisodeResult &result)
{
    return result.detection == runtime::Detection::Stall ||
           result.checksum != representative_kernel(kind).expected_checksum;
}

namespace {

/** One injection episode's private state within a wave. */
struct Lane
{
    const WaveJob *job = nullptr;
    std::optional<runtime::AgingLibrary> lib;
    std::unique_ptr<cpu::Iss> iss;
    uint64_t next_slot = 0; ///< next scheduler slot to claim
    uint64_t cur_slot = 0;  ///< slot of the test in flight
    size_t cur_test = 0;    ///< suite index of the test in flight
    uint64_t tags_seen = 0; ///< dbg-tag mismatches acknowledged so far
    Pending pending = Pending::None;
    bool done = false;
    JobResult res;
};

/** Claim scheduler slots until a test dispatches; false = budget out. */
bool
start_test(const WaveContext &ctx, Lane &ln)
{
    while (ln.next_slot < ln.job->spec.max_slots) {
        uint64_t slot = ln.next_slot++;
        auto idx = ln.lib->schedule_next();
        if (!idx)
            continue;
        ln.cur_slot = slot;
        ln.cur_test = *idx;
        cpu::IssConfig cfg;
        cfg.max_instructions = kTestWatchdog;
        ln.iss = std::make_unique<cpu::Iss>((*ctx.suite)[*idx].program,
                                            cfg);
        return true;
    }
    return false;
}

void
finish_lane(Lane &ln, const cpu::BatchNetlistEngine &eng, int li)
{
    ln.res.tests_dispatched = ln.lib->runs();
    ln.res.sim_cycles = eng.cycles(li);
    ln.done = true;
}

/**
 * Drive lane @p li until it posts a transaction or its job completes:
 * claim slots, run the dispatched test, map its stop to a detection
 * and stop at the first one or when the slot budget runs out.
 */
void
advance_lane(const WaveContext &ctx, cpu::BatchNetlistEngine &eng, int li,
             Lane &ln)
{
    for (;;) {
        if (!ln.iss) {
            if (start_test(ctx, ln))
                continue;
            finish_lane(ln, eng, li);
            return;
        }
        if (ln.iss->running()) {
            if (advance_program(*ln.iss, eng, li, ctx.kind, ln.pending))
                return;
            // Stopped without posting (trap, or watchdog checked before
            // the step): fall through to the end-of-test mapping.
        }
        runtime::Detection det =
            stop_detection(*ln.iss, eng.tag_mismatches(li) > ln.tags_seen);
        ln.tags_seen = eng.tag_mismatches(li);
        ln.lib->record_result(ln.cur_test, det);
        ln.iss.reset();
        if (det != runtime::Detection::None) {
            ln.res.detected = true;
            ln.res.kind = det;
            ln.res.slots_to_detect = ln.cur_slot + 1;
            finish_lane(ln, eng, li);
            return;
        }
    }
}

} // namespace

std::vector<JobResult>
run_wave(const WaveContext &ctx, const std::vector<WaveJob> &jobs)
{
    check_wave(ctx, jobs.size());
    VEGA_CHECK(ctx.suite && !ctx.suite->empty(),
               "wave needs a non-empty suite");
    cpu::BatchNetlistEngine eng(ctx.kind, ctx.tape);

    std::vector<Lane> lanes(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        Lane &ln = lanes[i];
        ln.job = &jobs[i];
        const JobSpec &spec = jobs[i].spec;
        ln.res.id = spec.id;
        ln.res.pair_index = spec.pair_index;
        ln.res.constant = spec.constant;
        ln.res.policy = spec.policy;
        bind_lane_fault(ctx, eng, int(i), jobs[i].bank_index, spec.seed);
        runtime::AgingLibraryOptions opt;
        opt.policy = spec.policy;
        opt.probability = spec.probability;
        opt.seed = spec.seed;
        ln.lib.emplace(ctx.suite, opt);
    }

    while (true) {
        for (size_t i = 0; i < lanes.size(); ++i)
            if (!lanes[i].done)
                advance_lane(ctx, eng, int(i), lanes[i]);
        if (!eng.has_posts())
            break;
        eng.commit_round();
        for (size_t i = 0; i < lanes.size(); ++i)
            if (!lanes[i].done && lanes[i].pending != Pending::None)
                inject(*lanes[i].iss, eng, int(i), lanes[i].pending);
    }

    std::vector<JobResult> out;
    out.reserve(lanes.size());
    for (Lane &ln : lanes) {
        VEGA_CHECK(ln.done, "wave lane did not complete");
        out.push_back(ln.res);
    }
    return out;
}

} // namespace vega::campaign
