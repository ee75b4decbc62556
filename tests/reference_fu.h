/**
 * @file
 * Reference functional-unit protocol for tests: one standalone
 * (healthy or failing) ALU, MDU or FPU netlist driven one ISS
 * instruction at a time.
 *
 * The scalar protocol every cpu::BatchNetlistEngine lane must
 * reproduce, written independently of the engine: its own input
 * discipline, one-edge result peek, fm_rand draw order and dbg-tag
 * parity check (the WaveCampaign and FleetMatrix tests compare through
 * tests/reference_campaign.h). The engine reads a peek from the output
 * registers' next-state planes; this reference keeps the literal
 * speculative edge (save, tick, read, restore) as the oracle for that
 * shortcut. The tape interpreter both sides share, BatchSimulator, is
 * checked separately against ReferenceSim (tests/reference_sim.h).
 *
 * run_reference() routes one ISS through it, instruction by
 * instruction, over Iss::peek_fu_issue/step_one:
 *  - Op: one tick plus the one-edge peek, then step_one(&r);
 *  - ReadFflags: the peek, step_one(&r), then an idle tick;
 *  - ClearFflags: the clear pulse, then step_one(&r);
 *  - anything else: step_one(), then an idle tick unless it trapped.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "common/logging.h"
#include "common/rng.h"
#include "cpu/iss.h"
#include "rtl/module.h"
#include "sim/batch_sim.h"

namespace vega {

/**
 * One module instance clocked once per ISS instruction. Results are
 * read by saving the pipeline state, advancing one speculative edge
 * past the output registers and restoring, leaving the real timeline
 * untouched. It carries one instruction stream, so it drives every
 * BatchSimulator lane alike and reads lane 0.
 */
class ReferenceFu
{
  public:
    /**
     * @param kind    which functional unit @p netlist implements
     * @param netlist healthy or failing module netlist
     * @param has_random_input true when the failing netlist carries the
     *        "fm_rand" input bus (FaultConstant::RandomInput)
     * @param seed    RNG seed for the fm_rand stream
     */
    ReferenceFu(ModuleKind kind, const Netlist &netlist,
                bool has_random_input = false, uint64_t seed = 1)
        : kind_(kind), sim_(netlist), has_random_input_(has_random_input),
          rng_(seed)
    {
        VEGA_CHECK(kind == ModuleKind::Alu32 || kind == ModuleKind::Fpu32 ||
                       kind == ModuleKind::Mdu32,
                   "reference supports alu32/fpu32/mdu32 modules");
        if (kind_ == ModuleKind::Fpu32) {
            sim_.set_bus_all("valid", BitVec(1, 0));
            sim_.set_bus_all("clear", BitVec(1, 0));
        }
    }

    ModuleKind kind() const { return kind_; }

    cpu::FuResult alu(uint8_t op, uint32_t a, uint32_t b)
    {
        VEGA_CHECK(kind_ == ModuleKind::Alu32, "not an ALU reference");
        sim_.set_bus_all("a", BitVec(32, a));
        sim_.set_bus_all("b", BitVec(32, b));
        sim_.set_bus_all("op", BitVec(4, op));
        tick();
        cpu::FuResult out;
        uint8_t flags;
        bool valid, ack, dbg;
        peek_outputs(out.value, flags, valid, ack, dbg);
        return out;
    }

    cpu::FuResult mdu(uint8_t op, uint32_t a, uint32_t b)
    {
        VEGA_CHECK(kind_ == ModuleKind::Mdu32, "not an MDU reference");
        sim_.set_bus_all("a", BitVec(32, a));
        sim_.set_bus_all("b", BitVec(32, b));
        sim_.set_bus_all("op", BitVec(2, op));
        tick();
        cpu::FuResult out;
        uint8_t flags;
        bool valid, ack, dbg;
        peek_outputs(out.value, flags, valid, ack, dbg);
        return out;
    }

    cpu::FuResult fpu(uint8_t op, uint32_t a, uint32_t b)
    {
        VEGA_CHECK(kind_ == ModuleKind::Fpu32, "not an FPU reference");
        sim_.set_bus_all("a", BitVec(32, a));
        sim_.set_bus_all("b", BitVec(32, b));
        sim_.set_bus_all("op", BitVec(3, op));
        sim_.set_bus_all("valid", BitVec(1, 1));
        sim_.set_bus_all("clear", BitVec(1, 0));
        tick();
        sim_.set_bus_all("valid", BitVec(1, 0));

        cpu::FuResult out;
        uint8_t flags;
        bool valid, ack, dbg;
        peek_outputs(out.value, flags, valid, ack, dbg);
        out.flags = flags;
        out.stalled = !(valid && ack);
        // dbg_out lags the tag toggle by one pipeline stage: at this peek
        // it shows the parity of operations issued strictly before this
        // one.
        if (dbg != expected_tag_)
            ++tag_mismatches_;
        expected_tag_ = !expected_tag_;
        return out;
    }

    /** Read the hardware fflags register (no clock edge). */
    uint8_t read_fflags()
    {
        VEGA_CHECK(kind_ == ModuleKind::Fpu32, "fflags live in the FPU");
        uint32_t r;
        uint8_t flags;
        bool valid, ack, dbg;
        peek_outputs(r, flags, valid, ack, dbg);
        return flags;
    }

    /** Pulse the flags-clear input (csrw fflags, x0). */
    void clear_fflags()
    {
        sim_.set_bus_all("clear", BitVec(1, 1));
        sim_.set_bus_all("valid", BitVec(1, 0));
        tick();
        sim_.set_bus_all("clear", BitVec(1, 0));
    }

    /** One cycle with no operation issued to this unit. */
    void idle()
    {
        if (kind_ == ModuleKind::Fpu32) {
            sim_.set_bus_all("valid", BitVec(1, 0));
            sim_.set_bus_all("clear", BitVec(1, 0));
        }
        tick();
    }

    /** dbg_out disagreed with the predicted transaction parity. */
    uint64_t tag_mismatches() const { return tag_mismatches_; }
    /** Module clock cycles consumed so far (speculative included). */
    uint64_t cycles() const { return sim_.cycle(); }

  private:
    /** Advance one real cycle with current inputs; handle fm_rand. */
    void tick()
    {
        if (has_random_input_)
            sim_.set_bus_all("fm_rand", BitVec(1, rng_.next() & 1));
        sim_.step();
    }

    /** Read outputs as of "two cycles after the op entered". */
    void peek_outputs(uint32_t &r, uint8_t &flags, bool &valid, bool &ack,
                      bool &dbg)
    {
        // One speculative edge commits the in-flight op's outputs without
        // disturbing the real timeline (the inputs are don't-cares for
        // the already-captured stage-1 state).
        std::vector<uint64_t> saved = sim_.save_state();
        Rng saved_rng = rng_;
        tick();
        r = uint32_t(sim_.bus_value("r", 0).to_u64());
        if (kind_ == ModuleKind::Fpu32) {
            flags = uint8_t(sim_.bus_value("flags", 0).to_u64());
            valid = sim_.bus_value("valid_out", 0).to_u64() != 0;
            ack = sim_.bus_value("ack", 0).to_u64() != 0;
            dbg = sim_.bus_value("dbg_out", 0).to_u64() != 0;
        } else {
            flags = 0;
            valid = true;
            ack = true;
            dbg = false;
        }
        sim_.restore_state(saved);
        rng_ = saved_rng;
    }

    ModuleKind kind_;
    BatchSimulator sim_;
    bool has_random_input_;
    Rng rng_;
    bool expected_tag_ = false; ///< predicted dbg parity
    uint64_t tag_mismatches_ = 0;
};

/** Run @p iss to its stop with @p fu as its one gate-level unit. */
inline cpu::Iss::Status
run_reference(cpu::Iss &iss, ReferenceFu &fu)
{
    while (iss.running()) {
        cpu::FuIssue issue = iss.peek_fu_issue(fu.kind());
        cpu::FuResult r;
        switch (issue.kind) {
          case cpu::FuIssue::Kind::Op:
            r = fu.kind() == ModuleKind::Alu32
                    ? fu.alu(issue.op, issue.a, issue.b)
                : fu.kind() == ModuleKind::Mdu32
                    ? fu.mdu(issue.op, issue.a, issue.b)
                    : fu.fpu(issue.op, issue.a, issue.b);
            iss.step_one(&r);
            break;
          case cpu::FuIssue::Kind::ReadFflags:
            r.flags = fu.read_fflags();
            iss.step_one(&r);
            fu.idle();
            break;
          case cpu::FuIssue::Kind::ClearFflags:
            fu.clear_fflags();
            iss.step_one(&r);
            break;
          case cpu::FuIssue::Kind::None:
            // Every module sees every clock edge: the unit idles with
            // held inputs, except after a trap (the ISS stopped before
            // the instruction's edge).
            iss.step_one();
            if (iss.stop_status() != cpu::Iss::Status::Trap)
                fu.idle();
            break;
        }
    }
    return iss.stop_status();
}

} // namespace vega
