/**
 * @file
 * Gate-level functional-unit backend for the ISS.
 *
 * Drives the ALU, FPU or MDU netlist — healthy or a failing netlist
 * from Error Lifting — one clock cycle per ISS instruction, so
 * consecutive instructions hit the module back-to-back exactly as the
 * formal traces assume. Results are read by saving the pipeline state,
 * advancing one speculative edge past the output registers and
 * restoring, leaving the real timeline untouched. The backend carries
 * one architectural instruction stream, so it drives every
 * BatchSimulator lane alike and reads lane 0; the speculative peek
 * saves into a member buffer, so it allocates nothing per op.
 *
 * Observable fault behaviour surfaced to the ISS:
 *  - wrong results (architecturally visible, checked by test blocks);
 *  - corrupted sticky flags (visible through csrr fflags);
 *  - a parked valid/ack handshake => FuResult::stalled (Table 6's "S");
 *  - transaction-tag (dbg_out) mismatches, counted as hardware-detected
 *    anomalies (a real core would raise a bus-error interrupt).
 */
#pragma once

#include "common/rng.h"
#include "cpu/iss.h"
#include "rtl/module.h"
#include "sim/batch_sim.h"

namespace vega::cpu {

class NetlistBackend : public FuBackend
{
  public:
    /**
     * @param kind    which functional unit @p netlist implements
     * @param netlist healthy or failing module netlist
     * @param has_random_input true when the failing netlist carries the
     *        "fm_rand" input bus (FaultConstant::RandomInput)
     * @param seed    RNG seed for the fm_rand stream
     */
    NetlistBackend(ModuleKind kind, const Netlist &netlist,
                   bool has_random_input = false, uint64_t seed = 1);

    FuResult alu(uint8_t op, uint32_t a, uint32_t b) override;
    FuResult fpu(uint8_t op, uint32_t a, uint32_t b) override;
    FuResult mdu(uint8_t op, uint32_t a, uint32_t b) override;
    uint8_t read_fflags() override;
    void clear_fflags() override;
    void idle() override;

    /** dbg_out disagreed with the predicted transaction parity. */
    uint64_t tag_mismatches() const { return tag_mismatches_; }
    /** Module clock cycles consumed so far. */
    uint64_t cycles() const { return sim_.cycle(); }

  private:
    /** Advance one real cycle with current inputs; handle fm_rand. */
    void tick();
    /** Read outputs as of "two cycles after the op entered" via a clone. */
    void peek_outputs(uint32_t &r, uint8_t &flags, bool &valid,
                      bool &ack, bool &dbg);

    ModuleKind kind_;
    BatchSimulator sim_;
    std::vector<uint64_t> saved_; ///< peek_outputs() snapshot buffer
    bool has_random_input_;
    Rng rng_;
    bool expected_tag_ = false;     ///< predicted dbg parity
    uint64_t tag_mismatches_ = 0;
};

} // namespace vega::cpu
