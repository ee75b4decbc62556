/**
 * @file
 * Instruction-set simulator for the evaluation CPU.
 *
 * In-order, single-issue, one instruction per cycle (+1 for taken
 * control flow), standing in for the Verilator-simulated CV32E40P of the
 * paper's evaluation. run() uses the golden models (alu_compute,
 * softfp). A gate-level functional unit (healthy or failing netlist)
 * is reached only through the split-transaction pair
 * peek_fu_issue()/step_one(): cpu::BatchNetlistEngine
 * (cpu/batch_backend.h) answers each lane's transaction and the wave
 * driver (campaign/wave.h) injects the result. lift::replay_on_module
 * (lift/error_lifting.h) replays generated test blocks on the module
 * alone.
 *
 * The ISS also produces the two artifacts the Vega workflow needs from
 * software execution:
 *  - a functional-unit trace (one (op, a, b) tuple per ALU/FPU
 *    instruction) that drives Signal Probability Simulation (§3.2.1);
 *  - per-instruction execution counts, from which the profile-guided
 *    integrator derives basic-block frequencies (§3.4.2).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "cpu/isa.h"
#include "rtl/module.h"

namespace vega::cpu {

/** One functional-unit operation observed during execution. */
struct FuTraceEntry
{
    ModuleKind unit = ModuleKind::Alu32;
    uint8_t op = 0; ///< AluOp / FpuOp / MduOp encoding
    uint32_t a = 0;
    uint32_t b = 0;
};

struct IssConfig
{
    /** Stop with Status::Watchdog after this many instructions. */
    uint64_t max_instructions = 100000000ull;
    /** Record the functional-unit trace (costs memory). */
    bool record_fu_trace = false;
    /**
     * Record the data-memory trace (one entry per load/store) for the
     * memory-path substrate's SP workload. Kept separate from
     * record_fu_trace so existing functional-unit profiles stay
     * bit-identical when memory tracing is enabled.
     */
    bool record_mem_trace = false;
    /** Memory size in bytes. */
    size_t memory_bytes = 1 << 20;
};

/** A gate-level unit's response to one FuIssue (see Iss::step_one). */
struct FuResult
{
    uint32_t value = 0;
    uint8_t flags = 0;   ///< sticky flags after the op or read (FPU only)
    bool stalled = false; ///< handshake never completed
};

/**
 * Pluggable data-memory backend modeling an aged SRAM address decoder
 * (src/mem/mem_backend.h). Unlike a failing functional unit — which
 * corrupts *values* — a decoder fault redirects whole accesses, so the
 * hook returns an access *plan*: where the access actually lands,
 * whether a second row is also selected (multi-select), or whether no
 * row is selected at all. The ISS applies the plan to every load/store,
 * including the FP Flw/Fsw pair.
 */
class MemBackend
{
  public:
    struct Plan
    {
        uint32_t addr = 0;      ///< where the access actually lands
        uint32_t extra = 0;     ///< second selected address (multi-select)
        bool has_extra = false; ///< the extra address is also selected
        /**
         * No wordline rose: the store is dropped; the load returns the
         * precharged-bitline value (all ones).
         */
        bool squash = false;
    };

    virtual ~MemBackend() = default;
    virtual Plan access(uint32_t addr, bool is_store) = 0;
};

/**
 * The functional-unit transaction the next instruction would issue to a
 * mounted gate-level unit — the ISS half of the split-transaction
 * protocol batched execution uses (see Iss::peek_fu_issue).
 */
struct FuIssue
{
    enum class Kind : uint8_t {
        None,        ///< no interaction with the mounted unit
        Op,          ///< alu()/fpu()/mdu() operation
        ReadFflags,  ///< csrr fflags (FPU-mounted only)
        ClearFflags, ///< csrw fflags, x0 (FPU-mounted only)
    };
    Kind kind = Kind::None;
    uint8_t op = 0;
    uint32_t a = 0;
    uint32_t b = 0;
};

class Iss
{
  public:
    /**
     * Why run() stopped. Trap means an access left the architectural
     * envelope (pc outside the program, load/store outside memory) —
     * expected when a failing gate-level unit corrupts an address or
     * branch target, so it ends the run instead of aborting the
     * process.
     */
    enum class Status { Halted, Watchdog, Stalled, Trap };

    explicit Iss(std::vector<Instr> program, IssConfig cfg = {});

    /** Attach a faulty-memory model; nullptr restores ideal memory. */
    void set_mem_backend(MemBackend *backend) { mem_backend_ = backend; }

    /** Clear registers, memory, counters; pc back to 0. */
    void reset();

    /** Run on the golden models until Halt or the budget expires. */
    Status run();

    /// @name Split-transaction execution (gate-level units)
    ///
    /// The driver peeks the transaction the next instruction would
    /// issue to the one mounted unit, ticks 64 such units together on
    /// a BatchSimulator, and feeds each lane's FuResult back through
    /// step_one(). Every unmounted unit stays on its golden model.
    /// @{

    /** True while run() would keep stepping (no stop condition holds). */
    bool running() const
    {
        return !halted_ && !stalled_ && !trapped_ &&
               instret_ < cfg_.max_instructions;
    }

    /** The Status run() reports for the current stop condition. */
    Status stop_status() const
    {
        if (stalled_)
            return Status::Stalled;
        if (trapped_)
            return Status::Trap;
        return halted_ ? Status::Halted : Status::Watchdog;
    }

    /**
     * The transaction the next instruction would issue to a mounted
     * @p mounted unit (Kind::None for everything else, including an
     * out-of-range pc). Pure: no state changes.
     */
    FuIssue peek_fu_issue(ModuleKind mounted) const;

    /**
     * Execute exactly one instruction. When @p injected is non-null it
     * supplies the mounted unit's response for the transaction
     * peek_fu_issue() reported — the instruction must consume it
     * (checked). With @p injected null the golden models serve the
     * instruction.
     */
    void step_one(const FuResult *injected = nullptr);
    /// @}

    /// @name Architectural state
    /// @{
    uint32_t reg(Reg r) const { return x_[r]; }
    void set_reg(Reg r, uint32_t v)
    {
        if (r != 0)
            x_[r] = v;
    }
    uint32_t freg(FReg r) const { return f_[r]; }
    void set_freg(FReg r, uint32_t v) { f_[r] = v; }
    uint8_t fflags() const { return fflags_; }

    uint32_t read_u32(uint32_t addr) const;
    void write_u32(uint32_t addr, uint32_t value);
    /// @}

    /// @name Statistics
    /// @{
    uint64_t cycles() const { return cycles_; }
    uint64_t instret() const { return instret_; }
    const std::vector<FuTraceEntry> &fu_trace() const { return fu_trace_; }
    /**
     * Data-memory trace (record_mem_trace): unit = the memory
     * substrate, op = 1 for stores, a = byte address, b = the value
     * written (stores) or read (loads).
     */
    const std::vector<FuTraceEntry> &mem_trace() const { return mem_trace_; }
    /** Execution count per instruction index. */
    const std::vector<uint64_t> &exec_counts() const { return exec_counts_; }
    /// @}

    const std::vector<Instr> &program() const { return program_; }

  private:
    void step();
    /** Claim the injected FU result for the executing instruction. */
    FuResult take_injected()
    {
        FuResult r = *injected_;
        injected_ = nullptr;
        return r;
    }
    /** True when @p bytes at @p addr fit in memory (no u32 wrap). */
    bool mem_ok(uint32_t addr, uint32_t bytes) const
    {
        return uint64_t(addr) + bytes <= cfg_.memory_bytes;
    }
    /** Copy in-bounds bytes out of / into data memory. */
    void load(uint32_t addr, void *out, size_t bytes) const;
    void store(uint32_t addr, const void *in, size_t bytes);

    /**
     * Data-side accesses: apply the memory backend's plan (wrong-row
     * redirect, multi-select, no-select) and record the mem trace.
     * Return false on an out-of-bounds effective address — the caller
     * traps instead of asserting, since a faulty backend can redirect
     * anywhere.
     */
    template <typename T> bool data_read(uint32_t addr, T &out);
    template <typename T> bool data_write(uint32_t addr, T value);

    std::vector<Instr> program_;
    IssConfig cfg_;
    uint32_t x_[32] = {};
    uint32_t f_[32] = {};
    uint8_t fflags_ = 0;
    uint32_t pc_ = 0;
    /** Growth step of mem_ in bytes. */
    static constexpr size_t kMemPage = 4096;
    /**
     * Data memory, grown zero-filled up to the highest 4 KB page a
     * store has reached; bytes past its end read zero, and the bound
     * stays cfg_.memory_bytes. FU test programs never store, golden
     * crc32 stores below 12 KB, and a march campaign builds one ISS per
     * dispatched test, so nothing pays for the whole 1 MB.
     */
    std::vector<uint8_t> mem_;
    uint64_t cycles_ = 0;
    uint64_t instret_ = 0;
    bool halted_ = false;
    bool stalled_ = false;
    bool trapped_ = false;
    std::vector<FuTraceEntry> fu_trace_;
    std::vector<FuTraceEntry> mem_trace_;
    std::vector<uint64_t> exec_counts_;
    MemBackend *mem_backend_ = nullptr;
    /** Wave-injected FU result for the instruction being stepped. */
    const FuResult *injected_ = nullptr;
};

} // namespace vega::cpu
