/**
 * @file
 * Faulty-memory execution: the classified decoder fault injected into
 * the ISS's data memory, and the engine that runs march blocks on it.
 *
 * The injector treats the whole data space as served by the 16-row
 * SRAM macro: the decoder sees row = (addr >> 2) & (rows-1), so every
 * rows*4-byte stripe aliases onto the same decoder rows. That is how a
 * single small macro's decoder fault becomes architecturally visible
 * anywhere in memory — and why a march test over one stripe of cells
 * exercises the same decoder rows any workload uses.
 */
#pragma once

#include <cstdint>

#include "cpu/iss.h"
#include "mem/fault_class.h"
#include "runtime/aging_library.h"

namespace vega::mem {

/** cpu::MemBackend implementing a MemFaultClass. */
class MemFaultInjector : public cpu::MemBackend
{
  public:
    /** Panics if validate_fault_class rejects @p cls. */
    explicit MemFaultInjector(const MemFaultClass &cls);

    cpu::MemBackend::Plan access(uint32_t addr, bool is_store) override;

    uint64_t accesses() const { return accesses_; }
    /** Accesses the fault actually redirected / squashed. */
    uint64_t applied() const { return applied_; }

  private:
    uint32_t row(uint32_t addr) const
    {
        return (addr >> 2) & (cls_.rows - 1);
    }
    /** @p addr with its decoder-row bits replaced by @p to. */
    uint32_t remap(uint32_t addr, uint32_t to) const
    {
        uint32_t mask = (cls_.rows - 1) << 2;
        return (addr & ~mask) | (to << 2);
    }

    MemFaultClass cls_;
    uint64_t accesses_ = 0;
    uint64_t applied_ = 0;
};

/**
 * runtime::Engine running test blocks on the golden ISS with a
 * MemFaultInjector mounted — the memory-substrate counterpart of a
 * campaign wave lane. March blocks that set the fail flag report
 * Detection::WrongAddress; non-mem blocks (e.g. ALU value probes run
 * for comparison) report Mismatch, and any run that never halts
 * cleanly reports Stall.
 */
class MarchEngine : public runtime::Engine
{
  public:
    explicit MarchEngine(const MemFaultClass &cls) : cls_(cls) {}

    runtime::Detection run(const runtime::TestCase &tc) override;

    /** ISS cycles consumed so far (the campaign's sim_cycles). */
    uint64_t cycles() const { return cycles_; }

  private:
    MemFaultClass cls_;
    uint64_t cycles_ = 0;
};

/**
 * Does the representative memory workload (crc32) silently corrupt
 * under @p cls? True when its stored checksum deviates or the run
 * never halts — the SDC side of the campaign's escape accounting.
 */
bool mem_workload_corrupts(const MemFaultClass &cls);

} // namespace vega::mem
