/**
 * @file
 * Clock distribution network model.
 *
 * The logic netlist sees an ideal clock; the physical clock tree — buffers,
 * their insertion delays, and their individual BTI stress — is modeled here
 * and consumed by the aging-aware STA's clock analysis (§3.2.2). Clock
 * gating parks subtree outputs at logic 0, so rarely-enabled regions
 * accumulate more NBTI stress and drift later, producing the phase shifts
 * between launch and capture flops that cause hold violations (§2.3.1,
 * Gabbay et al. DVCON'23).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vega {

/** One buffer (or gated buffer) in the clock tree. */
struct ClockBuffer
{
    std::string name;
    /** Parent buffer index; the root is its own parent. */
    uint32_t parent = 0;
    /** Fresh insertion delay of this buffer, ps. */
    double delay_max = 0.0;
    double delay_min = 0.0;
    /**
     * Signal probability of this buffer's output. A free-running clock
     * node toggles symmetrically (SP = 0.5); a node behind a gate that is
     * enabled for duty-cycle d parks at 0 while disabled, so SP = d / 2.
     */
    double sp = 0.5;
};

/**
 * A tree of clock buffers. Leaves are referenced by Cell::clock_leaf.
 */
class ClockTree
{
  public:
    ClockTree();

    /** Add a buffer under @p parent; returns its index. */
    uint32_t add_buffer(uint32_t parent, const std::string &name,
                        double delay_max, double delay_min, double sp = 0.5);

    size_t size() const { return buffers_.size(); }
    const ClockBuffer &buffer(uint32_t id) const { return buffers_[id]; }
    ClockBuffer &buffer_mut(uint32_t id) { return buffers_[id]; }

    /**
     * Build a balanced binary tree of @p levels levels under the root with
     * per-stage delay @p stage_delay_max/min. Returns the leaf ids
     * (2^levels of them). All nodes start free-running (SP 0.5).
     */
    std::vector<uint32_t> grow_balanced(int levels, double stage_delay_max,
                                        double stage_delay_min);

    /**
     * Mark the subtree under @p node as clock-gated with enable duty
     * @p duty (fraction of time the region's clock actually toggles).
     * Sets SP = duty / 2 on every node in the subtree.
     */
    void set_gated_region(uint32_t node, double duty);

  private:
    std::vector<ClockBuffer> buffers_;
};

} // namespace vega
