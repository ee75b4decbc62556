#include "rtl/clock_tree.h"

#include "common/logging.h"

namespace vega {

ClockTree::ClockTree()
{
    ClockBuffer root;
    root.name = "clkroot";
    root.parent = 0;
    root.delay_max = 0.0;
    root.delay_min = 0.0;
    root.sp = 0.5;
    buffers_.push_back(root);
}

uint32_t
ClockTree::add_buffer(uint32_t parent, const std::string &name,
                      double delay_max, double delay_min, double sp)
{
    VEGA_CHECK(parent < buffers_.size(), "clock buffer parent");
    ClockBuffer b;
    b.name = name;
    b.parent = parent;
    b.delay_max = delay_max;
    b.delay_min = delay_min;
    b.sp = sp;
    buffers_.push_back(b);
    return static_cast<uint32_t>(buffers_.size() - 1);
}

std::vector<uint32_t>
ClockTree::grow_balanced(int levels, double stage_delay_max,
                         double stage_delay_min)
{
    std::vector<uint32_t> frontier{0};
    for (int level = 0; level < levels; ++level) {
        std::vector<uint32_t> next;
        for (uint32_t parent : frontier) {
            for (int k = 0; k < 2; ++k) {
                std::string name = "ckbuf_l" + std::to_string(level + 1) +
                                   "_" + std::to_string(next.size());
                next.push_back(add_buffer(parent, name, stage_delay_max,
                                          stage_delay_min));
            }
        }
        frontier = std::move(next);
    }
    return frontier;
}

void
ClockTree::set_gated_region(uint32_t node, double duty)
{
    VEGA_CHECK(duty >= 0.0 && duty <= 1.0, "gating duty range");
    // SP of a gated clock node: toggling (SP 0.5) for `duty` of the time,
    // parked at 0 otherwise.
    double sp = duty * 0.5;
    for (uint32_t id = 0; id < buffers_.size(); ++id) {
        // Node is in the subtree if walking parents reaches `node`.
        uint32_t cur = id;
        while (true) {
            if (cur == node) {
                buffers_[id].sp = sp;
                break;
            }
            if (buffers_[cur].parent == cur)
                break;
            cur = buffers_[cur].parent;
        }
    }
}

} // namespace vega
