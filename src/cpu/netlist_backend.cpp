#include "cpu/netlist_backend.h"

#include "common/logging.h"

namespace vega::cpu {

NetlistBackend::NetlistBackend(ModuleKind kind, const Netlist &netlist,
                               bool has_random_input, uint64_t seed)
    : kind_(kind), sim_(netlist),
      has_random_input_(has_random_input), rng_(seed)
{
    VEGA_CHECK(kind == ModuleKind::Alu32 || kind == ModuleKind::Fpu32 ||
                   kind == ModuleKind::Mdu32,
               "backend supports alu32/fpu32/mdu32 modules");
    if (kind_ == ModuleKind::Fpu32) {
        sim_.set_bus_all("valid", BitVec(1, 0));
        sim_.set_bus_all("clear", BitVec(1, 0));
    }
}

void
NetlistBackend::tick()
{
    if (has_random_input_)
        sim_.set_bus_all("fm_rand", BitVec(1, rng_.next() & 1));
    sim_.step();
}

void
NetlistBackend::peek_outputs(uint32_t &r, uint8_t &flags, bool &valid,
                             bool &ack, bool &dbg)
{
    // One speculative edge commits the in-flight op's outputs without
    // disturbing the real timeline (the clone's inputs are don't-cares
    // for the already-captured stage-1 state).
    sim_.save_state_into(saved_);
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
    sim_.restore_state(saved_);
    rng_ = saved_rng;
}

FuBackend::FuResult
NetlistBackend::alu(uint8_t op, uint32_t a, uint32_t b)
{
    VEGA_CHECK(kind_ == ModuleKind::Alu32, "not an ALU backend");
    sim_.set_bus_all("a", BitVec(32, a));
    sim_.set_bus_all("b", BitVec(32, b));
    sim_.set_bus_all("op", BitVec(4, op));
    tick();
    FuResult out;
    uint8_t flags;
    bool valid, ack, dbg;
    peek_outputs(out.value, flags, valid, ack, dbg);
    return out;
}

FuBackend::FuResult
NetlistBackend::mdu(uint8_t op, uint32_t a, uint32_t b)
{
    VEGA_CHECK(kind_ == ModuleKind::Mdu32, "not an MDU backend");
    sim_.set_bus_all("a", BitVec(32, a));
    sim_.set_bus_all("b", BitVec(32, b));
    sim_.set_bus_all("op", BitVec(2, op));
    tick();
    FuResult out;
    uint8_t flags;
    bool valid, ack, dbg;
    peek_outputs(out.value, flags, valid, ack, dbg);
    return out;
}

FuBackend::FuResult
NetlistBackend::fpu(uint8_t op, uint32_t a, uint32_t b)
{
    VEGA_CHECK(kind_ == ModuleKind::Fpu32, "not an FPU backend");
    sim_.set_bus_all("a", BitVec(32, a));
    sim_.set_bus_all("b", BitVec(32, b));
    sim_.set_bus_all("op", BitVec(3, op));
    sim_.set_bus_all("valid", BitVec(1, 1));
    sim_.set_bus_all("clear", BitVec(1, 0));
    tick();
    sim_.set_bus_all("valid", BitVec(1, 0));

    FuResult out;
    uint8_t flags;
    bool valid, ack, dbg;
    peek_outputs(out.value, flags, valid, ack, dbg);
    out.flags = flags;
    out.stalled = !(valid && ack);
    // dbg_out lags the tag toggle by one pipeline stage: at this peek it
    // shows the parity of operations issued strictly before this one.
    if (dbg != expected_tag_)
        ++tag_mismatches_;
    expected_tag_ = !expected_tag_;
    return out;
}

uint8_t
NetlistBackend::read_fflags()
{
    VEGA_CHECK(kind_ == ModuleKind::Fpu32, "fflags live in the FPU");
    uint32_t r;
    uint8_t flags;
    bool valid, ack, dbg;
    peek_outputs(r, flags, valid, ack, dbg);
    return flags;
}

void
NetlistBackend::clear_fflags()
{
    sim_.set_bus_all("clear", BitVec(1, 1));
    sim_.set_bus_all("valid", BitVec(1, 0));
    tick();
    sim_.set_bus_all("clear", BitVec(1, 0));
}

void
NetlistBackend::idle()
{
    if (kind_ == ModuleKind::Fpu32) {
        sim_.set_bus_all("valid", BitVec(1, 0));
        sim_.set_bus_all("clear", BitVec(1, 0));
    }
    tick();
}

} // namespace vega::cpu
