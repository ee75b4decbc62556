#include "mem/mem_backend.h"

#include "common/logging.h"
#include "workloads/kernels.h"

namespace vega::mem {

namespace {

/** Instruction budgets for march tests and workload probes. The test
 *  bound matches campaign/wave.h's kTestWatchdog; the workload bound is
 *  looser than its 120k gate-level one, since an ISS-only run is cheap.
 *  A redirected store can still turn a terminating loop into an
 *  endless one. */
constexpr uint64_t kWorkloadWatchdog = 400000;
constexpr uint64_t kTestWatchdog = 1000000;

} // namespace

MemFaultInjector::MemFaultInjector(const MemFaultClass &cls) : cls_(cls)
{
    Expected<void> ok = validate_fault_class(cls);
    VEGA_CHECK(ok.ok(), "mem injector: ", ok.error().context);
}

cpu::MemBackend::Plan
MemFaultInjector::access(uint32_t addr, bool is_store)
{
    ++accesses_;
    Plan plan;
    plan.addr = addr;
    if (cls_.kind == MemFaultKind::None)
        return plan;
    bool applies = is_store ? cls_.affects_write : cls_.affects_read;
    if (!applies || row(addr) != cls_.aggressor)
        return plan;
    switch (cls_.kind) {
      case MemFaultKind::WrongRowRead:
      case MemFaultKind::WrongRowWrite:
        plan.addr = remap(addr, cls_.victim);
        break;
      case MemFaultKind::MultiSelect:
        plan.extra = remap(addr, cls_.victim);
        plan.has_extra = true;
        break;
      case MemFaultKind::NoSelect:
        plan.squash = true;
        break;
      case MemFaultKind::None:
        break;
    }
    ++applied_;
    return plan;
}

runtime::Detection
MarchEngine::run(const runtime::TestCase &tc)
{
    MemFaultInjector injector(cls_);
    cpu::IssConfig cfg;
    cfg.max_instructions = kTestWatchdog;
    cpu::Iss iss(tc.program, cfg);
    iss.set_mem_backend(&injector);
    auto status = iss.run();
    cycles_ += iss.cycles();

    if (status != cpu::Iss::Status::Halted)
        return runtime::Detection::Stall;
    if (iss.reg(31) != 0)
        return tc.module == ModuleKind::MemDec16
                   ? runtime::Detection::WrongAddress
                   : runtime::Detection::Mismatch;
    return runtime::Detection::None;
}

bool
mem_workload_corrupts(const MemFaultClass &cls)
{
    const workloads::Kernel &kernel = workloads::make_crc32();
    MemFaultInjector injector(cls);
    cpu::IssConfig cfg;
    cfg.max_instructions = kWorkloadWatchdog;
    cpu::Iss iss(kernel.program, cfg);
    iss.set_mem_backend(&injector);
    auto status = iss.run();
    if (status != cpu::Iss::Status::Halted)
        return true;
    return iss.read_u32(workloads::kChecksumAddr) !=
           kernel.expected_checksum;
}

} // namespace vega::mem
