/**
 * @file
 * The software aging library (§3.4.1): Vega's generated test cases
 * packaged behind an application-facing API with pluggable scheduling
 * and failure handling — the "invoke a library" integration path.
 *
 * Execution goes through an Engine so the same library runs on the host
 * deployment target (here: the golden ISS, standing in for native inline
 * asm) and on the evaluation targets (ISS + failing gate-level netlist).
 * generate_c_source() renders the library as a self-contained C file
 * with inline assembly, the artifact the paper's workflow emits.
 */
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/scheduler.h"
#include "runtime/test_case.h"

namespace vega::runtime {

/** Thrown by the exception-policy library on a detected fault. */
class HardwareFaultError : public std::runtime_error
{
  public:
    HardwareFaultError(std::string test_name, Detection detection)
        : std::runtime_error("aging-related hardware fault detected by " +
                             test_name + " (" +
                             detection_name(detection) + ")"),
          test_name_(std::move(test_name)), detection_(detection)
    {
    }

    const std::string &test_name() const { return test_name_; }
    Detection detection() const { return detection_; }

  private:
    std::string test_name_;
    Detection detection_;
};

/** Executes one test block on some target. */
class Engine
{
  public:
    virtual ~Engine() = default;
    virtual Detection run(const TestCase &tc) = 0;
};

/** Runs blocks on the golden ISS (the healthy deployment target). */
class GoldenEngine : public Engine
{
  public:
    Detection run(const TestCase &tc) override;
};

struct AgingLibraryOptions
{
    SchedulePolicy policy = SchedulePolicy::Sequential;
    double probability = 1.0;
    uint64_t seed = 1;
    /** Throw HardwareFaultError instead of returning the detection. */
    bool throw_on_detect = false;
};

class AgingLibrary
{
  public:
    AgingLibrary(std::vector<TestCase> suite, AgingLibraryOptions options);

    /**
     * Share a caller-owned read-only suite instead of copying it. Wave
     * campaigns instantiate one library per lane per wave; 64 suite
     * copies per wave would dwarf the actual work. @p suite must be
     * non-null, non-empty, and outlive the library.
     */
    AgingLibrary(const std::vector<TestCase> *suite,
                 AgingLibraryOptions options);

    size_t num_tests() const { return suite().size(); }
    const std::vector<TestCase> &suite() const
    {
        return shared_ ? *shared_ : suite_;
    }
    const AgingLibraryOptions &options() const { return options_; }

    /** Total cycles of one full sequential pass. */
    uint64_t suite_cycles() const;

    /**
     * Run the next scheduled test on @p engine. Returns Detection::None
     * for a pass or a skipped slot.
     */
    Detection run_next(Engine &engine);

    /** One full pass over every test; returns the first detection. */
    Detection run_all(Engine &engine);

    /// @name Split run_next for callers that execute tests themselves
    ///
    /// The wave driver cannot hand the library an Engine — a lane's
    /// test executes across many shared batch rounds — so it claims
    /// the slot here and reports the outcome when the test finishes.
    /// schedule_next() + record_result() is exactly run_next() with
    /// the execution lifted out.
    /// @{

    /** Claim the next scheduler slot: the test index to run, or
     *  nullopt for a skipped slot. Counts the dispatch. */
    std::optional<size_t> schedule_next();

    /** Account a test claimed via schedule_next() finishing with
     *  @p det (throws under the exception policy, like run_next). */
    Detection record_result(size_t index, Detection det);
    /// @}

    uint64_t runs() const { return runs_; }
    uint64_t detections() const { return detected_; }

    /** Render the §3.4.1 C file: inline-asm tests + helpers. */
    std::string generate_c_source() const;

  private:
    Detection dispatch(Engine &engine, size_t index);

    std::vector<TestCase> suite_;
    AgingLibraryOptions options_;
    const std::vector<TestCase> *shared_ = nullptr;
    Scheduler scheduler_;
    uint64_t runs_ = 0;
    uint64_t detected_ = 0;
};

} // namespace vega::runtime
