/**
 * @file
 * Structured error propagation for the fault-tolerant pipeline.
 *
 * Vega's own infrastructure must behave like production software under
 * faults: a malformed netlist, an exhausted SAT budget, or a crashed
 * campaign job is an *outcome*, not a terminate(). Recoverable paths
 * return Expected<T> carrying a VegaError — a stable machine-readable
 * ErrorCode plus a human-readable context string — instead of throwing
 * or aborting. VEGA_CHECK/panic remain reserved for genuine internal
 * invariant violations.
 */
#pragma once

#include <string>
#include <utility>
#include <variant>

namespace vega {

/**
 * Stable error codes. Names (error_code_name) are part of the journal
 * and report formats — append new codes, never renumber.
 */
enum class ErrorCode : uint8_t {
    Ok = 0,
    InvalidArgument, ///< caller handed nonsense (bad config / flag)
    ParseError,      ///< malformed input text; context carries location
    ValidationError, ///< parsed but violates semantic limits
    IoError,         ///< filesystem operation failed
    Timeout,         ///< a conflict or wall-clock budget ran out
    Exhausted,       ///< every rung of a retry/degradation ladder failed
    JobFailed,       ///< a campaign job threw/trapped on every attempt
    JournalCorrupt,  ///< checkpoint journal unreadable
    JournalMismatch, ///< checkpoint journal from an incompatible config
    JournalRecordCorrupt,  ///< a v2 record failed its per-line checksum
    JournalTrailerMismatch, ///< v2 trailer count/rolling-crc mismatch
    ShardIncomplete, ///< shard journal unfinalized or job ids missing
};

/** Stable kebab-case name, e.g. "parse-error". */
const char *error_code_name(ErrorCode code);

/** Inverse of error_code_name; ErrorCode::Ok for unknown names. */
ErrorCode parse_error_code(const std::string &name);

struct VegaError
{
    ErrorCode code = ErrorCode::Ok;
    std::string context;

    /** "parse-error: line 3: expected ';'" */
    std::string to_string() const;
};

inline VegaError
make_error(ErrorCode code, std::string context)
{
    return VegaError{code, std::move(context)};
}

/**
 * what() of the exception being handled, or "non-standard exception";
 * never empty. Call only from inside a catch block.
 */
std::string current_exception_text();

/**
 * A value or a VegaError. Minimal stand-in for std::expected (C++23):
 * construction is implicit from either alternative, access is checked
 * by the underlying variant.
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : v_(std::in_place_index<0>, std::move(value)) {}
    Expected(VegaError error)
        : v_(std::in_place_index<1>, std::move(error))
    {
    }

    bool ok() const { return v_.index() == 0; }
    explicit operator bool() const { return ok(); }

    T &value() & { return std::get<0>(v_); }
    const T &value() const & { return std::get<0>(v_); }
    T &&value() && { return std::get<0>(std::move(v_)); }

    const VegaError &error() const { return std::get<1>(v_); }

    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }
    T &operator*() & { return value(); }
    const T &operator*() const & { return value(); }

  private:
    std::variant<T, VegaError> v_;
};

/** Expected<void>: success, or a VegaError. */
template <>
class [[nodiscard]] Expected<void>
{
  public:
    Expected() = default;
    Expected(VegaError error) : err_(std::move(error)) {}

    bool ok() const { return err_.code == ErrorCode::Ok; }
    explicit operator bool() const { return ok(); }

    const VegaError &error() const { return err_; }

  private:
    VegaError err_;
};

} // namespace vega
