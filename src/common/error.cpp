#include "common/error.h"

#include <array>
#include <exception>

namespace vega {

namespace {

struct CodeName
{
    ErrorCode code;
    const char *name;
};

constexpr std::array<CodeName, 13> kCodeNames = {{
    {ErrorCode::Ok, "ok"},
    {ErrorCode::InvalidArgument, "invalid-argument"},
    {ErrorCode::ParseError, "parse-error"},
    {ErrorCode::ValidationError, "validation-error"},
    {ErrorCode::IoError, "io-error"},
    {ErrorCode::Timeout, "timeout"},
    {ErrorCode::Exhausted, "exhausted"},
    {ErrorCode::JobFailed, "job-failed"},
    {ErrorCode::JournalCorrupt, "journal-corrupt"},
    {ErrorCode::JournalMismatch, "journal-mismatch"},
    {ErrorCode::JournalRecordCorrupt, "journal-record-corrupt"},
    {ErrorCode::JournalTrailerMismatch, "journal-trailer-mismatch"},
    {ErrorCode::ShardIncomplete, "shard-incomplete"},
}};

} // namespace

const char *
error_code_name(ErrorCode code)
{
    for (const CodeName &cn : kCodeNames)
        if (cn.code == code)
            return cn.name;
    return "?";
}

ErrorCode
parse_error_code(const std::string &name)
{
    for (const CodeName &cn : kCodeNames)
        if (name == cn.name)
            return cn.code;
    return ErrorCode::Ok;
}

std::string
VegaError::to_string() const
{
    std::string out = error_code_name(code);
    if (!context.empty()) {
        out += ": ";
        out += context;
    }
    return out;
}

std::string
current_exception_text()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return *e.what() ? e.what() : "std::exception";
    } catch (...) {
        return "non-standard exception";
    }
}

} // namespace vega
