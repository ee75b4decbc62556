#include "campaign/journal.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/fs.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/test_case.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define VEGA_HAVE_FSYNC 1
#endif

namespace vega::campaign {

namespace {

constexpr const char *kMagicV2 = "# vega campaign journal v2";
constexpr const char *kTrailerTag = "trailer ";

/** %.17g round-trips every double through text exactly. */
std::string
render_double(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
parse_constant(const std::string &tok, lift::FaultConstant &out)
{
    for (lift::FaultConstant c :
         {lift::FaultConstant::Zero, lift::FaultConstant::One,
          lift::FaultConstant::RandomInput})
        if (tok == lift::fault_constant_name(c)) {
            out = c;
            return true;
        }
    return false;
}

bool
parse_policy(const std::string &tok, runtime::SchedulePolicy &out)
{
    for (runtime::SchedulePolicy p :
         {runtime::SchedulePolicy::Sequential,
          runtime::SchedulePolicy::Random,
          runtime::SchedulePolicy::Probabilistic})
        if (tok == runtime::schedule_policy_name(p)) {
            out = p;
            return true;
        }
    return false;
}

bool
parse_detection(const std::string &tok, runtime::Detection &out)
{
    for (runtime::Detection d :
         {runtime::Detection::None, runtime::Detection::Mismatch,
          runtime::Detection::Stall, runtime::Detection::TagAnomaly,
          runtime::Detection::WrongAddress})
        if (tok == runtime::detection_name(d)) {
            out = d;
            return true;
        }
    return false;
}

/** "key=value" fields of the config line, order-sensitive. */
bool
take_field(std::istringstream &ls, const char *key, std::string &out)
{
    std::string tok;
    if (!(ls >> tok))
        return false;
    std::string prefix = std::string(key) + "=";
    if (tok.compare(0, prefix.size(), prefix) != 0)
        return false;
    out = tok.substr(prefix.size());
    return !out.empty();
}

bool
take_u64(std::istringstream &ls, const char *key, uint64_t &out)
{
    std::string v;
    if (!take_field(ls, key, v))
        return false;
    char *end = nullptr;
    out = std::strtoull(v.c_str(), &end, 10);
    return end && *end == '\0';
}

/** Parse context of the payload walk. */
struct PayloadParser
{
    const std::string &path;
    JournalState &state;
    bool have_config = false;

    VegaError corrupt(size_t line_no, const std::string &msg) const
    {
        return make_error(ErrorCode::JournalCorrupt,
                          path + ":" + std::to_string(line_no) + ": " +
                              msg);
    }

    /**
     * Parse one payload body ("config ..." / "job ..." / "failed ...")
     * into the state.
     */
    Expected<void> parse(const std::string &body, size_t line_no)
    {
        std::istringstream ls(body);
        std::string word;
        ls >> word;
        if (word == "config") {
            if (have_config)
                return corrupt(line_no, "duplicate config line");
            JournalHeader &h = state.header;
            if (!take_field(ls, "module", h.module) ||
                !take_u64(ls, "seed", h.seed) ||
                !take_u64(ls, "jobs", h.num_jobs) ||
                !take_u64(ls, "pairs", h.num_pairs) ||
                !take_u64(ls, "constants", h.num_constants) ||
                !take_u64(ls, "policies", h.num_policies) ||
                !take_u64(ls, "max_slots", h.max_slots) ||
                !take_u64(ls, "suite", h.suite_size))
                return corrupt(line_no, "malformed config line");
            std::string prob;
            if (!take_field(ls, "probability", prob))
                return corrupt(line_no, "malformed config line");
            char *end = nullptr;
            h.probability = std::strtod(prob.c_str(), &end);
            if (!end || *end != '\0')
                return corrupt(line_no, "malformed probability");
            if (!take_u64(ls, "shards", h.num_shards) ||
                !take_u64(ls, "shard", h.shard_id))
                return corrupt(line_no, "malformed shard fields");
            if (h.num_shards == 0 || h.shard_id >= h.num_shards)
                return corrupt(line_no, "invalid shard assignment");
            have_config = true;
        } else if (word == "job") {
            if (!have_config)
                return corrupt(line_no, "job record before config line");
            JobResult r;
            std::string constant, policy, kind;
            uint64_t pair = 0, detected = 0, corrupts = 0, escape = 0,
                     attempts = 0;
            if (!(ls >> r.id >> pair >> constant >> policy >> detected >>
                  kind >> r.slots_to_detect >> r.tests_dispatched >>
                  r.sim_cycles >> corrupts >> escape >> attempts))
                return corrupt(line_no, "malformed job record");
            if (!parse_constant(constant, r.constant))
                return corrupt(line_no,
                               "unknown constant '" + constant + "'");
            if (!parse_policy(policy, r.policy))
                return corrupt(line_no, "unknown policy '" + policy + "'");
            if (!parse_detection(kind, r.kind))
                return corrupt(line_no,
                               "unknown detection kind '" + kind + "'");
            r.pair_index = size_t(pair);
            r.detected = detected != 0;
            r.corrupts_workload = corrupts != 0;
            r.escape = escape != 0;
            r.attempts = uint32_t(attempts);
            state.completed.push_back(std::move(r));
            ++state.records;
        } else if (word == "failed") {
            if (!have_config)
                return corrupt(line_no,
                               "failed record before config line");
            FailedJob f;
            uint64_t pair = 0, attempts = 0;
            std::string code;
            if (!(ls >> f.id >> pair >> attempts >> code))
                return corrupt(line_no, "malformed failed record");
            f.pair_index = size_t(pair);
            f.attempts = uint32_t(attempts);
            f.error.code = parse_error_code(code);
            if (f.error.code == ErrorCode::Ok)
                return corrupt(line_no,
                               "unknown error code '" + code + "'");
            std::getline(ls, f.error.context);
            if (!f.error.context.empty() && f.error.context[0] == ' ')
                f.error.context.erase(0, 1);
            state.failed.push_back(std::move(f));
            ++state.records;
        } else {
            return corrupt(line_no, "unknown record '" + word + "'");
        }
        return {};
    }
};

/** "job 17 ..." -> "job 17" — enough to name the record in an error. */
std::string
record_tag(const std::string &body)
{
    size_t first = body.find(' ');
    if (first == std::string::npos)
        return body.empty() ? std::string("<empty>") : body;
    size_t second = body.find(' ', first + 1);
    return body.substr(0, second == std::string::npos ? body.size()
                                                      : second);
}

std::string
encode_line(const std::string &body)
{
    return crc32c_hex(crc32c(body)) + " " + body + "\n";
}

} // namespace

bool
JournalHeader::same_campaign(const JournalHeader &o) const
{
    return module == o.module && seed == o.seed &&
           num_jobs == o.num_jobs && num_pairs == o.num_pairs &&
           num_constants == o.num_constants &&
           num_policies == o.num_policies && max_slots == o.max_slots &&
           suite_size == o.suite_size &&
           render_double(probability) == render_double(o.probability) &&
           num_shards == o.num_shards;
}

bool
JournalHeader::operator==(const JournalHeader &o) const
{
    return same_campaign(o) && shard_id == o.shard_id;
}

std::string
JournalHeader::to_string() const
{
    std::ostringstream os;
    os << "config module=" << module << " seed=" << seed
       << " jobs=" << num_jobs << " pairs=" << num_pairs
       << " constants=" << num_constants << " policies=" << num_policies
       << " max_slots=" << max_slots << " suite=" << suite_size
       << " probability=" << render_double(probability)
       << " shards=" << num_shards << " shard=" << shard_id;
    return os.str();
}

Expected<JournalState>
read_journal(const std::string &path, const JournalReadOptions &opts)
{
    Expected<std::string> text = read_file(path);
    if (!text)
        return text.error();

    // Split keeping track of whether the final line was
    // newline-terminated: a bare tail is the signature of a torn
    // append, not a complete record.
    std::vector<std::string> lines;
    size_t start = 0;
    for (size_t i = 0; i < text->size(); ++i)
        if ((*text)[i] == '\n') {
            lines.push_back(text->substr(start, i - start));
            start = i + 1;
        }
    bool unterminated_tail = start < text->size();
    if (unterminated_tail)
        lines.push_back(text->substr(start));

    if (lines.empty() || lines[0].empty())
        return make_error(ErrorCode::JournalCorrupt,
                          path + ": empty journal");

    if (lines[0] == "# vega campaign journal v1")
        return make_error(ErrorCode::JournalCorrupt,
                          path + ":1: journal format v1 (no checksums) "
                                 "is no longer read; re-run the campaign");
    if (lines[0] != kMagicV2)
        return make_error(ErrorCode::JournalCorrupt,
                          path + ":1: missing journal magic");

    JournalState state;
    PayloadParser parser{path, state};

    // Every payload line is "<crc8> <body>"; the trailer pins the
    // record count and a rolling checksum over all bodies.
    Crc32c rolling;
    for (size_t i = 1; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        size_t line_no = i + 1;
        bool is_last = i + 1 == lines.size();

        if (state.has_trailer)
            return make_error(ErrorCode::JournalCorrupt,
                              path + ":" + std::to_string(line_no) +
                                  ": record after trailer");

        if (line.compare(0, 8, kTrailerTag) == 0) {
            std::istringstream ls(line);
            std::string word, crc_hex;
            uint64_t count = 0;
            ls >> word;
            uint32_t expect = 0;
            if (!take_u64(ls, "records", count) ||
                !take_field(ls, "crc", crc_hex) ||
                !parse_crc32c_hex(crc_hex, expect))
                return make_error(ErrorCode::JournalTrailerMismatch,
                                  path + ":" + std::to_string(line_no) +
                                      ": malformed trailer");
            if (count != state.records)
                return make_error(
                    ErrorCode::JournalTrailerMismatch,
                    path + ": trailer claims " + std::to_string(count) +
                        " records but the file holds " +
                        std::to_string(state.records));
            if (expect != rolling.value())
                return make_error(
                    ErrorCode::JournalTrailerMismatch,
                    path + ": rolling checksum mismatch (trailer " +
                        crc_hex + ", file " +
                        crc32c_hex(rolling.value()) + ")");
            state.has_trailer = true;
            continue;
        }

        // Torn-append signature: a final line that is incomplete (no
        // newline) or checksum-failing, in a journal that was never
        // finalized. Anything else failing its checksum is damage.
        uint32_t line_crc = 0;
        bool prefix_ok = line.size() > 9 && line[8] == ' ' &&
                         parse_crc32c_hex(line.substr(0, 8), line_crc);
        std::string body = prefix_ok ? line.substr(9) : std::string();
        bool crc_ok = prefix_ok && crc32c(body) == line_crc;
        bool torn_shape = is_last && (unterminated_tail || !crc_ok);
        if (!crc_ok || (is_last && unterminated_tail)) {
            if (torn_shape && opts.allow_torn_tail) {
                state.torn_tail = true;
                log(LogLevel::Warn,
                    "journal " + path + ":" + std::to_string(line_no) +
                        ": dropping torn final line (crash "
                        "mid-append); the job will be re-run");
                break;
            }
            return make_error(
                ErrorCode::JournalRecordCorrupt,
                path + ":" + std::to_string(line_no) +
                    ": record checksum mismatch (" +
                    (prefix_ok ? record_tag(body) : "unparseable line") +
                    ")");
        }

        Expected<void> parsed = parser.parse(body, line_no);
        if (!parsed)
            return parsed.error();
        rolling.update(body);
        rolling.update("\n", 1);
    }

    if (!parser.have_config)
        return make_error(ErrorCode::JournalCorrupt,
                          path + ": no config line");
    state.rolling_crc = rolling.value();
    if (opts.require_trailer && !state.has_trailer)
        return make_error(ErrorCode::ShardIncomplete,
                          path + ": journal has no trailer — shard " +
                              std::to_string(state.header.shard_id) +
                              " is incomplete (killed mid-run? resume "
                              "it before aggregating)");
    return state;
}

JournalWriter::~JournalWriter() { close(); }

void
JournalWriter::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

Expected<void>
JournalWriter::open(const std::string &path, const JournalHeader &header,
                    const JournalState *prior, size_t flush_every)
{
    close();
    path_ = path;
    flush_every_ = flush_every < 1 ? 1 : flush_every;
    unflushed_ = 0;
    finalized_ = false;
    records_ = 0;
    rolling_.reset();
    buffer_.clear();

    // Header (and resumed records) go down via write-temp-then-rename:
    // the one structural rewrite; everything after is an append.
    std::string content = std::string(kMagicV2) + "\n";
    auto add = [&](const std::string &body) {
        content += encode_line(body);
        rolling_.update(body);
        rolling_.update("\n", 1);
    };
    add(header.to_string());
    if (prior) {
        for (const JobResult &r : prior->completed) {
            add(render_record(r));
            ++records_;
        }
        for (const FailedJob &f : prior->failed) {
            add(render_record(f));
            ++records_;
        }
    }
    Expected<void> wrote = write_file_atomic(path_, content);
    if (!wrote)
        return wrote;
    ++flushes_;
    bytes_written_ += content.size();

    file_ = std::fopen(path_.c_str(), "ab");
    if (!file_)
        return make_error(ErrorCode::IoError,
                          "cannot reopen " + path_ + " for append");
    return {};
}

std::string
render_record(const JobResult &r)
{
    std::ostringstream os;
    os << "job " << r.id << " " << r.pair_index << " "
       << lift::fault_constant_name(r.constant) << " "
       << runtime::schedule_policy_name(r.policy) << " "
       << (r.detected ? 1 : 0) << " " << runtime::detection_name(r.kind)
       << " " << r.slots_to_detect << " " << r.tests_dispatched << " "
       << r.sim_cycles << " " << (r.corrupts_workload ? 1 : 0) << " "
       << (r.escape ? 1 : 0) << " " << r.attempts;
    return os.str();
}

std::string
render_record(const FailedJob &f)
{
    // The context rides to end-of-line; strip embedded newlines so one
    // record stays one line.
    std::string context = f.error.context;
    for (char &c : context)
        if (c == '\n' || c == '\r')
            c = ' ';
    std::ostringstream os;
    os << "failed " << f.id << " " << f.pair_index << " " << f.attempts
       << " " << error_code_name(f.error.code) << " " << context;
    return os.str();
}

Expected<void>
JournalWriter::append_line(const std::string &body)
{
    VEGA_CHECK(!finalized_, "journal ", path_,
               ": record after finalize");
    buffer_ += encode_line(body);
    rolling_.update(body);
    rolling_.update("\n", 1);
    ++records_;
    return after_record();
}

Expected<void>
JournalWriter::record(const JobResult &r)
{
    return append_line(render_record(r));
}

Expected<void>
JournalWriter::record(const FailedJob &f)
{
    return append_line(render_record(f));
}

Expected<void>
JournalWriter::after_record()
{
    if (++unflushed_ >= flush_every_)
        return flush();
    return {};
}

Expected<void>
JournalWriter::sync()
{
    if (unflushed_ == 0)
        return {};
    return flush();
}

Expected<void>
JournalWriter::finalize()
{
    VEGA_CHECK(file_, "finalize on a closed journal");
    std::string trailer = std::string(kTrailerTag) +
                          "records=" + std::to_string(records_) +
                          " crc=" + crc32c_hex(rolling_.value()) + "\n";
    buffer_ += trailer;
    ++unflushed_;
    Expected<void> flushed = flush();
    if (!flushed)
        return flushed;
    finalized_ = true;
    close();
    return {};
}

Expected<void>
JournalWriter::flush()
{
    VEGA_SPAN("campaign.journal_flush");
    unflushed_ = 0;
    ++flushes_;
    static obs::Counter &flush_counter =
        obs::counter("campaign.journal_flushes");
    static obs::Counter &byte_counter =
        obs::counter("campaign.journal_bytes");
    flush_counter.inc();
    if (buffer_.empty())
        return {};
    bool ok = file_ != nullptr &&
              std::fwrite(buffer_.data(), 1, buffer_.size(), file_) ==
                  buffer_.size();
    ok = ok && std::fflush(file_) == 0;
#ifdef VEGA_HAVE_FSYNC
    // Group commit is only a durability boundary if the appended
    // records hit stable storage, matching write_file_atomic.
    ok = ok && fsync(fileno(file_)) == 0;
#endif
    if (!ok)
        return make_error(ErrorCode::IoError,
                          "append failed on " + path_);
    bytes_written_ += buffer_.size();
    byte_counter.add(buffer_.size());
    buffer_.clear();
    return {};
}

} // namespace vega::campaign
