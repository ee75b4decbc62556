/**
 * Fault-tolerance layer: Expected/VegaError plumbing, the atomic
 * write-temp-then-rename protocol, the crash-safe campaign journal,
 * retry/quarantine of throwing jobs, and kill-and-resume determinism.
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "common/error.h"
#include "common/fs.h"
#include "cpu/alu_ops.h"
#include "journal_corruptor.h"
#include "rtl/alu32.h"

namespace vega::campaign {
namespace {

std::string
tmp_path(const char *name)
{
    return testing::TempDir() + "vega_ft_" + name;
}

// ---- Expected / VegaError ------------------------------------------------

TEST(Expected, CarriesValueOrError)
{
    Expected<int> good = 42;
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, 42);

    Expected<int> bad = make_error(ErrorCode::ParseError, "line 3: nope");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::ParseError);
    EXPECT_EQ(bad.error().to_string(), "parse-error: line 3: nope");

    Expected<void> ok;
    EXPECT_TRUE(ok.ok());
    Expected<void> err = make_error(ErrorCode::IoError, "disk gone");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.error().code, ErrorCode::IoError);
}

TEST(Expected, ErrorCodeNamesAreStableAndRoundTrip)
{
    for (ErrorCode c :
         {ErrorCode::InvalidArgument, ErrorCode::ParseError,
          ErrorCode::ValidationError, ErrorCode::IoError,
          ErrorCode::Timeout, ErrorCode::Exhausted, ErrorCode::JobFailed,
          ErrorCode::JournalCorrupt, ErrorCode::JournalMismatch,
          ErrorCode::JournalRecordCorrupt,
          ErrorCode::JournalTrailerMismatch, ErrorCode::ShardIncomplete})
        EXPECT_EQ(parse_error_code(error_code_name(c)), c);
    EXPECT_EQ(parse_error_code("no-such-code"), ErrorCode::Ok);
    EXPECT_STREQ(error_code_name(ErrorCode::JobFailed), "job-failed");
    EXPECT_STREQ(error_code_name(ErrorCode::JournalRecordCorrupt),
                 "journal-record-corrupt");
    EXPECT_STREQ(error_code_name(ErrorCode::JournalTrailerMismatch),
                 "journal-trailer-mismatch");
    EXPECT_STREQ(error_code_name(ErrorCode::ShardIncomplete),
                 "shard-incomplete");
}

// ---- atomic file writes --------------------------------------------------

TEST(AtomicWrite, WritesContentAndCleansUpTempFile)
{
    std::string path = tmp_path("atomic.txt");
    std::remove(path.c_str());

    Expected<void> ok = write_file_atomic(path, "hello\nworld\n");
    ASSERT_TRUE(ok.ok()) << ok.error().to_string();

    Expected<std::string> back = read_file(path);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, "hello\nworld\n");

    // The temp-then-rename protocol must not leave its staging file.
    EXPECT_FALSE(file_exists(atomic_temp_path(path)));
    // The staging file lives next to the target (same filesystem), so
    // the final rename is atomic.
    EXPECT_EQ(atomic_temp_path(path), path + ".tmp");
    std::remove(path.c_str());
}

TEST(AtomicWrite, ReplacesExistingContentCompletely)
{
    std::string path = tmp_path("atomic2.txt");
    ASSERT_TRUE(write_file_atomic(path, "a much longer first version"));
    ASSERT_TRUE(write_file_atomic(path, "v2"));
    Expected<std::string> back = read_file(path);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, "v2");
    std::remove(path.c_str());
}

TEST(AtomicWrite, UnwritableTargetIsIoErrorNotCrash)
{
    Expected<void> r =
        write_file_atomic("/nonexistent-dir/deep/report.json", "x");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::IoError);
}

TEST(ReadFile, MissingFileIsIoError)
{
    Expected<std::string> r = read_file(tmp_path("never-created"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::IoError);
}

// ---- journal -------------------------------------------------------------

JournalHeader
header_fixture()
{
    JournalHeader h;
    h.module = "alu32";
    h.seed = 7;
    h.num_jobs = 10;
    h.num_pairs = 2;
    h.num_constants = 2;
    h.num_policies = 3;
    h.max_slots = 6;
    h.suite_size = 4;
    h.probability = 0.5;
    return h;
}

TEST(Journal, RoundTripsJobsAndFailures)
{
    std::string path = tmp_path("journal1.log");
    std::remove(path.c_str());

    JournalWriter w;
    ASSERT_TRUE(w.open(path, header_fixture()).ok());

    JobResult r;
    r.id = 3;
    r.pair_index = 1;
    r.constant = lift::FaultConstant::One;
    r.policy = runtime::SchedulePolicy::Probabilistic;
    r.detected = true;
    r.kind = runtime::Detection::Stall;
    r.slots_to_detect = 4;
    r.tests_dispatched = 9;
    r.sim_cycles = 1234;
    r.corrupts_workload = true;
    r.escape = false;
    r.attempts = 2;
    ASSERT_TRUE(w.record(r).ok());

    FailedJob f;
    f.id = 5;
    f.pair_index = 0;
    f.attempts = 3;
    f.error = make_error(ErrorCode::JobFailed,
                         "attempt 3: injected fault");
    ASSERT_TRUE(w.record(f).ok());

    Expected<JournalState> st = read_journal(path);
    ASSERT_TRUE(st.ok()) << st.error().to_string();
    EXPECT_TRUE(st->header == header_fixture());
    ASSERT_EQ(st->completed.size(), 1u);
    const JobResult &back = st->completed[0];
    EXPECT_EQ(back.id, 3u);
    EXPECT_EQ(back.pair_index, 1u);
    EXPECT_EQ(back.constant, lift::FaultConstant::One);
    EXPECT_EQ(back.policy, runtime::SchedulePolicy::Probabilistic);
    EXPECT_TRUE(back.detected);
    EXPECT_EQ(back.kind, runtime::Detection::Stall);
    EXPECT_EQ(back.slots_to_detect, 4u);
    EXPECT_EQ(back.tests_dispatched, 9u);
    EXPECT_EQ(back.sim_cycles, 1234u);
    EXPECT_TRUE(back.corrupts_workload);
    EXPECT_FALSE(back.escape);
    EXPECT_EQ(back.attempts, 2u);
    ASSERT_EQ(st->failed.size(), 1u);
    EXPECT_EQ(st->failed[0].id, 5u);
    EXPECT_EQ(st->failed[0].attempts, 3u);
    EXPECT_EQ(st->failed[0].error.code, ErrorCode::JobFailed);
    EXPECT_EQ(st->failed[0].error.context, "attempt 3: injected fault");

    // Every append goes through the atomic protocol: no staging file.
    EXPECT_FALSE(file_exists(atomic_temp_path(path)));
    std::remove(path.c_str());
}

TEST(Journal, GroupCommitFlushesEveryNRecordsAndOnSync)
{
    std::string path = tmp_path("journal_batched.log");
    std::remove(path.c_str());

    JournalWriter w;
    ASSERT_TRUE(w.open(path, header_fixture(), nullptr, 4).ok());
    uint64_t flushes_after_open = w.flushes();

    auto on_disk = [&] {
        Expected<JournalState> st = read_journal(path);
        EXPECT_TRUE(st.ok()) << st.error().to_string();
        return st.ok() ? st->completed.size() : size_t(0);
    };

    JobResult r;
    r.constant = lift::FaultConstant::Zero;
    r.policy = runtime::SchedulePolicy::Sequential;
    for (uint64_t id = 0; id < 3; ++id) {
        r.id = id;
        ASSERT_TRUE(w.record(r).ok());
    }
    // Three records are buffered; the file still holds only the header.
    EXPECT_EQ(on_disk(), 0u);
    EXPECT_EQ(w.flushes(), flushes_after_open);

    r.id = 3;
    ASSERT_TRUE(w.record(r).ok());
    // The fourth record tripped the group commit.
    EXPECT_EQ(on_disk(), 4u);
    EXPECT_EQ(w.flushes(), flushes_after_open + 1);

    r.id = 4;
    ASSERT_TRUE(w.record(r).ok());
    EXPECT_EQ(on_disk(), 4u);
    ASSERT_TRUE(w.sync().ok());
    EXPECT_EQ(on_disk(), 5u);
    // A second sync with nothing buffered is a no-op, not a rewrite.
    uint64_t flushes_after_sync = w.flushes();
    ASSERT_TRUE(w.sync().ok());
    EXPECT_EQ(w.flushes(), flushes_after_sync);
    std::remove(path.c_str());
}

TEST(Journal, AppendsRatherThanRewrites)
{
    std::string path = tmp_path("journal_append.log");
    std::remove(path.c_str());

    // Regression for the v1 flush that rewrote the whole file each
    // group commit (O(n^2) bytes over a campaign): with per-record
    // flushing, total bytes written must equal the final file size —
    // one structural header write plus pure appends.
    JournalWriter w;
    ASSERT_TRUE(w.open(path, header_fixture(), nullptr, 1).ok());
    JobResult r;
    r.constant = lift::FaultConstant::Zero;
    r.policy = runtime::SchedulePolicy::Sequential;
    const uint64_t n = 50;
    for (uint64_t id = 0; id < n; ++id) {
        r.id = id;
        ASSERT_TRUE(w.record(r).ok());
    }
    ASSERT_TRUE(w.sync().ok());

    Expected<std::string> on_disk = read_file(path);
    ASSERT_TRUE(on_disk.ok());
    EXPECT_EQ(w.bytes_written(), on_disk->size());
    EXPECT_EQ(w.flushes(), 1 + n); // the open() write + one per record
    std::remove(path.c_str());
}

TEST(Journal, FinalizeAppendsAVerifiableTrailer)
{
    std::string path = tmp_path("journal_trailer.log");
    std::remove(path.c_str());

    JournalWriter w;
    ASSERT_TRUE(w.open(path, header_fixture()).ok());
    JobResult r;
    r.constant = lift::FaultConstant::One;
    r.policy = runtime::SchedulePolicy::Random;
    for (uint64_t id = 0; id < 3; ++id) {
        r.id = id;
        ASSERT_TRUE(w.record(r).ok());
    }

    // Unfinalized: readable, but not mergeable.
    JournalReadOptions strict;
    strict.require_trailer = true;
    Expected<JournalState> open_state = read_journal(path, strict);
    ASSERT_FALSE(open_state.ok());
    EXPECT_EQ(open_state.error().code, ErrorCode::ShardIncomplete);

    ASSERT_TRUE(w.finalize().ok());
    EXPECT_TRUE(w.finalized());
    EXPECT_FALSE(w.is_open());

    Expected<JournalState> st = read_journal(path, strict);
    ASSERT_TRUE(st.ok()) << st.error().to_string();
    EXPECT_TRUE(st->has_trailer);
    EXPECT_EQ(st->records, 3u);
    EXPECT_EQ(st->completed.size(), 3u);
    std::remove(path.c_str());
}

TEST(Journal, TornFinalLineIsDroppedOnResumeOnly)
{
    std::string path = tmp_path("journal_torn.log");
    std::remove(path.c_str());

    {
        JournalWriter w;
        ASSERT_TRUE(w.open(path, header_fixture(), nullptr, 1).ok());
        JobResult r;
        r.constant = lift::FaultConstant::Zero;
        r.policy = runtime::SchedulePolicy::Sequential;
        for (uint64_t id = 0; id < 3; ++id) {
            r.id = id;
            ASSERT_TRUE(w.record(r).ok());
        }
        ASSERT_TRUE(w.sync().ok());
        // No finalize: the process "dies" here.
    }

    // Simulate a crash mid-append: a partial record with no newline.
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "deadbeef job 9 1 ze";
    std::fwrite(torn, 1, sizeof torn - 1, f);
    std::fclose(f);

    // The resume path (default options) drops exactly the torn tail.
    Expected<JournalState> st = read_journal(path);
    ASSERT_TRUE(st.ok()) << st.error().to_string();
    EXPECT_TRUE(st->torn_tail);
    EXPECT_FALSE(st->has_trailer);
    EXPECT_EQ(st->completed.size(), 3u);

    // The aggregator's strict read refuses the same file.
    JournalReadOptions strict;
    strict.allow_torn_tail = false;
    Expected<JournalState> hard = read_journal(path, strict);
    ASSERT_FALSE(hard.ok());
    EXPECT_EQ(hard.error().code, ErrorCode::JournalRecordCorrupt);

    // A checksum failure that is NOT the final line is damage, never
    // a torn append — rejected even by the tolerant read.
    corrupt::flip_bit(path, "job 1 ");
    Expected<JournalState> mid = read_journal(path);
    ASSERT_FALSE(mid.ok());
    EXPECT_EQ(mid.error().code, ErrorCode::JournalRecordCorrupt);
    EXPECT_NE(mid.error().context.find("job 1"), std::string::npos)
        << mid.error().context;
    std::remove(path.c_str());
}

TEST(Journal, GarbageIsJournalCorruptWithLineNumber)
{
    std::string path = tmp_path("journal_garbage.log");
    ASSERT_TRUE(write_file_atomic(path, "not a journal at all\n"));
    Expected<JournalState> st = read_journal(path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, ErrorCode::JournalCorrupt);
    EXPECT_NE(st.error().context.find(":1:"), std::string::npos)
        << st.error().context;
    std::remove(path.c_str());
}

TEST(Journal, TruncatedRecordIsJournalCorrupt)
{
    // Intact checksums around a record cut short: a parse error, not a
    // checksum failure.
    auto line = [](const std::string &body) {
        return crc32c_hex(crc32c(body)) + " " + body + "\n";
    };
    std::string path = tmp_path("journal_trunc.log");
    ASSERT_TRUE(write_file_atomic(
        path, "# vega campaign journal v2\n" +
                  line(header_fixture().to_string()) +
                  line("job 3 1 C=1")));
    Expected<JournalState> st = read_journal(path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, ErrorCode::JournalCorrupt);
    EXPECT_NE(st.error().context.find(":3:"), std::string::npos)
        << st.error().context;
    std::remove(path.c_str());
}

TEST(Journal, MissingFileIsIoError)
{
    Expected<JournalState> st = read_journal(tmp_path("no-journal"));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, ErrorCode::IoError);
}

// ---- campaign retry / quarantine / resume --------------------------------

/** One analyzed ALU + a small synthetic screening suite, built once. */
struct CampaignEnv
{
    HwModule module;
    std::vector<sta::EndpointPair> pairs;
    std::vector<runtime::TestCase> suite;
};

runtime::TestCase
alu_test(const char *name, AluOp op, uint32_t a, uint32_t b, int pair)
{
    runtime::TestCase tc;
    tc.name = name;
    tc.module = ModuleKind::Alu32;
    tc.stimulus = {runtime::ModuleStep{a, b, uint32_t(op), true, false}};
    tc.checks = {{0, alu_compute(op, a, b), false}};
    tc.pair_index = pair;
    runtime::finalize_test_case(tc);
    return tc;
}

const CampaignEnv &
env()
{
    static CampaignEnv *e = [] {
        auto *env = new CampaignEnv;
        env->module = rtl::make_alu32();
        auto lib =
            aging::AgingTimingLibrary::build(aging::RdModelParams{});
        AgingAnalysisConfig cfg;
        cfg.utilization = 0.99;
        cfg.max_trace = 1500;
        auto aged = run_aging_analysis(env->module, lib, minver_trace(),
                                       cfg);
        env->pairs = aged.liftable_pairs();
        if (env->pairs.size() > 2)
            env->pairs.resize(2);
        env->suite = {
            alu_test("f0", AluOp::Add, 0xffffffff, 1, 0),
            alu_test("f1", AluOp::Sub, 0, 1, 0),
            alu_test("f2", AluOp::Xor, 0xaaaaaaaa, 0x55555555, 1),
            alu_test("f3", AluOp::Sll, 1, 31, 1),
        };
        return env;
    }();
    return *e;
}

CampaignConfig
small_config(size_t threads)
{
    CampaignConfig cfg;
    cfg.seed = 99;
    cfg.num_jobs = 12;
    cfg.threads = threads;
    cfg.max_slots = 6;
    return cfg;
}

TEST(CampaignFaults, BadConfigIsInvalidArgumentNotAbort)
{
    const CampaignEnv &e = env();
    CampaignConfig cfg = small_config(1);
    cfg.num_jobs = 0;
    Expected<CampaignReport> r =
        try_run_campaign(e.module, e.pairs, e.suite, cfg);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);

    Expected<CampaignReport> r2 =
        try_run_campaign(e.module, e.pairs, {}, small_config(1));
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.error().code, ErrorCode::InvalidArgument);
}

TEST(CampaignFaults, TransientJobFailureRetriesWithFreshSeed)
{
    const CampaignEnv &e = env();
    CampaignConfig cfg = small_config(2);
    cfg.max_job_attempts = 3;
    cfg.job_fault_hook = [](const JobSpec &spec, int attempt) {
        if (spec.id == 4 && attempt == 1)
            throw std::runtime_error("transient trap");
    };
    Expected<CampaignReport> r =
        try_run_campaign(e.module, e.pairs, e.suite, cfg);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    ASSERT_EQ(r->jobs.size(), 12u);
    EXPECT_TRUE(r->failed_jobs.empty());
    EXPECT_EQ(r->failed, 0u);
    for (const JobResult &j : r->jobs)
        EXPECT_EQ(j.attempts, j.id == 4 ? 2u : 1u) << "job " << j.id;
}

TEST(CampaignFaults, AlwaysTrappingJobIsQuarantinedNotFatal)
{
    const CampaignEnv &e = env();
    CampaignConfig cfg = small_config(2);
    cfg.max_job_attempts = 3;
    cfg.job_fault_hook = [](const JobSpec &spec, int) {
        if (spec.id == 7)
            throw std::runtime_error("poisoned job");
    };
    Expected<CampaignReport> r =
        try_run_campaign(e.module, e.pairs, e.suite, cfg);
    ASSERT_TRUE(r.ok()) << r.error().to_string();

    // The other 11 jobs completed; job 7 is a structured failed_jobs
    // entry with its attempt count and error code — not an abort, and
    // not silently dropped.
    EXPECT_EQ(r->jobs.size(), 11u);
    EXPECT_EQ(r->failed, 1u);
    ASSERT_EQ(r->failed_jobs.size(), 1u);
    const FailedJob &f = r->failed_jobs[0];
    EXPECT_EQ(f.id, 7u);
    EXPECT_EQ(f.attempts, 3u);
    EXPECT_EQ(f.error.code, ErrorCode::JobFailed);
    EXPECT_NE(f.error.context.find("poisoned job"), std::string::npos);
    for (const JobResult &j : r->jobs)
        EXPECT_NE(j.id, 7u);

    std::string json = r->to_json(false);
    EXPECT_NE(json.find("\"failed\":1"), std::string::npos);
    EXPECT_NE(json.find("\"failed_jobs\":[{\"id\":7"), std::string::npos);
    EXPECT_NE(json.find("\"code\":\"job-failed\""), std::string::npos);
}

TEST(CampaignFaults, KillAndResumeReportIsByteIdentical)
{
    const CampaignEnv &e = env();
    std::string journal = tmp_path("resume.journal");
    std::remove(journal.c_str());

    // Reference: one uninterrupted run, no journal.
    CampaignReport ref =
        run_campaign(e.module, e.pairs, e.suite, small_config(1));

    // Run A: journaled, "killed" after 5 completed jobs.
    CampaignConfig killed = small_config(1);
    killed.journal_path = journal;
    killed.stop_after_jobs = 5;
    Expected<CampaignReport> partial =
        try_run_campaign(e.module, e.pairs, e.suite, killed);
    ASSERT_TRUE(partial.ok()) << partial.error().to_string();
    EXPECT_LT(partial->jobs.size(), 12u);
    EXPECT_GE(partial->jobs.size(), 5u);

    // The journal on disk is a valid snapshot of the completed jobs.
    Expected<JournalState> snap = read_journal(journal);
    ASSERT_TRUE(snap.ok()) << snap.error().to_string();
    EXPECT_EQ(snap->completed.size(), partial->jobs.size());

    // Run B: resume, finishing the rest.
    CampaignConfig resumed = small_config(1);
    resumed.journal_path = journal;
    resumed.resume = true;
    Expected<CampaignReport> full =
        try_run_campaign(e.module, e.pairs, e.suite, resumed);
    ASSERT_TRUE(full.ok()) << full.error().to_string();

    EXPECT_EQ(full->to_json(false), ref.to_json(false));
    std::remove(journal.c_str());
}

TEST(CampaignFaults, V1JournalIsRefused)
{
    const CampaignEnv &e = env();
    std::string journal = tmp_path("v1_refused.journal");
    std::remove(journal.c_str());

    // Produce a genuine partial journal, then rewrite it in the retired
    // v1 format: no checksums, no shard fields, no trailer.
    CampaignConfig killed = small_config(1);
    killed.journal_path = journal;
    killed.stop_after_jobs = 5;
    Expected<CampaignReport> partial =
        try_run_campaign(e.module, e.pairs, e.suite, killed);
    ASSERT_TRUE(partial.ok()) << partial.error().to_string();
    Expected<JournalState> snap = read_journal(journal);
    ASSERT_TRUE(snap.ok()) << snap.error().to_string();

    std::string config_line = snap->header.to_string();
    config_line.erase(config_line.find(" shards="));
    std::string v1 = "# vega campaign journal v1\n" + config_line + "\n";
    for (const JobResult &r : snap->completed)
        v1 += render_record(r) + "\n";
    ASSERT_TRUE(write_file_atomic(journal, v1).ok());

    // Neither a read nor a resume accepts it, and the error says why.
    Expected<JournalState> legacy = read_journal(journal);
    ASSERT_FALSE(legacy.ok());
    EXPECT_EQ(legacy.error().code, ErrorCode::JournalCorrupt);
    EXPECT_NE(legacy.error().context.find("v1"), std::string::npos)
        << legacy.error().context;
    EXPECT_NE(legacy.error().context.find("no longer read"),
              std::string::npos)
        << legacy.error().context;

    CampaignConfig resumed = small_config(1);
    resumed.journal_path = journal;
    resumed.resume = true;
    Expected<CampaignReport> r =
        try_run_campaign(e.module, e.pairs, e.suite, resumed);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::JournalCorrupt);
    std::remove(journal.c_str());
}

TEST(CampaignFaults, ResumeUnderDifferentConfigIsJournalMismatch)
{
    const CampaignEnv &e = env();
    std::string journal = tmp_path("mismatch.journal");
    std::remove(journal.c_str());

    CampaignConfig first = small_config(1);
    first.journal_path = journal;
    first.stop_after_jobs = 2;
    ASSERT_TRUE(
        try_run_campaign(e.module, e.pairs, e.suite, first).ok());

    CampaignConfig other = small_config(1);
    other.journal_path = journal;
    other.resume = true;
    other.seed = 123; // different campaign
    Expected<CampaignReport> r =
        try_run_campaign(e.module, e.pairs, e.suite, other);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::JournalMismatch);
    std::remove(journal.c_str());
}

TEST(CampaignFaults, QuarantineIsStickyAcrossResume)
{
    const CampaignEnv &e = env();
    std::string journal = tmp_path("sticky.journal");
    std::remove(journal.c_str());

    CampaignConfig first = small_config(1);
    first.journal_path = journal;
    first.max_job_attempts = 2;
    first.job_fault_hook = [](const JobSpec &spec, int) {
        if (spec.id == 2)
            throw std::runtime_error("always traps");
    };
    Expected<CampaignReport> a =
        try_run_campaign(e.module, e.pairs, e.suite, first);
    ASSERT_TRUE(a.ok());
    ASSERT_EQ(a->failed_jobs.size(), 1u);

    // Resume without the fault hook: the quarantined job stays
    // quarantined (it is settled in the journal) rather than rerun.
    CampaignConfig second = small_config(1);
    second.journal_path = journal;
    second.resume = true;
    Expected<CampaignReport> b =
        try_run_campaign(e.module, e.pairs, e.suite, second);
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(b->failed_jobs.size(), 1u);
    EXPECT_EQ(b->failed_jobs[0].id, 2u);
    EXPECT_EQ(b->to_json(false), a->to_json(false));
    std::remove(journal.c_str());
}

} // namespace
} // namespace vega::campaign
