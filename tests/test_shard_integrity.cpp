/**
 * Sharded fleet-mode campaigns: the deterministic job-space partition,
 * canonical shard-journal discovery, aggregation byte-identity against
 * a single-process run, kill-and-resume of an individual shard, and —
 * via the journal corruptor harness — proof that every corruption
 * class (bit rot, torn writes, dropped/duplicated/transplanted
 * records, forged trailers, foreign journals) is pinpointed with a
 * structured error naming the damaged shard and record instead of
 * being folded into fleet statistics.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/aggregator.h"
#include "campaign/campaign.h"
#include "campaign/journal.h"
#include "campaign/shard.h"
#include "common/fs.h"
#include "cpu/alu_ops.h"
#include "journal_corruptor.h"
#include "rtl/alu32.h"
#include "vega/workflow.h"

namespace vega::campaign {
namespace {

std::string
tmp_dir(const char *name)
{
    // Process-unique root: gtest_discover_tests runs each TEST as its
    // own process, and a parallel ctest would otherwise have several
    // processes rebuilding the same golden fleet directory at once.
    static const std::string root =
        testing::TempDir() + "vega_shard_" +
        std::to_string(uint64_t(::getpid())) + "_";
    return root + name;
}

std::string
fresh_dir(const char *name)
{
    std::string dir = tmp_dir(name);
    std::filesystem::remove_all(dir);
    EXPECT_TRUE(make_dirs(dir).ok());
    return dir;
}

// ---- partition + naming --------------------------------------------------

TEST(ShardSpec, PartitionCoversEveryJobExactlyOnce)
{
    const uint64_t jobs = 97;
    for (uint64_t n : {uint64_t(1), uint64_t(3), uint64_t(4),
                       uint64_t(13)}) {
        uint64_t total = 0;
        for (uint64_t k = 0; k < n; ++k) {
            ShardSpec shard{n, k};
            uint64_t count = 0;
            for (uint64_t id = 0; id < jobs; ++id)
                if (shard_owns(shard, id))
                    ++count;
            EXPECT_EQ(count, shard_job_count(shard, jobs))
                << "shard " << k << " of " << n;
            total += count;
        }
        EXPECT_EQ(total, jobs) << n << " shards";
        // Exactly one owner per job.
        for (uint64_t id = 0; id < jobs; ++id) {
            uint64_t owners = 0;
            for (uint64_t k = 0; k < n; ++k)
                if (shard_owns(ShardSpec{n, k}, id))
                    ++owners;
            EXPECT_EQ(owners, 1u) << "job " << id << ", " << n
                                  << " shards";
        }
    }
}

TEST(ShardSpec, JournalFilenameRoundTrips)
{
    EXPECT_EQ(shard_journal_filename(2, 4), "shard-2-of-4.journal");
    EXPECT_EQ(shard_journal_path("/fleet/run1", 0, 8),
              "/fleet/run1/shard-0-of-8.journal");

    uint64_t k = 0, n = 0;
    ASSERT_TRUE(
        parse_shard_journal_filename("shard-2-of-4.journal", k, n));
    EXPECT_EQ(k, 2u);
    EXPECT_EQ(n, 4u);
    ASSERT_TRUE(
        parse_shard_journal_filename("shard-11-of-12.journal", k, n));
    EXPECT_EQ(k, 11u);
    EXPECT_EQ(n, 12u);

    // Only the canonical rendering is a shard journal.
    for (const char *bad :
         {"shard-2-of-4.journal.bak", "shard-x-of-4.journal",
          "shard-2-of-.journal", "shard-02-of-4.journal",
          "notes.txt", "shard-2-of-4", ""})
        EXPECT_FALSE(parse_shard_journal_filename(bad, k, n)) << bad;
}

TEST(ShardJournals, DiscoveryListsCanonicalNamesSorted)
{
    std::string dir = fresh_dir("discover");
    // Created out of order, with decoys the listing must ignore.
    corrupt::spew(dir + "/shard-1-of-2.journal", "x");
    corrupt::spew(dir + "/notes.txt", "x");
    corrupt::spew(dir + "/shard-9.journal", "x");
    corrupt::spew(dir + "/shard-0-of-2.journal", "x");

    Expected<std::vector<std::string>> paths = list_shard_journals(dir);
    ASSERT_TRUE(paths.ok()) << paths.error().to_string();
    ASSERT_EQ(paths->size(), 2u);
    EXPECT_EQ((*paths)[0], dir + "/shard-0-of-2.journal");
    EXPECT_EQ((*paths)[1], dir + "/shard-1-of-2.journal");
}

TEST(ShardJournals, MissingDirAndEmptyDirAreStructuredErrors)
{
    Expected<std::vector<std::string>> missing =
        list_shard_journals(tmp_dir("never-created"));
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, ErrorCode::IoError);

    std::string dir = fresh_dir("empty");
    Expected<std::vector<std::string>> none = list_shard_journals(dir);
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.error().code, ErrorCode::InvalidArgument);
}

// ---- fleet fixture -------------------------------------------------------

constexpr uint64_t kShards = 4;

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

CampaignConfig
base_config()
{
    CampaignConfig cfg;
    cfg.seed = 99;
    cfg.num_jobs = 12;
    cfg.threads = 1;
    cfg.max_slots = 6;
    return cfg;
}

/**
 * One analyzed ALU, an unsharded reference report, and a "golden"
 * directory of 4 finalized shard journals of the same campaign —
 * built once, then copied per corruption scenario.
 */
struct FleetEnv
{
    HwModule module;
    std::vector<sta::EndpointPair> pairs;
    std::vector<runtime::TestCase> suite;
    CampaignReport ref;
    std::string golden_dir;
};

const FleetEnv &
env()
{
    static FleetEnv *e = [] {
        auto *env = new FleetEnv;
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

        env->ref = run_campaign(env->module, env->pairs, env->suite,
                                base_config());

        env->golden_dir = tmp_dir("golden");
        std::filesystem::remove_all(env->golden_dir);
        EXPECT_TRUE(make_dirs(env->golden_dir).ok());
        for (uint64_t k = 0; k < kShards; ++k) {
            CampaignConfig cfg = base_config();
            cfg.num_shards = kShards;
            cfg.shard_id = k;
            cfg.journal_path =
                shard_journal_path(env->golden_dir, k, kShards);
            Expected<CampaignReport> r = try_run_campaign(
                env->module, env->pairs, env->suite, cfg);
            if (!r.ok())
                ADD_FAILURE() << "golden shard " << k << ": "
                              << r.error().to_string();
        }
        return env;
    }();
    return *e;
}

/** Copy the golden shard journals into a fresh scenario directory. */
std::string
fleet_copy(const char *name)
{
    const FleetEnv &e = env();
    std::string dir = fresh_dir(name);
    for (uint64_t k = 0; k < kShards; ++k)
        corrupt::spew(
            shard_journal_path(dir, k, kShards),
            corrupt::slurp(
                shard_journal_path(e.golden_dir, k, kShards)));
    return dir;
}

std::string
shard_path(const std::string &dir, uint64_t k)
{
    return shard_journal_path(dir, k, kShards);
}

// ---- aggregation ---------------------------------------------------------

TEST(ShardFleet, AggregateIsByteIdenticalToSingleProcess)
{
    const FleetEnv &e = env();
    Expected<AggregateResult> agg = aggregate_shard_dir(e.golden_dir);
    ASSERT_TRUE(agg.ok()) << agg.error().to_string();

    // The whole point of the deterministic partition: merging the 4
    // shard journals reproduces the unsharded report byte for byte.
    EXPECT_EQ(agg->report.to_json(false), e.ref.to_json(false));

    const IntegrityManifest &m = agg->manifest;
    EXPECT_TRUE(m.ok);
    EXPECT_EQ(m.num_shards, kShards);
    EXPECT_EQ(m.num_jobs, 12u);
    EXPECT_EQ(m.total_completed + m.total_failed, 12u);
    ASSERT_EQ(m.shards.size(), kShards);
    for (uint64_t k = 0; k < kShards; ++k) {
        EXPECT_EQ(m.shards[k].shard_id, k);
        EXPECT_TRUE(m.shards[k].verified);
        EXPECT_EQ(m.shards[k].detail, "ok");
        EXPECT_EQ(m.shards[k].completed + m.shards[k].failed, 3u);
        // The manifest's checksum is the one the trailer pinned.
        Expected<JournalState> st =
            read_journal(shard_path(e.golden_dir, k));
        ASSERT_TRUE(st.ok());
        EXPECT_EQ(m.shards[k].crc, st->rolling_crc);
        EXPECT_TRUE(st->has_trailer);
    }
}

TEST(ShardFleet, ManifestJsonCarriesPerShardEvidence)
{
    Expected<AggregateResult> agg =
        aggregate_shard_dir(env().golden_dir);
    ASSERT_TRUE(agg.ok()) << agg.error().to_string();
    std::string json = agg->manifest.to_json();
    EXPECT_NE(json.find("\"integrity\":{"), std::string::npos);
    EXPECT_NE(json.find("\"num_shards\":4"), std::string::npos);
    EXPECT_NE(json.find("\"ok\":1"), std::string::npos);
    EXPECT_NE(json.find("\"shards\":[{"), std::string::npos);
    EXPECT_NE(json.find("shard-0-of-4.journal"), std::string::npos);
    EXPECT_NE(json.find("\"verdict\":\"ok\""), std::string::npos);
    // One "crc" entry per shard, each 8 hex digits.
    size_t crcs = 0;
    for (size_t pos = 0;
         (pos = json.find("\"crc\":\"", pos)) != std::string::npos;
         pos += 7)
        ++crcs;
    EXPECT_EQ(crcs, kShards);
}

TEST(ShardFleet, KilledShardIsIncompleteUntilResumed)
{
    const FleetEnv &e = env();
    std::string dir = fresh_dir("killresume");

    for (uint64_t k = 0; k < kShards; ++k) {
        CampaignConfig cfg = base_config();
        cfg.num_shards = kShards;
        cfg.shard_id = k;
        cfg.journal_path = shard_path(dir, k);
        cfg.journal_flush_every = 1;
        if (k == 1)
            cfg.stop_after_jobs = 2; // killed 2 jobs into its 3
        Expected<CampaignReport> r =
            try_run_campaign(e.module, e.pairs, e.suite, cfg);
        ASSERT_TRUE(r.ok()) << r.error().to_string();
    }

    // The killed shard has no trailer: merging now would fold a
    // partial shard into fleet statistics, so the aggregator refuses
    // and names the shard.
    Expected<AggregateResult> before = aggregate_shard_dir(dir);
    ASSERT_FALSE(before.ok());
    EXPECT_EQ(before.error().code, ErrorCode::ShardIncomplete);
    EXPECT_NE(before.error().context.find("shard-1-of-4.journal"),
              std::string::npos)
        << before.error().context;
    EXPECT_NE(before.error().context.find("no trailer"),
              std::string::npos);

    // Resume only the killed shard; the others are untouched.
    CampaignConfig resume = base_config();
    resume.num_shards = kShards;
    resume.shard_id = 1;
    resume.journal_path = shard_path(dir, 1);
    resume.resume = true;
    Expected<CampaignReport> r =
        try_run_campaign(e.module, e.pairs, e.suite, resume);
    ASSERT_TRUE(r.ok()) << r.error().to_string();

    Expected<AggregateResult> after = aggregate_shard_dir(dir);
    ASSERT_TRUE(after.ok()) << after.error().to_string();
    EXPECT_EQ(after->report.to_json(false), e.ref.to_json(false));
    EXPECT_TRUE(after->manifest.ok);
}

TEST(ShardFleet, SigkillMidWaveThenResumeIsByteIdentical)
{
    // A finished wave settles in id order under one lock and stops at
    // the job that reaches kill_after_jobs, so a SIGKILL after the
    // second record of a 3-job shard lands *mid-wave*: the two settled
    // records are appended in one call and then the process dies, and
    // the third episode has been simulated but never reaches the
    // journal. The resume must re-run exactly the missing jobs and the
    // fleet aggregate must still match the single-process report byte
    // for byte — the wave-composition-independence contract under the
    // harshest crash there is.
    const FleetEnv &e = env();
    std::string dir = fresh_dir("sigkillwave");

    for (uint64_t k = 0; k < kShards; ++k) {
        CampaignConfig cfg = base_config();
        cfg.num_shards = kShards;
        cfg.shard_id = k;
        cfg.journal_path = shard_path(dir, k);
        cfg.journal_flush_every = 1;
        if (k == 1) {
            // All 3 of shard 1's jobs share one 64-lane wave; the kill
            // triggers once its settle has appended the wave's first two
            // records. A real, uncatchable SIGKILL needs a sacrificial
            // process.
            cfg.kill_after_jobs = 2;
            pid_t pid = fork();
            ASSERT_GE(pid, 0);
            if (pid == 0) {
                (void)try_run_campaign(e.module, e.pairs, e.suite, cfg);
                _exit(0); // kill hook failed to fire
            }
            int status = 0;
            ASSERT_EQ(waitpid(pid, &status, 0), pid);
            ASSERT_TRUE(WIFSIGNALED(status));
            ASSERT_EQ(WTERMSIG(status), SIGKILL);
            continue;
        }
        Expected<CampaignReport> r =
            try_run_campaign(e.module, e.pairs, e.suite, cfg);
        ASSERT_TRUE(r.ok()) << r.error().to_string();
    }

    // The killed shard never wrote a trailer: aggregation refuses.
    Expected<AggregateResult> before = aggregate_shard_dir(dir);
    ASSERT_FALSE(before.ok());
    EXPECT_EQ(before.error().code, ErrorCode::ShardIncomplete);
    EXPECT_NE(before.error().context.find("shard-1-of-4.journal"),
              std::string::npos)
        << before.error().context;

    CampaignConfig resume = base_config();
    resume.num_shards = kShards;
    resume.shard_id = 1;
    resume.journal_path = shard_path(dir, 1);
    resume.resume = true;
    Expected<CampaignReport> r =
        try_run_campaign(e.module, e.pairs, e.suite, resume);
    ASSERT_TRUE(r.ok()) << r.error().to_string();

    Expected<AggregateResult> after = aggregate_shard_dir(dir);
    ASSERT_TRUE(after.ok()) << after.error().to_string();
    EXPECT_EQ(after->report.to_json(false), e.ref.to_json(false));
    EXPECT_TRUE(after->manifest.ok);
}

// ---- corruption scenarios ------------------------------------------------
//
// Shard ownership of the 12-job campaign: shard 0 = {0,4,8},
// shard 1 = {1,5,9}, shard 2 = {2,6,10}, shard 3 = {3,7,11}.

TEST(ShardCorruption, BitFlipIsPinpointedToShardAndRecord)
{
    std::string dir = fleet_copy("bitflip");
    ASSERT_TRUE(corrupt::flip_bit(shard_path(dir, 1), "job 5 "));

    Expected<AggregateResult> agg = aggregate_shard_dir(dir);
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.error().code, ErrorCode::JournalRecordCorrupt);
    const std::string &ctx = agg.error().context;
    EXPECT_NE(ctx.find("shard-1-of-4.journal"), std::string::npos)
        << ctx;
    EXPECT_NE(ctx.find("checksum mismatch"), std::string::npos) << ctx;
    EXPECT_NE(ctx.find("job 5"), std::string::npos) << ctx;
}

TEST(ShardCorruption, TornRecordIsRecordCorruptForTheAggregator)
{
    std::string dir = fleet_copy("torn");
    // A crash signature: trailer never written, final append cut off
    // mid-line. The resume path tolerates this; the aggregator must
    // not (the shard is simply not done).
    ASSERT_TRUE(corrupt::drop_trailer(shard_path(dir, 2)));
    corrupt::truncate_bytes(shard_path(dir, 2), 5);

    Expected<AggregateResult> agg = aggregate_shard_dir(dir);
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.error().code, ErrorCode::JournalRecordCorrupt);
    EXPECT_NE(agg.error().context.find("shard-2-of-4.journal"),
              std::string::npos)
        << agg.error().context;
}

TEST(ShardCorruption, DroppedTrailerIsShardIncomplete)
{
    std::string dir = fleet_copy("droptrailer");
    ASSERT_TRUE(corrupt::drop_trailer(shard_path(dir, 0)));

    Expected<AggregateResult> agg = aggregate_shard_dir(dir);
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.error().code, ErrorCode::ShardIncomplete);
    EXPECT_NE(agg.error().context.find("shard-0-of-4.journal"),
              std::string::npos)
        << agg.error().context;
}

TEST(ShardCorruption, TamperedTrailerIsTrailerMismatch)
{
    std::string dir = fleet_copy("tampertrailer");
    ASSERT_TRUE(corrupt::tamper_trailer_crc(shard_path(dir, 3)));

    Expected<AggregateResult> agg = aggregate_shard_dir(dir);
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.error().code, ErrorCode::JournalTrailerMismatch);
    EXPECT_NE(agg.error().context.find("rolling checksum mismatch"),
              std::string::npos)
        << agg.error().context;
}

TEST(ShardCorruption, DuplicateRecordTripsTheTrailerFirst)
{
    std::string dir = fleet_copy("dupnaive");
    ASSERT_TRUE(corrupt::duplicate_record(shard_path(dir, 1), "job 1 "));

    // Without forging the trailer, the whole-file checksum layer
    // already refuses: the record count no longer matches.
    Expected<AggregateResult> agg = aggregate_shard_dir(dir);
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.error().code, ErrorCode::JournalTrailerMismatch);
    EXPECT_NE(agg.error().context.find("trailer claims"),
              std::string::npos)
        << agg.error().context;
}

TEST(ShardCorruption, ForgedDuplicateIsCaughtByJobIdUniqueness)
{
    std::string dir = fleet_copy("dupforged");
    ASSERT_TRUE(corrupt::duplicate_record(shard_path(dir, 1), "job 1 "));
    corrupt::forge_trailer(shard_path(dir, 1));

    // Checksums all pass now — only the aggregator's fleet-wide
    // job-id uniqueness check can expose the double count.
    Expected<AggregateResult> agg = aggregate_shard_dir(dir);
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.error().code, ErrorCode::JournalRecordCorrupt);
    const std::string &ctx = agg.error().context;
    EXPECT_NE(ctx.find("duplicate record for job 1"), std::string::npos)
        << ctx;
    EXPECT_NE(ctx.find("shard 1"), std::string::npos) << ctx;
}

TEST(ShardCorruption, TransplantedRecordIsCrossShardOverlap)
{
    std::string dir = fleet_copy("transplant");
    // A record of shard 0's job 4, transplanted into shard 2's
    // journal with a consistent forged trailer: every checksum passes,
    // but job 4 does not belong to shard 2's slice.
    std::string line =
        corrupt::get_record_line(shard_path(dir, 0), "job 4 ");
    ASSERT_FALSE(line.empty());
    corrupt::insert_record_line(shard_path(dir, 2), line);
    corrupt::forge_trailer(shard_path(dir, 2));

    Expected<AggregateResult> agg = aggregate_shard_dir(dir);
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.error().code, ErrorCode::JournalRecordCorrupt);
    const std::string &ctx = agg.error().context;
    EXPECT_NE(ctx.find("cross-shard overlap"), std::string::npos) << ctx;
    EXPECT_NE(ctx.find("job 4"), std::string::npos) << ctx;
    EXPECT_NE(ctx.find("shard 2"), std::string::npos) << ctx;
    EXPECT_NE(ctx.find("owned by shard 0"), std::string::npos) << ctx;
}

TEST(ShardCorruption, DeletedRecordIsACoverageGap)
{
    std::string dir = fleet_copy("deleted");
    ASSERT_TRUE(corrupt::remove_record(shard_path(dir, 3), "job 7 "));
    corrupt::forge_trailer(shard_path(dir, 3));

    Expected<AggregateResult> agg = aggregate_shard_dir(dir);
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.error().code, ErrorCode::ShardIncomplete);
    const std::string &ctx = agg.error().context;
    EXPECT_NE(ctx.find("no record for job 7"), std::string::npos) << ctx;
    EXPECT_NE(ctx.find("shard 3"), std::string::npos) << ctx;
}

TEST(ShardCorruption, MissingShardJournalIsShardIncomplete)
{
    std::string dir = fleet_copy("missing");
    std::filesystem::remove(shard_path(dir, 2));

    Expected<AggregateResult> agg = aggregate_shard_dir(dir);
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.error().code, ErrorCode::ShardIncomplete);
    EXPECT_NE(agg.error().context.find("shard 2"), std::string::npos)
        << agg.error().context;
    EXPECT_NE(agg.error().context.find("no journal"), std::string::npos);
}

TEST(ShardCorruption, ForeignCampaignJournalIsJournalMismatch)
{
    std::string dir = fleet_copy("foreign");
    // Rewrite shard 2's campaign fingerprint (seed 99 -> 98) with a
    // valid line checksum and a forged trailer: internally consistent,
    // but it is a different campaign's journal.
    ASSERT_TRUE(corrupt::rewrite_record(shard_path(dir, 2), "config ",
                                        "seed=99", "seed=98"));
    corrupt::forge_trailer(shard_path(dir, 2));

    Expected<AggregateResult> agg = aggregate_shard_dir(dir);
    ASSERT_FALSE(agg.ok());
    EXPECT_EQ(agg.error().code, ErrorCode::JournalMismatch);
    EXPECT_NE(agg.error().context.find("different campaign"),
              std::string::npos)
        << agg.error().context;
}

} // namespace
} // namespace vega::campaign
