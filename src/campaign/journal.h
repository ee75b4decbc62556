/**
 * @file
 * Crash-safe, end-to-end checksummed campaign journal.
 *
 * A long campaign that dies at job 9,000 of 10,000 — OOM kill, power
 * loss, ctrl-C — should not forfeit the first 9,000 results. The
 * journal checkpoints every completed (or quarantined) job as it
 * lands; `vega_campaign --resume` reloads it, skips the recorded
 * jobs, and produces a report byte-identical to an uninterrupted run
 * (the determinism contract in campaign.h makes the remaining jobs
 * independent of the interruption).
 *
 * v2 format — a line-oriented text file where every payload line is
 * prefixed with the CRC32C of its body, DAOS-style end-to-end
 * integrity (the producer computes, every consumer verifies):
 *
 *   # vega campaign journal v2
 *   <crc8> config module=<m> seed=<s> jobs=<n> pairs=<p>
 *          constants=<c> policies=<y> max_slots=<k> suite=<t>
 *          probability=<pr> shards=<N> shard=<K>
 *   <crc8> job <id> <pair> <constant> <policy> <detected> <kind>
 *          <slots> <tests> <cycles> <corrupts> <escape> <attempts>
 *   <crc8> failed <id> <pair> <attempts> <code> <context...>
 *   trailer records=<n> crc=<rolling8>
 *
 * (each record is a single line; wrapped here for width.) <crc8> is
 * the CRC32C of everything after the "<crc8> " prefix; the trailer's
 * rolling checksum covers every body (config included) plus its
 * newline, and is appended by finalize() once every owned job has
 * settled. A journal without a trailer is *in progress* — legal to
 * resume, rejected by the shard aggregator as shard-incomplete.
 *
 * Durability protocol: open() writes the header (and any resumed
 * records) via write-temp-then-rename, then records are *appended* —
 * the per-line checksums make a torn tail detectable, so the v1
 * rewrite-whole-file-per-flush (O(n²) bytes over a campaign) is gone.
 * A crash can leave at most one torn final line plus the records
 * buffered since the last flush; resume drops the torn tail with a
 * warning and re-runs those jobs. Flush granularity is group-commit:
 * record() buffers, and the buffer is appended + fsynced every
 * @p flush_every records (default every record) plus once at sync().
 *
 * v1 files (no checksums) are refused with JournalCorrupt. The config
 * line fingerprints the campaign — including the shard split — and
 * resuming under a different configuration is refused with
 * JournalMismatch rather than silently mixing incompatible results.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/job.h"
#include "common/checksum.h"
#include "common/error.h"

namespace vega::campaign {

/** Campaign-configuration fingerprint stored in the config line. */
struct JournalHeader
{
    std::string module;
    uint64_t seed = 0;
    uint64_t num_jobs = 0;
    uint64_t num_pairs = 0;
    uint64_t num_constants = 0;
    uint64_t num_policies = 0;
    uint64_t max_slots = 0;
    uint64_t suite_size = 0;
    double probability = 1.0;
    /** Shard split this journal belongs to (1/0 = unsharded). */
    uint64_t num_shards = 1;
    uint64_t shard_id = 0;

    bool operator==(const JournalHeader &o) const;
    /** Equal up to the shard assignment — the aggregator's check that
     *  two shard journals came from the same campaign. */
    bool same_campaign(const JournalHeader &o) const;
    std::string to_string() const;
};

/** Everything a journal file records. */
struct JournalState
{
    JournalHeader header;
    std::vector<JobResult> completed;
    std::vector<FailedJob> failed;

    /** The finalize() trailer was present and verified. */
    bool has_trailer = false;
    /** A torn final line was detected and dropped (resume path). */
    bool torn_tail = false;
    /** job + failed records read (the trailer's records= count). */
    uint64_t records = 0;
    /** Rolling CRC32C over all payload bodies (what the trailer pins). */
    uint32_t rolling_crc = 0;
};

/**
 * One record's journal body — no checksum prefix, no newline. The
 * writer checksums and frames these; exposed so tests (and the
 * corruptor harness) can craft fixture files.
 */
std::string render_record(const JobResult &r);
std::string render_record(const FailedJob &f);

struct JournalReadOptions
{
    /**
     * Refuse journals without a verified trailer (ShardIncomplete).
     * The aggregator sets this: an unfinalized shard must be resumed,
     * not merged.
     */
    bool require_trailer = false;
    /**
     * Drop a checksum-failing or newline-less *final* line of an
     * unfinalized journal instead of erroring — the signature of a
     * crash mid-append. The resume path wants this; the aggregator
     * does not (its shards must be finalized anyway).
     */
    bool allow_torn_tail = true;
};

/**
 * Parse and verify a journal file. Unreadable => IoError; malformed
 * or checksum-failing lines => JournalCorrupt / JournalRecordCorrupt
 * with the line number; trailer count or rolling-checksum mismatch =>
 * JournalTrailerMismatch; missing trailer under require_trailer =>
 * ShardIncomplete.
 */
Expected<JournalState> read_journal(const std::string &path,
                                    const JournalReadOptions &opts = {});

/**
 * Appends checksummed job records with group-commit durability. Not
 * thread-safe; the campaign serializes appends behind a mutex.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Start journaling to @p path with @p header, seeding the file
     * with @p prior records (the resume case). Truncates any existing
     * file — call read_journal first to recover its contents.
     * @p flush_every sets the group-commit size (min 1).
     */
    Expected<void> open(const std::string &path,
                        const JournalHeader &header,
                        const JournalState *prior = nullptr,
                        size_t flush_every = 1);

    Expected<void> record(const JobResult &result);
    Expected<void> record(const FailedJob &failure);

    /** Flush any buffered records; call before declaring success. */
    Expected<void> sync();

    /**
     * Flush, append the integrity trailer, and close. Only call once
     * every job this journal owns has settled: a trailer marks the
     * shard complete and mergeable. Further record() calls are a bug.
     */
    Expected<void> finalize();

    bool is_open() const { return file_ != nullptr; }
    bool finalized() const { return finalized_; }
    const std::string &path() const { return path_; }

    /** job + failed records written so far. */
    uint64_t records() const { return records_; }
    /** Physical write batches (the initial rewrite plus appends). */
    uint64_t flushes() const { return flushes_; }
    /** Total bytes written across those batches. */
    uint64_t bytes_written() const { return bytes_written_; }

  private:
    Expected<void> append_line(const std::string &body);
    Expected<void> after_record();
    Expected<void> flush();
    void close();

    std::string path_;
    std::FILE *file_ = nullptr;
    std::string buffer_;
    Crc32c rolling_;
    size_t flush_every_ = 1;
    size_t unflushed_ = 0;
    bool finalized_ = false;
    uint64_t records_ = 0;
    uint64_t flushes_ = 0;
    uint64_t bytes_written_ = 0;
};

} // namespace vega::campaign
