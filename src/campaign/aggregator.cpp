#include "campaign/aggregator.h"

#include <algorithm>

#include "campaign/shard.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vega::campaign {

using obs::kv;

std::string
IntegrityManifest::to_json() const
{
    std::string out = "{\"integrity\":{";
    kv(out, "num_shards", num_shards);
    kv(out, "num_jobs", num_jobs);
    kv(out, "total_completed", total_completed);
    kv(out, "total_failed", total_failed);
    kv(out, "ok", uint64_t(ok));
    out += "\"shards\":[";
    for (size_t i = 0; i < shards.size(); ++i) {
        const ShardVerdict &s = shards[i];
        if (i)
            out += ',';
        out += '{';
        kv(out, "shard", s.shard_id);
        kv(out, "path", s.path);
        kv(out, "completed", s.completed);
        kv(out, "failed", s.failed);
        kv(out, "crc", crc32c_hex(s.crc));
        kv(out, "verified", uint64_t(s.verified));
        kv(out, "verdict", s.detail, false);
        out += '}';
    }
    out += "]}}";
    return out;
}

Expected<AggregateResult>
aggregate_shards(const std::vector<std::string> &journal_paths)
{
    VEGA_SPAN("campaign.aggregate");
    if (journal_paths.empty())
        return make_error(ErrorCode::InvalidArgument,
                          "aggregate needs at least one shard journal");

    static obs::Counter &records_counter =
        obs::counter("campaign.aggregate_records");

    AggregateResult out;
    IntegrityManifest &manifest = out.manifest;

    // Pass 1: read + checksum-verify each shard journal. The reader
    // already enforces per-record CRCs, the rolling trailer, and the
    // presence of a trailer (an unfinalized shard must be resumed,
    // not merged).
    JournalReadOptions strict;
    strict.require_trailer = true;
    strict.allow_torn_tail = false;
    std::vector<JournalState> states;
    states.reserve(journal_paths.size());
    for (const std::string &path : journal_paths) {
        Expected<JournalState> st = read_journal(path, strict);
        if (!st)
            return st.error();
        ShardVerdict v;
        v.shard_id = st->header.shard_id;
        v.path = path;
        v.completed = st->completed.size();
        v.failed = st->failed.size();
        v.crc = st->rolling_crc;
        v.verified = true; // checksums verified; set false on any
                           // cross-shard check failure below
        manifest.shards.push_back(std::move(v));
        states.push_back(std::move(*st));
    }

    // Pass 2: the shard set itself. Same campaign fingerprint, ids
    // exactly {0..N-1}.
    const JournalHeader &first = states[0].header;
    uint64_t num_shards = first.num_shards;
    for (size_t i = 1; i < states.size(); ++i)
        if (!states[i].header.same_campaign(first))
            return make_error(
                ErrorCode::JournalMismatch,
                manifest.shards[i].path + ": shard journal '" +
                    states[i].header.to_string() +
                    "' is from a different campaign than " +
                    manifest.shards[0].path + " ('" + first.to_string() +
                    "')");
    std::vector<int> seen_shard(num_shards, -1);
    for (size_t i = 0; i < states.size(); ++i) {
        uint64_t k = states[i].header.shard_id;
        if (seen_shard[k] >= 0)
            return make_error(ErrorCode::JournalCorrupt,
                              "shard " + std::to_string(k) +
                                  " appears twice: " +
                                  manifest.shards[size_t(seen_shard[k])]
                                      .path +
                                  " and " + manifest.shards[i].path);
        seen_shard[k] = int(i);
    }
    for (uint64_t k = 0; k < num_shards; ++k)
        if (seen_shard[k] < 0)
            return make_error(ErrorCode::ShardIncomplete,
                              "shard " + std::to_string(k) + " of " +
                                  std::to_string(num_shards) +
                                  " has no journal");

    // Pass 3: the job-id space. Every id belongs to exactly one shard
    // by the partition contract; enforce ownership, uniqueness, and
    // full coverage so a duplicated or transplanted record can never
    // double-count and a dropped one can never pass unnoticed.
    uint64_t num_jobs = first.num_jobs;
    std::vector<int> owner(num_jobs, -1);
    std::vector<JobResult> results;
    results.reserve(num_jobs);
    std::vector<FailedJob> failed;
    auto ingest = [&](size_t si, uint64_t id,
                      const char *what) -> Expected<void> {
        const std::string &path = manifest.shards[si].path;
        uint64_t k = states[si].header.shard_id;
        manifest.shards[si].verified = false; // restored if all pass
        if (id >= num_jobs)
            return make_error(ErrorCode::JournalRecordCorrupt,
                              path + ": " + what + " record for job " +
                                  std::to_string(id) +
                                  " outside the campaign's " +
                                  std::to_string(num_jobs) + " jobs");
        ShardSpec spec{num_shards, k};
        if (!shard_owns(spec, id))
            return make_error(
                ErrorCode::JournalRecordCorrupt,
                path + ": job " + std::to_string(id) +
                    " recorded by shard " + std::to_string(k) +
                    " but owned by shard " +
                    std::to_string(id % num_shards) +
                    " — cross-shard overlap");
        if (owner[id] >= 0) {
            uint64_t prev = states[size_t(owner[id])].header.shard_id;
            return make_error(
                ErrorCode::JournalRecordCorrupt,
                path + ": duplicate record for job " +
                    std::to_string(id) + " (already recorded by shard " +
                    std::to_string(prev) + " in " +
                    manifest.shards[size_t(owner[id])].path + ")");
        }
        owner[id] = int(si);
        manifest.shards[si].verified = true;
        records_counter.inc();
        return {};
    };
    for (size_t si = 0; si < states.size(); ++si) {
        for (const JobResult &r : states[si].completed) {
            Expected<void> ok = ingest(si, r.id, "job");
            if (!ok)
                return ok.error();
            results.push_back(r);
        }
        for (const FailedJob &f : states[si].failed) {
            Expected<void> ok = ingest(si, f.id, "failed");
            if (!ok)
                return ok.error();
            failed.push_back(f);
        }
    }
    for (uint64_t id = 0; id < num_jobs; ++id)
        if (owner[id] < 0)
            return make_error(
                ErrorCode::ShardIncomplete,
                manifest.shards[size_t(seen_shard[id % num_shards])]
                        .path +
                    ": no record for job " + std::to_string(id) +
                    " (owned by shard " +
                    std::to_string(id % num_shards) + ")");

    // Merge. Results are keyed by job id, so shard order is
    // irrelevant — sort to the canonical order the single-process
    // engine emits.
    std::sort(results.begin(), results.end(),
              [](const JobResult &a, const JobResult &b) {
                  return a.id < b.id;
              });
    out.report =
        aggregate_report(first, std::move(results), std::move(failed));

    manifest.num_shards = num_shards;
    manifest.num_jobs = num_jobs;
    manifest.total_completed = out.report.jobs.size();
    manifest.total_failed = out.report.failed;
    manifest.ok = true;
    std::sort(manifest.shards.begin(), manifest.shards.end(),
              [](const ShardVerdict &a, const ShardVerdict &b) {
                  return a.shard_id < b.shard_id;
              });
    return out;
}

Expected<AggregateResult>
aggregate_shard_dir(const std::string &dir)
{
    Expected<std::vector<std::string>> paths = list_shard_journals(dir);
    if (!paths)
        return paths.error();
    return aggregate_shards(*paths);
}

} // namespace vega::campaign
