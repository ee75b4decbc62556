/**
 * @file
 * String escaping of the shared JSON writer (obs/json.h), on its own
 * and in every report string that comes from outside the code: fleet
 * corner and mix names, a campaign's module echo, manifest paths.
 * Each rendering must pass the strict validator and decode back to the
 * original bytes.
 */
#include "obs/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "campaign/aggregator.h"
#include "campaign/journal.h"
#include "campaign/report.h"
#include "fleet/fleet_sim.h"
#include "json_lint.h"

namespace vega {
namespace {

/**
 * The decoded string value of the first `"key":"..."` in @p json at or
 * after @p from. Handles the escapes the writer emits.
 */
std::string
string_value(const std::string &json, const std::string &key,
             size_t from = 0)
{
    const std::string tag = "\"" + key + "\":\"";
    size_t pos = json.find(tag, from);
    if (pos == std::string::npos) {
        ADD_FAILURE() << "no string value for " << key;
        return {};
    }
    std::string out;
    for (size_t i = pos + tag.size(); i < json.size(); ++i) {
        char c = json[i];
        if (c == '"')
            return out;
        if (c != '\\') {
            out += c;
            continue;
        }
        switch (char e = json[++i]) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            out += char(std::stoi(json.substr(i + 1, 4), nullptr, 16));
            i += 4;
            break;
          default: out += e;
        }
    }
    ADD_FAILURE() << "unterminated string for " << key;
    return out;
}

TEST(JsonEscape, EveryAsciiByteRoundTrips)
{
    std::string raw;
    for (int c = 0; c < 0x80; ++c)
        raw += char(c);
    raw += "\xc3\xa9"; // UTF-8 passes through as it is
    std::string out = "{";
    obs::kv(out, "s", raw, false);
    out += '}';
    EXPECT_TRUE(obs::json_validate(out).ok()) << out;
    EXPECT_EQ(string_value(out, "s"), raw);
    EXPECT_NE(out.find(R"(\u0000\u0001)"), std::string::npos);
    EXPECT_NE(out.find(R"(\u0008\t\n\u000b\u000c\r)"), std::string::npos);
}

TEST(JsonEscape, FleetCornerAndMixNamesRoundTrip)
{
    fleet::FaultMatrix m;
    m.module = ModuleKind::Alu32;
    m.num_pairs = 1;
    m.num_tests = 2;
    m.test_cycles = {100, 200};
    m.suite_cycles = 300;
    m.faults.resize(2);
    for (fleet::FaultClass &f : m.faults)
        f.per_test = {runtime::Detection::None,
                      runtime::Detection::Mismatch};
    m.faults[0].detecting_tests = m.faults[1].detecting_tests = 1;

    fleet::FleetConfig cfg;
    cfg.num_devices = 50;
    cfg.epochs = 2;
    cfg.base_hazard = 0.5;
    cfg.adversarial_fraction = 0.0;
    cfg.corners = {{"lab \"B\"", 1.0, 1.0}};
    fleet::WorkloadMix mix;
    mix.name = "mix\\1";
    cfg.mixes = {mix};

    Expected<fleet::FleetReport> r = fleet::run_fleet(cfg, m);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    for (bool timing : {false, true}) {
        std::string json = r->to_json(timing);
        EXPECT_TRUE(obs::json_validate(json).ok()) << json;
        EXPECT_EQ(string_value(json, "name", json.find("\"per_corner\"")),
                  "lab \"B\"");
        EXPECT_EQ(string_value(json, "name", json.find("\"per_mix\"")),
                  "mix\\1");
    }
}

TEST(JsonEscape, CampaignModuleRoundTrips)
{
    campaign::JournalHeader config;
    config.module = "alu \"32\"";
    config.num_pairs = 1;
    campaign::CampaignReport r =
        campaign::aggregate_report(config, {campaign::JobResult{}}, {});
    for (bool timing : {false, true}) {
        std::string json = r.to_json(timing);
        EXPECT_TRUE(obs::json_validate(json).ok()) << json;
        EXPECT_EQ(string_value(json, "module"), config.module);
    }
}

TEST(JsonEscape, ManifestPathControlBytesUseShortEscapes)
{
    campaign::IntegrityManifest m;
    campaign::ShardVerdict s;
    s.path = "runs\r\tshard-0-of-1.journal";
    s.detail = "job 3:\tmissing";
    m.shards = {s};
    std::string json = m.to_json();
    EXPECT_TRUE(obs::json_validate(json).ok()) << json;
    EXPECT_NE(json.find(R"("path":"runs\r\tshard-0-of-1.journal")"),
              std::string::npos)
        << json;
    EXPECT_EQ(string_value(json, "verdict"), s.detail);
}

TEST(JsonRow, MatchesKvBytesAtAnyRowLength)
{
    // Rows from empty to several times the row buffer, whether a long
    // string value or many numbers make them long: the bytes equal
    // what kv() writes field by field.
    for (size_t len : {0, 1, 400, 511, 512, 513, 2000}) {
        std::string name(len, 'x');
        name += "\"\n";
        std::string quoted;
        obs::json_string(quoted, name);
        std::string want = "[", got = "[";
        for (size_t row = 0; row < 3; ++row) {
            if (row)
                want += ',';
            want += '{';
            obs::kv(want, "id", uint64_t(row));
            obs::kv(want, "name", name);
            for (size_t i = 0; i < len / 32; ++i)
                obs::kv(want, "max", uint64_t(UINT64_MAX));
            obs::kv(want, "last", uint64_t(0), false);
            want += '}';

            obs::JsonRow r(got, row > 0);
            r.kv("id", row);
            r.kv_json("name", quoted);
            for (size_t i = 0; i < len / 32; ++i)
                r.kv("max", UINT64_MAX);
            r.kv("last", 0);
            r.close();
        }
        EXPECT_EQ(got, want) << "name length " << len;
    }
    std::string empty;
    obs::JsonRow(empty, true).close();
    EXPECT_EQ(empty, ",{}");
}

} // namespace
} // namespace vega
