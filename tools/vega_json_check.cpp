/**
 * @file
 * Tiny JSON checker backing the observability CTest cases.
 *
 *   vega_json_check FILE [--require SUBSTR]...
 *
 * Exits 0 iff FILE parses as strict RFC 8259 JSON and contains every
 * --require substring (how the tests assert that a metrics snapshot
 * actually carries sat.conflicts, sim.batch_cycles, ... without a full JSON
 * query language). Parse errors print the byte offset.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/fs.h"
#include "json_lint.h"

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s FILE [--require SUBSTR]...\n", argv[0]);
        return 2;
    }
    const char *path = argv[1];
    std::vector<std::string> required;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--require") && i + 1 < argc) {
            required.push_back(argv[++i]);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
            return 2;
        }
    }

    vega::Expected<std::string> text = vega::read_file(path);
    if (!text) {
        std::fprintf(stderr, "%s: %s\n", path,
                     text.error().to_string().c_str());
        return 1;
    }
    vega::Expected<void> valid = vega::obs::json_validate(*text);
    if (!valid) {
        std::fprintf(stderr, "%s: %s\n", path,
                     valid.error().to_string().c_str());
        return 1;
    }
    int missing = 0;
    for (const std::string &r : required)
        if (text->find(r) == std::string::npos) {
            std::fprintf(stderr, "%s: missing required '%s'\n", path,
                         r.c_str());
            ++missing;
        }
    if (missing)
        return 1;
    std::printf("%s: valid JSON (%zu bytes, %zu required substrings)\n",
                path, text->size(), required.size());
    return 0;
}
