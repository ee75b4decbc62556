#include "runtime/suite_io.h"

#include <sstream>
#include <stdexcept>

namespace vega::runtime {

namespace {

bool
parse_module(const std::string &token, ModuleKind &out)
{
    for (ModuleKind kind :
         {ModuleKind::Adder2, ModuleKind::Alu32, ModuleKind::Fpu32,
          ModuleKind::Mdu32, ModuleKind::MemDec16}) {
        if (token == module_kind_name(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

} // namespace

std::string
serialize_suite(const std::vector<TestCase> &suite)
{
    std::ostringstream os;
    os << "# vega test suite v1\n";
    for (const TestCase &t : suite) {
        os << "testcase " << module_kind_name(t.module) << " "
           << t.pair_index << " " << (t.name.empty() ? "-" : t.name) << " "
           << (t.config.empty() ? "-" : t.config) << "\n";
        for (const ModuleStep &s : t.stimulus)
            os << "  step " << s.a << " " << s.b << " " << s.op << " "
               << (s.valid ? 1 : 0) << " " << (s.clear ? 1 : 0) << "\n";
        for (const ResultCheck &c : t.checks)
            os << "  check " << c.step << " " << c.expected << " "
               << (c.to_xreg ? 1 : 0) << "\n";
        if (t.check_final_flags)
            os << "  flags " << unsigned(t.expected_flags) << "\n";
        os << "end\n";
    }
    return os.str();
}

Expected<std::vector<TestCase>>
try_deserialize_suite(const std::string &text)
{
    std::vector<TestCase> suite;
    std::istringstream is(text);
    std::string line;
    TestCase current;
    bool in_test = false;
    size_t line_no = 0;

    auto fail = [&](const std::string &msg) {
        return make_error(ErrorCode::ParseError,
                          "line " + std::to_string(line_no) + ": " + msg);
    };

    while (std::getline(is, line)) {
        ++line_no;
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word) || word[0] == '#')
            continue;
        if (word == "testcase") {
            if (in_test)
                return fail("nested testcase");
            std::string module, name, config;
            long long pair = -1;
            if (!(ls >> module >> pair >> name >> config))
                return fail("malformed testcase header");
            current = TestCase{};
            if (!parse_module(module, current.module))
                return fail("unknown module '" + module + "'");
            current.pair_index = int(pair);
            current.name = name == "-" ? "" : name;
            current.config = config == "-" ? "" : config;
            in_test = true;
        } else if (word == "step") {
            if (!in_test)
                return fail("step outside testcase");
            size_t cap = current.module == ModuleKind::MemDec16
                             ? kMaxMemTestSteps
                             : kMaxTestSteps;
            if (current.stimulus.size() >= cap)
                return fail("more than " + std::to_string(cap) +
                            " steps");
            ModuleStep s;
            unsigned valid = 0, clear = 0;
            if (!(ls >> s.a >> s.b >> s.op >> valid >> clear))
                return fail("malformed step");
            s.valid = valid != 0;
            s.clear = clear != 0;
            current.stimulus.push_back(s);
        } else if (word == "check") {
            if (!in_test)
                return fail("check outside testcase");
            ResultCheck c;
            unsigned to_x = 0;
            if (!(ls >> c.step >> c.expected >> to_x))
                return fail("malformed check");
            c.to_xreg = to_x != 0;
            current.checks.push_back(c);
        } else if (word == "flags") {
            if (!in_test)
                return fail("flags outside testcase");
            unsigned flags = 0;
            if (!(ls >> flags))
                return fail("malformed flags");
            current.check_final_flags = true;
            current.expected_flags = uint8_t(flags);
        } else if (word == "end") {
            if (!in_test)
                return fail("end outside testcase");
            Expected<void> fin = try_finalize_test_case(current);
            if (!fin)
                return make_error(fin.error().code,
                                  "line " + std::to_string(line_no) +
                                      ": " + fin.error().context);
            suite.push_back(std::move(current));
            in_test = false;
        } else {
            return fail("unknown directive '" + word + "'");
        }
    }
    if (in_test) {
        ++line_no;
        return fail("unterminated testcase '" + current.name + "'");
    }
    return suite;
}

std::vector<TestCase>
deserialize_suite(const std::string &text)
{
    Expected<std::vector<TestCase>> suite = try_deserialize_suite(text);
    if (!suite)
        throw std::runtime_error("suite_io: " +
                                 suite.error().to_string());
    return std::move(suite).value();
}

} // namespace vega::runtime
