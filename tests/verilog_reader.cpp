#include "verilog_reader.h"

#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace vega {

namespace {

/** Widest bus the reader accepts; wider declarations are input errors. */
constexpr size_t kMaxBusWidth = 4096;

/**
 * Internal control-flow exception: thrown by Parser::fail, converted to
 * a VegaError at the try_read_verilog boundary. Never escapes.
 */
struct ParseAbort
{
    VegaError error;
};

/**
 * Token stream over the writer's output. Escaped identifiers
 * (backslash to whitespace) become single IDENT tokens without the
 * backslash; punctuation splits into single-character tokens.
 */
class Lexer
{
  public:
    explicit Lexer(const std::string &text) : text_(text) {}

    /** Next token, or empty string at end of input. */
    std::string
    next()
    {
        skip_space_and_comments();
        escaped_ = false;
        if (pos_ >= text_.size())
            return "";
        char c = text_[pos_];
        if (c == '\\') {
            escaped_ = true;
            ++pos_;
            size_t start = pos_;
            while (pos_ < text_.size() && !std::isspace(text_[pos_]))
                ++pos_;
            return text_.substr(start, pos_ - start);
        }
        if (std::isalnum(c) || c == '_' || c == '\'' || c == '.' ||
            c == '$' || c == '[' || c == ']') {
            size_t start = pos_;
            while (pos_ < text_.size() &&
                   (std::isalnum(text_[pos_]) || text_[pos_] == '_' ||
                    text_[pos_] == '\'' || text_[pos_] == '.' ||
                    text_[pos_] == '$' || text_[pos_] == '[' ||
                    text_[pos_] == ']' ||
                    // ':' only continues a bus range like "[1:0]"
                    (text_[pos_] == ':' && pos_ > start &&
                     text_.find('[', start) != std::string::npos &&
                     text_.find('[', start) < pos_)))
                ++pos_;
            return text_.substr(start, pos_ - start);
        }
        ++pos_;
        return std::string(1, c);
    }

    size_t line() const { return line_; }
    /** True when the last token was an escaped identifier. */
    bool escaped() const { return escaped_; }

  private:
    void
    skip_space_and_comments()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
            } else if (std::isspace(c)) {
                ++pos_;
            } else if (c == '/' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == '/') {
                while (pos_ < text_.size() && text_[pos_] != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
    size_t line_ = 1;
    bool escaped_ = false;
};

struct Parser
{
    Lexer lex;
    std::string tok;
    bool tok_escaped = false;
    Netlist nl{"parsed"};
    /** Escaped wire name -> NetId. */
    std::map<std::string, NetId> nets;
    /** Input-port bit "bus[i]" -> NetId (pseudo nets, inputs). */
    std::map<std::string, NetId> port_bits;
    /** Output-port bit "bus[i]" -> driving NetId. */
    std::map<std::string, NetId> output_bits;
    std::vector<std::pair<std::string, size_t>> input_buses;
    std::vector<std::pair<std::string, size_t>> output_buses;
    int auto_cell = 0;

    explicit Parser(const std::string &text) : lex(text) { advance(); }

    void
    advance()
    {
        tok = lex.next();
        tok_escaped = lex.escaped();
    }

    [[noreturn]] void
    fail(const std::string &msg)
    {
        std::string near =
            tok.empty() ? "end of input" : "'" + tok + "'";
        throw ParseAbort{make_error(
            ErrorCode::ParseError, "line " + std::to_string(lex.line()) +
                                       ": " + msg + " (near " + near +
                                       ")")};
    }

    void
    expect(const std::string &want)
    {
        if (tok != want)
            fail("expected '" + want + "'");
        advance();
    }

    /** advance(), but truncated input is an error, not a spin. */
    void
    advance_checked()
    {
        if (tok.empty())
            fail("unexpected end of input");
        advance();
    }

    /** Net for an escaped wire name, creating it on first reference. */
    NetId
    net_for(const std::string &name)
    {
        auto it = nets.find(name);
        if (it != nets.end())
            return it->second;
        NetId id = nl.new_net(name);
        nets[name] = id;
        return id;
    }

    /** @p id must still be undriven before it becomes a cell output. */
    void
    ensure_undriven(NetId id)
    {
        const Net &net = nl.net(id);
        if (net.driver != kInvalidId || net.is_primary_input)
            fail("net '" + net.name + "' driven more than once");
    }

    /** Net for an input-port bit reference like "a[0]". */
    NetId
    port_bit_for(const std::string &ref)
    {
        auto it = port_bits.find(ref);
        if (it != port_bits.end())
            return it->second;
        NetId id = nl.new_net(ref + "@port");
        port_bits[ref] = id;
        return id;
    }

    /** Resolve an operand token: escaped wire or input-port bit. */
    NetId
    operand(const std::string &t, bool escaped)
    {
        if (!escaped && is_bus_ref(t))
            return port_bit_for(t);
        return net_for(t);
    }

    bool
    is_bus_ref(const std::string &t)
    {
        return t.find('[') != std::string::npos && t.back() == ']';
    }

    /** Parse a "[N:0]" range token into a width, rejecting garbage. */
    size_t
    bus_width(const std::string &t)
    {
        // Expect "[<digits>:0]".
        size_t colon = t.find(':');
        if (t.size() < 5 || t.front() != '[' || t.back() != ']' ||
            colon == std::string::npos || t.substr(colon) != ":0]")
            fail("malformed bus range");
        size_t msb = 0;
        for (size_t i = 1; i < colon; ++i) {
            if (!std::isdigit(static_cast<unsigned char>(t[i])))
                fail("malformed bus range");
            msb = msb * 10 + size_t(t[i] - '0');
            if (msb >= kMaxBusWidth)
                fail("bus wider than " + std::to_string(kMaxBusWidth) +
                     " bits");
        }
        if (colon == 1)
            fail("malformed bus range");
        return msb + 1;
    }

    void
    parse()
    {
        expect("module");
        if (tok.empty())
            fail("missing module name");
        nl.set_name(tok);
        advance();
        expect("(");
        while (tok != ")") {
            if (tok == ",")
                advance();
            else
                advance_checked();
        }
        expect(")");
        expect(";");

        while (tok != "endmodule" && !tok.empty())
            parse_item();
        expect("endmodule");
        finish_buses();
    }

    void
    parse_item()
    {
        if (tok == "input" || tok == "output") {
            bool is_input = tok == "input";
            advance();
            size_t width = 1;
            if (is_bus_ref(tok)) { // "[N:0]"
                width = bus_width(tok);
                advance();
            }
            std::string name = tok;
            advance_checked();
            expect(";");
            if (name == "clk")
                return; // implicit ideal clock
            for (const auto &[n, w] : input_buses)
                if (n == name)
                    fail("port '" + name + "' declared twice");
            for (const auto &[n, w] : output_buses)
                if (n == name)
                    fail("port '" + name + "' declared twice");
            if (is_input)
                input_buses.emplace_back(name, width);
            else
                output_buses.emplace_back(name, width);
        } else if (tok == "wire") {
            advance();
            if (tok.empty())
                fail("missing wire name");
            net_for(tok);
            advance();
            expect(";");
        } else if (tok == "assign") {
            parse_assign();
        } else if (tok == "buf" || tok == "not" || tok == "and" ||
                   tok == "or" || tok == "xor" || tok == "nand" ||
                   tok == "nor" || tok == "xnor") {
            parse_gate(tok);
        } else if (tok == "VEGA_DFF") {
            parse_dff();
        } else {
            fail("unsupported item");
        }
    }

    void
    parse_assign()
    {
        expect("assign");
        std::string lhs = tok;
        bool lhs_escaped = tok_escaped;
        advance_checked();
        expect("=");

        // Output-port binding: `assign o[i] = <wire>;`
        if (!lhs_escaped && is_bus_ref(lhs)) {
            std::string rhs = tok;
            bool rhs_escaped = tok_escaped;
            advance_checked();
            expect(";");
            if (output_bits.count(lhs))
                fail("output bit " + lhs + " assigned twice");
            output_bits[lhs] = operand(rhs, rhs_escaped);
            return;
        }

        // Forms: constant | wire | port-bit | s ? b : a
        std::string first = tok;
        bool first_escaped = tok_escaped;
        advance_checked();
        if (tok == "?") {
            advance();
            std::string b = tok;
            bool b_escaped = tok_escaped;
            advance_checked();
            expect(":");
            std::string a = tok;
            bool a_escaped = tok_escaped;
            advance_checked();
            expect(";");
            NetId out = net_for(lhs);
            ensure_undriven(out);
            nl.add_cell(CellType::Mux2,
                        "rd_mux" + std::to_string(auto_cell++),
                        {operand(a, a_escaped), operand(b, b_escaped),
                         operand(first, first_escaped)},
                        out);
            return;
        }
        expect(";");
        NetId out = net_for(lhs);
        ensure_undriven(out);
        if (first == "1'b0") {
            nl.add_cell(CellType::Const0,
                        "rd_c0_" + std::to_string(auto_cell++), {}, out);
        } else if (first == "1'b1") {
            nl.add_cell(CellType::Const1,
                        "rd_c1_" + std::to_string(auto_cell++), {}, out);
        } else {
            // Alias (input-port binding or plain buffer): keep a BUF so
            // every net has exactly one driver.
            nl.add_cell(CellType::Buf,
                        "rd_alias" + std::to_string(auto_cell++),
                        {operand(first, first_escaped)}, out);
        }
    }

    void
    parse_gate(const std::string &kind)
    {
        static const std::map<std::string, CellType> kMap = {
            {"buf", CellType::Buf},   {"not", CellType::Not},
            {"and", CellType::And2},  {"or", CellType::Or2},
            {"xor", CellType::Xor2},  {"nand", CellType::Nand2},
            {"nor", CellType::Nor2},  {"xnor", CellType::Xnor2},
        };
        CellType type = kMap.at(kind);
        advance();
        std::string name = tok;
        advance_checked();
        expect("(");
        std::vector<std::string> args;
        std::vector<bool> args_escaped;
        while (tok != ")") {
            if (tok == ",") {
                advance();
            } else {
                args.push_back(tok);
                args_escaped.push_back(tok_escaped);
                advance_checked();
            }
        }
        expect(")");
        expect(";");
        if (args.size() != size_t(cell_num_inputs(type)) + 1)
            fail("wrong pin count on " + kind);
        std::vector<NetId> ins;
        for (size_t i = 1; i < args.size(); ++i)
            ins.push_back(operand(args[i], args_escaped[i]));
        NetId out = net_for(args[0]);
        ensure_undriven(out);
        nl.add_cell(type, name, ins, out);
    }

    void
    parse_dff()
    {
        expect("VEGA_DFF");
        bool init = false;
        if (tok == "#") {
            advance();
            expect("(");
            // .INIT(1'b0)
            if (tok != ".INIT")
                fail("expected .INIT");
            advance();
            expect("(");
            init = tok == "1'b1";
            advance_checked();
            expect(")");
            expect(")");
        }
        std::string name = tok;
        advance_checked();
        expect("(");
        std::string d_name, q_name;
        bool d_escaped = false;
        while (tok != ")") {
            if (tok == ",") {
                advance();
                continue;
            }
            std::string pin = tok; // ".clk" / ".d" / ".q"
            advance_checked();
            expect("(");
            std::string conn = tok;
            bool conn_escaped = tok_escaped;
            advance_checked();
            expect(")");
            if (pin == ".d") {
                d_name = conn;
                d_escaped = conn_escaped;
            } else if (pin == ".q") {
                q_name = conn;
            } else if (pin != ".clk") {
                fail("unknown DFF pin " + pin);
            }
        }
        expect(")");
        expect(";");
        if (d_name.empty() || q_name.empty())
            fail("DFF missing d/q connections");
        NetId q = net_for(q_name);
        ensure_undriven(q);
        nl.add_dff(name, operand(d_name, d_escaped), q, init);
    }

    /**
     * Port buses: input bits are the pseudo nets referenced by alias
     * assigns (created on demand, marked primary inputs here); output
     * bits are the nets recorded from `assign o[i] = ...` bindings.
     */
    void
    finish_buses()
    {
        for (auto &[name, width] : input_buses) {
            std::vector<NetId> bits;
            for (size_t i = 0; i < width; ++i) {
                std::string bit = name + "[" + std::to_string(i) + "]";
                NetId n = port_bit_for(bit);
                if (nl.net(n).driver != kInvalidId)
                    fail("input bit " + bit + " is driven");
                nl.mark_input(n);
                bits.push_back(n);
            }
            nl.add_input_bus_alias(name, bits);
        }
        for (auto &[name, width] : output_buses) {
            std::vector<NetId> bits;
            for (size_t i = 0; i < width; ++i) {
                std::string bit = name + "[" + std::to_string(i) + "]";
                auto it = output_bits.find(bit);
                if (it == output_bits.end())
                    fail("output bit " + bit + " never assigned");
                bits.push_back(it->second);
            }
            nl.add_output_bus(name, bits);
        }
    }
};

} // namespace

Expected<Netlist>
try_read_verilog(const std::string &text)
{
    try {
        Parser p(text);
        p.parse();
        Expected<void> valid = p.nl.check_valid();
        if (!valid)
            return make_error(ErrorCode::ValidationError,
                              "netlist inconsistent after parse: " +
                                  valid.error().context);
        return std::move(p.nl);
    } catch (const ParseAbort &abort) {
        return abort.error;
    } catch (const std::exception &e) {
        // Backstop: nothing below should throw, but malformed input
        // must never escape as an exception.
        return make_error(ErrorCode::ParseError,
                          std::string("internal parse failure: ") +
                              e.what());
    }
}

Netlist
read_verilog(const std::string &text)
{
    Expected<Netlist> parsed = try_read_verilog(text);
    if (!parsed)
        throw std::runtime_error("verilog_reader: " +
                                 parsed.error().to_string());
    return std::move(parsed).value();
}

} // namespace vega
