#include "assembler/assembler.hh"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>

#include "base/logging.hh"
#include "isa/instruction.hh"

namespace rr::assembler {

using isa::Format;
using isa::Instruction;
using isa::Opcode;

std::string
Diagnostic::str() const
{
    std::ostringstream os;
    os << "line " << line << ": " << message;
    return os.str();
}

uint32_t
Program::addressOf(const std::string &label) const
{
    const auto it = symbols.find(label);
    rr_assert(it != symbols.end(), "undefined label '", label, "'");
    return it->second;
}

bool
Program::contains(uint32_t addr) const
{
    return addr >= base && addr - base < words.size();
}

int
Program::lineAt(uint32_t addr) const
{
    if (!contains(addr))
        return 0;
    const size_t index = addr - base;
    return index < lines.size() ? lines[index] : 0;
}

std::vector<std::string>
Program::labelsAt(uint32_t addr) const
{
    std::vector<std::string> out;
    for (const auto &[name, sym_addr] : symbols) {
        if (sym_addr == addr)
            out.push_back(name);
    }
    return out;
}

namespace {

/**
 * Largest li/la value: above it, the rounded-up LUI immediate of the
 * bit-11 expansion (hi + 1) would be 2^18, one past its field.
 */
constexpr int64_t kLiMax = 0x3ffff7ff;

/** A parsed source statement: a mnemonic/directive plus operands. */
struct Statement
{
    int line = 0;
    std::string head;                  ///< mnemonic or directive
    std::vector<std::string> operands; ///< raw operand tokens
};

/** Strip comments and surrounding whitespace. */
std::string
cleanLine(const std::string &raw)
{
    std::string s = raw;
    for (const char *marker : {";", "#", "//"}) {
        const auto pos = s.find(marker);
        if (pos != std::string::npos)
            s = s.substr(0, pos);
    }
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
}

/** Split the operand part of a statement on commas. */
std::vector<std::string>
splitOperands(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : text) {
        if (c == ',') {
            out.push_back(cleanLine(cur));
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    const std::string last = cleanLine(cur);
    if (!last.empty() || !out.empty())
        out.push_back(last);
    return out;
}

/** The assembler proper; one instance per assemble() call. */
class AsmContext
{
  public:
    explicit AsmContext(const std::string &source)
        : source_(source)
    {
    }

    Program run();

  private:
    // ---- shared helpers -------------------------------------------------

    void error(int line, const std::string &msg)
    {
        program_.errors.push_back({line, msg});
    }

    /** Parse "r<N>"; returns nullopt on failure. */
    std::optional<unsigned> parseReg(const std::string &tok) const
    {
        const std::string t = toLower(tok);
        if (t.size() < 2 || t[0] != 'r')
            return std::nullopt;
        unsigned value = 0;
        for (size_t i = 1; i < t.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(t[i])))
                return std::nullopt;
            value = value * 10 + static_cast<unsigned>(t[i] - '0');
            if (value >= isa::maxOperandRegs)
                return std::nullopt;
        }
        return value;
    }

    /** Parse a literal integer (decimal or 0x hex, maybe negative). */
    static std::optional<int64_t> parseIntLiteral(const std::string &tok)
    {
        if (tok.empty())
            return std::nullopt;
        size_t pos = 0;
        bool negative = false;
        if (tok[pos] == '-' || tok[pos] == '+') {
            negative = tok[pos] == '-';
            ++pos;
        }
        if (pos >= tok.size())
            return std::nullopt;
        int base = 10;
        if (tok.size() - pos > 2 && tok[pos] == '0' &&
            (tok[pos + 1] == 'x' || tok[pos + 1] == 'X')) {
            base = 16;
            pos += 2;
        }
        int64_t value = 0;
        for (; pos < tok.size(); ++pos) {
            const char c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(tok[pos])));
            int digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (base == 16 && c >= 'a' && c <= 'f')
                digit = c - 'a' + 10;
            else
                return std::nullopt;
            value = value * base + digit;
        }
        return negative ? -value : value;
    }

    /**
     * Resolve an expression token: integer literal, .equ constant, or
     * label. Only valid during pass 2 (labels must be known).
     */
    std::optional<int64_t> resolveValue(const std::string &tok) const
    {
        if (const auto lit = parseIntLiteral(tok))
            return lit;
        const auto eq = constants_.find(tok);
        if (eq != constants_.end())
            return eq->second;
        const auto sym = program_.symbols.find(tok);
        if (sym != program_.symbols.end())
            return static_cast<int64_t>(sym->second);
        return std::nullopt;
    }

    /**
     * Record @p tok in Program::addressTaken when it resolves through
     * the symbol table (its address escapes into a register or data
     * word, making it a potential indirect-jump target).
     */
    void noteAddressTaken(const std::string &tok)
    {
        if (parseIntLiteral(tok) || constants_.count(tok))
            return;
        const auto sym = program_.symbols.find(tok);
        if (sym != program_.symbols.end())
            program_.addressTaken.push_back(sym->second);
    }

    // ---- passes ---------------------------------------------------------

    /** Parse lines into statements, recording labels (pass 1). */
    void parseAndLayout();

    /** Size (in words) that @p stmt will emit. */
    unsigned statementSize(const Statement &stmt, int line);

    /** Encode statements into program words (pass 2). */
    void emitAll();

    void emitWord(uint32_t word, int line)
    {
        rr_assert(cursor_ >= program_.base, "cursor before base");
        const size_t index = cursor_ - program_.base;
        if (program_.words.size() <= index) {
            program_.words.resize(index + 1, 0);
            program_.lines.resize(index + 1, 0);
        }
        program_.words[index] = word;
        program_.lines[index] = line;
        ++cursor_;
    }

    void emitInst(const Instruction &inst, int line)
    {
        emitWord(isa::encode(inst), line);
    }

    /**
     * Check @p imm against @p op's immediate field before it reaches
     * isa::encode (which aborts on a misfit): false, with a line error,
     * when it does not fit.
     */
    bool checkImm(Opcode op, int64_t imm, int line)
    {
        const isa::Format fmt = isa::formatOf(op);
        const isa::FormatInfo info = isa::formatInfo(fmt);
        if (isa::immFits(info, imm))
            return true;
        std::ostringstream os;
        os << isa::mnemonicOf(op)
           << (fmt == isa::Format::B || fmt == isa::Format::J
                   ? " offset "
                   : " immediate ")
           << imm << " out of " << (info.immSigned ? "signed " : "unsigned ")
           << info.immBits << "-bit range";
        error(line, os.str());
        return false;
    }

    void emitStatement(const Statement &stmt);
    void emitInstruction(const Statement &stmt, Opcode op);
    void emitPseudo(const Statement &stmt);

    const std::string &source_;
    Program program_;
    std::vector<Statement> statements_;
    std::map<std::string, int64_t> constants_;
    uint32_t cursor_ = 0;
    bool baseSet_ = false;
};

void
AsmContext::parseAndLayout()
{
    std::istringstream in(source_);
    std::string raw;
    int line_no = 0;
    uint32_t addr = 0;

    while (std::getline(in, raw)) {
        ++line_no;
        std::string text = cleanLine(raw);

        // Peel off any leading labels.
        while (!text.empty()) {
            size_t i = 0;
            if (!isIdentStart(text[0]))
                break;
            while (i < text.size() && isIdentChar(text[i]))
                ++i;
            if (i >= text.size() || text[i] != ':')
                break;
            const std::string label = text.substr(0, i);
            if (program_.symbols.count(label)) {
                error(line_no, "duplicate label '" + label + "'");
            } else {
                program_.symbols[label] = addr;
            }
            text = cleanLine(text.substr(i + 1));
        }
        if (text.empty())
            continue;

        // Split head / operands.
        size_t head_end = 0;
        while (head_end < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[head_end]))) {
            ++head_end;
        }
        Statement stmt;
        stmt.line = line_no;
        stmt.head = toLower(text.substr(0, head_end));
        stmt.operands = splitOperands(cleanLine(text.substr(head_end)));

        // Directives that change layout are handled here so that label
        // addresses are known by the end of pass 1.
        if (stmt.head == ".org") {
            if (stmt.operands.size() != 1) {
                error(line_no, ".org expects one operand");
                continue;
            }
            const auto v = parseIntLiteral(stmt.operands[0]);
            if (!v || *v < 0) {
                error(line_no, ".org expects a nonnegative literal");
                continue;
            }
            const auto target = static_cast<uint32_t>(*v);
            if (!baseSet_ && statements_.empty()) {
                program_.base = target;
                baseSet_ = true;
            } else if (target < addr) {
                error(line_no, ".org cannot move backwards");
                continue;
            }
            addr = target;
            statements_.push_back(stmt);
            continue;
        }
        if (stmt.head == ".equ") {
            if (stmt.operands.size() != 2) {
                error(line_no, ".equ expects NAME, VALUE");
                continue;
            }
            const auto v = parseIntLiteral(stmt.operands[1]);
            if (!v) {
                error(line_no, ".equ value must be a literal");
                continue;
            }
            constants_[stmt.operands[0]] = *v;
            continue;
        }
        if (stmt.head == ".align") {
            if (stmt.operands.size() != 1) {
                error(line_no, ".align expects one operand");
                continue;
            }
            const auto v = parseIntLiteral(stmt.operands[0]);
            if (!v || *v <= 0) {
                error(line_no, ".align expects a positive literal");
                continue;
            }
            const auto align = static_cast<uint32_t>(*v);
            addr = (addr + align - 1) / align * align;
            statements_.push_back(stmt);
            continue;
        }

        addr += statementSize(stmt, line_no);
        statements_.push_back(stmt);

        // Re-resolve labels that were defined at this address before
        // the statement (already done above; nothing further needed).
    }

    // Fix label addresses: labels were recorded against the running
    // address *before* their statement, which is correct.
}

unsigned
AsmContext::statementSize(const Statement &stmt, int line)
{
    if (stmt.head == ".word")
        return 1;
    if (stmt.head == ".thread" || stmt.head == ".lockdef")
        return 0; // annotations: resolved in pass 2, emit nothing
    if (stmt.head == "li" || stmt.head == "la")
        return 2;
    if (stmt.head == "mov" || stmt.head == "b")
        return 1;
    Opcode op;
    if (isa::opcodeFromMnemonic(stmt.head, op))
        return 1;
    error(line, "unknown mnemonic or directive '" + stmt.head + "'");
    return 0;
}

void
AsmContext::emitAll()
{
    cursor_ = program_.base;
    for (const auto &stmt : statements_)
        emitStatement(stmt);
}

void
AsmContext::emitStatement(const Statement &stmt)
{
    const int line = stmt.line;

    if (stmt.head == ".org") {
        const auto v = parseIntLiteral(stmt.operands[0]);
        const auto target = static_cast<uint32_t>(*v);
        while (cursor_ < target)
            emitWord(0, line);
        return;
    }
    if (stmt.head == ".align") {
        const auto v = parseIntLiteral(stmt.operands[0]);
        const auto align = static_cast<uint32_t>(*v);
        while (cursor_ % align != 0)
            emitWord(0, line);
        return;
    }
    if (stmt.head == ".word") {
        if (stmt.operands.size() != 1) {
            error(line, ".word expects one operand");
            return;
        }
        const auto v = resolveValue(stmt.operands[0]);
        if (!v) {
            error(line, "cannot resolve '" + stmt.operands[0] + "'");
            emitWord(0, line);
            return;
        }
        noteAddressTaken(stmt.operands[0]);
        emitWord(static_cast<uint32_t>(*v), line);
        return;
    }
    if (stmt.head == ".thread") {
        if (stmt.operands.empty() || stmt.operands.size() > 2) {
            error(line, ".thread expects LABEL[, RRM]");
            return;
        }
        const auto entry = resolveValue(stmt.operands[0]);
        if (!entry || *entry < 0) {
            error(line, "cannot resolve '" + stmt.operands[0] + "'");
            return;
        }
        ThreadDecl decl;
        decl.address = static_cast<uint32_t>(*entry);
        decl.line = line;
        if (stmt.operands.size() == 2) {
            const auto rrm = resolveValue(stmt.operands[1]);
            if (!rrm || *rrm < 0) {
                error(line,
                      "cannot resolve '" + stmt.operands[1] + "'");
                return;
            }
            decl.hasRrm = true;
            decl.rrm = static_cast<uint32_t>(*rrm);
        }
        program_.threads.push_back(decl);
        return;
    }
    if (stmt.head == ".lockdef") {
        if (stmt.operands.size() != 3) {
            error(line, ".lockdef expects NAME, ACQUIRE, RELEASE");
            return;
        }
        LockDef def;
        def.name = stmt.operands[0];
        def.line = line;
        const auto acquire = resolveValue(stmt.operands[1]);
        const auto release = resolveValue(stmt.operands[2]);
        if (!acquire || *acquire < 0) {
            error(line, "cannot resolve '" + stmt.operands[1] + "'");
            return;
        }
        if (!release || *release < 0) {
            error(line, "cannot resolve '" + stmt.operands[2] + "'");
            return;
        }
        def.acquire = static_cast<uint32_t>(*acquire);
        def.release = static_cast<uint32_t>(*release);
        program_.lockdefs.push_back(def);
        return;
    }

    if (stmt.head == "mov" || stmt.head == "li" || stmt.head == "la" ||
        stmt.head == "b") {
        emitPseudo(stmt);
        return;
    }

    Opcode op;
    if (!isa::opcodeFromMnemonic(stmt.head, op)) {
        // Already reported in pass 1.
        return;
    }
    emitInstruction(stmt, op);
}

void
AsmContext::emitPseudo(const Statement &stmt)
{
    const int line = stmt.line;
    const auto &ops = stmt.operands;

    if (stmt.head == "mov") {
        if (ops.size() != 2) {
            error(line, "mov expects two operands");
            return;
        }
        const bool dst_psw = toLower(ops[0]) == "psw";
        const bool src_psw = toLower(ops[1]) == "psw";
        if (dst_psw && src_psw) {
            error(line, "mov psw, psw is meaningless");
            return;
        }
        if (dst_psw) {
            const auto rs = parseReg(ops[1]);
            if (!rs) {
                error(line, "bad register '" + ops[1] + "'");
                return;
            }
            Instruction inst;
            inst.op = Opcode::MTPSW;
            inst.rs1 = static_cast<uint8_t>(*rs);
            emitInst(inst, line);
            return;
        }
        const auto rd = parseReg(ops[0]);
        if (!rd) {
            error(line, "bad register '" + ops[0] + "'");
            return;
        }
        if (src_psw) {
            Instruction inst;
            inst.op = Opcode::MFPSW;
            inst.rd = static_cast<uint8_t>(*rd);
            emitInst(inst, line);
            return;
        }
        const auto rs = parseReg(ops[1]);
        if (!rs) {
            error(line, "bad register '" + ops[1] + "'");
            return;
        }
        emitInst(isa::makeI(Opcode::ADDI, *rd, *rs, 0), line);
        return;
    }

    if (stmt.head == "li" || stmt.head == "la") {
        if (ops.size() != 2) {
            error(line, stmt.head + " expects two operands");
            return;
        }
        const auto rd = parseReg(ops[0]);
        if (!rd) {
            error(line, "bad register '" + ops[0] + "'");
            return;
        }
        const auto v = resolveValue(ops[1]);
        if (!v) {
            error(line, "cannot resolve '" + ops[1] + "'");
            return;
        }
        if (*v < 0 || *v > kLiMax) {
            error(line, "li/la value out of range [0, 0x3ffff7ff]");
            return;
        }
        noteAddressTaken(ops[1]);
        const auto value = static_cast<uint32_t>(*v);
        // ORI's immediate is signed 12-bit: with bit 11 set, round LUI
        // up and subtract with ADDI. Always two words, because pass 1
        // sizes la before its label resolves.
        const auto low = static_cast<int32_t>(value & 0xfff);
        if (low < 0x800) {
            emitInst(isa::makeJ(Opcode::LUI, *rd,
                                static_cast<int32_t>(value >> 12)),
                     line);
            emitInst(isa::makeI(Opcode::ORI, *rd, *rd, low), line);
        } else {
            emitInst(isa::makeJ(Opcode::LUI, *rd,
                                static_cast<int32_t>(value >> 12) + 1),
                     line);
            emitInst(isa::makeI(Opcode::ADDI, *rd, *rd, low - 0x1000),
                     line);
        }
        return;
    }

    if (stmt.head == "b") {
        if (ops.size() != 1) {
            error(line, "b expects one operand");
            return;
        }
        const auto v = resolveValue(ops[0]);
        if (!v) {
            error(line, "cannot resolve '" + ops[0] + "'");
            return;
        }
        const int64_t offset = *v - static_cast<int64_t>(cursor_);
        if (!checkImm(Opcode::BEQ, offset, line))
            return;
        emitInst(isa::makeB(Opcode::BEQ, 0, 0,
                            static_cast<int32_t>(offset)),
                 line);
        return;
    }

    rr_panic("unhandled pseudo '", stmt.head, "'");
}

void
AsmContext::emitInstruction(const Statement &stmt, Opcode op)
{
    const int line = stmt.line;
    const auto &ops = stmt.operands;
    const Format fmt = isa::formatOf(op);

    auto need = [&](size_t n) {
        if (ops.size() != n) {
            std::ostringstream os;
            os << stmt.head << " expects " << n << " operand(s), got "
               << ops.size();
            error(line, os.str());
            return false;
        }
        return true;
    };
    auto get_reg = [&](const std::string &tok,
                       unsigned &out) {
        const auto r = parseReg(tok);
        if (!r) {
            error(line, "bad register '" + tok + "'");
            return false;
        }
        out = *r;
        return true;
    };
    auto get_value = [&](const std::string &tok, int64_t &out) {
        const auto v = resolveValue(tok);
        if (!v) {
            error(line, "cannot resolve '" + tok + "'");
            return false;
        }
        out = *v;
        return true;
    };

    // Each format parses its operands into inst and its immediate or
    // PC-relative offset into imm, which is range-checked once below.
    Instruction inst;
    inst.op = op;
    int64_t imm = 0;

    switch (fmt) {
      case Format::None:
        if (!need(0))
            return;
        break;

      case Format::R3: {
        if (!need(3))
            return;
        unsigned rd, rs1, rs2;
        if (!get_reg(ops[0], rd) || !get_reg(ops[1], rs1) ||
            !get_reg(ops[2], rs2)) {
            return;
        }
        inst = isa::makeR3(op, rd, rs1, rs2);
        break;
      }

      case Format::R2: {
        if (!need(2))
            return;
        unsigned rd, rs1;
        if (!get_reg(ops[0], rd) || !get_reg(ops[1], rs1))
            return;
        inst.rd = static_cast<uint8_t>(rd);
        inst.rs1 = static_cast<uint8_t>(rs1);
        break;
      }

      case Format::R1D: {
        if (!need(1))
            return;
        unsigned rd;
        if (!get_reg(ops[0], rd))
            return;
        inst.rd = static_cast<uint8_t>(rd);
        break;
      }

      case Format::R1S: {
        if (!need(1))
            return;
        unsigned rs1;
        if (!get_reg(ops[0], rs1))
            return;
        inst.rs1 = static_cast<uint8_t>(rs1);
        break;
      }

      case Format::I: {
        // Memory form "rd, imm(rs1)" for ld/st; otherwise
        // "rd, rs1, imm"; jalr also accepts "rd, rs1" with imm 0.
        if (op == Opcode::LD || op == Opcode::ST) {
            if (!need(2))
                return;
            unsigned rd;
            if (!get_reg(ops[0], rd))
                return;
            const auto open = ops[1].find('(');
            const auto close = ops[1].find(')');
            if (open == std::string::npos || close == std::string::npos ||
                close < open) {
                error(line, "expected imm(rs1) operand");
                return;
            }
            const std::string imm_text =
                open == 0 ? "0" : ops[1].substr(0, open);
            const std::string reg_text =
                ops[1].substr(open + 1, close - open - 1);
            unsigned rs1;
            if (!get_reg(reg_text, rs1) || !get_value(imm_text, imm))
                return;
            inst = isa::makeI(op, rd, rs1, 0);
            break;
        }
        if (op == Opcode::JALR && ops.size() == 2) {
            unsigned rd, rs1;
            if (!get_reg(ops[0], rd) || !get_reg(ops[1], rs1))
                return;
            inst = isa::makeI(op, rd, rs1, 0);
            break;
        }
        if (!need(3))
            return;
        unsigned rd, rs1;
        if (!get_reg(ops[0], rd) || !get_reg(ops[1], rs1) ||
            !get_value(ops[2], imm)) {
            return;
        }
        inst = isa::makeI(op, rd, rs1, 0);
        break;
      }

      case Format::B: {
        if (!need(3))
            return;
        unsigned rs1, rs2;
        int64_t target;
        if (!get_reg(ops[0], rs1) || !get_reg(ops[1], rs2) ||
            !get_value(ops[2], target)) {
            return;
        }
        // Labels and absolute values become PC-relative offsets; raw
        // literals small enough to be offsets are used as-is only via
        // .equ, so treat every resolved value as an absolute target
        // unless it parses as a plain literal.
        imm = parseIntLiteral(ops[2])
                  ? target
                  : target - static_cast<int64_t>(cursor_);
        inst = isa::makeB(op, rs1, rs2, 0);
        break;
      }

      case Format::J: {
        if (!need(2))
            return;
        unsigned rd;
        int64_t target;
        if (!get_reg(ops[0], rd) || !get_value(ops[1], target))
            return;
        imm = parseIntLiteral(ops[1])
                  ? target
                  : target - static_cast<int64_t>(cursor_);
        inst = isa::makeJ(op, rd, 0);
        break;
      }

      case Format::UI: {
        if (!need(2))
            return;
        unsigned rd;
        if (!get_reg(ops[0], rd) || !get_value(ops[1], imm))
            return;
        inst = isa::makeJ(op, rd, 0);
        break;
      }

      case Format::Imm: {
        if (!need(1))
            return;
        if (!get_value(ops[0], imm))
            return;
        break;
      }

      case Format::Rs1Imm: {
        if (!need(2))
            return;
        unsigned rs1;
        if (!get_reg(ops[0], rs1) || !get_value(ops[1], imm))
            return;
        inst.rs1 = static_cast<uint8_t>(rs1);
        break;
      }
    }

    if (!checkImm(op, imm, line))
        return;
    inst.imm = static_cast<int32_t>(imm);
    emitInst(inst, line);
}

Program
AsmContext::run()
{
    parseAndLayout();
    if (program_.errors.empty())
        emitAll();
    std::sort(program_.addressTaken.begin(),
              program_.addressTaken.end());
    program_.addressTaken.erase(
        std::unique(program_.addressTaken.begin(),
                    program_.addressTaken.end()),
        program_.addressTaken.end());
    return std::move(program_);
}

} // namespace

Program
assemble(const std::string &source)
{
    AsmContext ctx(source);
    return ctx.run();
}

} // namespace rr::assembler
