#include "assembler/assembler.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <string_view>

#include "base/logging.hh"
#include "isa/instruction.hh"

namespace rr::assembler {

using isa::Format;
using isa::Instruction;
using isa::Opcode;

std::string
Diagnostic::str() const
{
    return "line " + std::to_string(line) + ": " + message;
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

/** What a statement's head names, resolved once in pass 1. */
enum class Head : uint8_t
{
    Org,
    Align,
    Word,
    Thread,
    LockDef,
    Mov,
    Li,
    La,
    B,
    Instruction, ///< a machine mnemonic (Statement::op)
    Unknown,     ///< reported in pass 1; never emitted
};

/**
 * A parsed source statement. Operands are views into the source text,
 * kept in one flat list owned by the assembler.
 */
struct Statement
{
    int line = 0;
    Head head = Head::Unknown;
    Opcode op = Opcode::NOP;      ///< when head == Head::Instruction
    uint32_t firstOperand = 0;    ///< index into AsmContext::operands_
    uint32_t numOperands = 0;
};

// Character classes of the "C" locale, spelled out: the source is
// ASCII, and the <cctype> calls cost a library call per character.

char
lower(char c)
{
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isAlpha(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Line blanks: what trim() strips. */
bool
isBlank(char c)
{
    return c == ' ' || c == '\t' || c == '\r';
}

/** Strip surrounding blanks (space, tab, carriage return). */
std::string_view
trim(std::string_view s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end && isBlank(s[begin]))
        ++begin;
    while (end > begin && isBlank(s[end - 1]))
        --end;
    return s.substr(begin, end - begin);
}

/** Strip the comment (';', '#' or '//' to end of line), then trim. */
std::string_view
cleanLine(std::string_view s)
{
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == ';' || c == '#' ||
            (c == '/' && i + 1 < s.size() && s[i + 1] == '/')) {
            s = s.substr(0, i);
            break;
        }
    }
    return trim(s);
}

/** @return true when @p s equals the lower-case @p word, any case. */
bool
equalsLower(std::string_view s, std::string_view word)
{
    return s.size() == word.size() &&
           std::equal(s.begin(), s.end(), word.begin(),
                      [](char a, char b) { return lower(a) == b; });
}

bool
isIdentStart(char c)
{
    return isAlpha(c) || c == '_' || c == '.';
}

bool
isIdentChar(char c)
{
    return isIdentStart(c) || isDigit(c);
}

/** "'" + @p tok + "'" after @p prefix: the shape of token errors. */
std::string
quoted(const char *prefix, std::string_view tok)
{
    std::string out(prefix);
    out += '\'';
    out += tok;
    out += '\'';
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

    void error(int line, std::string msg)
    {
        program_.errors.push_back({line, std::move(msg)});
    }

    std::span<const std::string_view> operandsOf(const Statement &stmt) const
    {
        return {operands_.data() + stmt.firstOperand, stmt.numOperands};
    }

    /**
     * Split the operand text of a statement on commas into operands_;
     * each operand is trimmed, and a lone empty operand means none.
     */
    void splitOperands(std::string_view text, Statement &stmt)
    {
        stmt.firstOperand = static_cast<uint32_t>(operands_.size());
        size_t begin = 0;
        for (size_t comma; (comma = text.find(',', begin)) !=
                           std::string_view::npos;
             begin = comma + 1)
            operands_.push_back(trim(text.substr(begin, comma - begin)));
        const std::string_view last = trim(text.substr(begin));
        if (!last.empty() || operands_.size() > stmt.firstOperand)
            operands_.push_back(last);
        stmt.numOperands =
            static_cast<uint32_t>(operands_.size()) - stmt.firstOperand;
    }

    /** Parse "r<N>" (any case); returns nullopt on failure. */
    static std::optional<unsigned> parseReg(std::string_view tok)
    {
        if (tok.size() < 2 || lower(tok[0]) != 'r')
            return std::nullopt;
        unsigned value = 0;
        for (size_t i = 1; i < tok.size(); ++i) {
            if (!isDigit(tok[i]))
                return std::nullopt;
            value = value * 10 + static_cast<unsigned>(tok[i] - '0');
            if (value >= isa::maxOperandRegs)
                return std::nullopt;
        }
        return value;
    }

    /** Parse a literal integer (decimal or 0x hex, maybe negative). */
    static std::optional<int64_t> parseIntLiteral(std::string_view tok)
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
            const char c = lower(tok[pos]);
            int digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (base == 16 && c >= 'a' && c <= 'f')
                digit = c - 'a' + 10;
            else
                return std::nullopt;
            // Past the int64 range it is no literal: the use reports a
            // line error instead of computing an overflowed value.
            if (value > (std::numeric_limits<int64_t>::max() - digit) / base)
                return std::nullopt;
            value = value * base + digit;
        }
        return negative ? -value : value;
    }

    /**
     * Resolve an expression token: integer literal, .equ constant, or
     * label. Only valid during pass 2 (labels must be known).
     */
    std::optional<int64_t> resolveValue(std::string_view tok) const
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
    void noteAddressTaken(std::string_view tok)
    {
        if (parseIntLiteral(tok) || constants_.contains(tok))
            return;
        const auto sym = program_.symbols.find(tok);
        if (sym != program_.symbols.end())
            program_.addressTaken.push_back(sym->second);
    }

    // ---- passes ---------------------------------------------------------

    /** Parse lines into statements, recording labels (pass 1). */
    void parseAndLayout();

    /** Classify the lower-case @p head into @p stmt. */
    static void classify(std::string_view head, Statement &stmt);

    /** Size (in words) that @p stmt will emit. */
    static unsigned statementSize(const Statement &stmt);

    /** Encode statements into program words (pass 2). */
    void emitAll();

    /** Append @p word at the cursor (words grow only at the end). */
    void emitWord(uint32_t word, int line)
    {
        rr_assert(cursor_ - program_.base == program_.words.size(),
                  "cursor off the end of the image");
        program_.words.push_back(word);
        program_.lines.push_back(line);
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
        error(line, std::string(isa::mnemonicOf(op)) +
                        (fmt == isa::Format::B || fmt == isa::Format::J
                             ? " offset "
                             : " immediate ") +
                        std::to_string(imm) + " out of " +
                        (info.immSigned ? "signed " : "unsigned ") +
                        std::to_string(info.immBits) + "-bit range");
        return false;
    }

    void emitStatement(const Statement &stmt);
    void emitInstruction(const Statement &stmt);
    void emitPseudo(const Statement &stmt);

    const std::string &source_;
    Program program_;
    std::vector<Statement> statements_;
    std::vector<std::string_view> operands_;
    std::map<std::string, int64_t, std::less<>> constants_;
    std::string head_; ///< the current line's lower-cased head
    uint32_t cursor_ = 0;
    uint32_t layoutEnd_ = 0; ///< the address after pass 1's last word
    bool baseSet_ = false;
};

void
AsmContext::classify(std::string_view head, Statement &stmt)
{
    // .org, .align and .equ are laid out before classification.
    static constexpr std::pair<std::string_view, Head> kNamed[] = {
        {".word", Head::Word}, {".thread", Head::Thread},
        {".lockdef", Head::LockDef}, {"mov", Head::Mov},
        {"li", Head::Li}, {"la", Head::La}, {"b", Head::B},
    };
    for (const auto &[name, kind] : kNamed) {
        if (head == name) {
            stmt.head = kind;
            return;
        }
    }
    stmt.head = isa::opcodeFromMnemonic(head, stmt.op) ? Head::Instruction
                                                       : Head::Unknown;
}

void
AsmContext::parseAndLayout()
{
    const std::string_view source = source_;
    int line_no = 0;
    uint32_t addr = 0;
    const auto lines = static_cast<size_t>(
        std::count(source.begin(), source.end(), '\n') + 1);
    statements_.reserve(lines);
    operands_.reserve(2 * lines);

    for (size_t pos = 0; pos < source.size();) {
        size_t eol = source.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = source.size();
        ++line_no;
        std::string_view text = cleanLine(source.substr(pos, eol - pos));
        pos = eol + 1;

        // Peel off any leading labels.
        while (!text.empty()) {
            size_t i = 0;
            if (!isIdentStart(text[0]))
                break;
            while (i < text.size() && isIdentChar(text[i]))
                ++i;
            if (i >= text.size() || text[i] != ':')
                break;
            const std::string_view label = text.substr(0, i);
            if (!program_.symbols.try_emplace(std::string(label), addr)
                     .second)
                error(line_no, quoted("duplicate label ", label));
            text = trim(text.substr(i + 1));
        }
        if (text.empty())
            continue;

        // Split head / operands.
        size_t head_end = 0;
        while (head_end < text.size() &&
               !isSpace(text[head_end])) {
            ++head_end;
        }
        head_.assign(text.substr(0, head_end));
        std::transform(head_.begin(), head_.end(), head_.begin(), lower);
        Statement stmt;
        stmt.line = line_no;
        splitOperands(trim(text.substr(head_end)), stmt);
        const auto ops = operandsOf(stmt);

        // Directives that change layout are handled here so that label
        // addresses are known by the end of pass 1.
        if (head_ == ".org") {
            stmt.head = Head::Org;
            if (ops.size() != 1) {
                error(line_no, ".org expects one operand");
                continue;
            }
            const auto v = parseIntLiteral(ops[0]);
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
        if (head_ == ".equ") {
            if (ops.size() != 2) {
                error(line_no, ".equ expects NAME, VALUE");
                continue;
            }
            const auto v = parseIntLiteral(ops[1]);
            if (!v) {
                error(line_no, ".equ value must be a literal");
                continue;
            }
            constants_.insert_or_assign(std::string(ops[0]), *v);
            continue;
        }
        if (head_ == ".align") {
            stmt.head = Head::Align;
            if (ops.size() != 1) {
                error(line_no, ".align expects one operand");
                continue;
            }
            const auto v = parseIntLiteral(ops[0]);
            if (!v || *v <= 0) {
                error(line_no, ".align expects a positive literal");
                continue;
            }
            const auto align = static_cast<uint32_t>(*v);
            addr = (addr + align - 1) / align * align;
            statements_.push_back(stmt);
            continue;
        }

        classify(head_, stmt);
        if (stmt.head == Head::Unknown)
            error(line_no,
                  quoted("unknown mnemonic or directive ", head_));
        addr += statementSize(stmt);
        statements_.push_back(stmt);
    }
    layoutEnd_ = addr;
}

unsigned
AsmContext::statementSize(const Statement &stmt)
{
    switch (stmt.head) {
      case Head::Thread:
      case Head::LockDef:
      case Head::Unknown:
        return 0; // annotations: resolved in pass 2, emit nothing
      case Head::Li:
      case Head::La:
        return 2;
      default:
        return 1;
    }
}

void
AsmContext::emitAll()
{
    cursor_ = program_.base;
    program_.words.reserve(layoutEnd_ - program_.base);
    program_.lines.reserve(layoutEnd_ - program_.base);
    for (const auto &stmt : statements_)
        emitStatement(stmt);
}

void
AsmContext::emitStatement(const Statement &stmt)
{
    const int line = stmt.line;
    const auto ops = operandsOf(stmt);

    switch (stmt.head) {
      case Head::Org: {
        const auto target = static_cast<uint32_t>(*parseIntLiteral(ops[0]));
        while (cursor_ < target)
            emitWord(0, line);
        return;
      }
      case Head::Align: {
        const auto align = static_cast<uint32_t>(*parseIntLiteral(ops[0]));
        while (cursor_ % align != 0)
            emitWord(0, line);
        return;
      }
      case Head::Word: {
        if (ops.size() != 1) {
            error(line, ".word expects one operand");
            return;
        }
        const auto v = resolveValue(ops[0]);
        if (!v) {
            error(line, quoted("cannot resolve ", ops[0]));
            emitWord(0, line);
            return;
        }
        noteAddressTaken(ops[0]);
        emitWord(static_cast<uint32_t>(*v), line);
        return;
      }
      case Head::Thread: {
        if (ops.empty() || ops.size() > 2) {
            error(line, ".thread expects LABEL[, RRM]");
            return;
        }
        const auto entry = resolveValue(ops[0]);
        if (!entry || *entry < 0) {
            error(line, quoted("cannot resolve ", ops[0]));
            return;
        }
        ThreadDecl decl;
        decl.address = static_cast<uint32_t>(*entry);
        decl.line = line;
        if (ops.size() == 2) {
            const auto rrm = resolveValue(ops[1]);
            if (!rrm || *rrm < 0) {
                error(line, quoted("cannot resolve ", ops[1]));
                return;
            }
            decl.hasRrm = true;
            decl.rrm = static_cast<uint32_t>(*rrm);
        }
        program_.threads.push_back(decl);
        return;
      }
      case Head::LockDef: {
        if (ops.size() != 3) {
            error(line, ".lockdef expects NAME, ACQUIRE, RELEASE");
            return;
        }
        LockDef def;
        def.name = ops[0];
        def.line = line;
        const auto acquire = resolveValue(ops[1]);
        const auto release = resolveValue(ops[2]);
        if (!acquire || *acquire < 0) {
            error(line, quoted("cannot resolve ", ops[1]));
            return;
        }
        if (!release || *release < 0) {
            error(line, quoted("cannot resolve ", ops[2]));
            return;
        }
        def.acquire = static_cast<uint32_t>(*acquire);
        def.release = static_cast<uint32_t>(*release);
        program_.lockdefs.push_back(std::move(def));
        return;
      }
      case Head::Mov:
      case Head::Li:
      case Head::La:
      case Head::B:
        emitPseudo(stmt);
        return;
      case Head::Instruction:
        emitInstruction(stmt);
        return;
      case Head::Unknown:
        return; // already reported in pass 1
    }
}

void
AsmContext::emitPseudo(const Statement &stmt)
{
    const int line = stmt.line;
    const auto ops = operandsOf(stmt);

    if (stmt.head == Head::Mov) {
        if (ops.size() != 2) {
            error(line, "mov expects two operands");
            return;
        }
        const bool dst_psw = equalsLower(ops[0], "psw");
        const bool src_psw = equalsLower(ops[1], "psw");
        if (dst_psw && src_psw) {
            error(line, "mov psw, psw is meaningless");
            return;
        }
        if (dst_psw) {
            const auto rs = parseReg(ops[1]);
            if (!rs) {
                error(line, quoted("bad register ", ops[1]));
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
            error(line, quoted("bad register ", ops[0]));
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
            error(line, quoted("bad register ", ops[1]));
            return;
        }
        emitInst(isa::makeI(Opcode::ADDI, *rd, *rs, 0), line);
        return;
    }

    if (stmt.head == Head::Li || stmt.head == Head::La) {
        if (ops.size() != 2) {
            error(line, std::string(stmt.head == Head::Li ? "li" : "la") +
                            " expects two operands");
            return;
        }
        const auto rd = parseReg(ops[0]);
        if (!rd) {
            error(line, quoted("bad register ", ops[0]));
            return;
        }
        const auto v = resolveValue(ops[1]);
        if (!v) {
            error(line, quoted("cannot resolve ", ops[1]));
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

    rr_assert(stmt.head == Head::B, "unhandled pseudo-instruction");
    if (ops.size() != 1) {
        error(line, "b expects one operand");
        return;
    }
    const auto v = resolveValue(ops[0]);
    if (!v) {
        error(line, quoted("cannot resolve ", ops[0]));
        return;
    }
    const int64_t offset = *v - static_cast<int64_t>(cursor_);
    if (!checkImm(Opcode::BEQ, offset, line))
        return;
    emitInst(isa::makeB(Opcode::BEQ, 0, 0, static_cast<int32_t>(offset)),
             line);
}

void
AsmContext::emitInstruction(const Statement &stmt)
{
    const int line = stmt.line;
    const auto ops = operandsOf(stmt);
    const Opcode op = stmt.op;
    const Format fmt = isa::formatOf(op);

    auto need = [&](size_t n) {
        if (ops.size() != n) {
            error(line, std::string(isa::mnemonicOf(op)) + " expects " +
                            std::to_string(n) + " operand(s), got " +
                            std::to_string(ops.size()));
            return false;
        }
        return true;
    };
    auto get_reg = [&](std::string_view tok, unsigned &out) {
        const auto r = parseReg(tok);
        if (!r) {
            error(line, quoted("bad register ", tok));
            return false;
        }
        out = *r;
        return true;
    };
    auto get_value = [&](std::string_view tok, int64_t &out) {
        const auto v = resolveValue(tok);
        if (!v) {
            error(line, quoted("cannot resolve ", tok));
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
            if (open == std::string_view::npos ||
                close == std::string_view::npos || close < open) {
                error(line, "expected imm(rs1) operand");
                return;
            }
            const std::string_view imm_text =
                open == 0 ? "0" : ops[1].substr(0, open);
            const std::string_view reg_text =
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
