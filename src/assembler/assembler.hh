/**
 * @file
 * A two-pass assembler for RRISC.
 *
 * Syntax:
 *   - one instruction, label, or directive per line;
 *   - comments start with ';', '#', or '//' and run to end of line;
 *   - labels are 'name:' and may share a line with an instruction;
 *   - registers are context-relative: r0 .. r63; 'psw' is accepted by
 *     the mov pseudo-instruction;
 *   - immediates are decimal or 0x-hex, optionally negative;
 *   - memory operands use imm(rs1) form: ld r1, 4(r2);
 *   - branch/jump targets may be labels (PC-relative offsets are
 *     computed automatically) or explicit immediates.
 *
 * Directives:
 *   .org  ADDR       set the next emission address (word address)
 *   .word VALUE      emit a literal 32-bit word
 *   .align N         pad with zeros to an N-word boundary
 *   .equ  NAME, VAL  define an assembly-time constant
 *   .thread LABEL[, RRM]
 *                    declare LABEL as a static thread entry point,
 *                    optionally with its entry relocation mask
 *                    (annotation only: emits nothing; consumed by the
 *                    static analyses, docs/LINT.md)
 *   .lockdef NAME, ACQUIRE, RELEASE
 *                    declare a lock: calls to ACQUIRE take NAME,
 *                    calls to RELEASE drop it (annotation only)
 *
 * Pseudo-instructions:
 *   mov rd, rs       -> addi rd, rs, 0
 *   mov rd, psw      -> mfpsw rd
 *   mov psw, rs      -> mtpsw rs
 *   li  rd, imm      -> lui rd, hi; ori rd, rd, lo   (0 .. 0x3ffff7ff;
 *                       lui rd, hi + 1; addi rd, rd, lo - 4096 when
 *                       bit 11 of imm is set)
 *   la  rd, label    -> li with the label's word address
 *   b   label        -> beq r0, r0, label
 *
 * This is the tool chain the paper assumes exists (Section 2.4): the
 * compiler emits context-relative register numbers starting at 0 and
 * reports each thread's register requirement; here, hand-written
 * assembly plays the role of compiled code.
 */

#ifndef RR_ASSEMBLER_ASSEMBLER_HH
#define RR_ASSEMBLER_ASSEMBLER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace rr::assembler {

/** One assembly diagnostic. */
struct Diagnostic
{
    int line;            ///< 1-based source line
    std::string message; ///< what went wrong

    /** Render as "line N: message". */
    std::string str() const;
};

/** A `.lockdef NAME, ACQUIRE, RELEASE` annotation. */
struct LockDef
{
    std::string name;     ///< lock name used in lint reports
    uint32_t acquire = 0; ///< entry address of the acquire procedure
    uint32_t release = 0; ///< entry address of the release procedure
    int line = 0;         ///< 1-based source line of the directive
};

/** A `.thread LABEL[, RRM]` annotation: a static thread entry. */
struct ThreadDecl
{
    uint32_t address = 0; ///< entry word address
    bool hasRrm = false;  ///< an explicit entry mask was given
    uint32_t rrm = 0;     ///< entry RRM when hasRrm
    int line = 0;         ///< 1-based source line of the directive
};

/** The result of assembling a source string. */
struct Program
{
    /** Base word address of the image (set by a leading .org). */
    uint32_t base = 0;

    /** The assembled image, one 32-bit word per instruction. */
    std::vector<uint32_t> words;

    /**
     * Label name -> absolute word address. The transparent comparator
     * lets lookups take a std::string_view or a literal without
     * building a std::string.
     */
    std::map<std::string, uint32_t, std::less<>> symbols;

    /** Word index -> source line (for traces and diagnostics). */
    std::vector<int> lines;

    /** Declared locks, in source order (.lockdef). */
    std::vector<LockDef> lockdefs;

    /** Declared thread entry points, in source order (.thread). */
    std::vector<ThreadDecl> threads;

    /**
     * Addresses of labels whose value is taken as data (by li/la or
     * .word), sorted ascending. The conservative indirect-call target
     * set: a JALR can only reach code whose address was materialised.
     */
    std::vector<uint32_t> addressTaken;

    /** Errors; assembly succeeded iff empty. */
    std::vector<Diagnostic> errors;

    /** @return true when no errors were produced. */
    bool ok() const { return errors.empty(); }

    /** Address of @p label; panics when undefined. */
    uint32_t addressOf(const std::string &label) const;

    /** @return true when @p addr falls inside the assembled image. */
    bool contains(uint32_t addr) const;

    /** Source line of the word at @p addr (0 when unknown/outside). */
    int lineAt(uint32_t addr) const;

    /**
     * Labels defined at @p addr, in lexicographic order. Static
     * analyses use this reverse lookup to name CFG entry points.
     */
    std::vector<std::string> labelsAt(uint32_t addr) const;
};

/**
 * Assemble RRISC source text.
 * Never throws; errors are reported in Program::errors.
 */
Program assemble(const std::string &source);

} // namespace rr::assembler

#endif // RR_ASSEMBLER_ASSEMBLER_HH
