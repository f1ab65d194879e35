/**
 * @file
 * rrlint — CFG + dataflow static analysis of RRISC images.
 *
 * This is the Section 2.4 tool. It checks the machine described by
 * LintOptions::geometry, the same machine::Geometry rrsim runs: every
 * register operand (isa::registerOperands) must fit the operand
 * width. With `declaredContext = N` and `flowSensitive = false` it is
 * the flat per-instruction check: every operand must also address
 * below N. With
 * the flow-sensitive passes on (the default) it also:
 *
 *  - builds a control-flow graph (cfg.hh);
 *  - runs backward liveness with LDRRM window barriers (liveness.hh)
 *    to find each context's entry requirements;
 *  - runs a forward abstract interpretation of the RRM
 *    (rrm_state.hh) so context-boundary checking is flow-sensitive:
 *    no hand-declared regions needed;
 *  - reports each discovered context window's *minimal viable
 *    context size* (max register referenced, rounded to the next
 *    power of two) — the number software needs to pick the smallest
 *    context, which is the paper's whole performance argument.
 *
 * With the interprocedural option it additionally builds a call
 * graph (callgraph.hh), propagates RRM state across call boundaries,
 * and attaches call-path witnesses to findings inside callees; with
 * the lockset option it runs the Eraser-style race detector
 * (lockset.hh) over every `.thread` entry point.
 *
 * Findings:
 *   operand-too-wide     operand >= 2^w: the machine traps on it
 *   boundary             operand >= the declared context size
 *   invalid-word         undecodable word (only with flagInvalidWords)
 *   rrm-overlap          operand bits collide with the known RRM: in
 *                        OR relocation the access escapes its window
 *   delay-slot-control   control transfer inside an LDRRM window
 *   ldrrm-in-delay-slot  LDRRM while another LDRRM is pending
 *   cross-context-write  write lands on a register live in another
 *                        context window
 *   ldrrm-across-call    (interprocedural) LDRRM delay window still
 *                        open when a procedure returns: the mask
 *                        lands in the caller
 *   call-undersized-context
 *                        (interprocedural) the callee subtree needs
 *                        more registers than the window open at the
 *                        call site provides
 *   race                 (lockset) two thread roots access a shared
 *                        word with no common lock held
 *   lock-indirect-call   (lockset) a JALR may reach a lock
 *                        procedure: the .lockdef contract is applied
 *                        through the indirection, flagged because the
 *                        actual target cannot be verified statically
 */

#ifndef RR_LINT_LINT_HH
#define RR_LINT_LINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/static/cfg.hh"
#include "analysis/static/liveness.hh"
#include "analysis/static/rrm_state.hh"
#include "assembler/assembler.hh"
#include "machine/relocation_unit.hh"

namespace rr::lint {

/** Diagnostic severity. Errors and warnings fail the lint. */
enum class Severity : uint8_t
{
    Error,
    Warning,
    Note,
};

/** @return printable severity name. */
const char *severityName(Severity severity);

/** One diagnostic. */
struct Finding
{
    std::string code;    ///< stable kebab-case id (see file header)
    Severity severity = Severity::Error;
    uint32_t address = 0; ///< word address
    int line = 0;         ///< 1-based source line (0 when unknown)
    std::string message;  ///< human-readable description

    /**
     * Call-path witness (procedure names, root first) when the
     * finding sits inside a called procedure; empty otherwise.
     */
    std::vector<std::string> path;

    /** Render as "line L: severity: [code] message (addr A)". */
    std::string str() const;
};

/** Per-context-window report (one per discovered RRM value). */
struct ThreadReport
{
    uint32_t rrm = 0;       ///< window base mask
    uint64_t footprint = 0; ///< context-relative regs referenced
    unsigned registers = 0; ///< max referenced register + 1
    unsigned minContext = 1; ///< registers rounded up to a power of 2
    uint64_t liveIn = 0;    ///< regs that must be live when entered
};

/** Per-procedure summary report (interprocedural mode). */
struct ProcedureReport
{
    std::string name;     ///< best label at the entry
    uint32_t entry = 0;   ///< entry word address
    unsigned registers = 0; ///< transitive max register + 1
    unsigned minContext = 1; ///< registers rounded to a power of 2
    uint64_t regsRead = 0;   ///< directly read (context-relative)
    uint64_t regsWritten = 0; ///< directly written
    bool switchesRrm = false; ///< subtree executes LDRRM
    bool returns = false;     ///< has a `jmp` return
    std::vector<std::string> callPath; ///< root -> ... -> this
};

/** One racing access site (lockset mode). */
struct RaceSite
{
    uint32_t address = 0; ///< word address of the LD/ST
    int line = 0;         ///< 1-based source line
    bool write = false;   ///< ST (LD otherwise)
    std::string thread;   ///< thread root name
    std::vector<std::string> locks; ///< lock names held
};

/** One reported race (lockset mode). */
struct RaceReport
{
    uint32_t mem = 0;   ///< the contended word address
    std::string symbol; ///< a label at that address, when any
    RaceSite first;
    RaceSite second;
};

/** Lint configuration. */
struct LintOptions
{
    /**
     * Declared context size for the flat boundary check (`rrlint
     * --context N`). 0 disables it; the operand-width check and the
     * flow-sensitive analyses run regardless.
     */
    unsigned declaredContext = 0;

    unsigned delaySlots = 1;   ///< LDRRM delay slots
    uint32_t initialRrm = 0;   ///< RRM at the entry point

    /**
     * The machine checked: operand width w, RRM banks (>1: Section
     * 5.3) and relocation mode. No register file is modelled, so
     * numRegs only has to admit 2^w registers.
     */
    machine::Geometry geometry;

    /** Treat undecodable words as findings. */
    bool flagInvalidWords = false;

    /** Disable the CFG/dataflow passes (flat check only). */
    bool flowSensitive = true;

    /**
     * Build the call graph: procedure summaries, return-edge RRM
     * propagation, call-path witnesses, ldrrm-across-call and
     * call-undersized-context findings (rrlint --calls).
     */
    bool interprocedural = false;

    /** Run the lockset race detector (rrlint --races). */
    bool lockset = false;
};

/** The result of linting one program. */
struct LintResult
{
    std::vector<Finding> findings;
    std::vector<ThreadReport> threads;
    std::vector<ProcedureReport> procedures; ///< interprocedural mode
    std::vector<RaceReport> races;           ///< lockset mode

    unsigned errors = 0;
    unsigned warnings = 0;
    unsigned notes = 0;

    /** @return true when no error- or warning-level findings exist. */
    bool clean() const { return errors == 0 && warnings == 0; }
};

/**
 * Run every analysis over @p program (asserts options.geometry.error()
 * is "").
 */
LintResult lintProgram(const assembler::Program &program,
                       const LintOptions &options = {});

/** Render @p result as human-readable text (one finding per line). */
std::string renderText(const LintResult &result,
                       const std::string &filename);

/**
 * One input file's contribution to an `rr.lint.v1` document.
 * Exactly one of three shapes: unreadable (readable == false),
 * unassembled (assemblyErrors non-empty), or linted (result valid).
 */
struct FileReport
{
    std::string file;
    bool readable = true;
    std::vector<assembler::Diagnostic> assemblyErrors;
    LintResult result;
};

/**
 * Render one versioned `rr.lint.v1` JSON document covering all
 * @p files (the multi-image `--json` output; docs/LINT.md documents
 * the schema). Assembly errors appear as `assembly-error` findings.
 * @param exitCode the exit status the tool will return, recorded in
 *                 the document's summary.
 */
std::string renderJsonDocument(const std::vector<FileReport> &files,
                               const std::string &toolVersion,
                               int exitCode);

} // namespace rr::lint

#endif // RR_LINT_LINT_HH
