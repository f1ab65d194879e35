/**
 * @file
 * Sample domains for rrfuzz (rr::fuzz).
 *
 * A *sample* is one self-contained, deterministic test case drawn by
 * a generator. Each domain's generator, oracle, shrinker and repro
 * codec live in src/fuzz/kinds/<kind>.cc; the codec serializes a
 * sample to a standalone text file and back, the format pinned under
 * tests/fuzz/corpus/.
 *
 * The domains and the cross-implementation redundancy each one
 * reconciles (the structs below and docs/FUZZ.md have the details):
 *
 *   reloc      RelocationUnit::relocate() vs the memoized table()
 *   heap       EventCore vs a reference lazy-deletion priority_queue
 *   json       exp:: JSON writer/parser round-trip properties
 *   num        strict CLI numeric parsing vs its documented grammar
 *   phase      sequence-indexed fault draws actually advance phases
 *   program    machine::Cpu predecode on vs off, plus rrlint claims
 *              vs registers actually touched at runtime
 *   mt         SimulationSpec runs audited by TraceAuditor, replayed
 *   xsim       machine-MT kernel vs the rr::mt model, one fault script
 *   callgraph  rrlint's interprocedural and lockset claims vs a
 *              constructed call forest and its runtime behaviour
 *   ckpt       rr.ckpt.v1 snapshot/restore vs a straight mt run
 */

#ifndef RR_FUZZ_SAMPLES_HH
#define RR_FUZZ_SAMPLES_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace rr::fuzz {

/** The sample domains, in KindOps table order (src/fuzz/kind.cc). */
enum class SampleKind : uint8_t
{
    Reloc,
    Heap,
    Json,
    Num,
    Phase,
    Program,
    Mt,
    Xsim,
    Callgraph,
    Ckpt,
};

/** Number of distinct sample kinds. */
constexpr unsigned numSampleKinds = 10;

/** @return stable printable name of @p kind (used in repro files). */
const char *kindName(SampleKind kind);

/** Look up a kind by name. @return false when unknown. */
bool kindFromName(const std::string &name, SampleKind &out);

/** Oracle verdict: problem descriptions; empty = sample passes. */
using Problems = std::vector<std::string>;

// ---------------------------------------------------------------------
// reloc: RelocationUnit::relocate() vs table()

/** One step of a relocation-unit script. */
struct RelocOp
{
    enum : uint8_t { SetMask, SetSize } kind = SetMask;
    uint32_t value = 0; ///< mask value / context size
    uint8_t bank = 0;   ///< bank for SetMask
};

/**
 * A relocation-unit geometry plus a script of mask/context-size
 * changes. The oracle compares relocate() against table() for every
 * operand after every step, so table memoization (including the
 * 16-slot recycling and the single-bank mask memo) can never drift
 * from the uncached reference.
 */
struct RelocSample
{
    unsigned numRegs = 32;
    unsigned operandWidth = 5;
    unsigned banks = 1;
    uint8_t mode = 0; ///< machine::RelocationMode value
    std::vector<RelocOp> ops;
};

// ---------------------------------------------------------------------
// heap: EventCore vs reference priority_queue

/** One step of an event-heap script. */
struct HeapOp
{
    enum : uint8_t { Push, Pop, Invalidate } kind = Push;
    uint64_t time = 0; ///< completion time for Push
    uint32_t tid = 0;  ///< thread for Push / Invalidate
};

/**
 * A script against the completion-event heap. The oracle runs it
 * against mt::EventCore and against a std::priority_queue with lazy
 * stale deletion (the pre-EventCore algorithm) and compares the
 * delivered event sequence and the live/stale accounting.
 */
struct HeapSample
{
    unsigned numThreads = 4;
    std::vector<HeapOp> ops;
};

// ---------------------------------------------------------------------
// json: writer/parser round-trip

/**
 * One JSON document (arbitrary bytes). The oracle requires: if the
 * document parses, then serialize -> parse -> serialize is a
 * fixpoint, the reparsed value is structurally identical, and a
 * pure-ASCII document never decodes to invalid UTF-8.
 */
struct JsonSample
{
    std::string text;
};

// ---------------------------------------------------------------------
// num: strict CLI numeric grammar

/**
 * One candidate numeric argument. The oracle checks
 * tools-layer parseUnsigned() against the documented grammar
 * (docs/TOOLS.md): nonempty decimal digits, or 0x/0X plus hex
 * digits; no sign, no whitespace, no trailing bytes; value <= max.
 */
struct NumSample
{
    std::string text;
    uint64_t max = ~0ull;
};

// ---------------------------------------------------------------------
// phase: sequence-indexed fault draws

/**
 * An MtProcessor simulation under a two-phase fault model whose
 * second phase has a much larger latency. If the simulator draws
 * faults without the per-thread sequence index, threads are pinned
 * to phase 0 and the run is bit-identical to the phase-0-only model
 * — which is exactly what the oracle rejects.
 */
struct PhaseSample
{
    unsigned threads = 8;
    uint64_t workPerThread = 4096;
    uint64_t phase0Faults = 2;
    double meanRun = 32.0;
    uint64_t latency0 = 20;
    uint64_t latency1 = 2000;
    unsigned numRegs = 128;
    uint64_t seed = 1;
};

// ---------------------------------------------------------------------
// program: predecode differential + runtime-vs-lint

/**
 * A generated RRISC image (base 0) plus the machine geometry to run
 * it under. Oracles: (1) predecode on vs off must produce
 * byte-identical traces and final architectural state; (2)
 * relocate() vs table() on every operand at every observed mask;
 * (3) when `lintChecked`, rrlint's flow-sensitive window claims must
 * cover every register the program actually touches at runtime; (4)
 * in Or mode, rrlint's operand-too-wide findings must match the CPU's
 * operand-too-wide traps at every pc executed from its image word.
 */
struct ProgramSample
{
    unsigned numRegs = 64;
    unsigned operandWidth = 5;
    unsigned delaySlots = 1;
    unsigned banks = 1;
    uint8_t mode = 0; ///< machine::RelocationMode value
    unsigned memWords = 1024;
    uint64_t maxSteps = 4000;
    unsigned takenBranchPenalty = 0;
    unsigned loadUsePenalty = 0;
    unsigned ldrrmPenalty = 0;

    /**
     * The sample obeys the lint-oracle constraints (Or mode, one
     * bank, no self-modifying stores, no indirect jumps, operands
     * inside [0, 2^w)), so the rrlint consistency oracle applies.
     */
    bool lintChecked = false;

    std::vector<uint32_t> words;
};

// ---------------------------------------------------------------------
// mt: audited SimulationSpec runs

/**
 * One event-model simulation spec, generated at the edges of
 * SimulationSpec validation. Oracles: TraceAuditor reconciles
 * exactly against the reported statistics, the cycle buckets
 * partition total time, and an identical re-run reproduces every
 * statistic bit-for-bit.
 */
struct MtSample
{
    unsigned threads = 64;
    unsigned regsLo = 6;
    unsigned regsHi = 24;
    uint64_t work = 0; ///< 0 = family default work per thread

    /** 0 cache, 1 sync, 2 combined, 3 deterministic, 4 phased. */
    uint8_t family = 0;
    double param0 = 32.0;  ///< mean run (cache leg)
    double param1 = 100.0; ///< latency (cache leg)
    double param2 = 16.0;  ///< sync mean run (combined / phased)
    double param3 = 200.0; ///< sync latency (combined / phased)
    uint64_t phase0Faults = 4; ///< phased only
    uint64_t phase1Faults = 4; ///< phased only

    uint8_t arch = 0; ///< mt::ArchKind value
    unsigned numRegs = 128;
    unsigned operandWidth = 5;
    unsigned minContextSize = 4;
    unsigned fixedContextRegs = 32;
    uint8_t unload = 0; ///< mt::UnloadPolicyKind value
    unsigned residencyCap = 0;
    unsigned priorityLevels = 1;
    uint64_t seed = 1;
};

// ---------------------------------------------------------------------
// xsim: machine kernel vs event model

/**
 * A matched pair: the cycle-level MachineMtKernel executing real
 * Figure 3 code and the event-driven MtProcessor charged the same
 * costs, both driven by the same scripted fault schedule (per-thread
 * segment lengths cycle through `script`, constant latency). The
 * oracle requires exact agreement on work units, useful cycles,
 * fault counts and completions, the two independently computed
 * whole-run efficiencies to agree within `tolerance` (plus a
 * segment-count-dependent allowance for poll-granularity rounding),
 * the kernel to halt, and the event model's trace to pass the
 * cycle-conservation audit.
 */
struct XsimSample
{
    unsigned threads = 2;   ///< resident thread count (contexts fit)
    unsigned regsUsed = 12; ///< C (context size = next power of two)
    std::vector<uint64_t> script; ///< work units per segment, cycled
    uint64_t latency = 200;
    unsigned segments = 16; ///< run segments per thread
    uint64_t seed = 1;
    double tolerance = 0.15;
};

// ---------------------------------------------------------------------
// callgraph: rrlint interprocedural + lockset vs construction/runtime

/** One generated procedure in a callgraph sample. */
struct CgProc
{
    /**
     * Extra registers this body touches directly (bitmask over
     * r1..r11; the emitter turns each bit into an `addi rX, rX, 1`).
     */
    uint32_t touch = 0;

    int cell = -1;      ///< shared cell index accessed (-1: none)
    bool write = false; ///< the access is a ST (LD otherwise)

    /**
     * Lock held around the whole body (-1: none): acquire is called
     * before the first touch, release after the last child call, so
     * the access and every callee inherit it. Must differ from every
     * forest ancestor's lock or the spinlock self-deadlocks.
     */
    int lock = -1;

    /**
     * Child procedures called, in order. Indices are strictly greater
     * than this procedure's own (the call graph is a forest: acyclic,
     * and every procedure has at most one caller), and the forest is
     * at most three procedures deep.
     */
    std::vector<uint32_t> calls;
};

/** One thread root (roots[0] is `entry`, the rest `.thread` labels). */
struct CgRoot
{
    /**
     * Top-level procedures called in sequence before HALT. Distinct,
     * and only parentless procedures — so within one root every
     * procedure is reachable along exactly one call path and the
     * constructed must-hold lockset is exact, while two roots sharing
     * a tree still exercise cross-thread access classification.
     */
    std::vector<uint32_t> calls;
};

/**
 * A whole-program concurrency sample: a procedure forest with lock
 * idioms and shared-cell accesses, expanded deterministically into
 * assembly by callgraphSource(). Only procedures reachable from a
 * root are emitted (dead code calling a lock procedure would poison
 * the RRM analysis' conservative unknown-mask seed for unreachable
 * labels, which the ground-truth model deliberately excludes). Oracles: (1) the program assembles
 * and rrlint --all reports *exactly* the races the construction
 * implies (site locksets included); (2) running each thread root on
 * machine::Cpu stays inside the per-procedure summary footprints and
 * every runtime shared-cell touch is classified by the lockset pass.
 */
struct CallgraphSample
{
    unsigned numCells = 1; ///< shared `.equ` cells (kCgCellBase + i)
    unsigned numLocks = 0; ///< declared locks (`.lockdef`)
    std::vector<CgProc> procs;
    std::vector<CgRoot> roots;
    uint64_t maxSteps = 20000;
};

// ---------------------------------------------------------------------
// ckpt: snapshot/restore differential over the mt simulator

/**
 * A checkpoint/restore case over one event-model simulation. The
 * oracle runs `spec` straight through, then re-runs it stepping
 * exactly `splitEvents` events (clamped to the run's length), takes an
 * rr.ckpt.v1 snapshot, restores it into a *fresh* MtProcessor and
 * finishes the run there. The restored leg's remaining trace events
 * and final statistics must match the straight run bit-for-bit, and
 * the snapshot re-taken immediately after restore must be
 * byte-identical to the original. Finally the document with one bit
 * flipped (position `corruptPos` % size, bit `corruptBit`) must be
 * rejected with ckpt::Error — never an abort.
 */
struct CkptSample
{
    MtSample spec;           ///< the simulation to checkpoint
    uint64_t splitEvents = 0; ///< event boundary to snapshot at
    uint64_t corruptPos = 0;  ///< byte to corrupt (mod document size)
    uint8_t corruptBit = 0;   ///< bit index (0..7) to flip there
};

/** Any sample, tagged by domain. */
using AnySample =
    std::variant<RelocSample, HeapSample, JsonSample, NumSample,
                 PhaseSample, ProgramSample, MtSample, XsimSample,
                 CallgraphSample, CkptSample>;

/** @return the domain tag of @p sample. */
SampleKind kindOf(const AnySample &sample);

} // namespace rr::fuzz

#endif // RR_FUZZ_SAMPLES_HH
