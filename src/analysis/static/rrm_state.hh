/**
 * @file
 * Forward abstract interpretation of the register relocation mask.
 *
 * A flat boundary check needs a declared context size for the code it
 * checks. This analysis makes the check flow-sensitive instead: it
 * tracks the RRM through `LDRRM` (including its delay slots) by
 * propagating constants through the register file, so
 * `li r10, 0x20; ldrrm r10` is understood to open the context window
 * at physical register 0x20.
 *
 * Abstract domain, per program point:
 *   - the RRM (bank 0): unreachable / known constant / unknown;
 *   - a pending LDRRM (value + remaining delay slots), mirroring the
 *     CPU's delay-slot state machine;
 *   - known constants in *physical* registers. Keying by physical
 *     register is what makes the two_threads.s idiom analysable: the
 *     values written under one window survive a window switch.
 *
 * The pass also reports the paper-specific delay-slot hazards:
 *   - a control transfer executing inside an LDRRM delay window (the
 *     mask lands at the target, which rarely expects it);
 *   - an LDRRM issued while another LDRRM is still pending;
 *   - with a call graph: an LDRRM whose delay window is still open
 *     when a procedure returns, so the mask lands in the caller.
 *
 * When constructed with a CallGraph the analysis additionally:
 *   - adds return edges (a callee's `jmp` exit state flows to every
 *     direct call site's return point, pending LDRRM included), so
 *     the instruction after a call is no longer a conservative Top
 *     root but sees the mask the callee actually left behind;
 *   - seeds `.thread` entry points with their declared entry mask
 *     (default: the initial RRM) instead of Top, which keeps constant
 *     tracking alive inside thread bodies;
 *   - records the abstract effective address of every LD/ST, the
 *     input the lockset race detector classifies accesses with.
 */

#ifndef RR_LINT_RRM_STATE_HH
#define RR_LINT_RRM_STATE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/static/cfg.hh"
#include "machine/relocation_unit.hh"

namespace rr::lint {

/** A three-point lattice value: bottom / constant / top. */
struct AbsVal
{
    enum Kind : uint8_t { Bottom, Const, Top };

    Kind kind = Bottom;
    uint32_t value = 0;

    static AbsVal bottom() { return {}; }
    static AbsVal top() { return {Top, 0}; }
    static AbsVal constant(uint32_t v) { return {Const, v}; }

    bool isConst() const { return kind == Const; }
    bool isTop() const { return kind == Top; }

    bool operator==(const AbsVal &other) const
    {
        return kind == other.kind &&
               (kind != Const || value == other.value);
    }

    /** Lattice join. */
    static AbsVal join(const AbsVal &a, const AbsVal &b);
};

/**
 * @return true when operand @p reg relocates through the bank-0 mask
 * the analysis tracks: it fits the operand width of @p geometry (else
 * the machine traps) and selects bank 0 (then its offset is @p reg).
 */
inline bool
tracksOperand(const machine::Geometry &geometry, unsigned reg)
{
    return geometry.operandFits(reg) && geometry.bankOf(reg) == 0;
}

/** Options for the RRM abstract interpretation. */
struct RrmOptions
{
    unsigned delaySlots = 1;   ///< LDRRM delay slots
    uint32_t initialRrm = 0;   ///< RRM at the entry point

    /**
     * The machine checked: its operand width, banks (>1: top operand
     * bits select a bank) and relocation mode. The register file
     * size is not modelled.
     */
    machine::Geometry geometry;

    /**
     * Context size for Mux-mode relocation (0 = unknown: Mux reads
     * become top). Ignored by Or/Add.
     */
    unsigned muxContextSize = 0;
};

/** One delay-slot hazard found during interpretation. */
struct RrmHazard
{
    enum Kind : uint8_t
    {
        ControlInDelay, ///< control transfer inside an LDRRM window
        LdrrmInDelay,   ///< LDRRM while another LDRRM is pending
        PendingAcrossReturn, ///< LDRRM window still open at a `jmp`
                             ///< return: the mask lands in the caller
    };

    Kind kind = ControlInDelay;
    uint32_t address = 0;
    int line = 0;
};

class CallGraph;

/** Forward RRM/constant analysis over a Cfg. */
class RrmAnalysis
{
  public:
    /**
     * @param callgraph optional: enables interprocedural return-edge
     *                  propagation, `.thread` seeding, and the
     *                  PendingAcrossReturn hazard. Must outlive the
     *                  analysis.
     */
    RrmAnalysis(const Cfg &cfg, const RrmOptions &options = {},
                const CallGraph *callgraph = nullptr);

    /**
     * The RRM in effect when the instruction at @p addr decodes
     * (delay slots accounted for). Bottom = unreachable.
     */
    const AbsVal &rrmBefore(uint32_t addr) const;

    /**
     * Abstract effective address of the LD/ST at @p addr: constant
     * when base register + displacement fold, Top when unknown,
     * Bottom when unreachable or not a memory access.
     */
    const AbsVal &memAddrBefore(uint32_t addr) const;

    /** Delay-slot hazards, in address order. */
    const std::vector<RrmHazard> &hazards() const { return hazards_; }

    /**
     * Distinct constant RRM values observed at reachable
     * instructions, sorted ascending — the program's context
     * windows.
     */
    const std::vector<uint32_t> &observedWindows() const
    {
        return windows_;
    }

    /**
     * Relocate context-relative @p reg under constant mask @p rrm
     * according to the configured mode.
     * @return true and sets @p physical when the mapping is known.
     */
    bool relocate(uint32_t rrm, unsigned reg, uint32_t &physical) const;

  private:
    struct Pending
    {
        bool active = false;
        AbsVal value;
        unsigned remaining = 0;

        bool operator==(const Pending &other) const
        {
            return active == other.active &&
                   (!active || (value == other.value &&
                                remaining == other.remaining));
        }
    };

    struct State
    {
        bool reachable = false;
        AbsVal rrm;
        Pending pending;
        std::map<uint32_t, uint32_t> phys; ///< known phys-reg consts

        bool operator==(const State &other) const
        {
            return reachable == other.reachable &&
                   rrm == other.rrm && pending == other.pending &&
                   phys == other.phys;
        }
    };

    static State joinStates(const State &a, const State &b);

    /** Abstract read of context-relative @p reg under @p state. */
    AbsVal readReg(const State &state, unsigned reg) const;

    /** Abstract write of context-relative @p reg. */
    void writeReg(State &state, unsigned reg, const AbsVal &v) const;

    /** One instruction; returns hazards via hazards_ when @p record. */
    void transferInstruction(State &state, const CfgInstruction &ci,
                             bool record);

    /**
     * Run @p block; returns the raw exit state (no exit adjustment),
     * so callers choose per-edge what survives a control transfer.
     */
    State transferBlock(const BasicBlock &block, State state,
                        bool record);

    /** Kill a pending LDRRM surviving a control-transfer exit. */
    void clearPendingAtExit(const BasicBlock &block,
                            State &state) const;

    const Cfg &cfg_;
    RrmOptions options_;
    const CallGraph *callgraph_ = nullptr;
    std::vector<State> inStates_;
    std::vector<AbsVal> rrmBefore_;     ///< indexed by addr - base
    std::vector<AbsVal> memAddrBefore_; ///< indexed by addr - base
    std::vector<RrmHazard> hazards_;
    std::vector<uint32_t> windows_;
};

} // namespace rr::lint

#endif // RR_LINT_RRM_STATE_HH
