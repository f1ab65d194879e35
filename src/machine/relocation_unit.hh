/**
 * @file
 * The register relocation unit — the paper's core hardware mechanism
 * (Section 2.1, Figure 2).
 *
 * During instruction decode, each register operand field is combined
 * with the register relocation mask (RRM) to form an absolute register
 * number. Three combining operations are modelled:
 *
 *  - Or:  the paper's mechanism — a bitwise OR. The flexible split
 *         between base bits (from the RRM) and offset bits (from the
 *         operand) falls out of the OR for power-of-two, size-aligned
 *         contexts (Figure 1).
 *  - Mux: the referee suggestion from footnote 3 — each bit is
 *         selected from either the RRM or the operand according to
 *         the context size, which additionally *prevents* a thread
 *         from addressing registers outside its context (operand bits
 *         above the context size raise a bounds violation).
 *  - Add: the AMD Am29000-style base-plus-offset addressing discussed
 *         in Section 4 — removes the power-of-two constraint at the
 *         cost of an adder on the critical decode path.
 *
 * The unit also models a small bank of RRMs for the Section 5.3
 * "multiple active contexts" extension: when the bank has more than
 * one entry, the high-order bit(s) of each register operand select
 * which mask relocates the remaining offset bits.
 */

#ifndef RR_MACHINE_RELOCATION_UNIT_HH
#define RR_MACHINE_RELOCATION_UNIT_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/bitops.hh"
#include "base/logging.hh"

namespace rr::machine {

/** How operand fields combine with the relocation mask. */
enum class RelocationMode : uint8_t
{
    Or,   ///< bitwise OR (the paper's mechanism)
    Mux,  ///< per-bit select with bounds checking (footnote 3)
    Add,  ///< base + offset (Am29000 comparison, Section 4)
};

/**
 * The machine's relocation geometry, stated once: register file size
 * F, operand width w, RRM bank count B and combining mode. Every
 * holder of a geometry (CpuConfig, the lint and RRM-analysis options,
 * the kernel configs, the fuzz kinds, the tools) keeps one of these,
 * so a checker always checks the machine that runs.
 *
 * With B > 1 banks (Section 5.3) the top log2 B bits of an operand
 * select the bank and the remaining w - log2 B bits are the offset;
 * operandFits(), bankOf() and offsetOf() are the only place that
 * split is written.
 */
struct Geometry
{
    /** Physical register file size F (power of two). */
    unsigned numRegs = 128;

    /**
     * Register operand width w: a context may address at most 2^w
     * registers (Section 2.1). Must not exceed the 6-bit encoding
     * field.
     */
    unsigned operandWidth = 5;

    /** RRM bank entries (>1 enables the Section 5.3 extension). */
    unsigned banks = 1;

    /** Decode-stage combining operation. */
    RelocationMode mode = RelocationMode::Or;

    /**
     * The geometry rule: F is a power of two, w is in [1, 6],
     * 2^w <= F, B is a power of two, and its log2 B bank-select bits
     * leave at least one offset bit (log2 B < w). The relocation
     * unit's constructor asserts it; checkpoint restore, the fuzz
     * kinds and the tools check it first and report the message.
     *
     * @return "" when the geometry is valid, else a message naming
     *         the offending value.
     */
    std::string error() const;

    /** @return true when @p operand is below 2^w (else it traps). */
    bool
    operandFits(unsigned operand) const
    {
        return operand < (1u << operandWidth);
    }

    /** Bank-select bits of an operand: log2 B (B is a power of two). */
    unsigned
    bankBits() const
    {
        return static_cast<unsigned>(std::countr_zero(banks));
    }

    /** Offset bits of an operand: w - log2 B. */
    unsigned offsetBits() const { return operandWidth - bankBits(); }

    /** The RRM bank a fitting @p operand selects (0 with one bank). */
    unsigned
    bankOf(unsigned operand) const
    {
        return (operand >> offsetBits()) &
               static_cast<unsigned>(lowMask(bankBits()));
    }

    /** The offset a fitting @p operand relocates within its bank. */
    unsigned
    offsetOf(unsigned operand) const
    {
        return operand & static_cast<unsigned>(lowMask(offsetBits()));
    }
};

/** Result of relocating one operand. */
struct RelocationResult
{
    unsigned physical = 0;  ///< absolute register number
    bool ok = true;         ///< false on a bounds violation (Mux mode)
};

/** Models the decode-stage relocation hardware. */
class RelocationUnit
{
  public:
    /** @param geometry the machine geometry (asserts error() is ""). */
    explicit RelocationUnit(const Geometry &geometry);

    /** Physical register file size. */
    unsigned numRegs() const { return geometry_.numRegs; }

    /** Operand field width w. */
    unsigned operandWidth() const { return geometry_.operandWidth; }

    /** Combining mode. */
    RelocationMode mode() const { return geometry_.mode; }

    /** Number of RRM bank entries. */
    unsigned numBanks() const
    {
        return static_cast<unsigned>(masks_.size());
    }

    /**
     * Install a mask into bank @p bank. Only the low ceil(lg n) bits
     * are retained, mirroring the width of the hardware RRM register.
     * Inline: this is the LDRRM retirement path, hit every few
     * instructions by context-switch-heavy workloads.
     */
    void
    setMask(uint32_t mask, unsigned bank = 0)
    {
        rr_assert(bank < masks_.size(), "bad RRM bank ", bank);
        // The hardware RRM register holds only ceil(lg n) bits.
        const auto clipped =
            mask & static_cast<uint32_t>(lowMask(maskBits_));
        // Reinstalling the mask a bank already holds cannot change
        // any operand mapping, so keep the epoch (and with it every
        // memoized table pointer) valid. Kernels re-entering the same
        // context and harness resets hit this constantly.
        if (masks_[bank] == clipped)
            return;
        masks_[bank] = clipped;
        ++epoch_;
    }

    /**
     * Install a mask and return the memoized operand table for the
     * resulting state in one call. Used by the Cpu's block dispatcher,
     * whose in-block LDRRMX path must refresh its cached table
     * immediately rather than at the next step boundary. Equivalent
     * to setMask() followed by table().
     */
    const RelocationResult *installMask(uint32_t mask,
                                        unsigned bank = 0);

    /**
     * Current mask in bank @p bank. Inline: traced runs read it once
     * per instruction.
     */
    uint32_t
    mask(unsigned bank = 0) const
    {
        rr_assert(bank < masks_.size(), "bad RRM bank ", bank);
        return masks_[bank];
    }

    /**
     * Configure the context size used by Mux-mode bounds checking
     * (and by Add mode to compute the base). Must be a power of two.
     * Or mode ignores this value — that is precisely the paper's
     * point: OR-relocation needs no size information in hardware.
     */
    void setContextSize(unsigned size);

    /** Context size last configured via setContextSize. */
    unsigned contextSize() const { return contextSize_; }

    /** All bank masks, for checkpointing. */
    const std::vector<uint32_t> &masks() const { return masks_; }

    /**
     * Install a complete mask state from a checkpoint: every bank
     * mask plus the context size, in one step. Advances the epoch
     * and drops the (tablePtr_, maskMemo_) fast-path validity so the
     * next table() lookup re-validates against the 16-slot cache by
     * *content* — a restored unit never trusts epochs minted before
     * the restore, which may coincide with epochs of entirely
     * different mask states (the memo-epoch restore bug).
     */
    void restoreMasks(const std::vector<uint32_t> &masks,
                      unsigned context_size);

    /**
     * Relocate one register operand field.
     *
     * With multiple banks, the top bits of @p operand (above the
     * per-bank offset width) select the bank and the remaining bits
     * form the offset.
     */
    RelocationResult relocate(unsigned operand) const;

    /** Width in bits of the RRM register: ceil(lg n). */
    unsigned maskBits() const { return maskBits_; }

    /**
     * Monotonic counter bumped whenever the operand->physical mapping
     * can change (setMask, setContextSize, restoreMasks). Fast paths
     * compare it to decide whether a cached mapping is still valid.
     * Installing a value the unit already holds is a no-op and keeps
     * the epoch, so memoized table pointers survive redundant context
     * switches; restoreMasks always advances it.
     */
    uint64_t epoch() const { return epoch_; }

    /** Number of entries in table(): one per operand value, 2^w. */
    unsigned tableSize() const { return 1u << geometry_.operandWidth; }

    /**
     * The cached operand->physical mapping for the current masks: one
     * precomputed RelocationResult per operand value in [0, 2^w),
     * every entry range-checked against the file size at build time.
     *
     * Tables are looked up (and built at most once) per mask state,
     * so relocation work happens only on LDRRM/LDRRMX/bank switches
     * to a never-before-seen mask — never per operand, and not even
     * per switch once a context's mask has been seen. This keeps
     * relocation off the per-instruction critical path exactly as the
     * paper argues the hardware does (Section 2.2: relocation happens
     * once, at decode, in a fixed stage). The returned pointer stays
     * valid until the next mask/context-size change.
     *
     * The epoch re-validation and the single-bank direct-mapped memo
     * hit — the two paths a context switch to a known mask takes —
     * are inline; cache scans and rebuilds stay out of line.
     */
    const RelocationResult *
    table() const
    {
        if (tableEpoch_ == epoch_)
            return tablePtr_;
        if (masks_.size() == 1 && contextSize_ == memoContextSize_ &&
            !maskMemo_.empty()) {
            if (const RelocationResult *hit = maskMemo_[masks_[0]]) {
                tablePtr_ = hit;
                tableEpoch_ = epoch_;
                return hit;
            }
        }
        return tableSlow();
    }

  private:
    /** One memoized table: the mask state it was built under. */
    struct CachedTable
    {
        std::vector<uint32_t> masks;
        unsigned contextSize = 0;
        std::vector<RelocationResult> table;
    };

    /** Memoized mask states; round-robin recycled beyond this. */
    static constexpr unsigned kMaxCachedTables = 16;

    /** table() miss path: scan the table cache, build on a miss. */
    const RelocationResult *tableSlow() const;

    /** Combine @p operand with the current masks (uncached). */
    RelocationResult compute(unsigned operand) const;

    /** Install @p ptr in the single-bank direct-mapped memo. */
    void rememberInMemo(const RelocationResult *ptr) const;

    Geometry geometry_;
    unsigned maskBits_;
    unsigned contextSize_;
    std::vector<uint32_t> masks_;

    uint64_t epoch_ = 1;
    mutable uint64_t tableEpoch_ = 0; ///< epoch tablePtr_ is valid at
    mutable const RelocationResult *tablePtr_ = nullptr;
    mutable std::vector<CachedTable> tableCache_;
    mutable unsigned nextEvict_ = 0;

    /**
     * Single-bank fast lookup: mask value -> cached table, valid only
     * while the context size matches memoContextSize_. A ping-pong of
     * LDRRMs between known masks resolves in a couple of loads.
     */
    mutable std::vector<const RelocationResult *> maskMemo_;
    mutable unsigned memoContextSize_ = 0;
};

} // namespace rr::machine

#endif // RR_MACHINE_RELOCATION_UNIT_HH
