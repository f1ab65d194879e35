#include "machine/relocation_unit.hh"

#include <algorithm>

#include "base/bitops.hh"
#include "base/logging.hh"
#include "ckpt/io.hh"

namespace rr::machine {

std::string
Geometry::error() const
{
    if (operandWidth < 1 || operandWidth > 6)
        return "operand width must be in [1, 6]: " +
               std::to_string(operandWidth);
    if (!isPowerOfTwo(numRegs))
        return "register file size must be a power of two: " +
               std::to_string(numRegs);
    if ((1u << operandWidth) > numRegs)
        return "operand width " + std::to_string(operandWidth) +
               " addresses more registers (" +
               std::to_string(1u << operandWidth) + ") than the " +
               "register file holds: " + std::to_string(numRegs);
    if (!isPowerOfTwo(banks))
        return "RRM bank count must be a power of two: " +
               std::to_string(banks);
    if (log2Ceil(banks) >= operandWidth)
        return std::to_string(banks) +
               " RRM banks leave no offset bits in operand width " +
               std::to_string(operandWidth);
    return "";
}

RelocationUnit::RelocationUnit(const Geometry &geometry)
    : geometry_(geometry),
      maskBits_(log2Ceil(geometry.numRegs)),
      contextSize_(1u << geometry.operandWidth),
      masks_(geometry.banks, 0)
{
    const std::string error = geometry.error();
    rr_assert(error.empty(), error);
}

const RelocationResult *
RelocationUnit::installMask(uint32_t mask, unsigned bank)
{
    setMask(mask, bank);
    return table();
}

void
RelocationUnit::setContextSize(unsigned size)
{
    rr_assert(isPowerOfTwo(size), "context size must be a power of two: ",
              size);
    rr_assert(size <= tableSize(),
              "context size ", size, " exceeds 2^w");
    if (contextSize_ == size)
        return;
    contextSize_ = size;
    ++epoch_;
}

void
RelocationUnit::restoreMasks(const std::vector<uint32_t> &masks,
                             unsigned context_size)
{
    // Checkpoint data is untrusted input: reject inconsistencies
    // with ckpt::Error (tools exit 2), never an assertion abort.
    if (masks.size() != masks_.size())
        throw ckpt::Error("restored mask bank count " +
                          std::to_string(masks.size()) +
                          " does not match the unit's " +
                          std::to_string(masks_.size()));
    if (!isPowerOfTwo(context_size) ||
        context_size > tableSize())
        throw ckpt::Error("restored context size " +
                          std::to_string(context_size) +
                          " is invalid");
    for (const uint32_t m : masks)
        if ((m & ~static_cast<uint32_t>(lowMask(maskBits_))) != 0)
            throw ckpt::Error("restored mask " + std::to_string(m) +
                              " is wider than the RRM register");
    masks_ = masks;
    contextSize_ = context_size;
    ++epoch_;

    // A restored unit must not trust any pre-restore memoization:
    // tablePtr_ was validated against an epoch sequence that no
    // longer corresponds to this mask state, and the direct-mapped
    // memo may hold tables keyed under a different context size.
    // Dropping both forces the next table() call to re-validate
    // against the 16-slot cache by content (masks + context size),
    // which is always correct, and rebuild only on a genuine miss.
    tableEpoch_ = 0;
    tablePtr_ = nullptr;
    if (!maskMemo_.empty())
        std::fill(maskMemo_.begin(), maskMemo_.end(), nullptr);
    memoContextSize_ = 0;
}

RelocationResult
RelocationUnit::relocate(unsigned operand) const
{
    return compute(operand);
}

const RelocationResult *
RelocationUnit::tableSlow() const
{
    // A context switch usually returns to a mask state seen before
    // (threads ping-pong between a handful of contexts), so memoize
    // built tables per mask state and make the common switch a lookup
    // instead of a rebuild: the epoch check and the single-bank
    // direct-mapped memo hit live inline in table(); this slow path
    // covers multi-bank units, context-size changes, and genuinely
    // new masks.
    for (const CachedTable &slot : tableCache_) {
        if (slot.contextSize == contextSize_ && slot.masks == masks_) {
            rememberInMemo(slot.table.data());
            tablePtr_ = slot.table.data();
            tableEpoch_ = epoch_;
            return tablePtr_;
        }
    }

    // Build once per never-before-seen mask state. The table has one
    // entry per operand value (<= 64), so even a rebuild costs about
    // as much as relocating one basic block the slow way. Slots are
    // recycled round-robin past kMaxCachedTables; reserve() up front
    // keeps every cached table's data pointer stable.
    CachedTable *slot;
    if (tableCache_.size() < kMaxCachedTables) {
        tableCache_.reserve(kMaxCachedTables);
        tableCache_.emplace_back();
        slot = &tableCache_.back();
    } else {
        slot = &tableCache_[nextEvict_];
        nextEvict_ = (nextEvict_ + 1) % kMaxCachedTables;
        // The recycled slot's table may be referenced by the memo;
        // never leave a dangling fast-lookup entry behind.
        if (slot->masks.size() == 1 && !maskMemo_.empty() &&
            maskMemo_[slot->masks[0]] == slot->table.data()) {
            maskMemo_[slot->masks[0]] = nullptr;
        }
    }
    slot->masks = masks_;
    slot->contextSize = contextSize_;
    slot->table.resize(tableSize());
    for (unsigned operand = 0; operand < tableSize(); ++operand) {
        slot->table[operand] = compute(operand);
        // Every mode masks the physical number down to maskBits_, so
        // table entries can be consumed without per-access range
        // checks; pin that invariant here, once per build.
        rr_assert(slot->table[operand].physical < numRegs(),
                  "relocated register out of range at build time");
    }
    rememberInMemo(slot->table.data());
    tablePtr_ = slot->table.data();
    tableEpoch_ = epoch_;
    return tablePtr_;
}

void
RelocationUnit::rememberInMemo(const RelocationResult *ptr) const
{
    if (masks_.size() != 1)
        return;
    if (maskMemo_.empty())
        maskMemo_.assign(std::size_t{1} << maskBits_, nullptr);
    if (contextSize_ != memoContextSize_) {
        // Tables are keyed by (mask, context size); a size change
        // invalidates every direct-mapped entry at once.
        std::fill(maskMemo_.begin(), maskMemo_.end(), nullptr);
        memoContextSize_ = contextSize_;
    }
    maskMemo_[masks_[0]] = ptr;
}

RelocationResult
RelocationUnit::compute(unsigned operand) const
{
    // Select the bank from the operand's top bits when the bank count
    // exceeds one (Section 5.3 extension).
    const unsigned offset = geometry_.offsetOf(operand);
    const uint32_t rrm = masks_[geometry_.bankOf(operand)];

    RelocationResult result;
    switch (geometry_.mode) {
      case RelocationMode::Or:
        // The paper's mechanism: a plain bitwise OR. The split between
        // base and offset bits is implicit in the mask's alignment.
        result.physical = (rrm | offset) &
                          static_cast<unsigned>(lowMask(maskBits_));
        break;

      case RelocationMode::Mux: {
        // Footnote 3: select low bits from the operand, high bits from
        // the RRM; an operand bit above the context size is a bounds
        // violation instead of silently escaping the context.
        const unsigned size_bits = log2Ceil(contextSize_);
        const auto low = static_cast<unsigned>(lowMask(size_bits));
        if ((offset & ~low) != 0) {
            result.ok = false;
            result.physical = (rrm & ~low) | (offset & low);
            break;
        }
        result.physical = (rrm & ~low) | (offset & low);
        break;
      }

      case RelocationMode::Add:
        // Am29000-style base-plus-offset; wraps modulo the file size.
        result.physical = (rrm + offset) &
                          static_cast<unsigned>(lowMask(maskBits_));
        break;
    }
    return result;
}

} // namespace rr::machine
