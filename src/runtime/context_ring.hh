/**
 * @file
 * The software scheduler "ready queue" from Section 2.2: a circular
 * linked list of register relocation masks. In hardware terms each
 * resident context stores the mask of the next runnable context in
 * its NextRRM register (context-relative R2 in Figure 3); this class
 * models that ring for the runtime and the simulators.
 *
 * Multiple rings can be kept side by side to implement thread classes
 * or priorities, exactly as the paper suggests — see PriorityRing.
 */

#ifndef RR_RUNTIME_CONTEXT_RING_HH
#define RR_RUNTIME_CONTEXT_RING_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace rr::runtime {

/**
 * Circular list of context relocation masks. Like the hardware's
 * per-context NextRRM registers, the links live in flat arrays
 * indexed by rrm; they grow on demand to the largest rrm inserted,
 * since custom context policies may hand out any value. The per-event
 * operations are defined in this header so that the event loop's calls
 * inline.
 */
class ContextRing
{
  public:
    /** @return true when the ring has no members. */
    bool empty() const { return size_ == 0; }

    /** Number of members. */
    size_t size() const { return size_; }

    /** @return true when @p rrm is in the ring. */
    bool contains(uint32_t rrm) const
    {
        return rrm < next_.size() && next_[rrm] != kAbsent;
    }

    /**
     * Insert @p rrm at the tail of the round-robin order (just
     * before current, so it is scheduled last among the existing
     * members). The first insertion makes @p rrm current.
     */
    void insert(uint32_t rrm)
    {
        rr_assert(rrm != kAbsent, "rrm ", rrm, " is the absent sentinel");
        rr_assert(!contains(rrm), "rrm ", rrm, " already in ring");
        if (rrm >= next_.size())
            grow(rrm);
        ++size_;
        if (size_ == 1) {
            next_[rrm] = rrm;
            prev_[rrm] = rrm;
            current_ = rrm;
            return;
        }
        // Insert at the tail of the round-robin order (just before
        // current): every member that is already waiting runs before
        // the newcomer. Inserting after current instead would let
        // freshly woken contexts monopolize the processor and starve
        // ready ones.
        const uint32_t pred = prev_[current_];
        next_[pred] = rrm;
        prev_[rrm] = pred;
        next_[rrm] = current_;
        prev_[current_] = rrm;
    }

    /**
     * Remove @p rrm. When the current member is removed, the next
     * member becomes current.
     */
    void remove(uint32_t rrm)
    {
        rr_assert(contains(rrm), "rrm ", rrm, " not in ring");

        const uint32_t succ = next_[rrm];
        const uint32_t pred = prev_[rrm];
        next_[rrm] = kAbsent;
        prev_[rrm] = kAbsent;
        --size_;

        if (succ == rrm) {
            // Last member.
            current_ = 0;
            return;
        }
        next_[pred] = succ;
        prev_[succ] = pred;
        if (current_ == rrm)
            current_ = succ;
    }

    /** The current member; panics when empty. */
    uint32_t current() const
    {
        rr_assert(!empty(), "ring is empty");
        return current_;
    }

    /**
     * Advance to the next member (the NextRRM of the current
     * context) and return it; panics when empty.
     */
    uint32_t advance()
    {
        rr_assert(!empty(), "ring is empty");
        current_ = next_[current_];
        return current_;
    }

    /** The NextRRM link of @p rrm; panics when absent. */
    uint32_t nextOf(uint32_t rrm) const;

    /** Members in ring order starting at current (for inspection). */
    std::vector<uint32_t> members() const;

  private:
    /** Link value of an rrm that is not in the ring. */
    static constexpr uint32_t kAbsent = ~0u;

    /** Extend the link arrays to cover @p rrm (rare; out of line). */
    void grow(uint32_t rrm);

    std::vector<uint32_t> next_; ///< rrm -> NextRRM (kAbsent = absent)
    std::vector<uint32_t> prev_; ///< rrm -> previous member
    size_t size_ = 0;
    uint32_t current_ = 0;
};

/**
 * A fixed set of priority levels, each holding one ContextRing.
 * advance() always returns from the highest nonempty level — the
 * "separate linked lists of register relocation masks" scheme of
 * Section 2.2.
 */
class PriorityRing
{
  public:
    /** @param levels number of priority levels (0 is highest). */
    explicit PriorityRing(unsigned levels);

    /** Insert @p rrm at @p level. */
    void insert(uint32_t rrm, unsigned level)
    {
        rr_assert(level < rings_.size(), "bad priority level ", level);
        rr_assert(levelOf(rrm) < 0, "rrm ", rrm, " already queued");
        rings_[level].insert(rrm);
    }

    /** Remove @p rrm from whichever level holds it. */
    void remove(uint32_t rrm)
    {
        const int level = levelOf(rrm);
        rr_assert(level >= 0, "rrm ", rrm, " not queued");
        rings_[static_cast<unsigned>(level)].remove(rrm);
    }

    /** @return true when no level has members. */
    bool empty() const
    {
        for (const auto &ring : rings_) {
            if (!ring.empty())
                return false;
        }
        return true;
    }

    /** Total members across levels. */
    size_t size() const;

    /**
     * Current member of the highest nonempty level — what a coarse
     * multithreaded scheduler dispatches next; panics when empty.
     */
    uint32_t current() const
    {
        for (const auto &ring : rings_) {
            if (!ring.empty())
                return ring.current();
        }
        rr_panic("all priority levels are empty");
    }

    /**
     * Advance the highest nonempty level and return its new current
     * member; panics when empty.
     */
    uint32_t advance()
    {
        for (auto &ring : rings_) {
            if (!ring.empty())
                return ring.advance();
        }
        rr_panic("all priority levels are empty");
    }

    /** Level that holds @p rrm, or -1. */
    int levelOf(uint32_t rrm) const
    {
        for (size_t i = 0; i < rings_.size(); ++i) {
            if (rings_[i].contains(rrm))
                return static_cast<int>(i);
        }
        return -1;
    }

    /** Direct access to a level's ring. */
    ContextRing &level(unsigned level);

  private:
    std::vector<ContextRing> rings_;
};

} // namespace rr::runtime

#endif // RR_RUNTIME_CONTEXT_RING_HH
