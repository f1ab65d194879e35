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

namespace rr::runtime {

/**
 * Circular list of context relocation masks. Like the hardware's
 * per-context NextRRM registers, the links live in flat arrays
 * indexed by rrm; they grow on demand to the largest rrm inserted,
 * since custom context policies may hand out any value.
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
    void insert(uint32_t rrm);

    /**
     * Remove @p rrm. When the current member is removed, the next
     * member becomes current.
     */
    void remove(uint32_t rrm);

    /** The current member; panics when empty. */
    uint32_t current() const;

    /**
     * Advance to the next member (the NextRRM of the current
     * context) and return it; panics when empty.
     */
    uint32_t advance();

    /** The NextRRM link of @p rrm; panics when absent. */
    uint32_t nextOf(uint32_t rrm) const;

    /** Members in ring order starting at current (for inspection). */
    std::vector<uint32_t> members() const;

  private:
    /** Link value of an rrm that is not in the ring. */
    static constexpr uint32_t kAbsent = ~0u;

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
    void insert(uint32_t rrm, unsigned level);

    /** Remove @p rrm from whichever level holds it. */
    void remove(uint32_t rrm);

    /** @return true when no level has members. */
    bool empty() const;

    /** Total members across levels. */
    size_t size() const;

    /**
     * Current member of the highest nonempty level — what a coarse
     * multithreaded scheduler dispatches next; panics when empty.
     */
    uint32_t current() const;

    /**
     * Advance the highest nonempty level and return its new current
     * member; panics when empty.
     */
    uint32_t advance();

    /** Level that holds @p rrm, or -1. */
    int levelOf(uint32_t rrm) const;

    /** Direct access to a level's ring. */
    ContextRing &level(unsigned level);

  private:
    std::vector<ContextRing> rings_;
};

} // namespace rr::runtime

#endif // RR_RUNTIME_CONTEXT_RING_HH
