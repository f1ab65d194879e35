/**
 * @file
 * Context residency policies — how the register file is carved into
 * thread contexts. These are the architectures the paper compares:
 *
 *  - FlexibleContextPolicy: the register relocation mechanism.
 *    Power-of-two contexts sized to each thread's requirement,
 *    allocated in software by the Appendix A bitmap allocator.
 *  - FixedContextPolicy: a conventional multithreaded processor with
 *    F / 32 fixed hardware contexts of 32 registers each
 *    (Section 3.1), allocation managed by hardware at zero cost.
 *  - AddContextPolicy: Am29000-style base-plus-offset relocation
 *    (Section 4) — contexts of exactly C registers with first-fit
 *    interval allocation; no internal waste but external
 *    fragmentation and costlier software management.
 */

#ifndef RR_MULTITHREAD_CONTEXT_POLICY_HH
#define RR_MULTITHREAD_CONTEXT_POLICY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/context_allocator.hh"
#include "runtime/interval_allocator.hh"

namespace rr::mt {

/** Abstract register-file partitioning policy. */
class ContextPolicy
{
  public:
    virtual ~ContextPolicy() = default;

    /**
     * Try to allocate a resident context for a thread using
     * @p regs_used registers.
     */
    virtual std::optional<runtime::Context>
    allocate(unsigned regs_used) = 0;

    /**
     * Registers a thread using @p regs_used registers would consume
     * (its context size). A runtime keeps a free-register counter,
     * so `requiredSpace(c) > freeRegs()` is a constant-time check
     * that makes a doomed allocation search unnecessary; only
     * genuine searches are charged the Figure 4 failure cost.
     * Returns 0 when the thread can never fit.
     *
     * Must be a pure function of @p regs_used (independent of which
     * contexts are allocated): the simulator computes the smallest
     * requirement of its threads once and skips the queue scan
     * entirely while fewer registers than that are free.
     */
    virtual unsigned requiredSpace(unsigned regs_used) const = 0;

    /** Release a context returned by allocate(). */
    virtual void release(const runtime::Context &context) = 0;

    /**
     * Re-occupy @p context during checkpoint restore, exactly as if
     * allocate() had returned it, without charging any allocation
     * statistics. The built-in policies reconstruct their internal
     * maps from the live context set this way; the default
     * implementation throws ckpt::Error because a custom policy's
     * private state cannot be recovered generically.
     */
    virtual void adopt(const runtime::Context &context);

    /** Register file size F. */
    virtual unsigned numRegs() const = 0;

    /** Currently unallocated registers. */
    virtual unsigned freeRegs() const = 0;

    /** Human-readable description. */
    virtual std::string describe() const = 0;
};

/** Register relocation: software-managed power-of-two contexts. */
class FlexibleContextPolicy : public ContextPolicy
{
  public:
    /**
     * @param num_regs       register file size F
     * @param operand_width  w (max context size 2^w)
     * @param min_size       smallest context size
     */
    FlexibleContextPolicy(unsigned num_regs, unsigned operand_width,
                          unsigned min_size = 4);

    std::optional<runtime::Context> allocate(unsigned regs_used) override;
    unsigned requiredSpace(unsigned regs_used) const override;
    void release(const runtime::Context &context) override;
    void adopt(const runtime::Context &context) override;
    unsigned numRegs() const override;
    unsigned freeRegs() const override;
    std::string describe() const override;

    /** Underlying allocator (for inspection). */
    const runtime::ContextAllocator &allocator() const
    {
        return allocator_;
    }

    /** Overwrite allocator statistics (checkpoint restore). */
    void restoreAllocatorStats(const runtime::AllocatorStats &stats)
    {
        allocator_.restoreStats(stats);
    }

  private:
    runtime::ContextAllocator allocator_;
};

/** Conventional fixed-size hardware contexts. */
class FixedContextPolicy : public ContextPolicy
{
  public:
    /**
     * @param num_regs      register file size F
     * @param context_regs  registers per hardware context (paper: 32)
     */
    FixedContextPolicy(unsigned num_regs, unsigned context_regs = 32);

    std::optional<runtime::Context> allocate(unsigned regs_used) override;
    unsigned requiredSpace(unsigned regs_used) const override;
    void release(const runtime::Context &context) override;
    void adopt(const runtime::Context &context) override;
    unsigned numRegs() const override;
    unsigned freeRegs() const override;
    std::string describe() const override;

    /** Number of hardware context slots. */
    unsigned numSlots() const
    {
        return static_cast<unsigned>(slotFree_.size());
    }

    /** @return true when hardware slot @p slot is unallocated. */
    bool slotIsFree(unsigned slot) const { return slotFree_.at(slot); }

  private:
    unsigned numRegs_;
    unsigned contextRegs_;
    std::vector<bool> slotFree_;
    unsigned freeSlots_; ///< count of true entries in slotFree_
};

/** Am29000-style exact-size contexts via ADD relocation. */
class AddContextPolicy : public ContextPolicy
{
  public:
    explicit AddContextPolicy(unsigned num_regs);

    std::optional<runtime::Context> allocate(unsigned regs_used) override;
    unsigned requiredSpace(unsigned regs_used) const override;
    void release(const runtime::Context &context) override;
    void adopt(const runtime::Context &context) override;
    unsigned numRegs() const override;
    unsigned freeRegs() const override;
    std::string describe() const override;

    /** Underlying interval allocator (for inspection). */
    const runtime::IntervalAllocator &allocator() const
    {
        return allocator_;
    }

  private:
    runtime::IntervalAllocator allocator_;
};

} // namespace rr::mt

#endif // RR_MULTITHREAD_CONTEXT_POLICY_HH
