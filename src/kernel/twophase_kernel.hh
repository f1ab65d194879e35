/**
 * @file
 * Harness for the all-assembly two-phase slot scheduler
 * (runtime::twoPhaseSchedulerSource): an oversubscribed thread
 * supply multiplexed over a ring of fixed 8-register context slots.
 * Resident switching is the Figure 3 fast path; a blocked thread
 * polls when the ring visits it and surrenders its slot after the
 * configured budget of failed polls — the paper's two-phase policy,
 * with the C++ side acting only as the memory system (fault latency
 * timing, completion flags, and re-enqueueing unloaded threads whose
 * faults complete).
 */

#ifndef RR_KERNEL_TWOPHASE_KERNEL_HH
#define RR_KERNEL_TWOPHASE_KERNEL_HH

#include <cstdint>
#include <memory>

#include "base/distributions.hh"
#include "base/rng.hh"
#include "kernel/memory_system.hh"

namespace rr::kernel {

/** Configuration of a two-phase slot-scheduler run. */
struct TwoPhaseConfig
{
    unsigned numThreads = 12;      ///< total supply (<= 100)
    unsigned numSlots = 4;         ///< resident context slots (<= 16)
    unsigned segmentsPerThread = 8;
    unsigned workUnits = 50;       ///< loop passes per segment
    unsigned pollBudget = 3;       ///< failed polls before swap-out

    /** Fault service latency. */
    std::shared_ptr<Distribution> latency;

    uint64_t seed = 1;
    uint64_t maxSteps = 50'000'000;

    /**
     * Optional structured-event sink (not owned): fault issue and
     * completion plus swap-out (Unload) / swap-in (Load) markers.
     */
    trace::TraceSink *traceSink = nullptr;
};

/** Results of a two-phase slot-scheduler run. */
struct TwoPhaseResult : KernelRun
{
    uint64_t swapOuts = 0;     ///< unload commits (incl. cancelled)
    uint64_t dequeues = 0;     ///< threads (re)loaded into slots
};

/** Build, run, and summarize one two-phase execution. */
class TwoPhaseKernel
{
  public:
    explicit TwoPhaseKernel(TwoPhaseConfig config);

    /** Run to HALT (or the step cap). */
    TwoPhaseResult run();

    machine::Cpu &cpu() { return mem_.cpu(); }

    /**
     * Optional per-instruction observer, chained after the kernel's
     * own bookkeeping (the kernel owns the CPU's trace hook during
     * run()).
     */
    void
    setTraceObserver(machine::Cpu::TraceHook observer)
    {
        observer_ = std::move(observer);
    }

    /** Save-area base address of thread @p tid. */
    uint64_t saveAreaOf(unsigned tid) const;

  private:
    void onFault();
    void onStep(uint64_t cycle, uint32_t pc);
    void requeue(unsigned tid);

    TwoPhaseConfig config_;
    Rng rng_;
    MemorySystem mem_;
    uint32_t workAddr_ = 0;
    uint32_t swapOutAddr_ = 0;
    uint32_t swapInAddr_ = 0;
    machine::Cpu::TraceHook observer_;
    TwoPhaseResult result_;
};

/** Convenience wrapper. */
TwoPhaseResult runTwoPhaseKernel(TwoPhaseConfig config);

} // namespace rr::kernel

#endif // RR_KERNEL_TWOPHASE_KERNEL_HH
