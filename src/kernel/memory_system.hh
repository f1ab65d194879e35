/**
 * @file
 * The memory system the src/kernel harnesses share. The RRISC code
 * plays the whole multithreading runtime; the C++ side plays only
 * the memory: a FAULT clears the thread's completion flag and
 * schedules the completion, which sets the flag again once machine
 * time reaches it. MemorySystem owns that mechanism — the CPU and
 * program image, the pending-fault heap, the fault trace events, the
 * Figure 3 context ring and the step-capped run — so each kernel
 * keeps only its runtime's own bookkeeping. The contract is
 * docs/KERNEL.md, "Harness contract". The round-robin demo and the
 * Figure 3 switch-cost measurement at the end of this file run on
 * the same ring.
 */

#ifndef RR_KERNEL_MEMORY_SYSTEM_HH
#define RR_KERNEL_MEMORY_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "machine/cpu.hh"
#include "trace/tracer.hh"

namespace rr::kernel {

/** Why a kernel run stopped. */
enum class StopReason : uint8_t
{
    Halted,  ///< the program executed HALT
    Trapped, ///< the machine trapped
    StepCap, ///< the step cap ran out first
};

/** How a kernel run ended. */
struct KernelStop
{
    StopReason reason = StopReason::StepCap;
    machine::TrapKind trap = machine::TrapKind::None;
    uint64_t steps = 0; ///< instructions the run executed

    /** e.g. "hit the step cap after 100 steps". */
    std::string str() const;
};

/**
 * What every kernel run reports. MemorySystem::run fills in all but
 * faults and workUnits, which the kernel counts.
 */
struct KernelRun
{
    uint64_t totalCycles = 0;  ///< machine cycles elapsed
    uint64_t workUnits = 0;    ///< work-loop passes executed
    uint64_t usefulCycles = 0; ///< 2 * workUnits (sub + bne)
    uint64_t faults = 0;       ///< FAULT instructions serviced
    bool halted = false;       ///< stop.reason == Halted
    KernelStop stop;           ///< why and when the run ended

    /** usefulCycles / totalCycles. */
    double efficiency() const;
};

/** The CPU, its program and the fault service of one kernel run. */
class MemorySystem
{
  public:
    static constexpr uint32_t kNoThread = trace::TraceEvent::kNoThread;
    static constexpr uint32_t kNoContext = trace::TraceEvent::kNoContext;

    /**
     * A machine of @p geometry with one LDRRM delay slot, memory for
     * words [0, @p data_end) plus slack (at least 64K words) and the
     * pipeline timing model @p timing (ideal 1 CPI by default).
     */
    MemorySystem(const machine::Geometry &geometry, uint64_t data_end,
                 trace::TraceSink *sink,
                 bool predecode = machine::defaultPredecode(),
                 const machine::PipelineTimingConfig &timing = {});

    // The CPU's hooks hold this object's address.
    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    machine::Cpu &cpu() { return cpu_; }
    bool tracing() const { return tracer_.enabled(); }

    /** Assemble @p source and load it; panics naming @p what. */
    assembler::Program load(const std::string &source, const char *what);

    /**
     * Register the next tid: its completion flag is the word at
     * @p flag_addr, and its completions are traced with @p ctx.
     */
    unsigned addThread(uint64_t flag_addr, uint32_t ctx);

    /**
     * The Figure 3 ring: per thread, allocate a @p context_regs
     * context, register it (flag @p flag_base + tid, ctx = RRM), set
     * r0 = @p entry_of(tid), r1 = 0, r6 = 1, r7 = 0 and r2 = the next
     * thread's RRM; then start the machine in thread 0.
     */
    void createRing(unsigned num_threads, unsigned context_regs,
                    uint64_t flag_base,
                    const std::function<uint32_t(unsigned)> &entry_of);

    /** Ring thread whose context is active, or kNoThread. */
    unsigned currentThread() const;

    /** The context (RRM) of ring thread @p tid. */
    uint32_t context(unsigned tid) const { return threads_[tid].ctx; }

    /** Write context-relative register @p reg of ring thread @p tid. */
    void poke(unsigned tid, unsigned reg, uint32_t value);

    /** Read context-relative register @p reg of ring thread @p tid. */
    uint32_t peek(unsigned tid, unsigned reg) const;

    /** Emit one event when tracing. */
    void emit(trace::EventKind kind, uint64_t cycle,
              uint32_t tid = kNoThread, uint32_t ctx = kNoContext,
              uint64_t aux = 0);

    /**
     * @p tid FAULTs now under the active RRM: clear its flag and trace
     * the issue. With a @p latency the completion is scheduled that
     * many cycles on (the issue's aux); without, the kernel calls
     * complete() itself.
     */
    void issue(unsigned tid);
    void issue(unsigned tid, uint64_t latency);

    /** Set @p tid's flag and trace the completion at @p cycle. */
    void complete(unsigned tid, uint64_t cycle);

    /** Trace a failed resume poll by the active ring thread. */
    void pollFailed(uint64_t cycle);

    /** The default per-completion callback. */
    struct NoRequeue
    {
        void operator()(unsigned) const {}
    };

    /**
     * Run at most @p max_steps instructions, calling
     * @p on_fault(fault_class) per FAULT and, per instruction, first
     * complete() and @p on_complete(tid) for each fault due by its
     * cycle, then @p on_step(entry). Then fill in @p result.
     */
    template <typename OnFault, typename OnStep,
              typename OnComplete = NoRequeue>
    void
    run(uint64_t max_steps, KernelRun &result, OnFault on_fault,
        OnStep on_step, OnComplete on_complete = {})
    {
        cpu_.setFaultHook(
            [on_fault](machine::Cpu &, uint32_t fault_class) mutable {
                on_fault(fault_class);
            });
        cpu_.setTraceHook([this, on_step, on_complete](
                              const machine::TraceEntry &entry) mutable {
            while (!pending_.empty() &&
                   pending_.top().completion <= entry.cycle) {
                const unsigned tid = pending_.top().tid;
                pending_.pop();
                complete(tid, entry.cycle);
                on_complete(tid);
            }
            on_step(entry);
        });
        finish(cpu_.run(max_steps), result);
    }

  private:
    struct PendingFault
    {
        uint64_t completion;
        unsigned tid;

        bool operator>(const PendingFault &other) const
        {
            return completion > other.completion;
        }
    };

    struct Thread
    {
        uint64_t flagAddr;
        uint32_t ctx;
    };

    void finish(uint64_t steps, KernelRun &result) const;

    machine::Cpu cpu_;
    trace::Tracer tracer_;
    std::vector<Thread> threads_;
    std::vector<unsigned> rrmToThread_;

    // Keyed on completion cycle alone: the heap's order among
    // same-cycle completions is part of the trace bytes.
    std::priority_queue<PendingFault, std::vector<PendingFault>,
                        std::greater<PendingFault>>
        pending_;
};

/**
 * Load runtime::roundRobinDemoSource() and start @p num_threads of
 * its threads on a Figure 3 ring of 16-register contexts, all at
 * thread_body. Thread tid runs @p iterations(tid) passes (0 wraps,
 * so the thread never finishes); r9 points every thread at the
 * live-thread counter word @p counter_addr, set to @p live, and the
 * last thread to finish halts the machine. The demo issues no FAULT.
 */
assembler::Program
startRoundRobinDemo(MemorySystem &memory, unsigned num_threads,
                    uint64_t counter_addr, uint32_t live,
                    const std::function<uint32_t(unsigned)> &iterations);

/** A measured Figure 3 context switch. */
struct SwitchCost
{
    double cycles = 0.0;     ///< switch cycles per thread_body visit
    uint64_t bodyVisits = 0; ///< thread_body visits measured
};

/**
 * Measure the Figure 3 switch (Section 2.2): two never-finishing
 * round-robin demo threads on F = 128, w = 6 hand the processor back
 * and forth for @p steps instructions under @p timing. Each
 * thread_body visit is three body instructions plus one full switch,
 * so the cost is cycles / visits - 3.
 */
SwitchCost figure3SwitchCost(const machine::PipelineTimingConfig &timing,
                             uint64_t steps);

} // namespace rr::kernel

#endif // RR_KERNEL_MEMORY_SYSTEM_HH
