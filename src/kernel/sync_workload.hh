/**
 * @file
 * Real concurrent programs on the machine-MT kernel: the harness
 * that runs the rr::runtime synchronization scenarios (spinlocks,
 * semaphores, ring buffers, barriers) on the cycle-level machine.
 *
 * Unlike MachineMtKernel, nothing here is drawn from a distribution.
 * Threads execute the generated RRISC programs of
 * runtime/sync_runtime.hh; every wait is endogenous — a spin on a
 * lock some other thread holds, a semaphore another thread has not
 * yet V'd, a barrier whose slowest thread is still working. The C++
 * harness plays only the memory system: a FAULT raised by the
 * program completes a fixed number of cycles later (deterministic;
 * no RNG anywhere), so identical configurations produce identical
 * cycle counts with predecode off and on.
 *
 * The register conventions and the scenario programs themselves are
 * documented in runtime/sync_runtime.hh and docs/KERNEL.md.
 */

#ifndef RR_KERNEL_SYNC_WORKLOAD_HH
#define RR_KERNEL_SYNC_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "kernel/memory_system.hh"
#include "runtime/sync_runtime.hh"

namespace rr::kernel {

/** Configuration of one synchronization-workload run. */
struct SyncWorkloadConfig
{
    runtime::SyncScenario scenario = runtime::SyncScenario::LockConvoy;

    unsigned numRegs = 128;      ///< physical register file size
    unsigned operandWidth = 6;   ///< w
    unsigned numThreads = 4;     ///< resident thread count

    /** Registers each thread requires (>= 12; see sync_runtime.hh). */
    unsigned regsUsed = 12;

    /** Force fixed-size contexts (0 = size from regsUsed). */
    unsigned forcedContextSize = 0;

    /**
     * Locked-work scenarios: rounds per thread. Barrier scenario:
     * phases. Ignored by ProducerConsumer (see itemsPerProducer).
     */
    unsigned rounds = 4;

    /** Critical / non-critical section work units per round. */
    unsigned csUnits = 20;
    unsigned ncUnits = 20;

    /** Producer / consumer work units per item. */
    unsigned produceUnits = 30;
    unsigned consumeUnits = 10;

    /** Producer thread count (0 = numThreads / 2). */
    unsigned producers = 0;

    /** Items each producer pushes through the ring. */
    unsigned itemsPerProducer = 4;

    /** Ring buffer capacity in slots. */
    unsigned ringSize = 4;

    /** Barrier scenario: work units of the fastest thread per phase. */
    unsigned barrierBaseUnits = 10;

    /**
     * Barrier scenario: extra units added per skew step — thread t
     * works barrierBaseUnits + barrierSkewUnits * (t % 4) per phase.
     */
    unsigned barrierSkewUnits = 15;

    /** Fixed FAULT service latency in cycles (deterministic). */
    uint64_t faultLatency = 60;

    /** Step cap (safety against runaway programs). */
    uint64_t maxSteps = 50'000'000;

    /**
     * Predecode override (CpuConfig::predecode): false runs the
     * decode-per-step reference path instead of cached superblocks.
     */
    bool predecode = machine::defaultPredecode();

    /** Optional structured-event sink (not owned). */
    trace::TraceSink *traceSink = nullptr;
};

/** Results of one run. All counters are architectural, not sampled. */
struct SyncWorkloadResult : KernelRun
{
    uint64_t failedPolls = 0;   ///< resume polls that found the
                                ///< fault still outstanding
    uint64_t lockAcquires = 0;  ///< successful test-and-set takes
    uint64_t lockSpins = 0;     ///< acquire attempts that found the
                                ///< lock held and yielded
    uint64_t semWaits = 0;      ///< sem_p attempts blocked at zero
    uint64_t barrierWaits = 0;  ///< barrier spin passes
    uint64_t barrierReleases = 0; ///< times the last arriver flipped
                                  ///< the generation
    uint64_t itemsProduced = 0; ///< ring slots written
    uint64_t itemsConsumed = 0; ///< ring slots read
    unsigned residentContexts = 0; ///< contexts that fit the file

    /** usefulCycles / totalCycles over the whole run. */
    double efficiencyTotal = 0.0;
};

/**
 * Assembles the scenario program, creates the contexts, runs the
 * machine, and extracts counters by watching the program counter.
 */
class SyncWorkloadKernel
{
  public:
    explicit SyncWorkloadKernel(SyncWorkloadConfig config);

    /** Execute the workload to completion. */
    SyncWorkloadResult run();

    /** The machine (valid after construction; inspectable after run). */
    machine::Cpu &cpu() { return mem_.cpu(); }

  private:
    /** What a program-counter hit at a known label means. */
    enum class Marker : uint8_t
    {
        None,
        Work,
        PollFail,
        LockTake,
        LockSpin,
        SemWait,
        BarrierSpin,
        BarrierRelease,
        ItemProduced,
        ItemConsumed,
    };

    unsigned producerCount() const;
    void buildProgram();
    void createThreads();
    void initMemory();
    void onStep(uint64_t cycle, uint32_t pc);

    SyncWorkloadConfig config_;
    runtime::SyncLayout layout_;
    MemorySystem mem_;
    std::vector<Marker> markers_; ///< per program word, by address
    uint32_t bodyAddr_ = 0;       ///< thread body (producers in PC)
    uint32_t consumerAddr_ = 0;   ///< consumer body (PC scenario)
    SyncWorkloadResult result_;
};

/** Convenience wrapper: construct, run, return. */
SyncWorkloadResult runSyncWorkload(SyncWorkloadConfig config);

} // namespace rr::kernel

#endif // RR_KERNEL_SYNC_WORKLOAD_HH
