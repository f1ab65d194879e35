/**
 * @file
 * Harness for the all-assembly rotation runtime
 * (runtime::rotationSchedulerSource): sets up the memory image
 * (save areas, ready queue, allocation bitmap, live counter),
 * initializes the scheduler context, runs the machine, and checks /
 * reports the outcome.
 *
 * Unlike MachineMtKernel (where the C++ harness plays the runtime),
 * here EVERYTHING is simulated code: context allocation (Appendix
 * A), deallocation, unload and reload (Section 2.5), queueing, and
 * dispatch. The C++ side only builds initial state and watches.
 */

#ifndef RR_KERNEL_ROTATION_KERNEL_HH
#define RR_KERNEL_ROTATION_KERNEL_HH

#include <cstdint>

#include "kernel/memory_system.hh"

namespace rr::kernel {

/** Configuration of a rotation-runtime run. */
struct RotationConfig
{
    unsigned numThreads = 6;        ///< oversubscribed thread count
    unsigned segmentsPerThread = 8; ///< run segments before finishing
    unsigned workUnits = 50;        ///< loop passes per segment
    uint64_t maxSteps = 20'000'000; ///< safety cap

    /**
     * Optional structured-event sink (not owned): fault issues and
     * unload/reload rotations are emitted with cycle stamps.
     */
    trace::TraceSink *traceSink = nullptr;
};

/** Results of a rotation-runtime run (faults counts class 0 only). */
struct RotationResult : KernelRun
{
    uint64_t rotations = 0;      ///< unload/reload round trips
    uint64_t finalAllocMap = 0;  ///< bitmap at halt
    bool allocPanic = false;     ///< the in-image allocator failed
};

/** Build, run, and summarize one rotation-runtime execution. */
class RotationKernel
{
  public:
    explicit RotationKernel(RotationConfig config);

    /** Run to HALT (or the step cap). */
    RotationResult run();

    machine::Cpu &cpu() { return mem_.cpu(); }

    /** Save-area base address of thread @p tid. */
    uint64_t saveAreaOf(unsigned tid) const;

  private:
    RotationConfig config_;
    MemorySystem mem_;
    uint32_t workAddr_ = 0;
    uint32_t rotateAddr_ = 0;
    uint32_t dequeueAddr_ = 0;
    RotationResult result_;
};

/** Convenience wrapper. */
RotationResult runRotationKernel(RotationConfig config);

} // namespace rr::kernel

#endif // RR_KERNEL_ROTATION_KERNEL_HH
