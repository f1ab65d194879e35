#include "kernel/rotation_kernel.hh"

#include "base/bitops.hh"
#include "base/logging.hh"
#include "runtime/asm_routines.hh"

namespace rr::kernel {

namespace {

// Must match the .equ block in rotationSchedulerSource().
constexpr uint64_t mailboxAddr = 0x3000;
constexpr uint64_t mailbox2Addr = 0x3001;
constexpr uint64_t liveAddr = 0x3002;
constexpr uint64_t allocMapAddr = 0x3003;
constexpr uint64_t queueAddr = 0x3010;
constexpr uint64_t saveAreaBase = 0x3100;
constexpr unsigned saveAreaWords = 8;

} // namespace

RotationKernel::RotationKernel(RotationConfig config)
    : config_(config),
      mem_(machine::Geometry{.operandWidth = 6},
           saveAreaOf(config_.numThreads), config_.traceSink)
{
    rr_assert(config_.numThreads >= 1 && config_.numThreads <= 100,
              "1..100 threads supported");
    rr_assert(config_.segmentsPerThread >= 1, "no segments");

    const assembler::Program prog = mem_.load(
        runtime::rotationSchedulerSource(config_.workUnits),
        "rotation runtime");
    workAddr_ = prog.addressOf("work");
    rotateAddr_ = prog.addressOf("sched_rotate");
    dequeueAddr_ = prog.addressOf("sched_dequeue");

    // The scheduler context owns registers 0..31 (chunks 0..7); the
    // remaining 24 chunks are free for thread contexts.
    machine::Memory &memory = mem_.cpu().mem();
    memory.write(allocMapAddr, 0xffffff00u);
    memory.write(liveAddr, config_.numThreads);

    // Save areas + ready queue (ring of save-area addresses).
    const unsigned qcap = static_cast<unsigned>(
        roundUpPowerOfTwo(config_.numThreads + 1));
    rr_assert(queueAddr + qcap <= saveAreaBase, "queue too large");
    const uint32_t thread_start = prog.addressOf("thread_start");
    for (unsigned tid = 0; tid < config_.numThreads; ++tid) {
        const uint64_t area = saveAreaOf(tid);
        memory.write(area + 0, thread_start); // r0: entry PC
        memory.write(area + 1, 0);            // r1: PSW image
        memory.write(area + 2, 0);            // r2: own RRM
        memory.write(area + 3, 0);            // r3: sched RRM
        memory.write(area + 4, config_.segmentsPerThread); // r6
        memory.write(area + 5, 0);            // r7: zero
        memory.write(area + 6, 0);            // thread.rrm
        memory.write(area + 7, 0);            // thread.allocMask
        memory.write(queueAddr + tid, static_cast<uint32_t>(area));
    }

    // Scheduler register file image (context base 0 => absolute).
    machine::RegisterFile &regs = mem_.cpu().regs();
    regs.write(6, 0);
    regs.write(8, 0x11111111u);
    regs.write(9, 0x0000ffffu);
    regs.write(10, static_cast<uint32_t>(allocMapAddr));
    regs.write(13, 0x0000000fu);
    regs.write(16, static_cast<uint32_t>(queueAddr));
    regs.write(17, 0);                    // head
    regs.write(18, config_.numThreads);   // tail
    regs.write(19, qcap - 1);             // index mask
    regs.write(25, 0x55555555u);

    mem_.cpu().setRrmImmediate(0);
    mem_.cpu().setPc(dequeueAddr_);
}

uint64_t
RotationKernel::saveAreaOf(unsigned tid) const
{
    return saveAreaBase + static_cast<uint64_t>(tid) * saveAreaWords;
}

RotationResult
RotationKernel::run()
{
    mem_.run(
        config_.maxSteps, result_,
        [this](uint32_t fault_class) {
            if (fault_class == 63) {
                result_.allocPanic = true;
            } else {
                ++result_.faults;
                mem_.emit(trace::EventKind::FaultIssue, mem_.cpu().cycles(),
                          MemorySystem::kNoThread, mem_.cpu().rrm());
            }
        },
        [this](const machine::TraceEntry &entry) {
            if (entry.pc == workAddr_) {
                ++result_.workUnits;
            } else if (entry.pc == rotateAddr_) {
                // One rotation = unload the visited context and
                // reload the next queued thread into its registers.
                ++result_.rotations;
                mem_.emit(trace::EventKind::Unload, entry.cycle,
                          MemorySystem::kNoThread, mem_.cpu().rrm());
            }
        });

    result_.finalAllocMap = mem_.cpu().mem().read(allocMapAddr);
    return result_;
}

RotationResult
runRotationKernel(RotationConfig config)
{
    RotationKernel kernel(config);
    return kernel.run();
}

} // namespace rr::kernel
