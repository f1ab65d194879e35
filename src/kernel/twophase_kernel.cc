#include "kernel/twophase_kernel.hh"

#include <algorithm>

#include "base/logging.hh"
#include "runtime/asm_routines.hh"

namespace rr::kernel {

namespace {

// Must match the .equ block in twoPhaseSchedulerSource().
constexpr uint64_t qheadAddr = 0x3000;
constexpr uint64_t qtailAddr = 0x3001;
constexpr uint64_t liveAddr = 0x3002;
constexpr uint64_t queueAddr = 0x3010;
constexpr uint32_t queueMask = 127;
constexpr uint64_t saveAreaBase = 0x3100;
constexpr unsigned saveAreaWords = 8;

constexpr unsigned flagWord = 5;     // completion flag
constexpr unsigned unloadedWord = 7; // blocked-and-unloaded marker

} // namespace

TwoPhaseKernel::TwoPhaseKernel(TwoPhaseConfig config)
    : config_(std::move(config)), rng_(config_.seed),
      mem_(machine::Geometry{.operandWidth = 6},
           saveAreaOf(config_.numThreads), config_.traceSink)
{
    rr_assert(config_.latency != nullptr, "latency distribution "
                                          "missing");
    rr_assert(config_.numThreads >= 1 && config_.numThreads <= 100,
              "1..100 threads supported");
    rr_assert(config_.numSlots >= 1 && config_.numSlots <= 16,
              "1..16 slots supported");
    rr_assert(config_.numSlots <= config_.numThreads,
              "more slots than threads");

    const assembler::Program prog =
        mem_.load(runtime::twoPhaseSchedulerSource(config_.workUnits,
                                                   config_.pollBudget),
                  "two-phase runtime");
    workAddr_ = prog.addressOf("work");
    swapOutAddr_ = prog.addressOf("swap_out");
    swapInAddr_ = prog.addressOf("swap_in");

    const uint32_t work_seg = prog.addressOf("work_seg");

    // Save areas for every thread; the completion flag lives in its
    // save area, and completions belong to no context (the thread
    // may be unloaded by then).
    machine::Memory &memory = mem_.cpu().mem();
    for (unsigned tid = 0; tid < config_.numThreads; ++tid) {
        const uint64_t area = saveAreaOf(tid);
        memory.write(area + 0, work_seg);
        memory.write(area + 1, 0);
        memory.write(area + 4, config_.segmentsPerThread);
        memory.write(area + flagWord, 0);
        memory.write(area + unloadedWord, 0);
        mem_.addThread(area + flagWord, MemorySystem::kNoContext);
    }

    // Threads beyond the slots wait in the memory ready queue.
    const unsigned queued = config_.numThreads - config_.numSlots;
    for (unsigned j = 0; j < queued; ++j) {
        memory.write(queueAddr + j, static_cast<uint32_t>(saveAreaOf(
                                        config_.numSlots + j)));
    }
    memory.write(qheadAddr, 0);
    memory.write(qtailAddr, queued);
    memory.write(liveAddr, config_.numThreads);

    // Slot contexts: 8 registers at bases 0, 8, 16, ... wired into a
    // Figure 3 ring; slot i initially runs thread i.
    machine::RegisterFile &regs = mem_.cpu().regs();
    for (unsigned slot = 0; slot < config_.numSlots; ++slot) {
        const uint32_t rrm = 8 * slot;
        const uint32_t next_rrm =
            8 * ((slot + 1) % config_.numSlots);
        regs.write(rrm | 0, work_seg);
        regs.write(rrm | 1, 0);
        regs.write(rrm | 2, next_rrm);
        regs.write(rrm | 3, 0);
        regs.write(rrm | 4, static_cast<uint32_t>(saveAreaOf(slot)));
        regs.write(rrm | 5, 0);
        regs.write(rrm | 6, config_.segmentsPerThread);
        regs.write(rrm | 7, 0);
    }
    mem_.cpu().setRrmImmediate(0);
    mem_.cpu().setPc(work_seg);
}

uint64_t
TwoPhaseKernel::saveAreaOf(unsigned tid) const
{
    return saveAreaBase + static_cast<uint64_t>(tid) * saveAreaWords;
}

void
TwoPhaseKernel::onFault()
{
    // The faulting thread is identified through the slot's r4.
    const uint32_t area = mem_.cpu().readContextReg(4);
    rr_assert(area >= saveAreaBase, "bad save-area pointer");
    const unsigned tid = static_cast<unsigned>(
        (area - saveAreaBase) / saveAreaWords);
    rr_assert(tid < config_.numThreads, "bad thread id");

    ++result_.faults;
    mem_.issue(tid, std::max<uint64_t>(1, config_.latency->sample(rng_)));
}

void
TwoPhaseKernel::requeue(unsigned tid)
{
    // An unloaded thread whose fault completed goes back on the
    // ready queue (single producer for QTAIL — the running code
    // never writes it).
    machine::Memory &memory = mem_.cpu().mem();
    const uint64_t area = saveAreaOf(tid);
    if (memory.read(area + unloadedWord) == 1) {
        const uint32_t tail = memory.read(qtailAddr);
        memory.write(queueAddr + (tail & queueMask),
                     static_cast<uint32_t>(area));
        memory.write(qtailAddr, tail + 1);
        memory.write(area + unloadedWord, 0);
    }
}

void
TwoPhaseKernel::onStep(uint64_t cycle, uint32_t pc)
{
    if (pc == workAddr_) {
        ++result_.workUnits;
    } else if (pc == swapOutAddr_) {
        ++result_.swapOuts;
        if (mem_.tracing()) {
            // The slot's r4 still points at the outgoing thread's
            // save area when the swap-out path is entered.
            const uint32_t area = mem_.cpu().readContextReg(4);
            mem_.emit(trace::EventKind::Unload, cycle,
                      area >= saveAreaBase
                          ? static_cast<unsigned>((area - saveAreaBase) /
                                                  saveAreaWords)
                          : MemorySystem::kNoThread,
                      mem_.cpu().rrm());
        }
    } else if (pc == swapInAddr_) {
        ++result_.dequeues;
        mem_.emit(trace::EventKind::Load, cycle, MemorySystem::kNoThread,
                  mem_.cpu().rrm());
    }
}

TwoPhaseResult
TwoPhaseKernel::run()
{
    mem_.run(
        config_.maxSteps, result_, [this](uint32_t) { onFault(); },
        [this](const machine::TraceEntry &entry) {
            onStep(entry.cycle, entry.pc);
            if (observer_)
                observer_(entry);
        },
        [this](unsigned tid) { requeue(tid); });

    return result_;
}

TwoPhaseResult
runTwoPhaseKernel(TwoPhaseConfig config)
{
    TwoPhaseKernel kernel(std::move(config));
    return kernel.run();
}

} // namespace rr::kernel
