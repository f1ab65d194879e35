#include "kernel/machine_mt_kernel.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "runtime/asm_routines.hh"

namespace rr::kernel {

namespace {

/** Memory layout (word addresses). */
constexpr uint64_t liveCounterAddr = 0x4000;
constexpr uint64_t flagBase = 0x4010;
constexpr uint64_t tableBase = 0x4100;

unsigned
segmentCount(const KernelConfig &config, unsigned tid)
{
    return config.segmentsByThread.empty()
               ? config.segmentsPerThread
               : config.segmentsByThread[tid];
}

unsigned
maxSegmentCount(const KernelConfig &config)
{
    if (config.segmentsByThread.empty())
        return config.segmentsPerThread;
    return *std::max_element(config.segmentsByThread.begin(),
                             config.segmentsByThread.end());
}

} // namespace

MachineMtKernel::MachineMtKernel(KernelConfig config)
    : config_(std::move(config)), rng_(config_.seed),
      mem_(config_.numRegs, config_.operandWidth,
           tableBase + static_cast<uint64_t>(config_.numThreads) *
                           (maxSegmentCount(config_) + 1),
           config_.traceSink)
{
    rr_assert(config_.segmentUnits != nullptr,
              "segment distribution missing");
    rr_assert(config_.service == FaultService::Barrier ||
                  config_.latency != nullptr,
              "latency distribution missing");
    rr_assert(config_.numThreads >= 1, "no threads");
    rr_assert(config_.regsUsed >= 12,
              "the kernel body uses context-relative r0..r11");
    rr_assert(config_.segmentsByThread.empty() ||
                  config_.segmentsByThread.size() == config_.numThreads,
              "segmentsByThread must name every thread");

    buildProgram();
    createThreads();
}

std::string
machineMtKernelSource()
{
    std::ostringstream os;
    os << "entry:\n"
       << "    jmp r0\n"
       << runtime::figure3YieldSource() << R"(
; Shared thread body: run a segment of work units, fault, yield,
; poll for completion on resumption, fetch the next segment.
thread_start:
    ld   r4, 0(r10)     ; first segment length
    addi r10, r10, 1
    bne  r4, r7, work
    b    done           ; empty table
work:
    sub  r4, r4, r6     ; one work unit = sub + bne (2 cycles)
    bne  r4, r7, work
    fault 0             ; segment over: raise the long-latency fault
    jal  r0, yield
poll:
    ld   r8, 0(r9)      ; resumed: has the fault completed?
    bne  r8, r7, resume
poll_fail:
    jal  r0, yield      ; still outstanding: yield again
    b    poll
resume:
    ld   r4, 0(r10)     ; next segment
    addi r10, r10, 1
    bne  r4, r7, work
done:
    ld   r8, 0(r11)     ; thread finished: live_count -= 1
    sub  r8, r8, r6
    st   r8, 0(r11)
    bne  r8, r7, parked
    halt
parked:
    jal  r0, yield
    b    parked
)";
    return os.str();
}

void
MachineMtKernel::buildProgram()
{
    const assembler::Program prog =
        mem_.load(machineMtKernelSource(), "kernel program");
    entryAddr_ = prog.addressOf("thread_start");
    workAddr_ = prog.addressOf("work");
    pollFailAddr_ = prog.addressOf("poll_fail");
}

void
MachineMtKernel::createThreads()
{
    const unsigned context_regs =
        config_.forcedContextSize != 0 ? config_.forcedContextSize
                                       : config_.regsUsed;
    mem_.createRing(config_.numThreads, context_regs, flagBase,
                    [this](unsigned) { return entryAddr_; });

    machine::Memory &memory = mem_.cpu().mem();
    const uint64_t table_stride = maxSegmentCount(config_) + 1;
    for (unsigned tid = 0; tid < config_.numThreads; ++tid) {
        // Fill the segment table (terminated by a 0 sentinel).
        const uint64_t table = tableBase + tid * table_stride;
        const unsigned segments = segmentCount(config_, tid);
        for (unsigned s = 0; s < segments; ++s) {
            const uint64_t units =
                std::max<uint64_t>(1, config_.segmentUnits->sample(rng_));
            memory.write(table + s, static_cast<uint32_t>(units));
        }
        memory.write(table + segments, 0);

        mem_.poke(tid, 9, static_cast<uint32_t>(flagBase + tid));
        mem_.poke(tid, 10, static_cast<uint32_t>(table));
        mem_.poke(tid, 11, static_cast<uint32_t>(liveCounterAddr));
    }

    memory.write(liveCounterAddr, config_.numThreads);
    result_.residentContexts = config_.numThreads;
}

void
MachineMtKernel::onFault()
{
    const unsigned tid = mem_.currentThread();
    rr_assert(tid != MemorySystem::kNoThread, "fault from unknown context");
    ++result_.faults;

    if (config_.service == FaultService::Barrier) {
        if (arrived_.empty())
            arrived_.assign(config_.numThreads, false);
        if (!arrived_[tid]) {
            arrived_[tid] = true;
            ++arrivalCount_;
        }
        mem_.issue(tid); // released in onStep when everyone has arrived
        return;
    }

    mem_.issue(tid, std::max<uint64_t>(1, config_.latency->sample(rng_)));
}

void
MachineMtKernel::onStep(uint64_t cycle, uint32_t pc)
{
    // Barrier release: every still-running thread has arrived. The
    // live counter is the machine's own memory word, so threads that
    // finished no longer count toward the barrier.
    if (config_.service == FaultService::Barrier && arrivalCount_ > 0 &&
        arrivalCount_ >= mem_.cpu().mem().read(liveCounterAddr)) {
        unsigned released = 0;
        for (unsigned tid = 0; tid < config_.numThreads; ++tid) {
            if (arrived_[tid]) {
                mem_.complete(tid, cycle);
                arrived_[tid] = false;
                ++released;
            }
        }
        arrivalCount_ = 0;
        ++result_.barriers;
        mem_.emit(trace::EventKind::Barrier, cycle, MemorySystem::kNoThread,
                  MemorySystem::kNoContext, released);
    }

    if (pc == workAddr_) {
        ++result_.workUnits;
        recorder_.record(cycle, result_.workUnits);
    } else if (pc == pollFailAddr_) {
        ++result_.failedPolls;
        mem_.pollFailed(cycle);
    }
}

KernelResult
MachineMtKernel::run()
{
    mem_.run(
        config_.maxSteps, result_, [this](uint32_t) { onFault(); },
        [this](const machine::TraceEntry &entry) {
            onStep(entry.cycle, entry.pc);
        });

    recorder_.record(result_.totalCycles, result_.workUnits);
    result_.efficiencyTotal = result_.efficiency();
    result_.efficiencyCentral = 2.0 * recorder_.centralRate();
    return result_;
}

KernelResult
runMachineKernel(KernelConfig config)
{
    MachineMtKernel kernel(std::move(config));
    return kernel.run();
}

} // namespace rr::kernel
