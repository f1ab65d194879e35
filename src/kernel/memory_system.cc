#include "kernel/memory_system.hh"

#include <algorithm>

#include "base/logging.hh"
#include "runtime/asm_routines.hh"
#include "runtime/context_allocator.hh"

namespace rr::kernel {

namespace {

machine::CpuConfig
kernelCpuConfig(const machine::Geometry &geometry, uint64_t data_end,
                bool predecode,
                const machine::PipelineTimingConfig &timing)
{
    machine::CpuConfig config;
    config.geometry = geometry;
    config.ldrrmDelaySlots = 1;
    config.memWords =
        std::max<size_t>(1u << 16, static_cast<size_t>(data_end + 64));
    config.predecode = predecode;
    config.timing = timing;
    return config;
}

} // namespace

std::string
KernelStop::str() const
{
    const std::string what =
        reason == StopReason::Halted    ? "halted"
        : reason == StopReason::Trapped ? std::string("trapped (") +
                                              machine::trapName(trap) + ")"
                                        : "hit the step cap";
    return what + " after " + std::to_string(steps) + " steps";
}

double
KernelRun::efficiency() const
{
    return totalCycles == 0 ? 0.0
                            : static_cast<double>(usefulCycles) /
                                  static_cast<double>(totalCycles);
}

MemorySystem::MemorySystem(const machine::Geometry &geometry,
                           uint64_t data_end, trace::TraceSink *sink,
                           bool predecode,
                           const machine::PipelineTimingConfig &timing)
    : cpu_(kernelCpuConfig(geometry, data_end, predecode, timing)),
      tracer_(sink)
{
}

assembler::Program
MemorySystem::load(const std::string &source, const char *what)
{
    assembler::Program prog = assembler::assemble(source);
    for (const auto &error : prog.errors)
        rr_panic(what, ": ", error.str());
    cpu_.mem().loadImage(prog.base, prog.words);
    return prog;
}

unsigned
MemorySystem::addThread(uint64_t flag_addr, uint32_t ctx)
{
    threads_.push_back({flag_addr, ctx});
    return static_cast<unsigned>(threads_.size() - 1);
}

void
MemorySystem::createRing(unsigned num_threads, unsigned context_regs,
                         uint64_t flag_base,
                         const std::function<uint32_t(unsigned)> &entry_of)
{
    rr_assert(num_threads >= 1, "no threads");
    const machine::Geometry &geometry = cpu_.config().geometry;
    runtime::ContextAllocator allocator(geometry.numRegs,
                                        geometry.operandWidth);
    rrmToThread_.assign(geometry.numRegs, kNoThread);
    for (unsigned tid = 0; tid < num_threads; ++tid) {
        const auto context = allocator.allocate(context_regs);
        rr_assert(context.has_value(),
                  "thread ", tid, " does not fit the register file; "
                  "reduce numThreads or the context size");
        rrmToThread_[context->rrm] =
            addThread(flag_base + tid, context->rrm);
        poke(tid, 0, entry_of(tid));
        poke(tid, 1, 0);
        poke(tid, 6, 1);
        poke(tid, 7, 0);
    }
    for (unsigned tid = 0; tid < num_threads; ++tid)
        poke(tid, 2, threads_[(tid + 1) % num_threads].ctx);
    cpu_.setRrmImmediate(threads_[0].ctx);
    cpu_.setPc(entry_of(0));
}

unsigned
MemorySystem::currentThread() const
{
    const uint32_t rrm = cpu_.rrm();
    return rrm < rrmToThread_.size() ? rrmToThread_[rrm] : kNoThread;
}

void
MemorySystem::poke(unsigned tid, unsigned reg, uint32_t value)
{
    cpu_.regs().write(threads_[tid].ctx | reg, value);
}

uint32_t
MemorySystem::peek(unsigned tid, unsigned reg) const
{
    return cpu_.regs().read(threads_[tid].ctx | reg);
}

void
MemorySystem::emit(trace::EventKind kind, uint64_t cycle, uint32_t tid,
                   uint32_t ctx, uint64_t aux)
{
    if (!tracer_.enabled())
        return;
    trace::TraceEvent event;
    event.kind = kind;
    event.cycle = cycle;
    event.tid = tid;
    event.ctx = ctx;
    event.aux = aux;
    tracer_.emit(event);
}

void
MemorySystem::issue(unsigned tid)
{
    cpu_.mem().write(threads_[tid].flagAddr, 0);
    emit(trace::EventKind::FaultIssue, cpu_.cycles(), tid, cpu_.rrm());
}

void
MemorySystem::issue(unsigned tid, uint64_t latency)
{
    cpu_.mem().write(threads_[tid].flagAddr, 0);
    pending_.push({cpu_.cycles() + latency, tid});
    emit(trace::EventKind::FaultIssue, cpu_.cycles(), tid, cpu_.rrm(),
         latency);
}

void
MemorySystem::complete(unsigned tid, uint64_t cycle)
{
    cpu_.mem().write(threads_[tid].flagAddr, 1);
    emit(trace::EventKind::FaultComplete, cycle, tid, threads_[tid].ctx);
}

void
MemorySystem::pollFailed(uint64_t cycle)
{
    if (!tracer_.enabled())
        return;
    const unsigned tid = currentThread();
    if (tid != kNoThread)
        emit(trace::EventKind::SchedulerPoll, cycle, tid, cpu_.rrm(), 1);
}

void
MemorySystem::finish(uint64_t steps, KernelRun &result) const
{
    KernelStop &stop = result.stop;
    stop.steps = steps;
    stop.trap = cpu_.trap();
    if (stop.trap != machine::TrapKind::None)
        stop.reason = StopReason::Trapped;
    else if (cpu_.halted())
        stop.reason = StopReason::Halted;
    result.halted = stop.reason == StopReason::Halted;
    result.totalCycles = cpu_.cycles();
    result.usefulCycles = 2 * result.workUnits;
}

assembler::Program
startRoundRobinDemo(MemorySystem &memory, unsigned num_threads,
                    uint64_t counter_addr, uint32_t live,
                    const std::function<uint32_t(unsigned)> &iterations)
{
    assembler::Program prog =
        memory.load(runtime::roundRobinDemoSource(), "round-robin demo");
    const uint32_t body = prog.addressOf("thread_body");
    // No FAULT, so the completion flags after the counter stay unused.
    memory.createRing(num_threads, 16, counter_addr + 1,
                      [body](unsigned) { return body; });
    for (unsigned tid = 0; tid < num_threads; ++tid) {
        memory.poke(tid, 4, iterations(tid));
        memory.poke(tid, 9, static_cast<uint32_t>(counter_addr));
    }
    memory.cpu().mem().write(counter_addr, live);
    return prog;
}

SwitchCost
figure3SwitchCost(const machine::PipelineTimingConfig &timing,
                  uint64_t steps)
{
    constexpr uint64_t counter_addr = 0x2000;
    MemorySystem memory(machine::Geometry{.operandWidth = 6},
                        counter_addr, nullptr,
                        machine::defaultPredecode(), timing);
    const uint32_t body =
        startRoundRobinDemo(memory, 2, counter_addr, 1000,
                            [](unsigned) { return 0u; })
            .addressOf("thread_body");

    SwitchCost cost;
    KernelRun run;
    memory.run(
        steps, run, [](uint32_t) {},
        [&](const machine::TraceEntry &entry) {
            if (entry.pc == body)
                ++cost.bodyVisits;
        });
    cost.cycles = static_cast<double>(run.totalCycles) /
                      static_cast<double>(cost.bodyVisits) -
                  3.0;
    return cost;
}

} // namespace rr::kernel
