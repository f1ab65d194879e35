#include "kernel/sync_workload.hh"

#include <algorithm>

#include "assembler/assembler.hh"
#include "base/logging.hh"
#include "runtime/context_loader.hh"

namespace rr::kernel {

namespace {

trace::TraceEvent
syncEvent(trace::EventKind kind, uint64_t cycle, unsigned tid,
          uint32_t rrm)
{
    trace::TraceEvent event;
    event.kind = kind;
    event.cycle = cycle;
    event.tid = tid;
    event.ctx = rrm;
    return event;
}

} // namespace

SyncWorkloadKernel::SyncWorkloadKernel(SyncWorkloadConfig config)
    : config_(std::move(config))
{
    rr_assert(config_.numThreads >= 1, "no threads");
    rr_assert(config_.regsUsed >= 12,
              "the sync runtime uses context-relative r0..r11");
    rr_assert(config_.rounds >= 1, "rounds must be positive");
    if (config_.scenario == runtime::SyncScenario::ProducerConsumer) {
        const unsigned producers = producerCount();
        rr_assert(producers >= 1 && producers < config_.numThreads,
                  "producer/consumer needs at least one of each");
        const uint64_t items =
            static_cast<uint64_t>(producers) * config_.itemsPerProducer;
        const unsigned consumers = config_.numThreads - producers;
        rr_assert(items % consumers == 0,
                  "total items must divide evenly across consumers");
        rr_assert(config_.itemsPerProducer >= 1, "no items to produce");
    }
    if (config_.scenario == runtime::SyncScenario::BarrierSkew)
        rr_assert(config_.barrierBaseUnits >= 1,
                  "every thread needs at least one unit per phase");
    tracer_.attach(config_.traceSink);

    machine::CpuConfig cpu_config;
    cpu_config.numRegs = config_.numRegs;
    cpu_config.operandWidth = config_.operandWidth;
    cpu_config.ldrrmDelaySlots = 1;
    cpu_config.memWords = std::max<size_t>(
        1u << 16, static_cast<size_t>(layout_.ringBase +
                                      config_.ringSize + 64));
    cpu_config.predecode = config_.predecode;
    cpu_ = std::make_unique<machine::Cpu>(cpu_config);

    allocator_ = std::make_unique<runtime::ContextAllocator>(
        config_.numRegs, config_.operandWidth);

    buildProgram();
    initMemory();
    createThreads();
}

unsigned
SyncWorkloadKernel::producerCount() const
{
    if (config_.producers != 0)
        return config_.producers;
    return std::max(1u, config_.numThreads / 2);
}

void
SyncWorkloadKernel::buildProgram()
{
    runtime::SyncProgramParams params;
    params.scenario = config_.scenario;
    params.layout = layout_;
    params.csUnits = config_.csUnits;
    params.ncUnits = config_.ncUnits;
    params.produceUnits = config_.produceUnits;
    params.consumeUnits = config_.consumeUnits;
    params.ringSize = config_.ringSize;
    source_ = runtime::syncScenarioSource(params);

    const assembler::Program prog = assembler::assemble(source_);
    for (const auto &error : prog.errors)
        rr_panic("sync workload program: ", error.str());
    cpu_->mem().loadImage(prog.base, prog.words);

    switch (config_.scenario) {
      case runtime::SyncScenario::UncontendedLock:
      case runtime::SyncScenario::LockConvoy:
        bodyAddr_ = prog.addressOf("thread_start");
        break;
      case runtime::SyncScenario::ProducerConsumer:
        bodyAddr_ = prog.addressOf("producer_start");
        consumerAddr_ = prog.addressOf("consumer_start");
        break;
      case runtime::SyncScenario::BarrierSkew:
        bodyAddr_ = prog.addressOf("barrier_start");
        break;
    }

    const std::pair<const char *, Marker> marks[] = {
        {"cs_work", Marker::Work},     {"nc_work", Marker::Work},
        {"p_work", Marker::Work},      {"c_work", Marker::Work},
        {"b_work", Marker::Work},      {"poll_fail", Marker::PollFail},
        {"pp_fail", Marker::PollFail}, {"la_take", Marker::LockTake},
        {"la_spin", Marker::LockSpin}, {"sem_wait", Marker::SemWait},
        {"bw_spin", Marker::BarrierSpin},
        {"bw_last", Marker::BarrierRelease},
        {"p_item", Marker::ItemProduced},
        {"c_item", Marker::ItemConsumed},
    };
    for (const auto &[label, marker] : marks) {
        const auto it = prog.symbols.find(label);
        if (it != prog.symbols.end())
            markers_.emplace(it->second, marker);
    }
}

void
SyncWorkloadKernel::initMemory()
{
    auto &mem = cpu_->mem();
    mem.write(layout_.live, config_.numThreads);
    mem.write(layout_.exitLock, 0);
    mem.write(layout_.sharedLock, 0);
    mem.write(layout_.mutex, 0);
    mem.write(layout_.semItems, 0);
    mem.write(layout_.semSpaces, config_.ringSize);
    mem.write(layout_.head, 0);
    mem.write(layout_.tail, 0);
    mem.write(layout_.barrier, 0);                       // count
    mem.write(layout_.barrier + 1, 0);                   // generation
    mem.write(layout_.barrier + 2, config_.numThreads);  // size
    for (unsigned tid = 0; tid < config_.numThreads; ++tid) {
        mem.write(layout_.flagBase + tid, 0);
        mem.write(layout_.privateLockBase + tid, 0);
    }
}

void
SyncWorkloadKernel::createThreads()
{
    const unsigned context_regs =
        config_.forcedContextSize != 0 ? config_.forcedContextSize
                                       : config_.regsUsed;
    const unsigned producers = producerCount();
    const uint64_t items_per_consumer =
        config_.scenario == runtime::SyncScenario::ProducerConsumer
            ? static_cast<uint64_t>(producers) *
                  config_.itemsPerProducer /
                  (config_.numThreads - producers)
            : 0;

    for (unsigned tid = 0; tid < config_.numThreads; ++tid) {
        const auto context = allocator_->allocate(context_regs);
        rr_assert(context.has_value(),
                  "thread ", tid, " does not fit the register file; "
                  "reduce numThreads or the context size");

        ThreadInfo info;
        info.rrm = context->rrm;
        info.flagAddr = layout_.flagBase + tid;

        uint32_t entry = bodyAddr_;
        uint32_t r9 = config_.rounds;
        uint32_t r10 = 0;
        switch (config_.scenario) {
          case runtime::SyncScenario::UncontendedLock:
            r10 = layout_.privateLockBase + tid;
            break;
          case runtime::SyncScenario::LockConvoy:
            r10 = layout_.sharedLock;
            break;
          case runtime::SyncScenario::ProducerConsumer:
            if (tid < producers) {
                r9 = config_.itemsPerProducer;
            } else {
                entry = consumerAddr_;
                r9 = static_cast<uint32_t>(items_per_consumer);
            }
            break;
          case runtime::SyncScenario::BarrierSkew:
            r10 = config_.barrierBaseUnits +
                  config_.barrierSkewUnits * (tid % 4);
            break;
        }

        runtime::pokeContextReg(*cpu_, info.rrm, 0, entry);
        runtime::pokeContextReg(*cpu_, info.rrm, 1, 0);
        runtime::pokeContextReg(*cpu_, info.rrm, 6, 1);
        runtime::pokeContextReg(*cpu_, info.rrm, 7, 0);
        runtime::pokeContextReg(*cpu_, info.rrm, 9, r9);
        runtime::pokeContextReg(*cpu_, info.rrm, 10, r10);
        runtime::pokeContextReg(*cpu_, info.rrm, 11,
                                static_cast<uint32_t>(info.flagAddr));

        rrmToThread_[info.rrm] = tid;
        threads_.push_back(info);
    }

    // Wire the NextRRM ring (Figure 3 / Section 2.2).
    for (size_t i = 0; i < threads_.size(); ++i) {
        const ThreadInfo &cur = threads_[i];
        const ThreadInfo &next = threads_[(i + 1) % threads_.size()];
        runtime::pokeContextReg(*cpu_, cur.rrm, 2, next.rrm);
    }

    cpu_->setRrmImmediate(threads_.front().rrm);
    cpu_->setPc(bodyAddr_);
    result_.residentContexts =
        static_cast<unsigned>(threads_.size());
}

void
SyncWorkloadKernel::onFault(uint32_t)
{
    const auto it = rrmToThread_.find(cpu_->rrm());
    rr_assert(it != rrmToThread_.end(), "fault from unknown context");
    const unsigned tid = it->second;

    cpu_->mem().write(threads_[tid].flagAddr, 0);
    ++result_.faults;

    pending_.push({cpu_->cycles() + config_.faultLatency, tid});
    if (tracer_.enabled()) {
        auto e = syncEvent(trace::EventKind::FaultIssue, cpu_->cycles(),
                           tid, threads_[tid].rrm);
        e.aux = config_.faultLatency;
        tracer_.emit(e);
    }
}

void
SyncWorkloadKernel::onStep(uint64_t cycle, uint32_t pc)
{
    // The harness plays the memory system: completion flags mature
    // as machine time advances.
    while (!pending_.empty() && pending_.top().completion <= cycle) {
        const PendingFault fault = pending_.top();
        pending_.pop();
        cpu_->mem().write(threads_[fault.tid].flagAddr, 1);
        if (tracer_.enabled()) {
            tracer_.emit(syncEvent(trace::EventKind::FaultComplete,
                                   cycle, fault.tid,
                                   threads_[fault.tid].rrm));
        }
    }

    const auto it = markers_.find(pc);
    if (it == markers_.end())
        return;
    switch (it->second) {
      case Marker::Work:
        ++result_.workUnits;
        break;
      case Marker::PollFail:
        ++result_.failedPolls;
        if (tracer_.enabled()) {
            const auto rrm_it = rrmToThread_.find(cpu_->rrm());
            if (rrm_it != rrmToThread_.end()) {
                auto e = syncEvent(trace::EventKind::SchedulerPoll,
                                   cycle, rrm_it->second,
                                   threads_[rrm_it->second].rrm);
                e.aux = 1;
                tracer_.emit(e);
            }
        }
        break;
      case Marker::LockTake:
        ++result_.lockAcquires;
        break;
      case Marker::LockSpin:
        ++result_.lockSpins;
        break;
      case Marker::SemWait:
        ++result_.semWaits;
        break;
      case Marker::BarrierSpin:
        ++result_.barrierWaits;
        break;
      case Marker::BarrierRelease:
        ++result_.barrierReleases;
        if (tracer_.enabled()) {
            trace::TraceEvent e;
            e.kind = trace::EventKind::Barrier;
            e.cycle = cycle;
            e.aux = config_.numThreads;
            tracer_.emit(e);
        }
        break;
      case Marker::ItemProduced:
        ++result_.itemsProduced;
        break;
      case Marker::ItemConsumed:
        ++result_.itemsConsumed;
        break;
    }
}

SyncWorkloadResult
SyncWorkloadKernel::run()
{
    cpu_->setFaultHook(
        [this](machine::Cpu &, uint32_t fault_class) {
            onFault(fault_class);
        });
    cpu_->setTraceHook([this](const machine::TraceEntry &entry) {
        onStep(entry.cycle, entry.pc);
    });

    cpu_->run(config_.maxSteps);

    result_.halted = cpu_->halted() &&
                     cpu_->trap() == machine::TrapKind::None;
    result_.totalCycles = cpu_->cycles();
    result_.usefulCycles = 2 * result_.workUnits;
    result_.efficiencyTotal =
        result_.totalCycles == 0
            ? 0.0
            : static_cast<double>(result_.usefulCycles) /
                  static_cast<double>(result_.totalCycles);
    return result_;
}

SyncWorkloadResult
runSyncWorkload(SyncWorkloadConfig config)
{
    SyncWorkloadKernel kernel(std::move(config));
    return kernel.run();
}

} // namespace rr::kernel
