#include "kernel/sync_workload.hh"

#include <algorithm>

#include "base/logging.hh"

namespace rr::kernel {

SyncWorkloadKernel::SyncWorkloadKernel(SyncWorkloadConfig config)
    : config_(std::move(config)),
      mem_(config_.geometry, layout_.ringBase + config_.ringSize,
           config_.traceSink, config_.predecode)
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

    const assembler::Program prog =
        mem_.load(runtime::syncScenarioSource(params),
                  "sync workload program");

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
    // One flat entry per program word, so the per-instruction lookup
    // in onStep is an index, not a hash. The first label at an address
    // names its marker.
    markers_.assign(prog.base + prog.words.size(), Marker::None);
    for (const auto &[label, marker] : marks) {
        const auto it = prog.symbols.find(label);
        if (it == prog.symbols.end())
            continue;
        if (it->second >= markers_.size())
            markers_.resize(it->second + 1, Marker::None);
        if (markers_[it->second] == Marker::None)
            markers_[it->second] = marker;
    }
}

void
SyncWorkloadKernel::initMemory()
{
    auto &mem = mem_.cpu().mem();
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
    const bool split = config_.scenario ==
                       runtime::SyncScenario::ProducerConsumer;
    const uint64_t items_per_consumer =
        split ? static_cast<uint64_t>(producers) * config_.itemsPerProducer /
                    (config_.numThreads - producers)
              : 0;
    mem_.createRing(config_.numThreads, context_regs, layout_.flagBase,
                    [&](unsigned tid) {
                        return split && tid >= producers ? consumerAddr_
                                                         : bodyAddr_;
                    });

    for (unsigned tid = 0; tid < config_.numThreads; ++tid) {
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
            r9 = tid < producers
                     ? config_.itemsPerProducer
                     : static_cast<uint32_t>(items_per_consumer);
            break;
          case runtime::SyncScenario::BarrierSkew:
            r10 = config_.barrierBaseUnits +
                  config_.barrierSkewUnits * (tid % 4);
            break;
        }
        mem_.poke(tid, 9, r9);
        mem_.poke(tid, 10, r10);
        mem_.poke(tid, 11, static_cast<uint32_t>(layout_.flagBase + tid));
    }
    result_.residentContexts = config_.numThreads;
}

void
SyncWorkloadKernel::onStep(uint64_t cycle, uint32_t pc)
{
    if (pc >= markers_.size())
        return;
    switch (markers_[pc]) {
      case Marker::None:
        break;
      case Marker::Work:
        ++result_.workUnits;
        break;
      case Marker::PollFail:
        ++result_.failedPolls;
        mem_.pollFailed(cycle);
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
        mem_.emit(trace::EventKind::Barrier, cycle, MemorySystem::kNoThread,
                  MemorySystem::kNoContext, config_.numThreads);
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
    mem_.run(
        config_.maxSteps, result_,
        [this](uint32_t) {
            const unsigned tid = mem_.currentThread();
            rr_assert(tid != MemorySystem::kNoThread,
                      "fault from unknown context");
            ++result_.faults;
            mem_.issue(tid, config_.faultLatency);
        },
        [this](const machine::TraceEntry &entry) {
            onStep(entry.cycle, entry.pc);
        });

    result_.efficiencyTotal = result_.efficiency();
    return result_;
}

SyncWorkloadResult
runSyncWorkload(SyncWorkloadConfig config)
{
    SyncWorkloadKernel kernel(std::move(config));
    return kernel.run();
}

} // namespace rr::kernel
