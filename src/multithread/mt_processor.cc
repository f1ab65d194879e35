#include "multithread/mt_processor.hh"

#include <algorithm>
#include <cstdio>

#include "base/logging.hh"

namespace rr::mt {

const char *
archName(ArchKind kind)
{
    switch (kind) {
      case ArchKind::Flexible:
        return "flexible";
      case ArchKind::FixedHw:
        return "fixed";
      case ArchKind::AddReloc:
        return "add";
    }
    return "unknown";
}

uint64_t
MtStats::accountedCycles() const
{
    return usefulCycles + idleCycles + switchCycles + allocCycles +
           deallocCycles + loadCycles + unloadCycles + queueCycles;
}

trace::AuditTotals
auditTotals(const MtStats &stats)
{
    trace::AuditTotals totals;
    totals.totalCycles = stats.totalCycles;
    totals.usefulCycles = stats.usefulCycles;
    totals.idleCycles = stats.idleCycles;
    totals.switchCycles = stats.switchCycles;
    totals.allocCycles = stats.allocCycles;
    totals.deallocCycles = stats.deallocCycles;
    totals.loadCycles = stats.loadCycles;
    totals.unloadCycles = stats.unloadCycles;
    totals.queueCycles = stats.queueCycles;
    totals.faults = stats.faults;
    totals.loads = stats.loads;
    totals.unloads = stats.unloads;
    totals.allocSuccesses = stats.allocSuccesses;
    totals.allocFailures = stats.allocFailures;
    totals.threadsFinished = stats.threadsFinished;
    return totals;
}

MtProcessor::MtProcessor(MtConfig config)
    : config_(std::move(config)), ring_(std::max(1u, config_.priorityLevels))
{
    rr_assert(config_.workload.workDist != nullptr,
              "workload work distribution missing");
    rr_assert(config_.workload.regsDist != nullptr,
              "workload register distribution missing");
    rr_assert(config_.faultModel != nullptr, "fault model missing");
    rr_assert(config_.workload.numThreads > 0, "no threads");
    policy_ = makePolicy();
    tracer_.attach(config_.traceSink);
}

trace::TraceEvent
MtProcessor::traceEvent(trace::EventKind kind, uint64_t cycles) const
{
    trace::TraceEvent event;
    event.kind = kind;
    event.arch = static_cast<uint8_t>(config_.arch);
    event.cycle = now_;
    event.cycles = cycles;
    return event;
}

std::unique_ptr<ContextPolicy>
MtProcessor::makePolicy() const
{
    if (config_.customPolicy)
        return config_.customPolicy();
    switch (config_.arch) {
      case ArchKind::Flexible:
        return std::make_unique<FlexibleContextPolicy>(
            config_.numRegs, config_.operandWidth,
            config_.minContextSize);
      case ArchKind::FixedHw:
        return std::make_unique<FixedContextPolicy>(
            config_.numRegs, config_.fixedContextRegs);
      case ArchKind::AddReloc:
        return std::make_unique<AddContextPolicy>(config_.numRegs);
    }
    rr_panic("unknown architecture");
}

unsigned
MtProcessor::rrmLookup(uint32_t rrm) const
{
    rr_assert(rrm < rrmIndex_.size() && rrmIndex_[rrm] != kNoThread,
              "ring rrm without thread");
    return rrmIndex_[rrm];
}

void
MtProcessor::rrmInsert(uint32_t rrm, unsigned tid)
{
    // Built-in policies hand out rrm values below the file size; a
    // custom policy may exceed it, so grow on demand (rare, not on
    // the steady-state path).
    if (rrm >= rrmIndex_.size())
        rrmIndex_.resize(rrm + 1, kNoThread);
    rrmIndex_[rrm] = tid;
}

void
MtProcessor::rrmErase(uint32_t rrm)
{
    rr_assert(rrm < rrmIndex_.size(), "erasing unknown rrm");
    rrmIndex_[rrm] = kNoThread;
}

void
MtProcessor::blockedInsert(unsigned tid)
{
    blockedPos_[tid] = static_cast<unsigned>(blockedLoaded_.size());
    blockedLoaded_.push_back(tid);
}

void
MtProcessor::blockedErase(unsigned tid)
{
    const unsigned pos = blockedPos_[tid];
    rr_assert(pos < blockedLoaded_.size() && blockedLoaded_[pos] == tid,
              "thread ", tid, " not in the blocked-loaded list");
    const unsigned last = blockedLoaded_.back();
    blockedLoaded_[pos] = last;
    blockedPos_[last] = pos;
    blockedLoaded_.pop_back();
}

void
MtProcessor::deriveThreadConstants()
{
    minRequired_ = ~0u;
    budgets_.resize(threads_.size());
    for (const Thread &t : threads_) {
        const unsigned needed = policy_->requiredSpace(t.regsUsed);
        if (needed != 0)
            minRequired_ = std::min(minRequired_, needed);
        budgets_[t.id] = twoPhaseBudget(t);
    }
}

void
MtProcessor::createThreads()
{
    // Reserve all steady-state storage up front: at most one pending
    // completion, one queue slot and one blocked-loaded slot per
    // thread.
    threadQueue_.reserve(config_.workload.numThreads);
    completions_.reserve(config_.workload.numThreads);
    blockedLoaded_.reserve(config_.workload.numThreads);
    blockedPos_.assign(config_.workload.numThreads, kNoThread);
    rrmIndex_.assign(config_.numRegs, kNoThread);

    Rng master(config_.seed);
    // Priorities draw from their own stream so that enabling them
    // does not perturb the workload's run-length/latency draws.
    Rng priority_rng(config_.seed ^ 0xa5a5a5a55a5a5a5aull);
    threads_.resize(config_.workload.numThreads);
    for (unsigned i = 0; i < config_.workload.numThreads; ++i) {
        Thread &t = threads_[i];
        t.id = i;
        t.rng = master.split();
        t.regsUsed = static_cast<unsigned>(
            config_.workload.regsDist->sample(t.rng));
        rr_assert(t.regsUsed >= 1, "thread requires zero registers");
        t.totalWork =
            std::max<uint64_t>(1, config_.workload.workDist->sample(t.rng));
        if (config_.workload.priorityDist) {
            const uint64_t level =
                config_.workload.priorityDist->sample(priority_rng);
            t.priority = static_cast<unsigned>(std::min<uint64_t>(
                level, std::max(1u, config_.priorityLevels) - 1));
        }
        t.remainingWork = t.totalWork;
        t.state = ThreadState::UnloadedReady;
        threadQueue_.push_back(i);
    }
    deriveThreadConstants();
}

void
MtProcessor::charge(uint64_t cycles, uint64_t &bucket)
{
    bucket += cycles;
    now_ += cycles;
}

void
MtProcessor::noteResidencyChange(int delta)
{
    residencyIntegral_ += static_cast<double>(residentCount_) *
                          static_cast<double>(now_ - lastResidencyTime_);
    lastResidencyTime_ = now_;
    residentCount_ = static_cast<unsigned>(
        static_cast<int>(residentCount_) + delta);
    stats_.maxResidentContexts =
        std::max(stats_.maxResidentContexts, residentCount_);
}

void
MtProcessor::processCompletions()
{
    for (;;) {
        // Completions apply to both blocked states; prune manually.
        while (!completions_.empty()) {
            const CompletionEvent &top = completions_.top();
            const Thread &t = threads_[top.tid];
            if (t.blockEpoch == top.epoch &&
                (t.state == ThreadState::BlockedLoaded ||
                 t.state == ThreadState::BlockedUnloaded)) {
                break;
            }
            completions_.popStale();
        }
        if (completions_.empty() || completions_.top().time > now_)
            return;

        const CompletionEvent event = completions_.top();
        completions_.pop();
        Thread &t = threads_[event.tid];
        ++t.blockEpoch; // invalidate any pending unload deadline
        completions_.invalidateThread(t.id);

        if (tracer_.enabled()) {
            auto e = traceEvent(trace::EventKind::FaultComplete, 0);
            e.tid = t.id;
            if (t.context)
                e.ctx = t.context->rrm;
            e.aux = now_ - t.blockedAt;
            tracer_.emit(e);
        }

        if (t.state == ThreadState::BlockedLoaded) {
            // The context is still resident: it simply becomes
            // runnable again in the ring.
            t.state = ThreadState::LoadedReady;
            blockedErase(t.id);
            ring_.insert(t.context->rrm, t.priority);
        } else {
            // The context was unloaded while blocked: the thread
            // re-enters the software thread queue (10-cycle insert)
            // and must be re-allocated + re-loaded before running.
            charge(config_.costs.queueOp, stats_.queueCycles);
            if (tracer_.enabled()) {
                auto e = traceEvent(trace::EventKind::Queue,
                                    config_.costs.queueOp);
                e.tid = t.id;
                tracer_.emit(e);
            }
            t.state = ThreadState::UnloadedReady;
            threadQueue_.push_back(t.id);
            refill();
        }
    }
}

uint64_t
MtProcessor::twoPhaseBudget(const Thread &t) const
{
    // Competitive waiting: spin for as long as blocking would cost.
    // Blocking a context and resuming it later costs the unload, the
    // deallocation, a queue insert and remove, a fresh allocation,
    // and the reload — all avoided if the fault completes while the
    // context spins.
    const runtime::CostModel &costs = config_.costs;
    return costs.unloadCost(t.regsUsed) + costs.dealloc +
           2 * costs.queueOp + costs.allocSucceed +
           costs.loadCost(t.regsUsed);
}

void
MtProcessor::evict(unsigned tid)
{
    Thread &t = threads_[tid];
    rr_assert(t.state == ThreadState::BlockedLoaded,
              "evicting thread in state ", threadStateName(t.state));

    // Two-phase second phase: the accrued cost of failed resume
    // attempts has reached the cost of unloading — give up the
    // registers.
    const uint32_t rrm = t.context->rrm;
    charge(config_.costs.unloadCost(t.regsUsed), stats_.unloadCycles);
    if (tracer_.enabled()) {
        auto e = traceEvent(trace::EventKind::Unload,
                            config_.costs.unloadCost(t.regsUsed));
        e.tid = t.id;
        e.ctx = rrm;
        e.regs = t.regsUsed;
        tracer_.emit(e);
    }
    charge(config_.costs.dealloc, stats_.deallocCycles);
    if (tracer_.enabled()) {
        auto e = traceEvent(trace::EventKind::Free, config_.costs.dealloc);
        e.tid = t.id;
        e.ctx = rrm;
        e.aux = trace::TraceEvent::kFreeEvicted;
        tracer_.emit(e);
    }
    policy_->release(*t.context);
    rrmErase(t.context->rrm);
    t.context.reset();
    t.state = ThreadState::BlockedUnloaded;
    blockedErase(tid);
    ++t.timesUnloaded;
    ++stats_.unloads;
    noteResidencyChange(-1);
}

void
MtProcessor::refill()
{
    // First-fit scan of the software thread queue: FCFS order, but a
    // thread whose context cannot fit the free registers does not
    // block smaller threads behind it. (With fixed hardware contexts
    // every thread needs one identical slot, so this degenerates to
    // plain FCFS.)
    //
    // The free-register count only changes on a successful
    // allocation, so it is read once up front and re-read after each
    // one; while it is below every thread's requirement no queued
    // thread can pass the capacity check, and the scan is skipped.
    unsigned free_regs = policy_->freeRegs();
    if (free_regs < minRequired_)
        return;
    auto it = threadQueue_.begin();
    while (it != threadQueue_.end()) {
        if (config_.residencyCap != 0 &&
            residentCount_ >= config_.residencyCap) {
            return; // adaptive limit (Section 5.2): leave space idle
        }
        const unsigned tid = *it;
        Thread &t = threads_[tid];
        rr_assert(t.state == ThreadState::UnloadedReady,
                  "queued thread in state ", threadStateName(t.state));

        // Constant-time capacity check against the runtime's free-
        // register counter: a search that cannot possibly succeed is
        // never attempted, so it costs nothing. (Figure 4's failed-
        // allocation cost is for genuine searches defeated by
        // fragmentation.)
        const unsigned needed = policy_->requiredSpace(t.regsUsed);
        if (needed == 0 || needed > free_regs) {
            ++it;
            continue;
        }

        const auto context = policy_->allocate(t.regsUsed);
        if (context) {
            charge(config_.costs.allocSucceed, stats_.allocCycles);
            ++stats_.allocSuccesses;
            if (tracer_.enabled()) {
                auto e = traceEvent(trace::EventKind::Alloc,
                                    config_.costs.allocSucceed);
                e.tid = tid;
                e.ctx = context->rrm;
                e.regs = t.regsUsed;
                tracer_.emit(e);
            }
        } else {
            // A genuine search defeated by fragmentation.
            charge(config_.costs.allocFail, stats_.allocCycles);
            ++stats_.allocFailures;
            if (tracer_.enabled()) {
                auto e = traceEvent(trace::EventKind::Alloc,
                                    config_.costs.allocFail);
                e.ok = false;
                e.tid = tid;
                e.regs = t.regsUsed;
                tracer_.emit(e);
            }
            ++it;
            continue;
        }

        charge(config_.costs.queueOp, stats_.queueCycles);
        if (tracer_.enabled()) {
            auto e = traceEvent(trace::EventKind::Queue,
                                config_.costs.queueOp);
            e.tid = tid;
            tracer_.emit(e);
        }
        charge(config_.costs.loadCost(t.regsUsed), stats_.loadCycles);
        ++stats_.loads;
        ++t.timesLoaded;
        if (tracer_.enabled()) {
            auto e = traceEvent(trace::EventKind::Load,
                                config_.costs.loadCost(t.regsUsed));
            e.tid = tid;
            e.ctx = context->rrm;
            e.regs = t.regsUsed;
            tracer_.emit(e);
        }

        it = threadQueue_.erase(it);
        t.context = context;
        t.state = ThreadState::LoadedReady;
        ring_.insert(context->rrm, t.priority);
        rrmInsert(context->rrm, tid);
        noteResidencyChange(+1);

        free_regs = policy_->freeRegs();
        if (free_regs < minRequired_)
            return;
    }
}

void
MtProcessor::runNext()
{
    const uint32_t rrm = ring_.current();
    Thread &t = threads_[rrmLookup(rrm)];
    rr_assert(t.state == ThreadState::LoadedReady,
              "scheduled thread in state ", threadStateName(t.state));

    t.state = ThreadState::Running;
    const FaultSample fault =
        config_.faultModel->next(t.rng, t.faults);
    const uint64_t segment = std::min(fault.runLength, t.remainingWork);

    now_ += segment;
    useful_ += segment;
    stats_.usefulCycles += segment;
    t.remainingWork -= segment;

    if (tracer_.enabled()) {
        auto e = traceEvent(trace::EventKind::RunSegment, segment);
        e.tid = t.id;
        e.ctx = rrm;
        tracer_.emit(e);
    }

    if (t.remainingWork == 0) {
        // Thread completes: its context is deallocated and the freed
        // registers may admit a queued thread.
        t.state = ThreadState::Finished;
        t.finishTime = now_;
        ++finished_;
        ring_.remove(rrm);
        rrmErase(rrm);
        charge(config_.costs.dealloc, stats_.deallocCycles);
        if (tracer_.enabled()) {
            auto e = traceEvent(trace::EventKind::Free,
                                config_.costs.dealloc);
            e.tid = t.id;
            e.ctx = rrm;
            e.aux = trace::TraceEvent::kFreeFinished;
            tracer_.emit(e);
        }
        policy_->release(*t.context);
        t.context.reset();
        noteResidencyChange(-1);
        ++stats_.threadsFinished;
        refill();
        return;
    }

    // Long-latency fault: block the thread and switch away.
    ++t.faults;
    ++stats_.faults;
    if (fault.kind == FaultClass::Cache)
        ++stats_.cacheFaults;
    else
        ++stats_.syncFaults;

    t.state = ThreadState::BlockedLoaded;
    blockedInsert(t.id);
    t.blockedAt = now_;
    ++t.blockEpoch;
    completions_.invalidateThread(t.id);
    t.faultCompletion = now_ + fault.latency;
    completions_.push({t.faultCompletion, t.blockEpoch, t.id});
    ring_.remove(rrm);

    if (tracer_.enabled()) {
        auto e = traceEvent(trace::EventKind::FaultIssue, 0);
        e.tid = t.id;
        e.ctx = rrm;
        e.aux = fault.latency;
        tracer_.emit(e);
    }

    // Two-phase accounting starts afresh for this blocking episode.
    t.spinAccrued = 0;

    charge(config_.costs.contextSwitch, stats_.switchCycles);
    if (tracer_.enabled()) {
        auto e = traceEvent(trace::EventKind::Switch,
                            config_.costs.contextSwitch);
        e.tid = t.id;
        tracer_.emit(e);
    }
}

bool
MtProcessor::nextCompletionTime(uint64_t &out)
{
    while (!completions_.empty()) {
        const CompletionEvent &top = completions_.top();
        const Thread &t = threads_[top.tid];
        if (t.blockEpoch == top.epoch &&
            (t.state == ThreadState::BlockedLoaded ||
             t.state == ThreadState::BlockedUnloaded)) {
            out = top.time;
            return true;
        }
        completions_.popStale();
    }
    return false;
}

void
MtProcessor::idleOrEvict()
{
    uint64_t completion = 0;
    const bool have_completion = nextCompletionTime(completion);

    // Two-phase: while the processor spins with nothing runnable,
    // the scheduler repeatedly polls the blocked resident contexts;
    // each accrues a 1/N share of the spin time. The first context
    // whose accrual would reach its waiting budget is unloaded at a
    // computable instant — but only when a queued thread could use
    // the freed registers. Ties on the remaining budget go to the
    // lowest tid (the blocked-loaded list itself is unordered).
    bool have_evict = false;
    uint64_t evict_time = 0;
    unsigned evict_tid = 0;
    unsigned num_blocked_loaded = 0;

    if (config_.unloadPolicy == UnloadPolicyKind::TwoPhase &&
        !threadQueue_.empty()) {
        num_blocked_loaded =
            static_cast<unsigned>(blockedLoaded_.size());
        uint64_t best_remaining = 0;
        for (const unsigned tid : blockedLoaded_) {
            const Thread &t = threads_[tid];
            const uint64_t budget = budgets_[tid];
            const uint64_t remaining =
                budget > t.spinAccrued ? budget - t.spinAccrued : 0;
            if (!have_evict || remaining < best_remaining ||
                (remaining == best_remaining && tid < evict_tid)) {
                best_remaining = remaining;
                evict_tid = tid;
                have_evict = true;
            }
        }
        if (have_evict)
            evict_time = now_ + best_remaining * num_blocked_loaded;
    }

    if (!have_completion && !have_evict) {
        throw SimulationError(detail::formatMessage(
            "deadlock: no runnable context, no pending event, ",
            config_.workload.numThreads - finished_,
            " unfinished threads (a thread may require more "
            "registers than any context can hold)"));
    }

    uint64_t until = 0;
    if (have_completion && have_evict)
        until = std::min(completion, evict_time);
    else if (have_completion)
        until = completion;
    else
        until = evict_time;
    rr_assert(until >= now_, "event in the past");

    // The spin interval is wasted processor time; accrue the
    // round-robin poll shares against the blocked residents.
    const uint64_t interval = until - now_;
    if (num_blocked_loaded > 0) {
        const uint64_t share = interval / num_blocked_loaded;
        for (const unsigned tid : blockedLoaded_)
            threads_[tid].spinAccrued += share;
    }
    stats_.idleCycles += interval;
    now_ = until;

    if (tracer_.enabled() && interval > 0) {
        auto e = traceEvent(trace::EventKind::SchedulerPoll, interval);
        e.aux = num_blocked_loaded;
        tracer_.emit(e);
    }

    if (have_evict && until == evict_time) {
        if (tracer_.enabled()) {
            auto e = traceEvent(trace::EventKind::UnloadDecision, 0);
            e.tid = evict_tid;
            e.aux = threads_[evict_tid].spinAccrued;
            tracer_.emit(e);
        }
        evict(evict_tid);
        refill();
    }
}

void
MtProcessor::begin()
{
    if (begun_)
        return;
    begun_ = true;
    createThreads();
    recorder_.record(0, 0);
    refill();
}

void
MtProcessor::step()
{
    // Charging overheads while processing completions can push
    // the clock past further completions, so iterate to a
    // fixpoint: when no cycles were charged, every event due at
    // or before now has been handled.
    for (;;) {
        const uint64_t before = now_;
        processCompletions();
        if (now_ == before)
            break;
    }

    if (!ring_.empty())
        runNext();
    else
        idleOrEvict();
    recorder_.record(now_, useful_);
    ++eventIndex_;
}

MtStats
MtProcessor::finish()
{
    noteResidencyChange(0);
    stats_.totalCycles = now_;
    stats_.efficiencyTotal = recorder_.totalRate();
    stats_.efficiencyCentral =
        recorder_.centralRate(config_.statsLoFrac, config_.statsHiFrac);
    stats_.avgResidentContexts =
        now_ == 0 ? 0.0 : residencyIntegral_ / static_cast<double>(now_);
    tracer_.flush();
    return stats_;
}

MtStats
MtProcessor::run()
{
    begin();
    while (!done())
        step();
    return finish();
}

// ---------------------------------------------------------------------
// Checkpointing (rr.ckpt.v1, kind "mt")

namespace {

// Section tags for the mt checkpoint kind. 0x01 is the rr::ckpt
// meta section; 0x20 EventCore; 0x30 TraceAuditor (written by sinks
// that are themselves auditors, not by the processor).
constexpr uint32_t kSectionProc = 0x40;
constexpr uint32_t kSectionThreads = 0x41;
constexpr uint32_t kSectionRecorder = 0x42;

enum ProcField : uint32_t
{
    kProcNow = 1,
    kProcUseful = 2,
    kProcFinished = 3,
    kProcEventIndex = 4,
    kProcThreadQueue = 5,
    kProcRingLevels = 6,   ///< u64: number of priority levels
    kProcRingBase = 0x100, ///< u32vec per level: members in ring order
    kProcResidentCount = 7,
    kProcLastResidencyTime = 8,
    kProcResidencyIntegral = 9,
    kProcStats = 10,          ///< u64vec: every integer MtStats field
    kProcMaxResident = 11,
    kProcAllocStats = 12,     ///< u64vec: allocator call counters
};

enum ThreadField : uint32_t
{
    kThrRegsUsed = 1,
    kThrState = 2,
    kThrPriority = 3,
    kThrTotalWork = 4,
    kThrRemainingWork = 5,
    kThrFinishTime = 6,
    kThrHasContext = 7,
    kThrCtxRrm = 8,
    kThrCtxSize = 9,
    kThrFaultCompletion = 10,
    kThrBlockedAt = 11,
    kThrBlockEpoch = 12,
    kThrSpinAccrued = 13,
    kThrFaults = 14,
    kThrTimesLoaded = 15,
    kThrTimesUnloaded = 16,
    kThrRng0 = 17,
    kThrRng1 = 18,
    kThrRng2 = 19,
    kThrRng3 = 20,
};

} // namespace

std::string
MtProcessor::fingerprint() const
{
    const runtime::CostModel &c = config_.costs;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "mt threads=%u work=%s regs=%s prio=%s faults=%s "
        "costs=%llu/%llu/%llu/%llu/%llu/%llu/%d arch=%s policy=%s "
        "F=%u w=%u min=%u fixed=%u unload=%u cap=%u seed=%llu "
        "levels=%u window=%.17g..%.17g",
        config_.workload.numThreads,
        config_.workload.workDist->describe().c_str(),
        config_.workload.regsDist->describe().c_str(),
        config_.workload.priorityDist
            ? config_.workload.priorityDist->describe().c_str()
            : "none",
        config_.faultModel->describe().c_str(),
        static_cast<unsigned long long>(c.allocSucceed),
        static_cast<unsigned long long>(c.allocFail),
        static_cast<unsigned long long>(c.dealloc),
        static_cast<unsigned long long>(c.queueOp),
        static_cast<unsigned long long>(c.blockOverhead),
        static_cast<unsigned long long>(c.contextSwitch),
        c.dribbleRegisters ? 1 : 0, archName(config_.arch),
        policy_->describe().c_str(), config_.numRegs,
        config_.operandWidth, config_.minContextSize,
        config_.fixedContextRegs,
        static_cast<unsigned>(config_.unloadPolicy),
        config_.residencyCap,
        static_cast<unsigned long long>(config_.seed),
        config_.priorityLevels, config_.statsLoFrac,
        config_.statsHiFrac);
    return buf;
}

void
MtProcessor::saveState(ckpt::Writer &writer) const
{
    const unsigned numThreads = config_.workload.numThreads;

    writer.beginSection(kSectionProc);
    writer.u64(kProcNow, now_);
    writer.u64(kProcUseful, useful_);
    writer.u64(kProcFinished, finished_);
    writer.u64(kProcEventIndex, eventIndex_);
    {
        std::vector<uint32_t> queue;
        queue.reserve(threadQueue_.size());
        for (const unsigned tid : threadQueue_)
            queue.push_back(tid);
        writer.u32vec(kProcThreadQueue, queue);
    }
    const unsigned levels = std::max(1u, config_.priorityLevels);
    writer.u64(kProcRingLevels, levels);
    for (unsigned l = 0; l < levels; ++l) {
        // members() walks from the current element, and insert()
        // appends at the tail, so re-inserting this sequence in
        // order reproduces both the ring linkage and the current
        // pointer exactly.
        writer.u32vec(kProcRingBase + l,
                      const_cast<runtime::PriorityRing &>(ring_)
                          .level(l)
                          .members());
    }
    writer.u64(kProcResidentCount, residentCount_);
    writer.u64(kProcLastResidencyTime, lastResidencyTime_);
    writer.f64(kProcResidencyIntegral, residencyIntegral_);
    writer.u64vec(
        kProcStats,
        {stats_.totalCycles, stats_.usefulCycles, stats_.idleCycles,
         stats_.switchCycles, stats_.allocCycles,
         stats_.deallocCycles, stats_.loadCycles,
         stats_.unloadCycles, stats_.queueCycles, stats_.faults,
         stats_.cacheFaults, stats_.syncFaults, stats_.loads,
         stats_.unloads, stats_.allocSuccesses,
         stats_.allocFailures});
    writer.u64(kProcMaxResident, stats_.maxResidentContexts);
    if (const auto *flexible =
            dynamic_cast<const FlexibleContextPolicy *>(policy_.get())) {
        const runtime::AllocatorStats &as =
            flexible->allocator().stats();
        writer.u64vec(kProcAllocStats, {as.allocCalls,
                                        as.allocFailures,
                                        as.deallocCalls});
    }
    writer.endSection();

    writer.beginSection(kSectionThreads);
    std::vector<uint32_t> regsUsed, state, priority, hasContext,
        ctxRrm, ctxSize;
    std::vector<uint64_t> totalWork, remainingWork, finishTime,
        faultCompletion, blockedAt, blockEpoch, spinAccrued, faults,
        timesLoaded, timesUnloaded;
    std::vector<uint64_t> rngState[4];
    for (unsigned f = 0; f < 4; ++f)
        rngState[f].reserve(numThreads);
    for (const Thread &t : threads_) {
        regsUsed.push_back(t.regsUsed);
        state.push_back(static_cast<uint32_t>(t.state));
        priority.push_back(t.priority);
        hasContext.push_back(t.context ? 1 : 0);
        ctxRrm.push_back(t.context ? t.context->rrm : 0);
        ctxSize.push_back(t.context ? t.context->size : 0);
        totalWork.push_back(t.totalWork);
        remainingWork.push_back(t.remainingWork);
        finishTime.push_back(t.finishTime);
        faultCompletion.push_back(t.faultCompletion);
        blockedAt.push_back(t.blockedAt);
        blockEpoch.push_back(t.blockEpoch);
        spinAccrued.push_back(t.spinAccrued);
        faults.push_back(t.faults);
        timesLoaded.push_back(t.timesLoaded);
        timesUnloaded.push_back(t.timesUnloaded);
        uint64_t s[4];
        t.rng.state(s);
        for (unsigned f = 0; f < 4; ++f)
            rngState[f].push_back(s[f]);
    }
    writer.u32vec(kThrRegsUsed, regsUsed);
    writer.u32vec(kThrState, state);
    writer.u32vec(kThrPriority, priority);
    writer.u64vec(kThrTotalWork, totalWork);
    writer.u64vec(kThrRemainingWork, remainingWork);
    writer.u64vec(kThrFinishTime, finishTime);
    writer.u32vec(kThrHasContext, hasContext);
    writer.u32vec(kThrCtxRrm, ctxRrm);
    writer.u32vec(kThrCtxSize, ctxSize);
    writer.u64vec(kThrFaultCompletion, faultCompletion);
    writer.u64vec(kThrBlockedAt, blockedAt);
    writer.u64vec(kThrBlockEpoch, blockEpoch);
    writer.u64vec(kThrSpinAccrued, spinAccrued);
    writer.u64vec(kThrFaults, faults);
    writer.u64vec(kThrTimesLoaded, timesLoaded);
    writer.u64vec(kThrTimesUnloaded, timesUnloaded);
    writer.u64vec(kThrRng0, rngState[0]);
    writer.u64vec(kThrRng1, rngState[1]);
    writer.u64vec(kThrRng2, rngState[2]);
    writer.u64vec(kThrRng3, rngState[3]);
    writer.endSection();

    completions_.saveState(writer);

    writer.beginSection(kSectionRecorder);
    writer.u64vec(1, recorder_.times());
    writer.u64vec(2, recorder_.values());
    writer.endSection();

    // A sink that audits (TraceAuditor) checkpoints its own running
    // sums so a resumed run still reconciles end to end.
    if (auto *auditor =
            dynamic_cast<trace::TraceAuditor *>(config_.traceSink))
        auditor->saveState(writer);
}

void
MtProcessor::restoreState(const ckpt::Reader &reader)
{
    const unsigned numThreads = config_.workload.numThreads;

    const std::vector<uint32_t> regsUsed =
        reader.u32vec(kSectionThreads, kThrRegsUsed);
    const std::vector<uint32_t> state =
        reader.u32vec(kSectionThreads, kThrState);
    const std::vector<uint32_t> priority =
        reader.u32vec(kSectionThreads, kThrPriority);
    const std::vector<uint32_t> hasContext =
        reader.u32vec(kSectionThreads, kThrHasContext);
    const std::vector<uint32_t> ctxRrm =
        reader.u32vec(kSectionThreads, kThrCtxRrm);
    const std::vector<uint32_t> ctxSize =
        reader.u32vec(kSectionThreads, kThrCtxSize);
    const std::vector<uint64_t> totalWork =
        reader.u64vec(kSectionThreads, kThrTotalWork);
    const std::vector<uint64_t> remainingWork =
        reader.u64vec(kSectionThreads, kThrRemainingWork);
    const std::vector<uint64_t> finishTime =
        reader.u64vec(kSectionThreads, kThrFinishTime);
    const std::vector<uint64_t> faultCompletion =
        reader.u64vec(kSectionThreads, kThrFaultCompletion);
    const std::vector<uint64_t> blockedAt =
        reader.u64vec(kSectionThreads, kThrBlockedAt);
    const std::vector<uint64_t> blockEpoch =
        reader.u64vec(kSectionThreads, kThrBlockEpoch);
    const std::vector<uint64_t> spinAccrued =
        reader.u64vec(kSectionThreads, kThrSpinAccrued);
    const std::vector<uint64_t> faults =
        reader.u64vec(kSectionThreads, kThrFaults);
    const std::vector<uint64_t> timesLoaded =
        reader.u64vec(kSectionThreads, kThrTimesLoaded);
    const std::vector<uint64_t> timesUnloaded =
        reader.u64vec(kSectionThreads, kThrTimesUnloaded);
    const std::vector<uint64_t> rng0 =
        reader.u64vec(kSectionThreads, kThrRng0);
    const std::vector<uint64_t> rng1 =
        reader.u64vec(kSectionThreads, kThrRng1);
    const std::vector<uint64_t> rng2 =
        reader.u64vec(kSectionThreads, kThrRng2);
    const std::vector<uint64_t> rng3 =
        reader.u64vec(kSectionThreads, kThrRng3);

    const auto sized = [numThreads](std::size_t n) {
        return n == numThreads;
    };
    if (!sized(regsUsed.size()) || !sized(state.size()) ||
        !sized(priority.size()) || !sized(hasContext.size()) ||
        !sized(ctxRrm.size()) || !sized(ctxSize.size()) ||
        !sized(totalWork.size()) || !sized(remainingWork.size()) ||
        !sized(finishTime.size()) || !sized(faultCompletion.size()) ||
        !sized(blockedAt.size()) || !sized(blockEpoch.size()) ||
        !sized(spinAccrued.size()) || !sized(faults.size()) ||
        !sized(timesLoaded.size()) || !sized(timesUnloaded.size()) ||
        !sized(rng0.size()) || !sized(rng1.size()) ||
        !sized(rng2.size()) || !sized(rng3.size()))
        throw ckpt::Error(
            "thread arrays do not match the configured " +
            std::to_string(numThreads) + " threads");

    // Validate every restored context before touching any live
    // structure: in bounds, non-overlapping, and sized so the policy
    // adopt cannot trip an internal assertion.
    {
        std::vector<bool> occupied(config_.numRegs, false);
        for (unsigned i = 0; i < numThreads; ++i) {
            if (state[i] >
                static_cast<uint32_t>(ThreadState::Finished))
                throw ckpt::Error("invalid thread state " +
                                  std::to_string(state[i]));
            if (!hasContext[i])
                continue;
            const uint64_t base = ctxRrm[i];
            const uint64_t size = ctxSize[i];
            if (size == 0 || base + size > config_.numRegs)
                throw ckpt::Error(
                    "restored context exceeds the register file");
            if (config_.arch != ArchKind::AddReloc &&
                ((size & (size - 1)) != 0 || base % size != 0))
                throw ckpt::Error("restored context is not an "
                                  "aligned power-of-two block");
            for (uint64_t r = base; r < base + size; ++r) {
                if (occupied[static_cast<std::size_t>(r)])
                    throw ckpt::Error(
                        "restored contexts overlap at register " +
                        std::to_string(r));
                occupied[static_cast<std::size_t>(r)] = true;
            }
        }
    }

    // Rebuild thread and allocator state. The policy is fresh (the
    // processor was just constructed), so adopting every live
    // context reproduces the allocator maps exactly.
    threads_.assign(numThreads, Thread{});
    for (unsigned i = 0; i < numThreads; ++i) {
        Thread &t = threads_[i];
        t.id = i;
        t.regsUsed = regsUsed[i];
        t.state = static_cast<ThreadState>(state[i]);
        t.priority = priority[i];
        t.totalWork = totalWork[i];
        t.remainingWork = remainingWork[i];
        t.finishTime = finishTime[i];
        t.faultCompletion = faultCompletion[i];
        t.blockedAt = blockedAt[i];
        t.blockEpoch = blockEpoch[i];
        t.spinAccrued = spinAccrued[i];
        t.faults = faults[i];
        t.timesLoaded = timesLoaded[i];
        t.timesUnloaded = timesUnloaded[i];
        const uint64_t s[4] = {rng0[i], rng1[i], rng2[i], rng3[i]};
        t.rng.setState(s);
        if (hasContext[i]) {
            runtime::Context context;
            context.rrm = ctxRrm[i];
            context.size = ctxSize[i];
            policy_->adopt(context);
            t.context = context;
        }
    }

    rrmIndex_.assign(config_.numRegs, kNoThread);
    for (const Thread &t : threads_)
        if (t.context)
            rrmInsert(t.context->rrm, t.id);

    blockedLoaded_.clear();
    blockedLoaded_.reserve(numThreads);
    blockedPos_.assign(numThreads, kNoThread);
    for (const Thread &t : threads_)
        if (t.state == ThreadState::BlockedLoaded)
            blockedInsert(t.id);
    deriveThreadConstants();

    threadQueue_.clear();
    threadQueue_.reserve(numThreads);
    for (const uint32_t tid :
         reader.u32vec(kSectionProc, kProcThreadQueue)) {
        if (tid >= numThreads)
            throw ckpt::Error("thread queue names thread " +
                              std::to_string(tid));
        threadQueue_.push_back(tid);
    }

    const unsigned levels = std::max(1u, config_.priorityLevels);
    if (reader.u64(kSectionProc, kProcRingLevels) != levels)
        throw ckpt::Error(
            "priority level count does not match the configuration");
    std::vector<bool> queued(rrmIndex_.size(), false);
    for (unsigned l = 0; l < levels; ++l) {
        runtime::ContextRing &ring = ring_.level(l);
        for (const uint32_t rrm : ring.members())
            ring.remove(rrm);
        for (const uint32_t rrm :
             reader.u32vec(kSectionProc, kProcRingBase + l)) {
            if (rrm >= rrmIndex_.size() ||
                rrmIndex_[rrm] == kNoThread)
                throw ckpt::Error(
                    "ring references rrm " + std::to_string(rrm) +
                    " with no resident context");
            if (queued[rrm])
                throw ckpt::Error("ring lists rrm " +
                                  std::to_string(rrm) + " twice");
            queued[rrm] = true;
            ring.insert(rrm);
        }
    }

    const std::vector<uint64_t> stats =
        reader.u64vec(kSectionProc, kProcStats);
    if (stats.size() != 16)
        throw ckpt::Error("stats array has the wrong length");
    stats_ = MtStats{};
    stats_.totalCycles = stats[0];
    stats_.usefulCycles = stats[1];
    stats_.idleCycles = stats[2];
    stats_.switchCycles = stats[3];
    stats_.allocCycles = stats[4];
    stats_.deallocCycles = stats[5];
    stats_.loadCycles = stats[6];
    stats_.unloadCycles = stats[7];
    stats_.queueCycles = stats[8];
    stats_.faults = stats[9];
    stats_.cacheFaults = stats[10];
    stats_.syncFaults = stats[11];
    stats_.loads = stats[12];
    stats_.unloads = stats[13];
    stats_.allocSuccesses = stats[14];
    stats_.allocFailures = stats[15];
    stats_.maxResidentContexts = static_cast<unsigned>(
        reader.u64(kSectionProc, kProcMaxResident));
    stats_.threadsFinished = 0; // re-derived below

    now_ = reader.u64(kSectionProc, kProcNow);
    useful_ = reader.u64(kSectionProc, kProcUseful);
    finished_ = static_cast<unsigned>(
        reader.u64(kSectionProc, kProcFinished));
    eventIndex_ = reader.u64(kSectionProc, kProcEventIndex);
    residentCount_ = static_cast<unsigned>(
        reader.u64(kSectionProc, kProcResidentCount));
    lastResidencyTime_ =
        reader.u64(kSectionProc, kProcLastResidencyTime);
    residencyIntegral_ =
        reader.f64(kSectionProc, kProcResidencyIntegral);

    unsigned finishedThreads = 0;
    for (const Thread &t : threads_)
        if (t.state == ThreadState::Finished)
            ++finishedThreads;
    if (finishedThreads != finished_)
        throw ckpt::Error("finished-thread counter disagrees with "
                          "the thread states");
    stats_.threadsFinished = finishedThreads;

    if (reader.has(kSectionProc, kProcAllocStats)) {
        const std::vector<uint64_t> as =
            reader.u64vec(kSectionProc, kProcAllocStats);
        if (as.size() != 3)
            throw ckpt::Error(
                "allocator stats array has the wrong length");
        if (auto *flexible = dynamic_cast<FlexibleContextPolicy *>(
                policy_.get()))
            flexible->restoreAllocatorStats(
                {as[0], as[1], as[2]});
    }

    // The event core validates its own internal consistency; the
    // processor additionally requires every event to name one of its
    // threads, or processCompletions() would index out of bounds.
    for (const uint32_t tid :
         reader.u32vec(EventCore::kCkptSection, 3))
        if (tid >= numThreads)
            throw ckpt::Error("completion event names thread " +
                              std::to_string(tid));
    completions_.reserve(numThreads);
    completions_.restoreState(reader);

    recorder_.restore(reader.u64vec(kSectionRecorder, 1),
                      reader.u64vec(kSectionRecorder, 2));

    if (auto *auditor =
            dynamic_cast<trace::TraceAuditor *>(config_.traceSink))
        if (reader.hasSection(trace::TraceAuditor::kCkptSection))
            auditor->restoreState(reader);

    begun_ = true;
}

std::vector<uint8_t>
MtProcessor::snapshot() const
{
    ckpt::Writer writer;
    ckpt::writeMeta(writer, "mt", fingerprint());
    saveState(writer);
    return writer.seal();
}

void
MtProcessor::restore(const std::vector<uint8_t> &document)
{
    const ckpt::Reader reader(document);
    ckpt::checkMeta(reader, "mt", fingerprint());
    restoreState(reader);
}

MtStats
simulate(MtConfig config)
{
    MtProcessor processor(std::move(config));
    return processor.run();
}

} // namespace rr::mt
