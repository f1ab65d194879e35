#include "trace/audit.hh"

#include <algorithm>
#include <utility>

namespace rr::trace {

namespace {

/** Kinds the per-component reconciliation maps onto stats buckets. */
constexpr std::size_t
idx(EventKind kind)
{
    return static_cast<std::size_t>(kind);
}

std::string
mismatch(const char *what, uint64_t trace_value, uint64_t stat_value)
{
    std::string out = what;
    out += ": trace ";
    out += std::to_string(trace_value);
    out += " != stats ";
    out += std::to_string(stat_value);
    return out;
}

} // namespace

TraceAuditor::TraceAuditor(const runtime::CostModel &costs)
    : costs_(costs)
{
}

uint64_t
TraceAuditor::kindCycles(EventKind kind) const
{
    return sumCycles_[idx(kind)];
}

uint64_t
TraceAuditor::kindCount(EventKind kind) const
{
    return countByKind_[idx(kind)];
}

void
TraceAuditor::problem(std::string text)
{
    if (problems_.size() >= kMaxProblems) {
        ++suppressed_;
        return;
    }
    problems_.push_back(std::move(text));
}

void
TraceAuditor::checkCharge(const TraceEvent &event, uint64_t expect,
                          const char *what)
{
    if (event.cycles == expect)
        return;
    std::string text = what;
    text += " charged ";
    text += std::to_string(event.cycles);
    text += " cycles, cost model says ";
    text += std::to_string(expect);
    text += " (cycle ";
    text += std::to_string(event.cycle);
    if (event.tid != TraceEvent::kNoThread) {
        text += ", tid ";
        text += std::to_string(event.tid);
    }
    text += ")";
    problem(std::move(text));
}

void
TraceAuditor::tidProblem(const TraceEvent &event, const char *what)
{
    problem("tid " + std::to_string(event.tid) + " " + what +
            " (cycle " + std::to_string(event.cycle) + ")");
}

void
TraceAuditor::emit(const TraceEvent &event)
{
    ++eventsSeen_;
    sumCycles_[idx(event.kind)] += event.cycles;
    ++countByKind_[idx(event.kind)];

    // Traces replay in simulation order: each event ends no earlier
    // than the previous one, and never spans back past time zero.
    if (event.cycle < lastCycle_) {
        problem("time went backwards: event '" +
                std::string(eventKindName(event.kind)) + "' ends at " +
                std::to_string(event.cycle) + " after an event ending at " +
                std::to_string(lastCycle_));
    }
    lastCycle_ = event.cycle;
    if (event.cycles > event.cycle) {
        problem("event '" + std::string(eventKindName(event.kind)) +
                "' spans " + std::to_string(event.cycles) +
                " cycles but ends at " + std::to_string(event.cycle));
    }

    uint8_t *tid = nullptr;
    if (event.tid != TraceEvent::kNoThread) {
        if (event.tid >= tids_.size())
            tids_.resize(std::size_t{event.tid} + 1, 0);
        tid = &tids_[event.tid];
        *tid |= kSeen;
    }

    switch (event.kind) {
      case EventKind::Alloc:
        if (event.ok) {
            ++allocOk_;
            checkCharge(event, costs_.allocSucceed, "successful alloc");
            if (tid == nullptr) {
                problem("alloc with no thread at cycle " +
                        std::to_string(event.cycle));
            } else if ((*tid & kAllocated) != 0) {
                tidProblem(event, "allocated twice without a free");
            } else {
                *tid |= kAllocated;
            }
        } else {
            ++allocFailed_;
            checkCharge(event, costs_.allocFail, "failed alloc");
        }
        break;

      case EventKind::Load:
        checkCharge(event, costs_.loadCost(event.regs), "load");
        if (tid != nullptr) {
            if ((*tid & kAllocated) == 0)
                tidProblem(event, "loaded without an allocation");
            if ((*tid & kLoaded) != 0)
                tidProblem(event, "loaded twice without an unload");
            *tid |= kLoaded;
        }
        break;

      case EventKind::Unload:
        checkCharge(event, costs_.unloadCost(event.regs), "unload");
        if (tid != nullptr) {
            if ((*tid & kLoaded) == 0)
                tidProblem(event, "unloaded while not loaded");
            *tid = static_cast<uint8_t>(*tid & ~kLoaded);
        }
        break;

      case EventKind::Free:
        checkCharge(event, costs_.dealloc, "free");
        if (event.aux == TraceEvent::kFreeFinished)
            ++finishFrees_;
        if (tid != nullptr) {
            if ((*tid & kAllocated) == 0)
                tidProblem(event, "freed while not allocated");
            // A finishing thread frees its loaded context directly; an
            // evicted context must already have paid its unload.
            const bool loaded = (*tid & kLoaded) != 0;
            if (event.aux == TraceEvent::kFreeFinished && !loaded)
                tidProblem(event, "finished without a loaded context");
            if (event.aux == TraceEvent::kFreeEvicted && loaded)
                tidProblem(event, "evicted without paying an unload");
            *tid = kSeen;
        }
        break;

      case EventKind::Switch:
        checkCharge(event, costs_.contextSwitch, "context switch");
        break;

      case EventKind::Queue:
        checkCharge(event, costs_.queueOp, "queue operation");
        break;

      case EventKind::RunSegment:
        if (tid != nullptr && (*tid & kLoaded) == 0)
            tidProblem(event, "ran without a loaded context");
        break;

      case EventKind::FaultIssue:
      case EventKind::FaultComplete:
      case EventKind::SchedulerPoll:
      case EventKind::UnloadDecision:
      case EventKind::Instruction:
      case EventKind::Barrier:
        break;
    }
}

std::vector<std::string>
TraceAuditor::reconcile(const AuditTotals &totals) const
{
    std::vector<std::string> out = problems_;
    if (suppressed_ > 0)
        out.push_back("... and " + std::to_string(suppressed_) +
                      " more streaming problems");

    const auto check = [&](const char *what, uint64_t trace_value,
                           uint64_t stat_value) {
        if (trace_value != stat_value)
            out.push_back(mismatch(what, trace_value, stat_value));
    };

    // 1. Per-component cycle conservation.
    check("useful cycles", kindCycles(EventKind::RunSegment),
          totals.usefulCycles);
    check("idle cycles", kindCycles(EventKind::SchedulerPoll),
          totals.idleCycles);
    check("switch cycles", kindCycles(EventKind::Switch),
          totals.switchCycles);
    check("alloc cycles", kindCycles(EventKind::Alloc),
          totals.allocCycles);
    check("dealloc cycles", kindCycles(EventKind::Free),
          totals.deallocCycles);
    check("load cycles", kindCycles(EventKind::Load), totals.loadCycles);
    check("unload cycles", kindCycles(EventKind::Unload),
          totals.unloadCycles);
    check("queue cycles", kindCycles(EventKind::Queue),
          totals.queueCycles);

    uint64_t all = 0;
    for (const uint64_t cycles : sumCycles_)
        all += cycles;
    check("total charged cycles", all, totals.totalCycles);

    // 2. Figure 4 actions appear exactly once each.
    check("faults issued", kindCount(EventKind::FaultIssue),
          totals.faults);
    check("faults completed", kindCount(EventKind::FaultComplete),
          totals.faults);
    check("loads", kindCount(EventKind::Load), totals.loads);
    check("unloads", kindCount(EventKind::Unload), totals.unloads);
    check("successful allocs", allocOk_, totals.allocSuccesses);
    check("failed allocs", allocFailed_, totals.allocFailures);
    check("threads finished", finishFrees_, totals.threadsFinished);
    check("frees", kindCount(EventKind::Free),
          totals.allocSuccesses); // every granted context is freed once

    // 3. No context is left mid-lifecycle at end of run.
    for (std::size_t id = 0; id < tids_.size(); ++id) {
        if ((tids_[id] & kAllocated) != 0)
            out.push_back("tid " + std::to_string(id) +
                          " still holds an allocated context at end of "
                          "trace");
    }

    return out;
}

void
TraceAuditor::saveState(ckpt::Writer &writer) const
{
    writer.beginSection(kCkptSection);
    writer.u64(1, eventsSeen_);
    writer.u64(2, lastCycle_);
    writer.u64vec(3, std::vector<uint64_t>(sumCycles_,
                                           sumCycles_ +
                                               numEventKinds));
    writer.u64vec(4, std::vector<uint64_t>(countByKind_,
                                           countByKind_ +
                                               numEventKinds));
    writer.u64(5, allocOk_);
    writer.u64(6, allocFailed_);
    writer.u64(7, finishFrees_);
    writer.u64(8, suppressed_);

    // Every tid an event named, ascending, with its allocated (1) /
    // loaded (2) flags; a seen tid with neither flag is written as 0.
    std::vector<uint32_t> tids, flags;
    for (std::size_t tid = 0; tid < tids_.size(); ++tid) {
        if ((tids_[tid] & kSeen) == 0)
            continue;
        tids.push_back(static_cast<uint32_t>(tid));
        flags.push_back(tids_[tid] & (kAllocated | kLoaded));
    }
    writer.u32vec(9, tids);
    writer.u32vec(10, flags);

    // Streaming problems as length-prefixed UTF-8 records.
    std::vector<uint8_t> blob;
    for (const std::string &p : problems_) {
        const auto n = static_cast<uint32_t>(p.size());
        for (int i = 0; i < 4; ++i)
            blob.push_back(static_cast<uint8_t>(n >> (8 * i)));
        blob.insert(blob.end(), p.begin(), p.end());
    }
    writer.u64(11, problems_.size());
    writer.bytes(12, blob);
    writer.endSection();
}

void
TraceAuditor::restoreState(const ckpt::Reader &reader)
{
    const std::vector<uint64_t> sums =
        reader.u64vec(kCkptSection, 3);
    const std::vector<uint64_t> counts =
        reader.u64vec(kCkptSection, 4);
    if (sums.size() != numEventKinds ||
        counts.size() != numEventKinds)
        throw ckpt::Error("auditor per-kind arrays have the wrong "
                          "length");
    const std::vector<uint32_t> tids =
        reader.u32vec(kCkptSection, 9);
    const std::vector<uint32_t> flags =
        reader.u32vec(kCkptSection, 10);
    if (tids.size() != flags.size())
        throw ckpt::Error("auditor thread arrays disagree in length");
    for (std::size_t i = 0; i < tids.size(); ++i) {
        if (tids[i] >= kTidLimit)
            throw ckpt::Error("auditor thread id " +
                              std::to_string(tids[i]) +
                              " is out of range");
        if (i > 0 && tids[i] <= tids[i - 1])
            throw ckpt::Error("auditor thread ids are not strictly "
                              "increasing");
        if ((flags[i] & ~uint32_t{kAllocated | kLoaded}) != 0)
            throw ckpt::Error("auditor thread flags are invalid");
    }

    eventsSeen_ = reader.u64(kCkptSection, 1);
    lastCycle_ = reader.u64(kCkptSection, 2);
    std::copy(sums.begin(), sums.end(), sumCycles_);
    std::copy(counts.begin(), counts.end(), countByKind_);
    allocOk_ = reader.u64(kCkptSection, 5);
    allocFailed_ = reader.u64(kCkptSection, 6);
    finishFrees_ = reader.u64(kCkptSection, 7);
    suppressed_ = reader.u64(kCkptSection, 8);

    tids_.assign(tids.empty() ? 0 : std::size_t{tids.back()} + 1, 0);
    for (std::size_t i = 0; i < tids.size(); ++i)
        tids_[tids[i]] = static_cast<uint8_t>(kSeen | flags[i]);

    const uint64_t problemCount = reader.u64(kCkptSection, 11);
    const std::vector<uint8_t> blob =
        reader.bytes(kCkptSection, 12);
    problems_.clear();
    std::size_t at = 0;
    for (uint64_t i = 0; i < problemCount; ++i) {
        if (at + 4 > blob.size())
            throw ckpt::Error("auditor problem list is truncated");
        uint32_t n = 0;
        for (int b = 0; b < 4; ++b)
            n |= static_cast<uint32_t>(blob[at + static_cast<std::size_t>(b)])
                 << (8 * b);
        at += 4;
        if (at + n > blob.size())
            throw ckpt::Error("auditor problem list is truncated");
        problems_.emplace_back(blob.begin() +
                                   static_cast<std::ptrdiff_t>(at),
                               blob.begin() +
                                   static_cast<std::ptrdiff_t>(at + n));
        at += n;
    }
    if (at != blob.size())
        throw ckpt::Error("auditor problem list has trailing bytes");
}

} // namespace rr::trace
