/**
 * @file
 * Tests for the structured event-trace subsystem (src/trace/): the
 * sinks, the JSONL serialization, the Chrome trace_event exporter,
 * the cycle-conservation auditor (including a deliberately
 * mis-charged cost model it must catch), and the event emission of
 * both the event-driven MT simulator and the machine-level kernels.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/io.hh"
#include "exp/json_in.hh"
#include "kernel/machine_mt_kernel.hh"
#include "kernel/rotation_kernel.hh"
#include "kernel/sync_workload.hh"
#include "kernel/twophase_kernel.hh"
#include "multithread/simulation_spec.hh"
#include "multithread/workload.hh"
#include "trace/audit.hh"
#include "trace/chrome_export.hh"
#include "trace/sink.hh"

namespace rr {
namespace {

trace::TraceEvent
makeEvent(trace::EventKind kind, uint64_t cycle, uint64_t cycles = 0)
{
    trace::TraceEvent event;
    event.kind = kind;
    event.cycle = cycle;
    event.cycles = cycles;
    return event;
}

/** A small, fast Figure 5 style configuration. */
mt::MtConfig
smallConfig(mt::ArchKind arch, bool sync)
{
    mt::SimulationSpec spec;
    if (sync)
        spec.syncFaults(32.0, 400.0);
    else
        spec.cacheFaults(16.0, 200);
    return spec.arch(arch)
        .numRegs(128)
        .threads(12)
        .workPerThread(4000)
        .seed(7)
        .build();
}

TEST(StreamJsonSink, EmitsHeaderAndParseableLines)
{
    std::ostringstream out;
    trace::StreamJsonSink sink(out);

    trace::TraceEvent alloc = makeEvent(trace::EventKind::Alloc, 25,
                                        25);
    alloc.tid = 3;
    alloc.ctx = 16;
    alloc.ok = true;
    sink.emit(alloc);

    trace::TraceEvent fault =
        makeEvent(trace::EventKind::FaultIssue, 100);
    fault.tid = 3;
    fault.aux = 250;
    sink.emit(fault);
    sink.flush();
    EXPECT_EQ(sink.emitted(), 2u);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> all;
    while (std::getline(lines, line))
        all.push_back(line);
    ASSERT_EQ(all.size(), 3u);

    // Header carries the schema id; every line is valid JSON.
    std::string error;
    const auto header = exp::parseJson(all[0], &error);
    ASSERT_TRUE(header.has_value()) << error;
    EXPECT_EQ(header->stringOr("schema", ""), "rr.trace.v1");

    const auto first = exp::parseJson(all[1], &error);
    ASSERT_TRUE(first.has_value()) << error;
    EXPECT_EQ(first->stringOr("ev", ""), "alloc");
    EXPECT_DOUBLE_EQ(first->numberOr("cycle", -1), 25.0);
    EXPECT_DOUBLE_EQ(first->numberOr("tid", -1), 3.0);

    const auto second = exp::parseJson(all[2], &error);
    ASSERT_TRUE(second.has_value()) << error;
    EXPECT_EQ(second->stringOr("ev", ""), "fault_issue");
    EXPECT_DOUBLE_EQ(second->numberOr("aux", -1), 250.0);
}

TEST(TeeSink, ToleratesNullBranchesAndDuplicates)
{
    trace::VectorSink a;
    trace::VectorSink b;
    trace::TeeSink both(&a, &b);
    both.emit(makeEvent(trace::EventKind::Queue, 10, 10));
    EXPECT_EQ(a.events().size(), 1u);
    EXPECT_EQ(b.events().size(), 1u);

    trace::TeeSink half(nullptr, &a);
    half.emit(makeEvent(trace::EventKind::Queue, 20, 10));
    half.flush();
    EXPECT_EQ(a.events().size(), 2u);
}

// The conservation contract, end to end: for both fault processes
// and all architectures, the trace the simulator emits reconciles
// exactly with the statistics it reports.
TEST(Audit, EventSimulatorConservesCycles)
{
    for (const bool sync : {false, true}) {
        for (const mt::ArchKind arch :
             {mt::ArchKind::Flexible, mt::ArchKind::FixedHw,
              mt::ArchKind::AddReloc}) {
            mt::MtConfig config = smallConfig(arch, sync);
            trace::TraceAuditor auditor(config.costs);
            config.traceSink = &auditor;
            const mt::MtStats stats = mt::simulate(config);
            EXPECT_GT(auditor.eventsSeen(), 0u);
            const std::vector<std::string> problems =
                auditor.reconcile(mt::auditTotals(stats));
            EXPECT_TRUE(problems.empty())
                << "arch " << mt::archName(arch) << " sync " << sync
                << ": " << problems.front();
        }
    }
}

TEST(Audit, TwoPhaseUnloadingConservesCycles)
{
    mt::MtConfig config = mt::SimulationSpec()
                              .syncFaults(24.0, 600.0)
                              .arch(mt::ArchKind::Flexible)
                              .numRegs(64)
                              .threads(16)
                              .workPerThread(3000)
                              .seed(3)
                              .build();
    ASSERT_EQ(config.unloadPolicy, mt::UnloadPolicyKind::TwoPhase);
    trace::TraceAuditor auditor(config.costs);
    config.traceSink = &auditor;
    const mt::MtStats stats = mt::simulate(config);
    EXPECT_GT(stats.unloads, 0u);
    const auto problems = auditor.reconcile(mt::auditTotals(stats));
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
}

// An auditor built on the WRONG cost model must report the
// mis-charge: every Figure 4 charge is checked against the model,
// not just summed.
TEST(Audit, CatchesMischargedCosts)
{
    mt::MtConfig config =
        smallConfig(mt::ArchKind::Flexible, false);
    runtime::CostModel wrong = config.costs;
    wrong.allocSucceed += 3;
    trace::TraceAuditor auditor(wrong);
    config.traceSink = &auditor;
    const mt::MtStats stats = mt::simulate(config);
    ASSERT_GT(stats.allocSuccesses, 0u);
    const auto problems = auditor.reconcile(mt::auditTotals(stats));
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("alloc"), std::string::npos);
}

/** Distinct nonzero charges, so a mis-charge names its own check. */
runtime::CostModel
auditCosts()
{
    runtime::CostModel costs;
    costs.allocSucceed = 3;
    costs.allocFail = 2;
    costs.dealloc = 4;
    return costs;
}

/** A correctly charged lifecycle event for @p tid ending at @p cycle. */
trace::TraceEvent
charged(trace::EventKind kind, uint32_t tid, uint64_t cycle,
        uint64_t aux = 0)
{
    const runtime::CostModel costs = auditCosts();
    trace::TraceEvent event = makeEvent(kind, cycle);
    event.tid = tid;
    event.aux = aux;
    event.regs = 8;
    switch (kind) {
      case trace::EventKind::Alloc:
        event.cycles = costs.allocSucceed;
        break;
      case trace::EventKind::Load:
        event.cycles = costs.loadCost(event.regs);
        break;
      case trace::EventKind::Unload:
        event.cycles = costs.unloadCost(event.regs);
        break;
      case trace::EventKind::Free:
        event.cycles = costs.dealloc;
        break;
      default:
        break;
    }
    return event;
}

/** The streaming problems of a fresh auditor fed @p events. */
std::vector<std::string>
streamingProblems(const std::vector<trace::TraceEvent> &events)
{
    trace::TraceAuditor auditor(auditCosts());
    for (const trace::TraceEvent &event : events)
        auditor.emit(event);
    return auditor.problems();
}

using Lines = std::vector<std::string>;

// Every streaming diagnostic, pinned to the byte: the auditor builds
// these strings only when a check fails, so each failure path is
// driven here by a hand-built event sequence.
TEST(AuditMessages, LifecycleViolationsAreReportedVerbatim)
{
    using trace::EventKind;
    constexpr uint64_t finished = trace::TraceEvent::kFreeFinished;
    constexpr uint64_t evicted = trace::TraceEvent::kFreeEvicted;

    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 3, 10),
                                 charged(EventKind::Alloc, 3, 20)}),
              Lines{"tid 3 allocated twice without a free (cycle 20)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Load, 4, 30)}),
              Lines{"tid 4 loaded without an allocation (cycle 30)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 5, 10),
                                 charged(EventKind::Load, 5, 30),
                                 charged(EventKind::Load, 5, 50)}),
              Lines{"tid 5 loaded twice without an unload (cycle 50)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 6, 10),
                                 charged(EventKind::Unload, 6, 30)}),
              Lines{"tid 6 unloaded while not loaded (cycle 30)"});
    EXPECT_EQ(
        streamingProblems({charged(EventKind::Free, 7, 30, evicted)}),
        Lines{"tid 7 freed while not allocated (cycle 30)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 8, 10),
                                 charged(EventKind::Free, 8, 30,
                                         finished)}),
              Lines{"tid 8 finished without a loaded context "
                    "(cycle 30)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, 9, 10),
                                 charged(EventKind::Load, 9, 30),
                                 charged(EventKind::Free, 9, 50,
                                         evicted)}),
              Lines{"tid 9 evicted without paying an unload "
                    "(cycle 50)"});
    EXPECT_EQ(streamingProblems({charged(EventKind::RunSegment, 10, 40)}),
              Lines{"tid 10 ran without a loaded context (cycle 40)"});

    // One event can fail several checks; they report in check order.
    EXPECT_EQ(streamingProblems({charged(EventKind::Load, 11, 30),
                                 charged(EventKind::Load, 11, 50)}),
              (Lines{"tid 11 loaded without an allocation (cycle 30)",
                     "tid 11 loaded without an allocation (cycle 50)",
                     "tid 11 loaded twice without an unload "
                     "(cycle 50)"}));
    EXPECT_EQ(streamingProblems({charged(EventKind::Free, 12, 30,
                                         finished)}),
              (Lines{"tid 12 freed while not allocated (cycle 30)",
                     "tid 12 finished without a loaded context "
                     "(cycle 30)"}));
}

TEST(AuditMessages, OrderingChargeAndThreadProblemsAreVerbatim)
{
    using trace::EventKind;
    constexpr uint32_t none = trace::TraceEvent::kNoThread;

    EXPECT_EQ(streamingProblems({makeEvent(EventKind::SchedulerPoll, 100),
                                 makeEvent(EventKind::SchedulerPoll, 50)}),
              Lines{"time went backwards: event 'poll' ends at 50 "
                    "after an event ending at 100"});
    EXPECT_EQ(streamingProblems({makeEvent(EventKind::Switch, 5, 6)}),
              Lines{"event 'switch' spans 6 cycles but ends at 5"});
    EXPECT_EQ(streamingProblems({charged(EventKind::Alloc, none, 10)}),
              Lines{"alloc with no thread at cycle 10"});

    trace::TraceEvent overcharged = charged(EventKind::Alloc, 2, 20);
    overcharged.cycles = 5;
    trace::TraceEvent failed = makeEvent(EventKind::Alloc, 30, 9);
    failed.ok = false;
    EXPECT_EQ(streamingProblems({overcharged, failed,
                                 makeEvent(EventKind::Queue, 40, 1)}),
              (Lines{"successful alloc charged 5 cycles, cost model "
                     "says 3 (cycle 20, tid 2)",
                     "failed alloc charged 9 cycles, cost model says 2 "
                     "(cycle 30)",
                     "queue operation charged 1 cycles, cost model "
                     "says 10 (cycle 40)"}));
}

// Contexts still allocated at the end report after the mismatches,
// in ascending tid order whatever order the threads appeared in.
TEST(AuditMessages, LeftoverContextsReportInTidOrder)
{
    using trace::EventKind;
    trace::TraceAuditor auditor(auditCosts());
    for (const uint32_t tid : {1000u, 0u, 5u})
        auditor.emit(charged(EventKind::Alloc, tid, 10));
    trace::AuditTotals totals;
    totals.totalCycles = 9;
    totals.allocCycles = 9;
    totals.allocSuccesses = 3;
    EXPECT_EQ(auditor.reconcile(totals),
              (Lines{"frees: trace 0 != stats 3",
                     "tid 0 still holds an allocated context at end "
                     "of trace",
                     "tid 5 still holds an allocated context at end "
                     "of trace",
                     "tid 1000 still holds an allocated context at "
                     "end of trace"}));
}

// Past kMaxProblems (32) the auditor stops storing diagnostics and
// only counts them; reconcile() reports the count on one line.
TEST(AuditMessages, ProblemsPastTheCapAreCountedNotStored)
{
    using trace::EventKind;
    trace::TraceAuditor auditor(auditCosts());
    for (uint64_t i = 0; i < 40; ++i)
        auditor.emit(charged(EventKind::RunSegment, 1, 10 + i));
    ASSERT_EQ(auditor.problems().size(), 32u);
    EXPECT_EQ(auditor.problems().front(),
              "tid 1 ran without a loaded context (cycle 10)");
    EXPECT_EQ(auditor.problems().back(),
              "tid 1 ran without a loaded context (cycle 41)");

    const Lines lines = auditor.reconcile(trace::AuditTotals{});
    ASSERT_EQ(lines.size(), 33u);
    EXPECT_EQ(lines[31], auditor.problems().back());
    EXPECT_EQ(lines[32], "... and 8 more streaming problems");
}

// Tracing must not change a single digit of any result: the sink
// observes charges that are made regardless.
TEST(Trace, AttachingASinkIsBehaviorNeutral)
{
    mt::MtConfig plain = smallConfig(mt::ArchKind::Flexible, true);
    const mt::MtStats expected = mt::simulate(plain);

    mt::MtConfig traced = smallConfig(mt::ArchKind::Flexible, true);
    trace::VectorSink sink;
    traced.traceSink = &sink;
    const mt::MtStats observed = mt::simulate(traced);

    EXPECT_GT(sink.events().size(), 0u);
    EXPECT_EQ(observed.totalCycles, expected.totalCycles);
    EXPECT_EQ(observed.usefulCycles, expected.usefulCycles);
    EXPECT_EQ(observed.idleCycles, expected.idleCycles);
    EXPECT_EQ(observed.faults, expected.faults);
    EXPECT_DOUBLE_EQ(observed.efficiencyCentral,
                     expected.efficiencyCentral);
}

TEST(Trace, EventsArriveInSimulationOrder)
{
    mt::MtConfig config = smallConfig(mt::ArchKind::Flexible, false);
    trace::VectorSink sink;
    config.traceSink = &sink;
    mt::simulate(config);
    ASSERT_GT(sink.events().size(), 2u);
    uint64_t last = 0;
    for (const trace::TraceEvent &event : sink.events()) {
        EXPECT_GE(event.cycle, last);
        EXPECT_LE(event.cycles, event.cycle);
        last = event.cycle;
    }
}

TEST(ChromeExport, ProducesValidViewerDocument)
{
    mt::MtConfig config = smallConfig(mt::ArchKind::Flexible, false);
    trace::VectorSink sink;
    config.traceSink = &sink;
    mt::simulate(config);

    trace::ChromeStream stream;
    stream.process = "flexible";
    stream.events = sink.events();
    const std::string doc = trace::exportChromeTrace({stream});

    std::string error;
    const auto parsed = exp::parseJson(doc, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const exp::JsonValue *events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->elements.size(), 2u);

    // First records are process/thread metadata; the body must
    // contain both complete slices and instants on pid 1.
    EXPECT_EQ(events->elements[0].stringOr("ph", ""), "M");
    bool slices = false;
    bool instants = false;
    for (const exp::JsonValue &event : events->elements) {
        const std::string ph = event.stringOr("ph", "");
        slices = slices || ph == "X";
        instants = instants || ph == "i";
        if (ph == "X") {
            EXPECT_GE(event.numberOr("dur", -1.0), 0.0);
        }
    }
    EXPECT_TRUE(slices);
    EXPECT_TRUE(instants);
}

TEST(ChromeExport, TruncationIsVisible)
{
    trace::ChromeStream stream;
    stream.process = "flexible";
    stream.dropped = 123;
    stream.events = {makeEvent(trace::EventKind::RunSegment, 5, 5)};
    const std::string doc = trace::exportChromeTrace({stream});
    EXPECT_NE(doc.find("truncated"), std::string::npos);
    EXPECT_NE(doc.find("123"), std::string::npos);
}

// The machine-level kernel emits matching issue/completion pairs
// with machine-cycle stamps.
TEST(KernelTrace, MachineKernelEmitsFaultPairs)
{
    kernel::KernelConfig config;
    config.numThreads = 4;
    config.segmentUnits = makeConstant(40);
    config.latency = makeConstant(300);
    config.segmentsPerThread = 8;
    trace::VectorSink sink;
    config.traceSink = &sink;
    const kernel::KernelResult result =
        kernel::runMachineKernel(config);
    ASSERT_TRUE(result.halted);

    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t polls = 0;
    for (const trace::TraceEvent &event : sink.events()) {
        if (event.kind == trace::EventKind::FaultIssue)
            ++issued;
        else if (event.kind == trace::EventKind::FaultComplete)
            ++completed;
        else if (event.kind == trace::EventKind::SchedulerPoll)
            ++polls;
    }
    EXPECT_EQ(issued, result.faults);
    EXPECT_EQ(completed, result.faults);
    EXPECT_EQ(polls, result.failedPolls);
}

TEST(KernelTrace, BarrierModeEmitsBarrierReleases)
{
    kernel::KernelConfig config;
    config.numThreads = 4;
    config.segmentUnits = makeGeometric(24.0);
    config.service = kernel::FaultService::Barrier;
    config.segmentsPerThread = 6;
    trace::VectorSink sink;
    config.traceSink = &sink;
    const kernel::KernelResult result =
        kernel::runMachineKernel(config);
    ASSERT_TRUE(result.halted);
    uint64_t barriers = 0;
    for (const trace::TraceEvent &event : sink.events())
        if (event.kind == trace::EventKind::Barrier)
            ++barriers;
    EXPECT_EQ(barriers, result.barriers);
    EXPECT_GT(barriers, 0u);
}

/**
 * FNV-1a digest of the rr.trace.v1 JSONL stream @p run writes when
 * handed a StreamJsonSink; @p run returns the kernel's halted flag.
 */
template <typename Run>
uint64_t
streamDigest(Run run)
{
    std::ostringstream out;
    trace::StreamJsonSink sink(out);
    EXPECT_TRUE(run(&sink));
    const std::string text = out.str();
    return ckpt::fnv1a(reinterpret_cast<const uint8_t *>(text.data()),
                       text.size());
}

TEST(KernelTrace, StreamsArePinned)
{
    // The byte streams of one small run per kernel harness. A change
    // to fault issue/delivery order, same-cycle completion order,
    // event fields or RNG draw order moves a digest.
    const auto machine = [](kernel::FaultService service) {
        return [service](trace::TraceSink *sink) {
            kernel::KernelConfig config;
            config.numThreads = 4;
            config.segmentUnits = makeGeometric(24.0);
            config.service = service;
            config.latency = makeExponential(150.0);
            config.segmentsPerThread = 6;
            config.seed = 7;
            config.traceSink = sink;
            return kernel::runMachineKernel(config).halted;
        };
    };
    const auto sync = [](runtime::SyncScenario scenario) {
        return [scenario](trace::TraceSink *sink) {
            kernel::SyncWorkloadConfig config;
            config.scenario = scenario;
            config.traceSink = sink;
            return kernel::runSyncWorkload(config).halted;
        };
    };
    const auto twophase = [](trace::TraceSink *sink) {
        kernel::TwoPhaseConfig config;
        config.numThreads = 6;
        config.numSlots = 2;
        config.segmentsPerThread = 4;
        config.workUnits = 6;
        config.pollBudget = 2;
        config.latency = makeExponential(300.0);
        config.seed = 3;
        config.traceSink = sink;
        return kernel::runTwoPhaseKernel(config).halted;
    };
    const auto rotation = [](trace::TraceSink *sink) {
        kernel::RotationConfig config;
        config.numThreads = 6;
        config.segmentsPerThread = 4;
        config.workUnits = 10;
        config.traceSink = sink;
        return kernel::runRotationKernel(config).halted;
    };

    EXPECT_EQ(streamDigest(machine(kernel::FaultService::Latency)),
              0x4b516c6c279eb59fULL) << "machine-MT latency";
    EXPECT_EQ(streamDigest(machine(kernel::FaultService::Barrier)),
              0xc51c821d45230b15ULL) << "machine-MT barrier";
    EXPECT_EQ(streamDigest(sync(runtime::SyncScenario::UncontendedLock)),
              0x23613136321f5225ULL) << "sync uncontended";
    EXPECT_EQ(streamDigest(sync(runtime::SyncScenario::LockConvoy)),
              0x19939a22a63468a1ULL) << "sync convoy";
    EXPECT_EQ(streamDigest(sync(runtime::SyncScenario::ProducerConsumer)),
              0xcfa2466b5a2b184bULL) << "sync producer/consumer";
    EXPECT_EQ(streamDigest(sync(runtime::SyncScenario::BarrierSkew)),
              0xe870a923c2b2e560ULL) << "sync barrier";
    EXPECT_EQ(streamDigest(twophase), 0xc55ddec3eb7cdf40ULL) << "two-phase";
    EXPECT_EQ(streamDigest(rotation), 0xb54fbbf2488c9f68ULL) << "rotation";
}

} // namespace
} // namespace rr
