/**
 * @file
 * Figure: flexible vs fixed contexts under *real* contention.
 *
 * Every other figure drives the machine with distribution-drawn run
 * segments. Here the threads execute actual synchronization code —
 * test-and-set spinlocks, counting semaphores, a ring buffer, a
 * sense-reversing barrier (runtime/sync_runtime.hh) — so all wait
 * times are endogenous. The comparison holds the register file fixed
 * at 128 entries and conserves total work: flexible contexts fit
 * eight 16-register threads, a conventional fixed-context machine
 * fits four 32-register threads running twice the per-thread work.
 * More resident threads means more lock holders' fault latencies
 * overlapped — the paper's Figure 5/6 argument, measured on running
 * programs instead of geometric draws.
 *
 * Everything is deterministic (constant fault latency, no RNG), so
 * the committed baseline compares exactly and the report is
 * byte-identical across --jobs.
 */

#include "base/table.hh"
#include "exp/registry.hh"
#include "kernel/sync_workload.hh"
#include "trace/sink.hh"

namespace {

struct Arm
{
    const char *arch;
    unsigned threads;
    unsigned contextSize; ///< 0 = sized from regsUsed (flexible)
    unsigned workScale;   ///< per-thread work multiplier
};

constexpr Arm kFlexible{"flexible", 8, 0, 1};
constexpr Arm kFixed{"fixed-32", 4, 32, 2};

} // namespace

RR_BENCH_FIGURE(fig_contention,
                "Real contention: flexible vs fixed contexts on "
                "synchronization workloads")
{
    using namespace rr;
    using kernel::SyncWorkloadConfig;
    using kernel::SyncWorkloadResult;
    using runtime::SyncScenario;

    const bool fast = ctx.run().fast;
    const unsigned rounds = fast ? 3 : 12;
    const unsigned items = fast ? 4 : 16;

    ctx.text("(128-register file, equal total work per scenario: "
             "flexible = 8 threads x 16-register\n contexts, fixed = "
             "4 threads x 32-register contexts at twice the "
             "per-thread work;\n constant 500-cycle fault service, no "
             "RNG anywhere)");

    Table table({"scenario", "arch", "N", "cycles", "work", "faults",
                 "waits", "efficiency"});
    Table summary({"scenario", "flexible", "fixed-32",
                   "fixed/flexible"});
    uint64_t audited = 0;

    for (const auto scenario :
         {SyncScenario::UncontendedLock, SyncScenario::LockConvoy,
          SyncScenario::ProducerConsumer, SyncScenario::BarrierSkew}) {
        uint64_t cycles_flex = 0;
        uint64_t cycles_fixed = 0;
        for (const Arm &arm : {kFlexible, kFixed}) {
            SyncWorkloadConfig config;
            config.scenario = scenario;
            config.numThreads = arm.threads;
            config.forcedContextSize = arm.contextSize;
            config.rounds = rounds * arm.workScale;
            config.itemsPerProducer = items * arm.workScale;
            // Service latency four resident threads cannot hide (a
            // peer contributes ~80 useful cycles per round), but
            // eight nearly can — the regime Figure 5 studies.
            config.faultLatency = 500;

            // In-figure trace audit: the event stream must reconcile
            // with the architectural counters.
            trace::VectorSink sink;
            config.traceSink = &sink;
            const SyncWorkloadResult result =
                kernel::runSyncWorkload(config);
            rr_assert(result.halted, "scenario did not halt: ",
                      runtime::syncScenarioName(scenario), ": ",
                      result.stop.str());

            uint64_t issues = 0, completes = 0, polls = 0;
            for (const auto &event : sink.events()) {
                if (event.kind == trace::EventKind::FaultIssue)
                    ++issues;
                else if (event.kind == trace::EventKind::FaultComplete)
                    ++completes;
                else if (event.kind == trace::EventKind::SchedulerPoll)
                    ++polls;
            }
            rr_assert(issues == result.faults &&
                          completes == result.faults &&
                          polls == result.failedPolls,
                      "trace does not reconcile with counters");
            ++audited;

            const uint64_t waits = result.lockSpins +
                                   result.semWaits +
                                   result.barrierWaits +
                                   result.failedPolls;
            table.addRow(
                {runtime::syncScenarioName(scenario), arm.arch,
                 Table::num(uint64_t{arm.threads}),
                 Table::num(result.totalCycles),
                 Table::num(result.workUnits),
                 Table::num(result.faults), Table::num(waits),
                 Table::num(result.efficiencyTotal, 3)});
            (arm.contextSize == 0 ? cycles_flex : cycles_fixed) =
                result.totalCycles;
        }
        summary.addRow(
            {runtime::syncScenarioName(scenario),
             Table::num(cycles_flex), Table::num(cycles_fixed),
             Table::num(static_cast<double>(cycles_fixed) /
                            static_cast<double>(cycles_flex),
                        3)});
    }

    ctx.table("arms", "Per-arm execution", std::move(table));
    ctx.table("speedup",
              "Total cycles to finish the same work", std::move(summary));
    ctx.text(exp::strf("trace audit: %llu runs reconciled "
                       "(issue/complete/poll events match counters)",
                       static_cast<unsigned long long>(audited)));
    ctx.text("Expected shape: where waits overlap with independent "
             "work — uncontended\nlocks, the semaphore-throttled "
             "pipeline — the doubled residency of flexible\ncontexts "
             "hides service latency four threads cannot: "
             "fixed/flexible well\nabove 1. The lock convoy "
             "serializes fault latency *inside* one critical\n"
             "section, so no residency helps (~parity — the classic "
             "convoy pathology),\nand barrier phases are bounded by "
             "the slowest thread on any machine.");
}
