/**
 * @file
 * The `mt` fuzz kind: SimulationSpec runs audited by TraceAuditor and
 * replayed for determinism. The generator, spec builder and stats
 * comparison are shared with the ckpt kind, which embeds an mt spec.
 */

#include "fuzz/kind.hh"

#include <cstring>

#include "base/distributions.hh"
#include "exp/report.hh"
#include "multithread/fault_model.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"
#include "trace/audit.hh"

namespace rr::fuzz {

MtSample
genMt(Rng &rng)
{
    MtSample s;
    s.family = static_cast<uint8_t>(rng.nextRange(0, 4));
    s.arch = static_cast<uint8_t>(rng.nextRange(0, 2));
    s.operandWidth = static_cast<unsigned>(rng.nextRange(3, 6));
    const unsigned maxContext = 1u << s.operandWidth;

    switch (s.arch) {
      case 0: { // Flexible
        s.minContextSize = 1u << rng.nextRange(0, 2);
        s.regsHi = static_cast<unsigned>(
            rng.nextRange(1, std::min(maxContext, 24u)));
        s.regsLo = static_cast<unsigned>(rng.nextRange(1, s.regsHi));
        unsigned needed = s.minContextSize;
        while (needed < s.regsHi)
            needed <<= 1;
        s.numRegs = std::max(pick<unsigned>(rng, {32, 64, 128}),
                             needed);
        break;
      }
      case 1: { // FixedHw
        s.fixedContextRegs = pick<unsigned>(rng, {16, 32});
        s.regsHi = static_cast<unsigned>(
            rng.nextRange(1, s.fixedContextRegs));
        s.regsLo = static_cast<unsigned>(rng.nextRange(1, s.regsHi));
        s.numRegs = std::max(pick<unsigned>(rng, {64, 128}),
                             s.fixedContextRegs);
        break;
      }
      default: { // AddReloc
        s.numRegs = pick<unsigned>(rng, {64, 128});
        s.regsHi = static_cast<unsigned>(rng.nextRange(1, 24));
        s.regsLo = static_cast<unsigned>(rng.nextRange(1, s.regsHi));
        break;
      }
    }

    s.threads = pick<unsigned>(rng, {1, 2, 4, 16, 48});
    s.work = chance(rng, 50) ? rng.nextRange(200, 2000) : 0;

    s.param0 = static_cast<double>(rng.nextRange(8, 64));
    s.param1 = static_cast<double>(rng.nextRange(20, 200));
    s.param2 = static_cast<double>(rng.nextRange(8, 64));
    s.param3 = static_cast<double>(rng.nextRange(50, 400));
    s.phase0Faults = rng.nextRange(1, 6);
    s.phase1Faults = rng.nextRange(1, 6);

    s.unload = static_cast<uint8_t>(chance(rng, 40) ? 1 : 0);
    s.residencyCap = chance(rng, 30)
                         ? static_cast<unsigned>(rng.nextRange(1, 4))
                         : 0;
    s.priorityLevels = static_cast<unsigned>(rng.nextRange(1, 3));
    s.seed = rng.next();
    return s;
}

mt::SimulationSpec
specOf(const MtSample &s)
{
    mt::SimulationSpec spec;
    spec.threads(s.threads)
        .registerDemand(s.regsLo, s.regsHi)
        .arch(static_cast<mt::ArchKind>(s.arch))
        .numRegs(s.numRegs)
        .operandWidth(s.operandWidth)
        .minContextSize(s.minContextSize)
        .fixedContextRegs(s.fixedContextRegs)
        .seed(s.seed);
    switch (s.family) {
      case 0:
        spec.cacheFaults(s.param0,
                         static_cast<uint64_t>(s.param1));
        break;
      case 1:
        spec.syncFaults(s.param0, s.param1);
        break;
      case 2:
        spec.combinedFaults(s.param0,
                            static_cast<uint64_t>(s.param1),
                            s.param2, s.param3);
        break;
      case 3:
        spec.deterministicFaults(
            static_cast<uint64_t>(s.param0),
            static_cast<uint64_t>(s.param1));
        break;
      default: {
        std::vector<mt::PhasedFaultModel::Phase> phases;
        phases.push_back({s.phase0Faults, s.param0, s.param1, false,
                          mt::FaultClass::Cache});
        phases.push_back({s.phase1Faults, s.param2, s.param3, true,
                          mt::FaultClass::Synchronization});
        auto model = std::make_shared<mt::PhasedFaultModel>(
            std::move(phases));
        const double mean = model->meanRunLength();
        spec.faultModel(std::move(model), mean);
        break;
      }
    }
    if (s.work > 0)
        spec.workPerThread(s.work);
    if (s.unload == 0)
        spec.neverUnload();
    else
        spec.twoPhaseUnload();
    if (s.residencyCap > 0)
        spec.residencyCap(s.residencyCap);
    if (s.priorityLevels > 1)
        spec.priorities(s.priorityLevels,
                        makeUniformInt(0, s.priorityLevels - 1));
    return spec;
}

void
compareStats(const mt::MtStats &a, const mt::MtStats &b,
             Problems &problems)
{
    const auto diff = [&](const char *what, uint64_t x, uint64_t y) {
        if (x != y)
            problems.push_back(exp::strf(
                "mt: re-run changed %s: %llu vs %llu (simulation "
                "is not deterministic)",
                what, static_cast<unsigned long long>(x),
                static_cast<unsigned long long>(y)));
    };
    diff("totalCycles", a.totalCycles, b.totalCycles);
    diff("usefulCycles", a.usefulCycles, b.usefulCycles);
    diff("idleCycles", a.idleCycles, b.idleCycles);
    diff("switchCycles", a.switchCycles, b.switchCycles);
    diff("allocCycles", a.allocCycles, b.allocCycles);
    diff("deallocCycles", a.deallocCycles, b.deallocCycles);
    diff("loadCycles", a.loadCycles, b.loadCycles);
    diff("unloadCycles", a.unloadCycles, b.unloadCycles);
    diff("queueCycles", a.queueCycles, b.queueCycles);
    diff("faults", a.faults, b.faults);
    diff("loads", a.loads, b.loads);
    diff("unloads", a.unloads, b.unloads);
    diff("allocSuccesses", a.allocSuccesses, b.allocSuccesses);
    diff("allocFailures", a.allocFailures, b.allocFailures);
    diff("threadsFinished", a.threadsFinished, b.threadsFinished);
    if (std::memcmp(&a.efficiencyCentral, &b.efficiencyCentral,
                    sizeof(double)) != 0 ||
        std::memcmp(&a.efficiencyTotal, &b.efficiencyTotal,
                    sizeof(double)) != 0)
        problems.push_back("mt: re-run changed an efficiency value");
}

namespace {

Problems
checkMt(const MtSample &s)
{
    Problems problems;
    mt::MtConfig config;
    try {
        config = specOf(s).build();
    } catch (const mt::SpecError &) {
        return problems; // vacuous: generator hit a validation edge
    }

    trace::TraceAuditor auditor(config.costs);
    config.traceSink = &auditor;
    const mt::MtStats stats = mt::simulate(config);

    for (const std::string &p :
         auditor.reconcile(mt::auditTotals(stats)))
        if (problems.size() < 6)
            problems.push_back("mt/audit: " + p);

    if (stats.accountedCycles() != stats.totalCycles) {
        problems.push_back(exp::strf(
            "mt: cycle buckets sum to %llu but totalCycles is %llu",
            static_cast<unsigned long long>(stats.accountedCycles()),
            static_cast<unsigned long long>(stats.totalCycles)));
    }
    if (stats.threadsFinished != s.threads) {
        problems.push_back(exp::strf(
            "mt: only %u of %u threads finished",
            stats.threadsFinished, s.threads));
    }
    const auto inUnit = [](double v) {
        return v >= 0.0 && v <= 1.0 + 1e-9;
    };
    if (!inUnit(stats.efficiencyCentral) ||
        !inUnit(stats.efficiencyTotal)) {
        problems.push_back(exp::strf(
            "mt: efficiency out of [0,1]: central=%f total=%f",
            stats.efficiencyCentral, stats.efficiencyTotal));
    }

    // Determinism: an identical rebuild must reproduce every
    // statistic bit for bit (no sink the second time — tracing must
    // not perturb results either).
    const mt::MtStats again = mt::simulate(specOf(s).build());
    compareStats(stats, again, problems);
    return problems;
}

void
shrinkMt(MtSample &s, Budget &budget)
{
    shrinkScalar(s, &MtSample::threads, {1u, 2u, 4u, 16u}, budget);
    shrinkScalar(s, &MtSample::work,
                 {uint64_t{100}, uint64_t{400}}, budget);
    shrinkScalar(s, &MtSample::priorityLevels, {1u}, budget);
    shrinkScalar(s, &MtSample::residencyCap, {0u}, budget);
    shrinkScalar(s, &MtSample::unload, {uint8_t{0}}, budget);
    shrinkScalar(s, &MtSample::regsLo, {6u}, budget);
    shrinkScalar(s, &MtSample::regsHi, {6u, 24u}, budget);
    shrinkScalar(s, &MtSample::param0, {8.0, 32.0}, budget);
    shrinkScalar(s, &MtSample::param1, {10.0, 100.0}, budget);
    shrinkScalar(s, &MtSample::seed, {uint64_t{1}}, budget);
}

constexpr Field<MtSample> kFields[] = {
    {"threads", &MtSample::threads, 1, 4096},
    {"regsLo", &MtSample::regsLo, 0, 65536},
    {"regsHi", &MtSample::regsHi, 0, 65536},
    {"work", &MtSample::work, 0, 100000000},
    {"family", &MtSample::family, 0, 4},
    {"param0", &MtSample::param0, -1e12, 1e12},
    {"param1", &MtSample::param1, -1e12, 1e12},
    {"param2", &MtSample::param2, -1e12, 1e12},
    {"param3", &MtSample::param3, -1e12, 1e12},
    {"phase0Faults", &MtSample::phase0Faults, 0, 1000000},
    {"phase1Faults", &MtSample::phase1Faults, 0, 1000000},
    {"arch", &MtSample::arch, 0, 2},
    {"numRegs", &MtSample::numRegs, 1, 65536},
    {"operandWidth", &MtSample::operandWidth, 1, 16},
    {"minContextSize", &MtSample::minContextSize, 0, 65536},
    {"fixedContextRegs", &MtSample::fixedContextRegs, 0, 65536},
    {"unload", &MtSample::unload, 0, 1},
    {"residencyCap", &MtSample::residencyCap, 0, 1000000},
    {"priorityLevels", &MtSample::priorityLevels, 1, 64},
    {"seed", &MtSample::seed},
};

constexpr Codec<MtSample> kCodec{kFields};

} // namespace

std::span<const Field<MtSample>>
mtFields()
{
    return kFields;
}

constinit const KindOps mtKind =
    kindOps<genMt, checkMt, shrinkMt, kCodec>("mt");

} // namespace rr::fuzz
