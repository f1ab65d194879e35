/**
 * @file
 * The `phase` fuzz kind: MtProcessor's sequence-indexed fault draws
 * must carry threads from phase 0 into a much slower phase 1.
 */

#include "fuzz/kind.hh"

#include "exp/report.hh"
#include "multithread/fault_model.hh"
#include "multithread/simulation_spec.hh"

namespace rr::fuzz {

namespace {

PhaseSample
genPhase(Rng &rng)
{
    PhaseSample s;
    s.threads = static_cast<unsigned>(rng.nextRange(4, 24));
    s.phase0Faults = rng.nextRange(1, 3);
    s.meanRun = static_cast<double>(rng.nextRange(16, 64));
    s.latency0 = rng.nextRange(10, 50);
    s.latency1 = rng.nextRange(1000, 5000);
    // Enough work that every thread leaves phase 0 with very high
    // probability (expected faults per thread ~ 2 * (phase0 + 6)).
    s.workPerThread = static_cast<uint64_t>(
        s.meanRun * static_cast<double>(s.phase0Faults + 6) * 2.0);
    s.numRegs = 128;
    s.seed = rng.next();
    return s;
}

Problems
checkPhase(const PhaseSample &s)
{
    Problems problems;
    const auto run = [&](uint64_t phase1_latency) {
        std::vector<mt::PhasedFaultModel::Phase> phases;
        phases.push_back({s.phase0Faults, s.meanRun,
                          static_cast<double>(s.latency0), false,
                          mt::FaultClass::Cache});
        phases.push_back({1ull << 60, s.meanRun,
                          static_cast<double>(phase1_latency), false,
                          mt::FaultClass::Cache});
        return mt::SimulationSpec()
            .faultModel(std::make_shared<mt::PhasedFaultModel>(
                            std::move(phases)),
                        s.meanRun)
            .arch(mt::ArchKind::AddReloc)
            .numRegs(s.numRegs)
            .registerDemand(12)
            .threads(s.threads)
            .workPerThread(s.workPerThread)
            .seed(s.seed)
            .run();
    };
    const mt::MtStats slow = run(s.latency1);
    const mt::MtStats fast = run(s.latency0);

    // Identical phase-0 behaviour and identical rng consumption
    // (constant latencies draw nothing), so the useful work must
    // match...
    if (slow.usefulCycles != fast.usefulCycles) {
        problems.push_back(exp::strf(
            "phase: useful cycles diverged (%llu vs %llu) though "
            "only the phase-1 latency differs",
            static_cast<unsigned long long>(slow.usefulCycles),
            static_cast<unsigned long long>(fast.usefulCycles)));
    }
    // ... while the 100x phase-1 latency must show up in the clock.
    // If it does not, fault draws ignore the per-thread sequence
    // index and threads are pinned to phase 0.
    if (slow.totalCycles == fast.totalCycles) {
        problems.push_back(exp::strf(
            "phase: total cycles identical (%llu) with phase-1 "
            "latency %llu vs %llu — sequence-indexed fault draws "
            "are not reaching phase 1",
            static_cast<unsigned long long>(slow.totalCycles),
            static_cast<unsigned long long>(s.latency1),
            static_cast<unsigned long long>(s.latency0)));
    }
    return problems;
}

void
shrinkPhase(PhaseSample &s, Budget &budget)
{
    shrinkScalar(s, &PhaseSample::threads, {1u, 2u, 4u}, budget);
    shrinkScalar(s, &PhaseSample::phase0Faults,
                 {uint64_t{1}, uint64_t{2}}, budget);
    shrinkScalar(s, &PhaseSample::workPerThread,
                 {uint64_t{64}, uint64_t{256}, uint64_t{1024}},
                 budget);
    shrinkScalar(s, &PhaseSample::meanRun, {8.0, 16.0}, budget);
    shrinkScalar(s, &PhaseSample::latency1,
                 {uint64_t{100}, uint64_t{1000}}, budget);
    shrinkScalar(s, &PhaseSample::latency0, {uint64_t{10}}, budget);
    shrinkScalar(s, &PhaseSample::seed, {uint64_t{1}}, budget);
}

constexpr Field<PhaseSample> kFields[] = {
    {"threads", &PhaseSample::threads, 1, 1024},
    {"workPerThread", &PhaseSample::workPerThread, 1, 100000000},
    {"phase0Faults", &PhaseSample::phase0Faults, 1, 1000000},
    {"meanRun", &PhaseSample::meanRun, 1.0, 1e6},
    {"latency0", &PhaseSample::latency0, 0, 10000000},
    {"latency1", &PhaseSample::latency1, 0, 10000000},
    {"numRegs", &PhaseSample::numRegs, 12, 65536},
    {"seed", &PhaseSample::seed},
};

constexpr Codec<PhaseSample> kCodec{kFields};

} // namespace

constinit const KindOps phaseKind =
    kindOps<genPhase, checkPhase, shrinkPhase, kCodec>("phase");

} // namespace rr::fuzz
