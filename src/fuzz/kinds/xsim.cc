/**
 * @file
 * The `xsim` fuzz kind: the cycle-level machine-MT kernel vs the rr::mt
 * event model, both driven by one scripted fault schedule.
 */

#include "fuzz/kind.hh"

#include "base/distributions.hh"
#include "exp/report.hh"
#include "kernel/machine_mt_kernel.hh"
#include "multithread/fault_model.hh"
#include "multithread/mt_processor.hh"
#include "multithread/workload.hh"
#include "trace/audit.hh"

namespace rr::fuzz {

namespace {

XsimSample
genXsim(Rng &rng)
{
    XsimSample s;
    s.threads = static_cast<unsigned>(rng.nextRange(1, 6));
    s.regsUsed = static_cast<unsigned>(rng.nextRange(12, 16));
    s.segments = static_cast<unsigned>(rng.nextRange(4, 24));
    const uint64_t n = rng.nextRange(1, 6);
    for (uint64_t i = 0; i < n; ++i)
        s.script.push_back(rng.nextRange(10, 120));
    s.latency = rng.nextRange(50, 800);
    s.seed = rng.next();
    s.tolerance = 0.15;
    return s;
}

/** Cycles deterministically through a fixed script of values. */
class ScriptedDist : public Distribution
{
  public:
    explicit ScriptedDist(std::vector<uint64_t> values)
        : values_(std::move(values))
    {
    }

    uint64_t
    sample(Rng &) const override
    {
        const uint64_t v = values_[next_ % values_.size()];
        ++next_;
        return v;
    }

    double
    mean() const override
    {
        double sum = 0;
        for (const uint64_t v : values_)
            sum += static_cast<double>(v);
        return sum / static_cast<double>(values_.size());
    }

    std::string describe() const override { return "scripted"; }

  private:
    std::vector<uint64_t> values_;
    mutable uint64_t next_ = 0;
};

/** The same schedule as a sequence-indexed fault model. */
class ScriptedFaultModel : public mt::FaultModel
{
  public:
    ScriptedFaultModel(std::vector<uint64_t> units, uint64_t latency)
        : units_(std::move(units)), latency_(latency)
    {
    }

    mt::FaultSample
    next(Rng &rng, uint64_t sequence) const override
    {
        (void)rng;
        return {2 * units_[sequence % units_.size()], latency_,
                mt::FaultClass::Cache};
    }

    double
    meanRunLength() const override
    {
        double sum = 0;
        for (const uint64_t u : units_)
            sum += static_cast<double>(2 * u);
        return sum / static_cast<double>(units_.size());
    }

    double
    meanLatency() const override
    {
        return static_cast<double>(latency_);
    }

    std::string describe() const override { return "scripted"; }

  private:
    std::vector<uint64_t> units_;
    uint64_t latency_;
};

Problems
checkXsim(const XsimSample &s)
{
    Problems problems;

    // --- machine side: real Figure 3 code, scripted segments ------
    // Threads consume segment draws in creation order (tid-major),
    // so a script cycled with period segmentsPerThread hands every
    // thread the same per-segment schedule.
    std::vector<uint64_t> perThread(s.segments);
    for (unsigned i = 0; i < s.segments; ++i)
        perThread[i] = s.script[i % s.script.size()];

    kernel::KernelConfig kconfig;
    kconfig.numThreads = s.threads;
    kconfig.regsUsed = s.regsUsed;
    kconfig.segmentUnits = std::make_shared<ScriptedDist>(perThread);
    kconfig.latency = makeConstant(s.latency);
    kconfig.segmentsPerThread = s.segments;
    kconfig.seed = s.seed;
    const kernel::KernelResult machine =
        kernel::runMachineKernel(kconfig);
    if (!machine.halted) {
        problems.push_back("xsim: machine kernel did not halt: " +
                           machine.stop.str());
        return problems;
    }

    // Exact machine-side accounting: every scheduled unit ran, and
    // every segment raised exactly one fault.
    uint64_t unitsPerThread = 0;
    for (const uint64_t units : perThread)
        unitsPerThread += units;
    const uint64_t expectUnits =
        static_cast<uint64_t>(s.threads) * unitsPerThread;
    if (machine.workUnits != expectUnits)
        problems.push_back(exp::strf(
            "xsim: machine executed %llu work units, schedule has "
            "%llu",
            static_cast<unsigned long long>(machine.workUnits),
            static_cast<unsigned long long>(expectUnits)));
    const uint64_t expectFaults =
        static_cast<uint64_t>(s.threads) * s.segments;
    if (machine.faults != expectFaults)
        problems.push_back(exp::strf(
            "xsim: machine raised %llu faults, expected one per "
            "segment = %llu",
            static_cast<unsigned long long>(machine.faults),
            static_cast<unsigned long long>(expectFaults)));

    // --- event side: same schedule, matched Figure 4 charges ------
    const uint64_t work = 2 * unitsPerThread;

    mt::MtConfig sim;
    sim.workload = mt::homogeneousWorkload(s.threads, work, 12);
    sim.faultModel = std::make_shared<ScriptedFaultModel>(
        perThread, s.latency);
    sim.costs = runtime::CostModel::paperFixed(11);
    sim.costs.queueOp = 0;
    sim.costs.blockOverhead = 0;
    sim.numRegs = 128;
    sim.unloadPolicy = mt::UnloadPolicyKind::Never;
    sim.seed = s.seed;

    trace::TraceAuditor auditor(sim.costs);
    sim.traceSink = &auditor;
    const mt::MtStats event = mt::simulate(std::move(sim));

    for (const std::string &p :
         auditor.reconcile(mt::auditTotals(event)))
        if (problems.size() < 6)
            problems.push_back("xsim/audit: " + p);

    if (event.usefulCycles !=
        static_cast<uint64_t>(s.threads) * work)
        problems.push_back(exp::strf(
            "xsim: event model ran %llu useful cycles, workload has "
            "%llu",
            static_cast<unsigned long long>(event.usefulCycles),
            static_cast<unsigned long long>(
                static_cast<uint64_t>(s.threads) * work)));
    if (event.threadsFinished != s.threads)
        problems.push_back(exp::strf(
            "xsim: event model finished %u of %u threads",
            event.threadsFinished, s.threads));

    if (event.efficiencyTotal <= 0.0) {
        problems.push_back(exp::strf(
            "xsim: event model efficiency is %f",
            event.efficiencyTotal));
        return problems;
    }
    // Whole-run efficiency, not the central window: with a matched
    // deterministic schedule the totals line up by construction,
    // while the 20-80% window clips whole run/stall bursts and the
    // machine's poll-granularity drift shifts its bursts relative to
    // the event model's — with few, uneven bursts the two windows
    // can clip different ones and the rates diverge arbitrarily.
    // The slack absorbs what the machine genuinely pays on top of
    // the matched charges (kernel preamble, fault completions
    // rounded up to the resume-poll period) which shrinks as the
    // run grows.
    const double slack = s.tolerance + 1.5 / s.segments;
    const double ratio =
        machine.efficiencyTotal / event.efficiencyTotal;
    if (ratio < 1.0 - slack || ratio > 1.0 + slack) {
        problems.push_back(exp::strf(
            "xsim: machine/event efficiency ratio %.4f outside "
            "±%.0f%% (machine=%.4f event=%.4f, N=%u segments=%u "
            "latency=%llu)",
            ratio, slack * 100.0, machine.efficiencyTotal,
            event.efficiencyTotal, s.threads, s.segments,
            static_cast<unsigned long long>(s.latency)));
    }
    return problems;
}

void
shrinkXsim(XsimSample &s, Budget &budget)
{
    if (s.script.size() > 1) {
        shrinkList(s.script, budget,
                   [&](const std::vector<uint64_t> &script) {
                       XsimSample candidate = s;
                       candidate.script = script;
                       if (candidate.script.empty())
                           candidate.script.push_back(1);
                       return AnySample{candidate};
                   });
        if (s.script.empty())
            s.script.push_back(1);
    }
    shrinkScalar(s, &XsimSample::threads, {1u, 2u}, budget);
    shrinkScalar(s, &XsimSample::segments, {4u, 8u}, budget);
    shrinkScalar(s, &XsimSample::latency,
                 {uint64_t{50}, uint64_t{200}}, budget);
    shrinkScalar(s, &XsimSample::seed, {uint64_t{1}}, budget);
}

constexpr Field<XsimSample> kFields[] = {
    {"threads", &XsimSample::threads, 1, 8},
    {"regsUsed", &XsimSample::regsUsed, 12, 16},
    {"latency", &XsimSample::latency, 1, 10000000},
    {"segments", &XsimSample::segments, 1, 512},
    {"seed", &XsimSample::seed},
    {"tolerance", &XsimSample::tolerance, 0.0, 10.0},
};

void
writeScript(const XsimSample &s, std::string &out)
{
    out += "script";
    for (const uint64_t v : s.script)
        out += ' ' + std::to_string(v);
    out += '\n';
}

bool
readScript(const Line &line, XsimSample &s, std::string &)
{
    if (line.key != "script")
        return false;
    s.script.clear();
    for (const std::string &w : splitWords(line.rest)) {
        uint64_t v = 0;
        if (!parseU64(w, UINT64_MAX, v))
            return false;
        s.script.push_back(v);
    }
    return !s.script.empty();
}

bool
validateXsim(const XsimSample &s, std::string &error)
{
    if (!inRange(s.script.size(), 1, 1024, "script length", error))
        return false;
    for (const uint64_t units : s.script) {
        if (!inRange(units, 1, 1000000, "script entry", error))
            return false;
    }
    // All contexts (power-of-two covering regsUsed, at least 16 for
    // the r0..r11 body plus headroom) must fit the 128-register file
    // the oracle configures, or the kernel refuses to start.
    unsigned context = 16;
    while (context < s.regsUsed)
        context <<= 1;
    if (static_cast<uint64_t>(s.threads) * context > 128) {
        error = "threads do not fit the register file";
        return false;
    }
    return true;
}

constexpr Codec<XsimSample> kCodec{
    kFields, writeScript, readScript, validateXsim};

} // namespace

constinit const KindOps xsimKind =
    kindOps<genXsim, checkXsim, shrinkXsim, kCodec>("xsim");

} // namespace rr::fuzz
