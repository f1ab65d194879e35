#include "multithread/simulation_spec.hh"

#include <utility>

#include "base/bitops.hh"
#include "multithread/workload.hh"
#include "runtime/context_allocator.hh"

namespace rr::mt {

void
SimulationSpec::fail(const std::string &what)
{
    throw SpecError("SimulationSpec: " + what);
}

void
SimulationSpec::checkRun(const char *family, double mean_run)
{
    // GeometricDist needs a mean >= 1; the negated form rejects NaN.
    if (!(mean_run >= 1.0 && mean_run <= kMaxCycles))
        fail(std::string(family) +
             " mean run length must be in [1, 2^32] cycles (got " +
             std::to_string(mean_run) + ")");
}

void
SimulationSpec::checkLatency(const char *family, double latency)
{
    if (!(latency <= kMaxCycles))
        fail(std::string(family) +
             " latency must be at most 2^32 cycles (got " +
             std::to_string(latency) + ")");
}

SimulationSpec &
SimulationSpec::threads(unsigned count)
{
    threads_ = count;
    return *this;
}

SimulationSpec &
SimulationSpec::workPerThread(uint64_t cycles)
{
    workPerThread_ = cycles;
    return *this;
}

SimulationSpec &
SimulationSpec::registerDemand(unsigned lo, unsigned hi)
{
    regsLo_ = lo;
    regsHi_ = hi;
    return *this;
}

SimulationSpec &
SimulationSpec::registerDemand(unsigned c)
{
    return registerDemand(c, c);
}

SimulationSpec &
SimulationSpec::priorities(unsigned levels,
                           std::shared_ptr<Distribution> dist)
{
    priorityLevels_ = levels;
    priorityDist_ = std::move(dist);
    return *this;
}

SimulationSpec &
SimulationSpec::cacheFaults(double mean_run, uint64_t latency)
{
    if (family_ != FaultFamily::None)
        fail("fault process set twice; pick one of cacheFaults(), "
             "syncFaults(), combinedFaults(), deterministicFaults()");
    checkRun("cache-fault", mean_run);
    checkLatency("cache-fault", static_cast<double>(latency));
    family_ = FaultFamily::Cache;
    faultModel_ = std::make_shared<CacheFaultModel>(mean_run, latency);
    meanRun_ = mean_run;
    return *this;
}

SimulationSpec &
SimulationSpec::syncFaults(double mean_run, double mean_latency)
{
    if (family_ != FaultFamily::None)
        fail("fault process set twice; pick one of cacheFaults(), "
             "syncFaults(), combinedFaults(), deterministicFaults()");
    checkRun("sync-fault", mean_run);
    checkLatency("sync-fault", mean_latency);
    family_ = FaultFamily::Sync;
    faultModel_ =
        std::make_shared<SyncFaultModel>(mean_run, mean_latency);
    meanRun_ = mean_run;
    return *this;
}

SimulationSpec &
SimulationSpec::combinedFaults(double cache_run, uint64_t cache_latency,
                               double sync_run, double sync_latency)
{
    if (family_ != FaultFamily::None)
        fail("fault process set twice; pick one of cacheFaults(), "
             "syncFaults(), combinedFaults(), deterministicFaults()");
    checkRun("combined cache-fault", cache_run);
    checkRun("combined sync-fault", sync_run);
    checkLatency("combined cache-fault",
                 static_cast<double>(cache_latency));
    checkLatency("combined sync-fault", sync_latency);
    family_ = FaultFamily::Combined;
    faultModel_ = std::make_shared<CombinedFaultModel>(
        cache_run, cache_latency, sync_run, sync_latency);
    meanRun_ = 1.0 / (1.0 / cache_run + 1.0 / sync_run);
    return *this;
}

SimulationSpec &
SimulationSpec::deterministicFaults(uint64_t run, uint64_t latency)
{
    if (family_ != FaultFamily::None)
        fail("fault process set twice; pick one of cacheFaults(), "
             "syncFaults(), combinedFaults(), deterministicFaults()");
    checkRun("deterministic", static_cast<double>(run));
    checkLatency("deterministic", static_cast<double>(latency));
    family_ = FaultFamily::Deterministic;
    faultModel_ =
        std::make_shared<DeterministicFaultModel>(run, latency);
    meanRun_ = static_cast<double>(run);
    return *this;
}

SimulationSpec &
SimulationSpec::faultModel(std::shared_ptr<const FaultModel> model,
                           double mean_run)
{
    if (family_ != FaultFamily::None)
        fail("fault process set twice; pick one of cacheFaults(), "
             "syncFaults(), combinedFaults(), deterministicFaults()");
    if (model == nullptr)
        fail("custom fault model is null");
    checkRun("custom fault model", mean_run);
    family_ = FaultFamily::Custom;
    faultModel_ = std::move(model);
    meanRun_ = mean_run;
    return *this;
}

SimulationSpec &
SimulationSpec::arch(ArchKind kind)
{
    arch_ = kind;
    return *this;
}

SimulationSpec &
SimulationSpec::numRegs(unsigned f)
{
    numRegs_ = f;
    return *this;
}

SimulationSpec &
SimulationSpec::operandWidth(unsigned w)
{
    operandWidth_ = w;
    return *this;
}

SimulationSpec &
SimulationSpec::minContextSize(unsigned regs)
{
    minContextSize_ = regs;
    return *this;
}

SimulationSpec &
SimulationSpec::fixedContextRegs(unsigned regs)
{
    fixedContextRegs_ = regs;
    return *this;
}

SimulationSpec &
SimulationSpec::customPolicy(
    std::function<std::unique_ptr<ContextPolicy>()> make)
{
    customPolicy_ = std::move(make);
    return *this;
}

SimulationSpec &
SimulationSpec::switchCost(uint64_t s)
{
    switchCost_ = s;
    return *this;
}

SimulationSpec &
SimulationSpec::costs(const runtime::CostModel &model)
{
    costs_ = model;
    return *this;
}

SimulationSpec &
SimulationSpec::neverUnload()
{
    unloadPolicy_ = UnloadPolicyKind::Never;
    return *this;
}

SimulationSpec &
SimulationSpec::twoPhaseUnload()
{
    unloadPolicy_ = UnloadPolicyKind::TwoPhase;
    return *this;
}

SimulationSpec &
SimulationSpec::residencyCap(unsigned cap)
{
    residencyCap_ = cap;
    return *this;
}

SimulationSpec &
SimulationSpec::seed(uint64_t value)
{
    seed_ = value;
    return *this;
}

SimulationSpec &
SimulationSpec::statsWindow(double lo, double hi)
{
    statsLoFrac_ = lo;
    statsHiFrac_ = hi;
    return *this;
}

SimulationSpec &
SimulationSpec::traceSink(trace::TraceSink *sink)
{
    traceSink_ = sink;
    return *this;
}

MtConfig
SimulationSpec::build() const
{
    // --- validate ---------------------------------------------------
    if (family_ == FaultFamily::None)
        fail("no fault process; call cacheFaults(), syncFaults(), "
             "combinedFaults(), or deterministicFaults()");
    if (threads_ == 0)
        fail("thread count must be >= 1");
    if (regsLo_ == 0)
        fail("register demand must be >= 1 register per thread");
    if (regsLo_ > regsHi_)
        fail("register demand range is inverted (" +
             std::to_string(regsLo_) + ".." + std::to_string(regsHi_) +
             ")");
    if (operandWidth_ == 0 || operandWidth_ > 16)
        fail("operand width w must be in 1..16 (got " +
             std::to_string(operandWidth_) + ")");

    const unsigned max_context = 1u << operandWidth_;
    const bool custom = static_cast<bool>(customPolicy_);
    if (!custom) {
        switch (arch_) {
          case ArchKind::Flexible: {
            if (regsHi_ > max_context)
                fail("register demand " + std::to_string(regsLo_) +
                     ".." + std::to_string(regsHi_) +
                     " exceeds the largest context (2^" +
                     std::to_string(operandWidth_) + " = " +
                     std::to_string(max_context) + " registers)");
            // The chunked allocator behind the flexible policy only
            // deals in power-of-two contexts over a power-of-two
            // file; reject here rather than panic at run time.
            if (minContextSize_ < runtime::ContextAllocator::chunkRegs ||
                minContextSize_ > max_context ||
                !isPowerOfTwo(minContextSize_))
                fail("minimum context size " +
                     std::to_string(minContextSize_) +
                     " must be a power of two in " +
                     std::to_string(
                         runtime::ContextAllocator::chunkRegs) +
                     "..2^w = " + std::to_string(max_context));
            if (numRegs_ < 16 || !isPowerOfTwo(numRegs_))
                fail("register file size " + std::to_string(numRegs_) +
                     " must be a power of two >= 16 for flexible "
                     "contexts");
            // The largest context any thread will actually need: the
            // power-of-two covering the top of the demand range.
            unsigned needed = minContextSize_;
            while (needed < regsHi_)
                needed <<= 1;
            if (numRegs_ < needed)
                fail("register file of " + std::to_string(numRegs_) +
                     " cannot hold a context of " +
                     std::to_string(needed) +
                     " registers (demand up to " +
                     std::to_string(regsHi_) + " rounds up to it)");
            break;
          }
          case ArchKind::FixedHw:
            if (fixedContextRegs_ == 0)
                fail("fixed hardware contexts need >= 1 register");
            if (regsHi_ > fixedContextRegs_)
                fail("a thread may demand " + std::to_string(regsHi_) +
                     " registers but fixed hardware contexts hold " +
                     std::to_string(fixedContextRegs_));
            if (numRegs_ < fixedContextRegs_)
                fail("register file of " + std::to_string(numRegs_) +
                     " cannot hold one fixed context of " +
                     std::to_string(fixedContextRegs_));
            if (numRegs_ % fixedContextRegs_ != 0)
                fail("register file of " + std::to_string(numRegs_) +
                     " is not a whole number of fixed contexts of " +
                     std::to_string(fixedContextRegs_));
            break;
          case ArchKind::AddReloc:
            if (regsHi_ > numRegs_)
                fail("a thread may demand " + std::to_string(regsHi_) +
                     " registers but the register file holds " +
                     std::to_string(numRegs_));
            break;
        }
    }
    if (!(statsLoFrac_ >= 0.0 && statsLoFrac_ < statsHiFrac_ &&
          statsHiFrac_ <= 1.0))
        fail("stats window [" + std::to_string(statsLoFrac_) + ", " +
             std::to_string(statsHiFrac_) +
             "] must satisfy 0 <= lo < hi <= 1");

    // --- assemble ---------------------------------------------------
    // Conventional per-family settings (Figures 5 and 6): the cache
    // experiments use S = 6 and never unload; the synchronization and
    // combined experiments use S = 8 with two-phase unloading.
    uint64_t s = 6;
    UnloadPolicyKind policy = UnloadPolicyKind::Never;
    if (family_ == FaultFamily::Sync ||
        family_ == FaultFamily::Combined) {
        s = 8;
        policy = UnloadPolicyKind::TwoPhase;
    }
    if (switchCost_)
        s = *switchCost_;
    if (unloadPolicy_)
        policy = *unloadPolicy_;

    MtConfig config;
    config.workload.numThreads = threads_;
    config.workload.workDist = makeConstant(
        workPerThread_ ? *workPerThread_
                       : defaultWorkPerThread(meanRun_));
    config.workload.regsDist =
        regsLo_ == regsHi_
            ? makeConstant(regsLo_)
            : makeUniformInt(regsLo_, regsHi_);
    config.workload.priorityDist = priorityDist_;
    config.faultModel = faultModel_;
    config.costs = costs_ ? *costs_
                          : (arch_ == ArchKind::FixedHw
                                 ? runtime::CostModel::paperFixed(s)
                                 : runtime::CostModel::paperFlexible(s));
    config.arch = arch_;
    config.customPolicy = customPolicy_;
    config.numRegs = numRegs_;
    config.operandWidth = operandWidth_;
    config.minContextSize = minContextSize_;
    config.fixedContextRegs = fixedContextRegs_;
    config.unloadPolicy = policy;
    config.residencyCap = residencyCap_;
    config.seed = seed_;
    config.priorityLevels = priorityLevels_;
    config.statsLoFrac = statsLoFrac_;
    config.statsHiFrac = statsHiFrac_;
    config.traceSink = traceSink_;
    return config;
}

MtStats
SimulationSpec::run() const
{
    return simulate(build());
}

} // namespace rr::mt
