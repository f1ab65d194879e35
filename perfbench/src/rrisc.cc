/**
 * @file
 * rrisc_exec: real RRISC code on the cycle-level machine under the
 * default dispatch.
 *
 *  (a) every examples/asm and examples/os program, run to HALT from
 *      `entry` and from every `.thread` label, with no hooks — hot
 *      loops where superblocks, fusion and chaining pay off. Each is
 *      checked against the reference (uncached step()) path: same
 *      retired instructions per repetition and the same final
 *      registers and memory.
 *  (b) the four SyncWorkloadKernel scenarios and a MachineMtKernel,
 *      which install a per-instruction trace hook — short, lock-heavy
 *      blocks with chaining off. Checked against their architectural
 *      invariants (lock acquisitions, items produced == consumed,
 *      barrier releases == phases, conserved work).
 *
 * One round = two passes of one batch (a fixed instruction budget)
 * per program entry, plus one run of the kernel suite. Main
 * operations are passes, auxiliary ones kernel-suite runs; work is
 * retired instructions of part (a).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "base/distributions.hh"
#include "kernel/machine_mt_kernel.hh"
#include "kernel/sync_workload.hh"
#include "machine/cpu.hh"
#include "workloads.hh"

namespace perf {

namespace {

using rr::assembler::Program;
using rr::kernel::SyncWorkloadConfig;
using rr::runtime::SyncScenario;

/** Step cap per repetition; the corpus needs far fewer. */
constexpr uint64_t kStepCap = 1u << 18;
constexpr std::size_t kMemWords = 1u << 10;

/** Entries retiring fewer instructions time run() overhead, not code. */
constexpr uint64_t kMinInstr = 8;

/** Instruction budget of one entry's batch. */
constexpr uint64_t kBatchInstr = 100'000;

/** Passes over every entry per round (main operations). */
constexpr unsigned kPassesPerRound = 2;

struct Source
{
    std::string name; ///< "asm/fibonacci"
    std::string text;
};

struct Entry
{
    std::string name; ///< "asm/fibonacci:entry"
    std::size_t program = 0;
    uint32_t pc = 0;
    uint64_t instret = 0; ///< per repetition, from the reference path
    uint64_t stateHash = 0;
    bool clean = false; ///< leaves memory as loaded: no reload per rep
    unsigned reps = 1;
};

std::vector<Source>
readSources(const std::string &root)
{
    namespace fs = std::filesystem;
    std::vector<Source> sources;
    for (const char *dir : {"examples/asm", "examples/os"}) {
        std::vector<fs::path> files;
        for (const auto &it : fs::directory_iterator(fs::path(root) / dir))
            if (it.path().extension() == ".s")
                files.push_back(it.path());
        std::sort(files.begin(), files.end());
        for (const fs::path &path : files) {
            std::ifstream in(path);
            std::ostringstream text;
            text << in.rdbuf();
            sources.push_back(
                {std::string(dir).substr(9) + "/" + path.stem().string(),
                 text.str()});
        }
    }
    if (sources.empty())
        throw std::runtime_error("no example programs under " + root);
    return sources;
}

rr::machine::CpuConfig
cpuConfig(bool reference)
{
    rr::machine::CpuConfig config;
    config.memWords = kMemWords;
    if (reference)
        config.predecode = false; // the uncached step() path
    return config;
}

/** Reset architectural state and run one repetition to HALT. */
void
runOnce(rr::machine::Cpu &cpu, const Program &program, uint32_t pc,
        bool reload)
{
    if (reload) {
        cpu.mem().clear();
        cpu.mem().loadImage(program.base, program.words);
    }
    cpu.regs().clear();
    cpu.setPsw(0);
    cpu.setRrmImmediate(0);
    cpu.setPc(pc);
    cpu.resume();
    cpu.run(kStepCap);
}

uint64_t
stateHash(const rr::machine::Cpu &cpu)
{
    Digest d;
    d.bytes(cpu.regs().data(), cpu.regs().size() * sizeof(uint32_t));
    d.bytes(cpu.mem().data(), cpu.mem().size() * sizeof(uint32_t));
    return d.value();
}

std::vector<SyncWorkloadConfig>
syncConfigs(uint64_t seed, bool quick)
{
    std::vector<SyncWorkloadConfig> configs;
    for (const SyncScenario scenario :
         {SyncScenario::UncontendedLock, SyncScenario::LockConvoy,
          SyncScenario::ProducerConsumer, SyncScenario::BarrierSkew}) {
        SyncWorkloadConfig c;
        c.scenario = scenario;
        c.numThreads = 4;
        c.rounds = quick ? 2 : 4;
        c.itemsPerProducer = quick ? 2 : 4;
        c.faultLatency = 55 + mix(seed, 1) % 11;
        configs.push_back(c);
    }
    return configs;
}

rr::kernel::KernelConfig
mtConfig(uint64_t seed, bool quick)
{
    rr::kernel::KernelConfig c;
    c.numThreads = 6;
    c.segmentUnits = rr::makeGeometric(32.0);
    c.latency = rr::makeExponential(250.0);
    c.segmentsPerThread = quick ? 4 : 48;
    c.seed = mix(seed, 2);
    return c;
}

uint64_t
expectedWork(const SyncWorkloadConfig &c)
{
    switch (c.scenario) {
      case SyncScenario::UncontendedLock:
      case SyncScenario::LockConvoy:
        return uint64_t{c.numThreads} * c.rounds * (c.csUnits + c.ncUnits);
      case SyncScenario::ProducerConsumer: {
        const uint64_t items =
            uint64_t{c.numThreads / 2} * c.itemsPerProducer;
        return items * (c.produceUnits + c.consumeUnits);
      }
      case SyncScenario::BarrierSkew: {
        uint64_t per_phase = 0;
        for (unsigned t = 0; t < c.numThreads; ++t)
            per_phase += c.barrierBaseUnits + c.barrierSkewUnits * (t % 4);
        return per_phase * c.rounds;
      }
    }
    return 0;
}

/** The scenario's architectural result is right. */
bool
syncResultOk(const SyncWorkloadConfig &c,
             const rr::kernel::SyncWorkloadResult &r)
{
    bool ok = r.halted && r.workUnits == expectedWork(c) &&
              r.usefulCycles == 2 * r.workUnits;
    switch (c.scenario) {
      case SyncScenario::UncontendedLock:
      case SyncScenario::LockConvoy:
        // One take per round plus each thread's exit-latch take.
        ok = ok && r.lockAcquires ==
                       uint64_t{c.numThreads} * c.rounds + c.numThreads;
        break;
      case SyncScenario::ProducerConsumer:
        ok = ok && r.itemsProduced == r.itemsConsumed &&
             r.itemsProduced ==
                 uint64_t{c.numThreads / 2} * c.itemsPerProducer;
        break;
      case SyncScenario::BarrierSkew:
        ok = ok && r.barrierReleases == c.rounds;
        break;
    }
    return ok;
}

} // namespace

void
runRriscExec(const Options &opts, Outcome &out)
{
    std::vector<Program> programs;
    std::vector<Source> sources;
    std::vector<Entry> entries;
    std::vector<SyncWorkloadConfig> sync_configs;
    rr::kernel::KernelConfig mt_config;
    uint64_t lines = 0;

    // Set-up: read and assemble the corpus, run every entry once on
    // the reference path, and size its batch. Repeated; the median is
    // reported.
    for (int s = 0; s < kSetups; ++s) {
        out.setups.push_back(timeOnFreshThread([&] {
            setSpansEnabled(opts.trace);
            sources = readSources(opts.root);
            programs.clear();
            entries.clear();
            lines = 0;
            for (const Source &src : sources) {
                {
                    ScopedSpan span("assembler.assemble", 0);
                    programs.push_back(rr::assembler::assemble(src.text));
                }
                lines += static_cast<uint64_t>(
                    std::count(src.text.begin(), src.text.end(), '\n'));
            }
            setSpansEnabled(false);

            for (std::size_t p = 0; p < programs.size(); ++p) {
                const Program &program = programs[p];
                if (!program.ok()) {
                    if (s == 0)
                        out.check(false, sources[p].name + " does not "
                                                           "assemble");
                    continue;
                }
                std::vector<std::pair<std::string, uint32_t>> starts;
                const auto entry_sym = program.symbols.find("entry");
                starts.emplace_back("entry", entry_sym != program.symbols.end()
                                                 ? entry_sym->second
                                                 : program.base);
                for (const auto &decl : program.threads) {
                    const std::vector<std::string> labels =
                        program.labelsAt(decl.address);
                    starts.emplace_back(labels.empty() ? "thread"
                                                       : labels.front(),
                                        decl.address);
                }
                for (const auto &[label, pc] : starts) {
                    Entry e;
                    e.name = sources[p].name + ":" + label;
                    e.program = p;
                    e.pc = pc;
                    rr::machine::Cpu ref(cpuConfig(true));
                    runOnce(ref, program, pc, true);
                    const bool halted = ref.halted() &&
                                        ref.trap() ==
                                            rr::machine::TrapKind::None;
                    if (!halted && label == "entry") {
                        if (s == 0)
                            out.check(false, e.name + " does not halt");
                        continue;
                    }
                    if (!halted) {
                        // A thread body that waits on a partner the setup
                        // code never started cannot run alone.
                        if (s == 0)
                            std::printf("rrisc_exec: skipping %s: no halt "
                                        "when run alone\n",
                                        e.name.c_str());
                        continue;
                    }
                    e.instret = ref.instructionsRetired();
                    if (e.instret < kMinInstr) {
                        if (s == 0)
                            std::printf("rrisc_exec: skipping %s: %llu "
                                        "instr/rep < %llu\n",
                                        e.name.c_str(),
                                        static_cast<unsigned long long>(
                                            e.instret),
                                        static_cast<unsigned long long>(
                                            kMinInstr));
                        continue;
                    }
                    e.stateHash = stateHash(ref);
                    rr::machine::Memory image(kMemWords);
                    image.loadImage(program.base, program.words);
                    e.clean = std::equal(image.data(),
                                         image.data() + image.size(),
                                         ref.mem().data());
                    e.reps = static_cast<unsigned>(std::clamp<uint64_t>(
                        (opts.quick ? kBatchInstr / 20 : kBatchInstr) /
                            e.instret,
                        1, 20'000));
                    entries.push_back(e);
                }
            }
            sync_configs = syncConfigs(opts.seed, opts.quick);
            mt_config = mtConfig(opts.seed, opts.quick);
        }));
    }

    Digest digest;
    for (const Entry &e : entries) {
        digest.text(e.name);
        digest.u64(e.instret);
        digest.u64(e.stateHash);
    }

    uint64_t first_kernels = 0;
    struct
    {
        double runCalls = 0, instret = 0, built = 0, flushes = 0,
               reverified = 0;
        double kRuns = 0, kInstret = 0, kFaults = 0, kPolls = 0;
    } sums;

    measureRounds(opts, out, 3, [&](unsigned round, bool traced) {
        // (a) unhooked programs: passes of one batch per entry, each
        // on a fresh Cpu. A pass is one main operation: per-entry
        // batches would put the percentiles between entries.
        for (unsigned pass = 0; pass < kPassesPerRound; ++pass) {
            double pass_secs = 0.0;
            double pass_instret = 0.0;
            for (std::size_t i = 0; i < entries.size(); ++i) {
                const Entry &e = entries[i];
                const Program &program = programs[e.program];
                ScopedSpan span("machine.batch", newOp());
                const double t0 = nowSeconds();
                rr::machine::Cpu cpu(cpuConfig(false));
                bool ok = true;
                uint64_t before = 0;
                for (unsigned rep = 0; rep < e.reps; ++rep) {
                    runOnce(cpu, program, e.pc, rep == 0 || !e.clean);
                    ok = ok && cpu.halted() &&
                         cpu.trap() == rr::machine::TrapKind::None &&
                         cpu.instructionsRetired() - before == e.instret;
                    before = cpu.instructionsRetired();
                }
                const double secs = nowSeconds() - t0;
                pass_secs += secs;
                if (opts.corrupt && round == 0 && pass == 0 && i == 0)
                    cpu.mem().write(kMemWords - 1,
                                    cpu.mem().read(kMemWords - 1) ^ 1);
                out.check(ok && stateHash(cpu) == e.stateHash,
                          e.name + " diverged from the reference path");
                pass_instret +=
                    static_cast<double>(cpu.instructionsRetired());
                if (traced) {
                    sums.runCalls += e.reps;
                    sums.instret += cpu.instructionsRetired();
                    sums.built += cpu.superblocksBuilt();
                    sums.flushes += cpu.superblockFlushes();
                    sums.reverified += cpu.superblocksReverified();
                }
            }
            out.mainUs.push_back(pass_secs * 1e6);
            out.rates.push_back(pass_instret / pass_secs);
        }

        // (b) hooked kernels: construct (assembles the generated
        // sync runtime) and run to completion. The whole suite is one
        // auxiliary operation, so its latency does not depend on which
        // kernel a percentile happens to land in.
        Digest kernels;
        const double suite0 = nowSeconds();
        const auto kernelDone = [&](const rr::machine::Cpu &cpu,
                                    uint64_t faults, uint64_t polls) {
            kernels.u64(cpu.cycles());
            kernels.u64(cpu.instructionsRetired());
            if (traced) {
                sums.kRuns += 1;
                sums.kInstret += cpu.instructionsRetired();
                sums.kFaults += faults;
                sums.kPolls += polls;
            }
        };
        for (const SyncWorkloadConfig &c : sync_configs) {
            rr::kernel::SyncWorkloadKernel kernel(c);
            rr::kernel::SyncWorkloadResult r;
            {
                ScopedSpan span("kernel.run", newOp());
                r = kernel.run();
            }
            out.check(syncResultOk(c, r),
                      std::string("sync kernel ") +
                          rr::runtime::syncScenarioName(c.scenario) +
                          " produced a wrong result");
            kernelDone(kernel.cpu(), r.faults, r.failedPolls);
        }
        {
            rr::kernel::MachineMtKernel kernel(mt_config);
            rr::kernel::KernelResult r;
            {
                ScopedSpan span("kernel.run", newOp());
                r = kernel.run();
            }
            out.check(r.halted &&
                          r.faults == uint64_t{mt_config.numThreads} *
                                          mt_config.segmentsPerThread &&
                          r.usefulCycles == 2 * r.workUnits,
                      "machine MT kernel produced a wrong result");
            kernelDone(kernel.cpu(), r.faults, r.failedPolls);
        }
        out.auxUs.push_back((nowSeconds() - suite0) * 1e6);
        if (round == 0)
            first_kernels = kernels.value();
        out.check(kernels.value() == first_kernels,
                  "kernel results changed between rounds");
    });
    digest.u64(first_kernels);
    out.digest = digest.hex();

    if (!opts.trace)
        return;
    const double rounds = static_cast<double>(out.tracedWall.size());
    const double assemble_s = spanSeconds("assembler.assemble") / kSetups;
    const double run_s = spanSeconds("machine.batch") / rounds;
    const double kernel_s = spanSeconds("kernel.run") / rounds;
    auto &m = out.layers;
    m["assembler.calls"] = static_cast<double>(programs.size());
    m["assembler.s"] = assemble_s;
    m["assembler.lines_per_s"] = lines / assemble_s;
    m["machine.run_calls"] = sums.runCalls / rounds;
    m["machine.run_s"] = run_s;
    m["machine.instret"] = sums.instret / rounds;
    m["machine.minstr_per_s"] = sums.instret / rounds / run_s / 1e6;
    m["machine.superblocks_built"] = sums.built / rounds;
    m["machine.superblock_flushes"] = sums.flushes / rounds;
    m["machine.superblocks_reverified"] = sums.reverified / rounds;
    m["kernel.runs"] = sums.kRuns / rounds;
    m["kernel.run_s"] = kernel_s;
    m["kernel.instret"] = sums.kInstret / rounds;
    m["kernel.minstr_per_s"] = sums.kInstret / rounds / kernel_s / 1e6;
    m["kernel.faults"] = sums.kFaults / rounds;
    m["kernel.failed_polls"] = sums.kPolls / rounds;
}

} // namespace perf
