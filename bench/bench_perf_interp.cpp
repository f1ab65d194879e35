/**
 * @file
 * Interpreter-throughput microbenchmark (rrbench --perf): measures
 * Cpu::run() speed in Minstr/s with predecode off (the decode-per-step
 * reference) and on (cached superblocks, docs/PERF.md) over the
 * examples/asm corpus plus synthetic hot loops (pure ALU, load/store,
 * and LDRRM context ping-pong, the last stressing the relocation-table
 * rebuild on every mask switch). Each program is timed from `entry`
 * and from every `.thread` label; starts that retire fewer than
 * kMinInstr instructions are skipped with a note, since they would
 * time run() entry overhead rather than the interpreter.
 *
 * Only deterministic counters (instret/cycles per repetition) go into
 * the compared table; wall-clock throughput is reported in notes,
 * which --compare ignores, so the committed baseline is stable across
 * machines. Each start additionally asserts that both legs retire
 * the identical instruction and cycle counts — the perf figure
 * doubles as a behaviour-neutrality check.
 *
 * Programs that leave memory untouched (verified once per program by
 * comparing post-run memory against the freshly loaded image) skip
 * the per-repetition memory clear + image reload: for the short
 * examples the 4 KiB reset would otherwise dominate the measurement
 * and the benchmark would time the harness, not the interpreter.
 */

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "exp/registry.hh"
#include "machine/cpu.hh"

namespace {

using namespace rr;

struct PerfProgram
{
    std::string name;
    assembler::Program program;
    bool example = false; ///< loaded from examples/asm, not embedded
};

// Tight ALU kernel: ten instructions per iteration, no memory.
constexpr const char *kAluLoop = R"(
entry:
    li   r1, 1500
    li   r2, 0
    li   r3, 0
    li   r4, 1
loop:
    add  r2, r2, r4
    xor  r3, r3, r2
    sll  r5, r2, r4
    srl  r6, r5, r4
    sub  r7, r6, r3
    and  r8, r7, r2
    or   r9, r8, r3
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
)";

// Load/store kernel: every store invalidates a (data) cache line.
constexpr const char *kMemLoop = R"(
entry:
    li   r1, 1500
    li   r2, 256
    li   r3, 0
loop:
    st   r3, 0(r2)
    ld   r4, 0(r2)
    addi r3, r4, 1
    st   r3, 1(r2)
    ld   r5, 1(r2)
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
)";

// Context ping-pong: a mask switch every four instructions — the
// adversarial case for cached relocation, which must rebuild its
// operand table at each LDRRM retirement.
constexpr const char *kSwitchLoop = R"(
.equ CTX_A, 0x20
.equ CTX_B, 0x40
entry:
    li    r10, CTX_A
    ldrrm r10
    nop
    li    r1, 1500
    li    r2, CTX_B
    li    r10, 0
    ldrrm r10
    nop
    li    r10, CTX_B
    ldrrm r10
    nop
    li    r1, 1500
    li    r2, CTX_A
loop:
    addi  r1, r1, -1
    ldrrm r2
    nop
    bne   r1, r0, loop
    halt
)";

void
addProgram(std::vector<PerfProgram> &corpus, const std::string &name,
           const std::string &source, bool example = false)
{
    assembler::Program program = assembler::assemble(source);
    rr_assert(program.errors.empty(), "perf program '", name,
              "' failed to assemble");
    corpus.push_back({name, std::move(program), example});
}

/** The .s files under examples/asm in name order, plus hot loops. */
std::vector<PerfProgram>
buildCorpus(exp::ReportBuilder &ctx)
{
    namespace fs = std::filesystem;
    std::vector<PerfProgram> corpus;

    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto &it : fs::directory_iterator(
             RR_EXAMPLES_ASM_DIR, ec)) {
        if (it.path().extension() == ".s")
            files.push_back(it.path());
    }
    if (ec) {
        ctx.text(exp::strf("note: examples corpus unavailable (%s); "
                           "running synthetic programs only",
                           RR_EXAMPLES_ASM_DIR));
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &path : files) {
        std::ifstream in(path);
        std::ostringstream source;
        source << in.rdbuf();
        addProgram(corpus, path.stem().string(), source.str(),
                   /*example=*/true);
    }

    addProgram(corpus, "alu_loop", kAluLoop);
    addProgram(corpus, "mem_loop", kMemLoop);
    addProgram(corpus, "switch_loop", kSwitchLoop);
    return corpus;
}

/** The two legs: predecode off (reference), then superblocks. */
constexpr bool kLegs[] = {false, true};
constexpr size_t kNumLegs = std::size(kLegs);
constexpr size_t kBlocksIdx = kNumLegs - 1;

/** One timed start: a program entered at `entry` or a .thread label. */
struct PerfStart
{
    std::string name;
    uint32_t pc = 0;
    bool thread = false; ///< a .thread label, not the entry
};

struct Measurement
{
    uint64_t instret = 0; ///< total across repetitions
    uint64_t cycles = 0;
    double seconds = 0.0;
};

constexpr uint64_t kStepCap = 1u << 22;
constexpr uint64_t kMemWords = 1u << 10;

/** Fewest instructions a timed start must retire per repetition. */
constexpr uint64_t kMinInstr = 8;

machine::CpuConfig
configFor(bool predecode)
{
    machine::CpuConfig config;
    // Small image: keeps per-repetition state resets cheap, so short
    // programs measure the interpreter rather than the harness.
    config.memWords = kMemWords;
    config.predecode = predecode;
    return config;
}

/** One untimed run of a start, from a freshly loaded image. */
struct Probe
{
    bool halted = false;
    uint64_t instret = 0;
    /**
     * The run left memory exactly as loaded. Such starts can be
     * re-run without the per-repetition clear + reload, which for a
     * 50-instruction program costs more than the instructions do.
     */
    bool clean = false;
};

Probe
probeStart(const assembler::Program &program, uint32_t entry)
{
    machine::Cpu cpu(configFor(true));
    cpu.mem().clear();
    cpu.mem().loadImage(program.base, program.words);
    cpu.setRrmImmediate(0);
    cpu.setPc(entry);
    cpu.run(kStepCap);

    Probe probe;
    probe.halted =
        cpu.halted() && cpu.trap() == machine::TrapKind::None;
    probe.instret = cpu.instructionsRetired();
    machine::Memory ref(kMemWords);
    ref.clear();
    ref.loadImage(program.base, program.words);
    probe.clean = probe.halted &&
                  std::equal(ref.data(), ref.data() + ref.size(),
                             cpu.mem().data());
    return probe;
}

Measurement
runLeg(const assembler::Program &program, bool predecode,
       uint32_t entry, unsigned reps, bool clean)
{
    machine::Cpu cpu(configFor(predecode));
    rr_assert(cpu.predecodeActive() == predecode,
              "predecode activation mismatch (predecode=", predecode,
              ")");

    const auto start = std::chrono::steady_clock::now();
    for (unsigned rep = 0; rep < reps; ++rep) {
        if (rep == 0 || !clean) {
            cpu.mem().clear();
            cpu.mem().loadImage(program.base, program.words);
        }
        cpu.regs().clear();
        cpu.setRrmImmediate(0);
        cpu.setPc(entry);
        cpu.resume();
        cpu.run(kStepCap);
        rr_assert(cpu.halted(), "perf program did not halt (trap: ",
                  machine::trapName(cpu.trap()), ")");
    }
    const auto stop = std::chrono::steady_clock::now();

    Measurement m;
    m.instret = cpu.instructionsRetired();
    m.cycles = cpu.cycles();
    m.seconds = std::max(
        std::chrono::duration<double>(stop - start).count(), 1e-9);
    return m;
}

/**
 * Best of @p trials timed runs per leg, interleaving the legs so slow
 * drift (frequency scaling, co-tenants) hits both equally. The
 * counters are deterministic — identical on every trial — so keeping
 * the fastest wall clock discards scheduler noise, not data.
 */
std::vector<Measurement>
measureLegs(const assembler::Program &program, uint32_t entry,
            unsigned reps, bool clean, unsigned trials)
{
    std::vector<Measurement> best(kNumLegs);
    for (unsigned trial = 0; trial < trials; ++trial) {
        for (size_t l = 0; l < kNumLegs; ++l) {
            const Measurement t =
                runLeg(program, kLegs[l], entry, reps, clean);
            if (trial == 0 || t.seconds < best[l].seconds)
                best[l] = t;
        }
    }
    return best;
}

/**
 * The starts perfbench's rrisc_exec workload times: `entry` (named
 * after the program) and every `.thread` label (program:label).
 */
std::vector<PerfStart>
startsOf(const PerfProgram &p)
{
    const assembler::Program &program = p.program;
    const auto entry_sym = program.symbols.find("entry");
    std::vector<PerfStart> starts;
    starts.push_back({p.name,
                      entry_sym != program.symbols.end()
                          ? entry_sym->second
                          : program.base,
                      false});
    for (const assembler::ThreadDecl &decl : program.threads) {
        const std::vector<std::string> labels =
            program.labelsAt(decl.address);
        starts.push_back(
            {p.name + ":" + (labels.empty() ? "thread" : labels.front()),
             decl.address, true});
    }
    return starts;
}

double
minstrPerSec(const Measurement &m)
{
    return static_cast<double>(m.instret) / m.seconds / 1e6;
}

} // namespace

RR_PERF_FIGURE(perf_interp,
               "Interpreter throughput: predecode off vs superblocks "
               "(Minstr/s)")
{
    using namespace rr;

    ctx.text("Each program runs to HALT repeatedly from entry and from "
             "every .thread label,\nwith predecode off and on "
             "(superblocks); repetition counts are derived\nfrom "
             "deterministic instruction counts, never from wall time. "
             "The table\nholds per-repetition counters "
             "(machine-independent); throughput and\nspeedup are "
             "notes.");

    std::vector<PerfProgram> corpus = buildCorpus(ctx);

    // Size every start to a common instruction budget so small
    // examples are repeated enough to time meaningfully. The rep cap
    // bounds short starts, whose measurement beyond ~20k runs only
    // re-times the harness reset.
    const uint64_t target_instr =
        ctx.run().fast ? 150'000 : 2'000'000;
    const uint64_t rep_cap = 20'000;

    Table table({"program", "instr/rep", "cycles/rep", "reps"});
    struct Totals
    {
        double instr[kNumLegs] = {};
        double secs[kNumLegs] = {};
    };
    Totals all, examples;

    for (const PerfProgram &p : corpus) {
        for (const PerfStart &start : startsOf(p)) {
            const Probe probe = probeStart(p.program, start.pc);
            if (!probe.halted) {
                // The entry must halt; a thread body may wait on a
                // partner that only the entry code starts.
                rr_assert(start.thread, "perf program ", start.name,
                          " did not halt");
                ctx.text(exp::strf("%s: skipped, no halt when run "
                                   "alone",
                                   start.name.c_str()));
                continue;
            }
            if (probe.instret < kMinInstr) {
                ctx.text(exp::strf(
                    "%s: skipped, %llu instr/rep < %llu",
                    start.name.c_str(),
                    static_cast<unsigned long long>(probe.instret),
                    static_cast<unsigned long long>(kMinInstr)));
                continue;
            }
            const unsigned reps = static_cast<unsigned>(std::min(
                std::max<uint64_t>(target_instr / probe.instret, 1),
                rep_cap));

            const std::vector<Measurement> legs =
                measureLegs(p.program, start.pc, reps, probe.clean,
                            ctx.run().fast ? 4 : 5);

            // The engine must be invisible to the architecture:
            // identical retirement and cycle counts on both legs.
            const Measurement &blocks = legs[kBlocksIdx];
            rr_assert(blocks.instret == legs[0].instret &&
                          blocks.cycles == legs[0].cycles,
                      "superblock divergence in perf program ",
                      start.name);
            rr_assert(blocks.instret / reps >= kMinInstr,
                      "perf program ", start.name, " times fewer than ",
                      kMinInstr, " instructions per repetition");

            table.addRow({start.name, Table::num(blocks.instret / reps),
                          Table::num(blocks.cycles / reps),
                          Table::num(static_cast<uint64_t>(reps))});

            ctx.text(exp::strf(
                "%s: off %.1f, superblocks %.1f Minstr/s (%.2fx)%s",
                start.name.c_str(), minstrPerSec(legs[0]),
                minstrPerSec(blocks),
                minstrPerSec(blocks) / minstrPerSec(legs[0]),
                probe.clean ? ""
                            : " [memory-dirty: full reset per rep]"));

            for (size_t l = 0; l < kNumLegs; ++l) {
                all.instr[l] += static_cast<double>(legs[l].instret);
                all.secs[l] += legs[l].seconds;
                if (p.example) {
                    examples.instr[l] +=
                        static_cast<double>(legs[l].instret);
                    examples.secs[l] += legs[l].seconds;
                }
            }
        }
    }
    ctx.table("corpus", "per-repetition architectural counters "
                        "(identical on both legs)",
              std::move(table));

    const auto aggregate = [&ctx](const char *label, const Totals &t) {
        if (t.secs[0] <= 0.0)
            return;
        double rate[kNumLegs];
        for (size_t l = 0; l < kNumLegs; ++l)
            rate[l] = t.instr[l] / std::max(t.secs[l], 1e-9) / 1e6;
        ctx.text(exp::strf("%s aggregate: off %.1f, superblocks %.1f "
                           "Minstr/s (%.2fx)",
                           label, rate[0], rate[1], rate[1] / rate[0]));
    };
    aggregate("examples corpus", examples);
    aggregate("full corpus", all);
}
