/**
 * @file
 * rrsim — run an RRISC program on the cycle-level machine.
 *
 * Usage:
 *   rrsim [options] program.s | program.hex
 *     --regs N        register file size (default 128)
 *     --width W       operand width w (default 5)
 *     --banks B       RRM banks (default 1)
 *     --mode M        relocation mode: or | mux | add (default or)
 *     --delay D       LDRRM delay slots (default 1)
 *     --mem WORDS     memory size in words (default 65536)
 *     --steps S       maximum instructions (default 1000000)
 *     --start LABEL   start at a label (default: 'entry' if present,
 *                     else the image base)
 *     --rrm MASK      initial relocation mask (default 0)
 *     --trace         print every executed instruction
 *     --trace=FILE    write a structured "rr.trace.v1" JSONL trace
 *                     (one Instruction event per executed
 *                     instruction; docs/TRACE.md)
 *     --dump K        dump the first K registers on exit (default 16)
 *     --json          print the final machine state as JSON
 *     --quiet         suppress the state and register dump
 *
 * Checkpointing (rr.ckpt.v1, docs/CKPT.md):
 *     --checkpoint FILE     write a snapshot to FILE every
 *                           checkpoint interval and at exit
 *     --checkpoint-every N  snapshot cadence in instructions
 *                           (default 1024)
 *     --resume FILE         restore the machine from FILE and
 *                           continue; takes no program argument —
 *                           the machine configuration, memory, and
 *                           registers all come from the snapshot
 *     --rewind N            run to the end, then restore the nearest
 *                           in-memory snapshot and deterministically
 *                           re-execute; only the final N
 *                           instructions are traced/printed
 *
 * A '.hex' input is a plain list of 32-bit words in hex (as written
 * by rrasm -o); anything else is assembled as source.
 *
 * Exit status (docs/TOOLS.md): 0 on a clean halt, 1 on assembly
 * errors or a machine trap, 2 when files cannot be read or written
 * or a checkpoint is corrupt/incompatible, 64 on usage errors
 * (including unknown trailing arguments).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "ckpt/io.hh"
#include "exp/json_out.hh"
#include "ckpt/snapshot.hh"
#include "machine/cpu.hh"
#include "trace/sink.hh"
#include "cli.hh"

namespace {

const char *const kUsage =
    "usage: rrsim [options] program.s | program.hex\n"
    "  --regs N      register file size (default 128)\n"
    "  --width W     operand width w (default 5)\n"
    "  --banks B     RRM banks (default 1)\n"
    "  --mode M      relocation mode: or | mux | add (default or)\n"
    "  --delay D     LDRRM delay slots (default 1)\n"
    "  --mem WORDS   memory size in words (default 65536)\n"
    "  --steps S     maximum instructions (default 1000000)\n"
    "  --start LABEL start at a label (default 'entry' or base)\n"
    "  --rrm MASK    initial relocation mask (default 0)\n"
    "  --trace       print every executed instruction\n"
    "  --trace=FILE  write a structured JSONL trace to FILE\n"
    "  --dump K      dump the first K registers on exit\n"
    "  --json        print the final machine state as JSON\n"
    "  --quiet       suppress the state and register dump\n"
    "  --checkpoint FILE     write rr.ckpt.v1 snapshots to FILE\n"
    "  --checkpoint-every N  snapshot cadence (default 1024)\n"
    "  --resume FILE         restore from FILE (no program arg)\n"
    "  --rewind N            re-execute only the last N instructions\n";

/** One in-memory snapshot for --rewind. */
struct RewindSnap
{
    uint64_t instructions = 0;
    std::vector<uint8_t> doc;
};

/** Sealed rr.ckpt.v1 document of @p cpu's current state. */
std::vector<uint8_t>
machineSnapshot(const rr::machine::Cpu &cpu)
{
    rr::ckpt::Writer writer;
    rr::ckpt::writeMeta(writer, "machine", cpu.fingerprint());
    cpu.saveState(writer);
    return writer.seal();
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rr::tools;

    rr::machine::CpuConfig config;
    config.memWords = 1u << 16;
    uint64_t regs = 0;
    bool regs_seen = false;
    uint64_t delay = 0;
    bool delay_seen = false;
    uint64_t mem = 0;
    bool mem_seen = false;
    uint64_t max_steps = 1'000'000;
    std::string start_label;
    uint64_t initial_rrm = 0;
    bool rrm_seen = false;
    bool trace = false;
    std::string trace_file;
    uint64_t dump = 16;
    bool json = false;
    bool quiet = false;
    std::string ckpt_path;
    uint64_t ckpt_every = 1024;
    bool ckpt_every_seen = false;
    std::string resume_path;
    uint64_t rewind = 0;

    OptionParser parser("rrsim", kUsage);
    parser.number("--regs", &regs, 1, 1u << 20, &regs_seen);
    const GeometryFlags geometry_flags(parser);
    parser.number("--delay", &delay, 0, 64, &delay_seen);
    parser.number("--mem", &mem, 1, 1u << 28, &mem_seen);
    parser.number("--steps", &max_steps, 0,
                  std::numeric_limits<uint64_t>::max());
    parser.value("--start", &start_label);
    parser.number("--rrm", &initial_rrm, 0, 0xffffffffull,
                  &rrm_seen);
    parser.flagOrValue("--trace", &trace, &trace_file);
    parser.number("--dump", &dump, 0, 1u << 20);
    parser.flag("--json", &json);
    parser.flag("--quiet", &quiet);
    parser.value("--checkpoint", &ckpt_path);
    parser.number("--checkpoint-every", &ckpt_every, 1,
                  std::numeric_limits<uint64_t>::max(),
                  &ckpt_every_seen);
    parser.value("--resume", &resume_path);
    parser.number("--rewind", &rewind, 1,
                  std::numeric_limits<uint64_t>::max());
    const int parse_status = parser.parse(argc, argv);
    if (parse_status >= 0)
        return parse_status;

    const bool resuming = !resume_path.empty();
    if (ckpt_every_seen && ckpt_path.empty())
        return parser.fail(
            "--checkpoint-every needs --checkpoint FILE");
    if (rewind > 0 && (resuming || !ckpt_path.empty()))
        return parser.fail(
            "--rewind cannot be combined with --resume/--checkpoint");
    if (resuming) {
        if (!parser.positionals().empty())
            return parser.fail("--resume takes no program file; the "
                               "snapshot holds the whole machine");
        if (regs_seen || geometry_flags.seen() || delay_seen ||
            mem_seen || !start_label.empty() || rrm_seen)
            return parser.fail("machine configuration flags cannot "
                               "be combined with --resume; the "
                               "snapshot defines the machine");
    } else if (parser.positionals().size() != 1) {
        return parser.positionals().empty()
                   ? parser.fail("expects one program file")
                   : parser.fail("unexpected argument '%s'",
                                 parser.positionals()[1].c_str());
    }
    const std::string input =
        resuming ? resume_path : parser.positionals().front();

    if (regs_seen)
        config.geometry.numRegs = static_cast<unsigned>(regs);
    if (delay_seen)
        config.ldrrmDelaySlots = static_cast<unsigned>(delay);
    if (mem_seen)
        config.memWords = static_cast<size_t>(mem);
    const std::string geometry = geometry_flags.apply(config.geometry);
    if (!geometry.empty())
        return parser.fail("%s", geometry.c_str());

    std::unique_ptr<rr::machine::Cpu> resumed;
    if (resuming) {
        // The snapshot defines the machine: geometry, memory,
        // registers, relocation state, and position. Any corruption
        // or incompatibility is an rr.ckpt error (exit 2), never an
        // abort.
        try {
            const std::vector<uint8_t> doc =
                rr::ckpt::readFile(resume_path);
            const rr::ckpt::Reader reader(doc);
            const std::string kind = rr::ckpt::metaKind(reader);
            if (kind != "machine")
                throw rr::ckpt::Error(
                    "'" + resume_path + "' is a \"" + kind +
                    "\" snapshot, not a machine snapshot");
            config =
                rr::machine::Cpu::configFromCheckpoint(reader);
            resumed = std::make_unique<rr::machine::Cpu>(config);
            rr::ckpt::checkMeta(reader, "machine",
                                resumed->fingerprint());
            resumed->restoreState(reader);
        } catch (const rr::ckpt::Error &error) {
            std::fprintf(stderr, "rrsim: %s\n", error.what());
            return kExitFailure;
        }
    }

    std::ifstream in;
    if (!resuming) {
        in.open(input);
        if (!in) {
            std::fprintf(stderr, "rrsim: cannot open '%s'\n",
                         input.c_str());
            return kExitFailure;
        }
    }

    uint32_t base = 0;
    std::vector<uint32_t> image;
    uint32_t start_pc = 0;
    bool have_start = false;

    if (resuming) {
        // Nothing to load; the snapshot already holds memory.
    } else if (endsWith(input, ".hex")) {
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            image.push_back(static_cast<uint32_t>(
                std::strtoul(line.c_str(), nullptr, 16)));
        }
    } else {
        std::ostringstream source;
        source << in.rdbuf();
        const rr::assembler::Program program =
            rr::assembler::assemble(source.str());
        if (!program.ok()) {
            for (const auto &error : program.errors) {
                std::fprintf(stderr, "%s: %s\n", input.c_str(),
                             error.str().c_str());
            }
            return kExitProblems;
        }
        base = program.base;
        image = program.words;
        const std::string label =
            start_label.empty() ? "entry" : start_label;
        const auto it = program.symbols.find(label);
        if (it != program.symbols.end()) {
            start_pc = it->second;
            have_start = true;
        } else if (!start_label.empty()) {
            std::fprintf(stderr, "rrsim: no label '%s' in '%s'\n",
                         start_label.c_str(), input.c_str());
            return kExitProblems;
        }
    }

    if (!resumed) {
        resumed = std::make_unique<rr::machine::Cpu>(config);
        resumed->mem().loadImage(base, image);
        resumed->setPc(have_start ? start_pc : base);
        resumed->setRrmImmediate(static_cast<uint32_t>(initial_rrm));
    }
    rr::machine::Cpu &cpu = *resumed;

    std::ofstream trace_out;
    std::unique_ptr<rr::trace::StreamJsonSink> trace_sink;
    if (!trace_file.empty()) {
        trace_out.open(trace_file, std::ios::binary);
        if (!trace_out) {
            std::fprintf(stderr, "rrsim: cannot write '%s'\n",
                         trace_file.c_str());
            return kExitFailure;
        }
        trace_sink =
            std::make_unique<rr::trace::StreamJsonSink>(trace_out);
    }
    const auto attachTraceHook = [&]() {
        if (trace_sink != nullptr) {
            cpu.setTraceHook(
                [&](const rr::machine::TraceEntry &entry) {
                    rr::trace::TraceEvent event;
                    event.kind = rr::trace::EventKind::Instruction;
                    event.ctx = entry.rrm;
                    event.cycle = entry.cycle;
                    event.aux = entry.pc;
                    trace_sink->emit(event);
                });
        } else if (trace) {
            cpu.setTraceHook(
                [](const rr::machine::TraceEntry &entry) {
                    std::printf(
                        "%8lu  rrm=0x%02x  %6u: %s\n",
                        static_cast<unsigned long>(entry.cycle),
                        entry.rrm, entry.pc,
                        rr::isa::disassemble(entry.inst).c_str());
                });
        }
    };

    uint64_t executed = 0;
    try {
        if (rewind > 0) {
            // Flight-recorder mode: run silently, snapshotting at a
            // fixed cadence, then restore the nearest snapshot and
            // deterministically re-execute — attaching the trace
            // hooks only for the final N instructions. The re-run
            // retraces the straight run's suffix exactly
            // (docs/CKPT.md, rewind semantics).
            constexpr uint64_t kRewindCadence = 1024;
            constexpr std::size_t kRewindRing = 64;
            const RewindSnap initial{0, machineSnapshot(cpu)};
            std::deque<RewindSnap> ring;
            while (executed < max_steps) {
                const uint64_t chunk = std::min(
                    kRewindCadence, max_steps - executed);
                const uint64_t n = cpu.run(chunk);
                executed += n;
                if (n < chunk)
                    break;
                ring.push_back({executed, machineSnapshot(cpu)});
                if (ring.size() > kRewindRing)
                    ring.pop_front();
            }
            const uint64_t total = executed;
            const uint64_t target =
                total - std::min(rewind, total);
            const RewindSnap *nearest = &initial;
            for (const RewindSnap &snap : ring)
                if (snap.instructions <= target)
                    nearest = &snap;
            {
                const rr::ckpt::Reader reader(nearest->doc);
                rr::ckpt::checkMeta(reader, "machine",
                                    cpu.fingerprint());
                cpu.restoreState(reader);
            }
            if (target > nearest->instructions)
                cpu.run(target - nearest->instructions);
            attachTraceHook();
            if (total > target)
                cpu.run(total - target);
        } else if (!ckpt_path.empty()) {
            attachTraceHook();
            while (executed < max_steps) {
                const uint64_t chunk =
                    std::min(ckpt_every, max_steps - executed);
                const uint64_t n = cpu.run(chunk);
                executed += n;
                rr::ckpt::writeFile(ckpt_path,
                                    machineSnapshot(cpu));
                if (n < chunk)
                    break;
            }
        } else {
            attachTraceHook();
            executed = cpu.run(max_steps);
        }
    } catch (const rr::ckpt::Error &error) {
        std::fprintf(stderr, "rrsim: %s\n", error.what());
        return kExitFailure;
    }
    if (trace_sink != nullptr)
        trace_sink->flush();

    const bool step_limit = executed >= max_steps;
    if (json) {
        rr::exp::JsonWriter w;
        w.beginObject();
        w.member("schema", "rr.rrsim.v1");
        w.member("input", input);
        w.member("cycles", cpu.cycles());
        w.member("instructions", cpu.instructionsRetired());
        w.member("pc", cpu.pc());
        w.member("halted", cpu.halted());
        w.member("stepLimit", step_limit);
        w.member("trap", rr::machine::trapName(cpu.trap()));
        w.member("psw", cpu.psw());
        w.member("rrm", cpu.rrm());
        w.member("faults", cpu.faultCount());
        if (trace_sink != nullptr)
            w.member("traceEvents", trace_sink->emitted());
        w.endObject();
        std::puts(w.str().c_str());
    } else if (!quiet) {
        std::printf("\ncycles: %lu  instructions: %lu  pc: %u\n",
                    static_cast<unsigned long>(cpu.cycles()),
                    static_cast<unsigned long>(
                        cpu.instructionsRetired()),
                    cpu.pc());
        std::printf("state: %s%s  trap: %s  psw: 0x%x  rrm: 0x%x  "
                    "faults: %lu\n",
                    cpu.halted() ? "halted" : "running",
                    step_limit ? " (step limit)" : "",
                    rr::machine::trapName(cpu.trap()), cpu.psw(),
                    cpu.rrm(),
                    static_cast<unsigned long>(cpu.faultCount()));
        for (unsigned r = 0;
             r < dump && r < config.geometry.numRegs; ++r) {
            std::printf("r%-3u = 0x%08x%s", r, cpu.regs().read(r),
                        (r % 4 == 3) ? "\n" : "  ");
        }
        if (dump % 4 != 0)
            std::printf("\n");
    }
    return cpu.trap() == rr::machine::TrapKind::None ? kExitOk
                                                     : kExitProblems;
}
