#include "analysis/static/lint.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "analysis/static/callgraph.hh"
#include "analysis/static/lockset.hh"
#include "base/bitops.hh"
#include "base/logging.hh"
#include "exp/json_out.hh"
#include "machine/relocation_unit.hh"

namespace rr::lint {

using isa::Instruction;

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Error:
        return "error";
      case Severity::Warning:
        return "warning";
      case Severity::Note:
        return "note";
    }
    return "?";
}

std::string
Finding::str() const
{
    std::ostringstream os;
    if (line > 0)
        os << "line " << line << ": ";
    os << severityName(severity) << ": [" << code << "] " << message
       << " (addr " << address << ")";
    if (!path.empty()) {
        os << " [via ";
        for (size_t i = 0; i < path.size(); ++i)
            os << (i ? " -> " : "") << path[i];
        os << "]";
    }
    return os.str();
}

namespace {

class Linter
{
  public:
    Linter(const assembler::Program &program,
           const LintOptions &options)
        : program_(program), options_(options)
    {
    }

    LintResult run();

  private:
    void add(const std::string &code, Severity severity,
             uint32_t address, const std::string &message)
    {
        Finding f;
        f.code = code;
        f.severity = severity;
        f.address = address;
        f.line = program_.lineAt(address);
        f.message = message;
        result_.findings.push_back(std::move(f));
    }

    void flatCheck();
    void flowChecks(const Cfg &cfg, const RrmAnalysis &rrm,
                    const Liveness &liveness);
    void buildThreadReports(const Cfg &cfg, const RrmAnalysis &rrm,
                            const Liveness &liveness);
    void crossContextChecks(const Cfg &cfg, const RrmAnalysis &rrm);
    void interprocChecks(const CallGraph &cg, const RrmAnalysis &rrm);
    void locksetChecks(const Cfg &cfg, const CallGraph &cg,
                       const RrmAnalysis &rrm);
    void attachPaths(const CallGraph &cg);

    const assembler::Program &program_;
    const LintOptions &options_;
    LintResult result_;
};

void
Linter::flatCheck()
{
    const machine::Geometry &geometry = options_.geometry;
    for (size_t i = 0; i < program_.words.size(); ++i) {
        const uint32_t addr =
            program_.base + static_cast<uint32_t>(i);
        Instruction inst;
        if (!isa::decode(program_.words[i], inst)) {
            if (options_.flagInvalidWords) {
                add("invalid-word", Severity::Error, addr,
                    "word does not decode to any instruction");
            }
            continue;
        }
        for (const isa::RegisterOperand &op :
             isa::registerOperands(inst)) {
            if (!geometry.operandFits(op.reg)) {
                std::ostringstream os;
                os << isa::disassemble(inst) << ": " << op.slot << " r"
                   << op.reg << " does not fit the "
                   << geometry.operandWidth
                   << "-bit operand field: the machine traps";
                add("operand-too-wide", Severity::Error, addr, os.str());
                continue;
            }
            if (options_.declaredContext == 0 ||
                geometry.offsetOf(op.reg) < options_.declaredContext)
                continue;
            std::ostringstream os;
            os << isa::disassemble(inst) << ": " << op.slot << " r"
               << op.reg << " outside declared context of "
               << options_.declaredContext << " registers";
            add("boundary", Severity::Error, addr, os.str());
        }
    }
}

void
Linter::flowChecks(const Cfg &cfg, const RrmAnalysis &rrm,
                   const Liveness &liveness)
{
    (void)liveness;

    // Delay-slot hazards found by the abstract interpreter.
    for (const RrmHazard &hazard : rrm.hazards()) {
        switch (hazard.kind) {
          case RrmHazard::ControlInDelay:
            add("delay-slot-control", Severity::Error, hazard.address,
                "control transfer inside an LDRRM delay window: the "
                "new mask takes effect at the transfer target");
            break;
          case RrmHazard::LdrrmInDelay:
            add("ldrrm-in-delay-slot", Severity::Error, hazard.address,
                "LDRRM issued while a previous LDRRM is still in its "
                "delay slots");
            break;
          case RrmHazard::PendingAcrossReturn:
            add("ldrrm-across-call", Severity::Error, hazard.address,
                "LDRRM delay window still open at procedure return: "
                "the new mask lands in the caller, which continues "
                "under an unexpected context window");
            break;
        }
    }

    // Flow-sensitive boundary check: under OR relocation, an operand
    // sharing bits with the known mask escapes its context window.
    if (options_.geometry.mode != machine::RelocationMode::Or)
        return;
    for (const CfgInstruction &ci : cfg.instructions()) {
        if (!ci.valid)
            continue;
        const AbsVal mask = rrm.rrmBefore(ci.address);
        if (!mask.isConst() || mask.value == 0)
            continue;
        for (const isa::RegisterOperand &op :
             isa::registerOperands(ci.inst)) {
            if (!tracksOperand(options_.geometry, op.reg) ||
                (mask.value & op.reg) == 0)
                continue;
            std::ostringstream os;
            os << isa::disassemble(ci.inst) << ": " << op.slot << " r"
               << op.reg << " overlaps RRM 0x" << std::hex
               << mask.value << std::dec
               << " — the access escapes its context window (max "
               << (1u << findFirstSet(mask.value))
               << " registers here)";
            add("rrm-overlap", Severity::Error, ci.address, os.str());
        }
    }
}

void
Linter::buildThreadReports(const Cfg &cfg, const RrmAnalysis &rrm,
                           const Liveness &liveness)
{
    std::map<uint32_t, ThreadReport> reports;
    for (const uint32_t window : rrm.observedWindows()) {
        ThreadReport report;
        report.rrm = window;
        reports.emplace(window, report);
    }

    // Footprints: registers referenced while the window is active.
    for (const CfgInstruction &ci : cfg.instructions()) {
        if (!ci.valid)
            continue;
        const AbsVal mask = rrm.rrmBefore(ci.address);
        if (!mask.isConst())
            continue;
        ThreadReport &report = reports[mask.value];
        for (const isa::RegisterOperand &op :
             isa::registerOperands(ci.inst)) {
            if (tracksOperand(options_.geometry, op.reg))
                report.footprint |= uint64_t{1} << op.reg;
        }
    }

    // Entry requirements: the liveness barrier recorded the live set
    // at every LDRRM effect point; attribute it to the window that
    // takes effect there. The program entry belongs to the initial
    // window.
    for (const auto &[addr, live] : liveness.windowEntryLive()) {
        const AbsVal mask = rrm.rrmBefore(addr);
        if (mask.isConst())
            reports[mask.value].liveIn |= live;
    }
    if (cfg.entryBlock() != Cfg::noBlock) {
        const AbsVal entry_mask =
            rrm.rrmBefore(cfg.blocks()[cfg.entryBlock()].begin);
        if (entry_mask.isConst()) {
            reports[entry_mask.value].liveIn |=
                liveness.liveIn(cfg.entryBlock());
        }
    }

    for (auto &[window, report] : reports) {
        if (report.footprint != 0) {
            const unsigned max_reg =
                63 - static_cast<unsigned>(
                         std::countl_zero(report.footprint));
            report.registers = max_reg + 1;
        }
        report.minContext = static_cast<unsigned>(
            roundUpPowerOfTwo(std::max(1u, report.registers)));
        result_.threads.push_back(report);
    }
}

void
Linter::crossContextChecks(const Cfg &cfg, const RrmAnalysis &rrm)
{
    if (options_.geometry.mode == machine::RelocationMode::Mux)
        return; // Mux hardware bounds-checks; nothing can escape.

    // Physical span of every window, from the thread reports.
    struct Span
    {
        uint32_t rrm;
        uint32_t begin;
        uint32_t end;
        uint64_t liveIn;
    };
    std::vector<Span> spans;
    for (const ThreadReport &report : result_.threads) {
        if (report.registers == 0)
            continue;
        uint32_t begin;
        if (!rrm.relocate(report.rrm, 0, begin))
            continue;
        spans.push_back({report.rrm, begin, begin + report.registers,
                         report.liveIn});
    }

    for (const CfgInstruction &ci : cfg.instructions()) {
        if (!ci.valid)
            continue;
        const AbsVal mask = rrm.rrmBefore(ci.address);
        if (!mask.isConst())
            continue;
        for (const isa::RegisterOperand &op :
             isa::registerOperands(ci.inst)) {
            uint32_t physical;
            if (!op.isWrite || !tracksOperand(options_.geometry, op.reg) ||
                !rrm.relocate(mask.value, op.reg, physical))
                continue;
            for (const Span &span : spans) {
                if (span.rrm == mask.value)
                    continue;
                if (physical < span.begin || physical >= span.end)
                    continue;
                const unsigned other_reg = physical - span.begin;
                if ((span.liveIn & (uint64_t{1} << other_reg)) == 0)
                    continue;
                std::ostringstream os;
                os << isa::disassemble(ci.inst) << ": write to r"
                   << unsigned{op.reg} << " under RRM 0x" << std::hex
                   << mask.value << " hits physical register 0x"
                   << physical << " = r" << std::dec << other_reg
                   << " of context window 0x" << std::hex << span.rrm
                   << std::dec << ", which is live when that context "
                   << "is entered";
                add("cross-context-write", Severity::Warning,
                    ci.address, os.str());
            }
        }
    }
}

void
Linter::interprocChecks(const CallGraph &cg, const RrmAnalysis &rrm)
{
    for (uint32_t pi = 0; pi < cg.procedures().size(); ++pi) {
        const Procedure &proc = cg.procedures()[pi];
        ProcedureReport report;
        report.name = proc.name;
        report.entry = proc.entry;
        report.registers = proc.registers;
        report.minContext = proc.minContext;
        report.regsRead = proc.regsRead;
        report.regsWritten = proc.regsWritten;
        report.switchesRrm = proc.switchesRrm;
        report.returns = proc.returns;
        report.callPath = cg.callPath(pi);
        result_.procedures.push_back(std::move(report));
    }

    // Summary-level undersized-context check: the per-instruction
    // rrm-overlap findings show *where* a callee escapes its window;
    // this one indicts the call site that entered the callee with too
    // small a window, with the call path as witness.
    if (options_.geometry.mode != machine::RelocationMode::Or)
        return;
    for (const CallSite &site : cg.callSites()) {
        if (site.indirect || site.callee == CallGraph::noProc)
            continue;
        const AbsVal mask = rrm.rrmBefore(site.address);
        if (!mask.isConst() || mask.value == 0)
            continue;
        const Procedure &callee = cg.procedures()[site.callee];
        if (callee.switchesRrm || callee.callsIndirect)
            continue; // the subtree picks its own windows
        const unsigned capacity =
            1u << findFirstSet(mask.value);
        if (callee.registers <= capacity)
            continue;
        std::ostringstream os;
        os << "call to '" << callee.name << "' needs "
           << callee.registers << " register(s) (minimal context "
           << callee.minContext << ") but the window open here (RRM "
           << "0x" << std::hex << mask.value << std::dec
           << ") holds only " << capacity;
        add("call-undersized-context", Severity::Error, site.address,
            os.str());
        result_.findings.back().path = cg.callPath(site.callee);
    }
}

void
Linter::locksetChecks(const Cfg &cfg, const CallGraph &cg,
                      const RrmAnalysis &rrm)
{
    const LocksetAnalysis lockset(cfg, cg, rrm);

    auto lock_names = [&](uint32_t held) {
        std::vector<std::string> names;
        for (unsigned i = 0; i < lockset.lockNames().size(); ++i) {
            if ((held >> i) & 1)
                names.push_back(lockset.lockNames()[i]);
        }
        return names;
    };
    auto lock_text = [&](uint32_t held) {
        const std::vector<std::string> names = lock_names(held);
        if (names.empty())
            return std::string("none");
        std::string out;
        for (const std::string &name : names)
            out += (out.empty() ? "" : "+") + name;
        return out;
    };
    auto site_of = [&](const Access &access) {
        RaceSite site;
        site.address = access.address;
        site.line = access.line;
        site.write = access.write;
        site.thread = lockset.roots()[access.root].name;
        site.locks = lock_names(access.held);
        return site;
    };

    for (const Race &race : lockset.races()) {
        RaceReport report;
        report.mem = race.mem;
        const std::vector<std::string> labels =
            program_.labelsAt(race.mem);
        if (!labels.empty())
            report.symbol = labels.front();
        report.first = site_of(race.first);
        report.second = site_of(race.second);

        std::ostringstream os;
        os << "shared word 0x" << std::hex << race.mem << std::dec;
        if (!report.symbol.empty())
            os << " ('" << report.symbol << "')";
        os << ": " << (race.first.write ? "write" : "read")
           << " at addr " << race.first.address << " (thread '"
           << report.first.thread << "', locks "
           << lock_text(race.first.held) << ") races with "
           << (race.second.write ? "write" : "read") << " at addr "
           << race.second.address << " (thread '"
           << report.second.thread << "', locks "
           << lock_text(race.second.held) << ")";
        add("race", Severity::Error, race.first.address, os.str());

        result_.races.push_back(std::move(report));
    }

    // Every JALR that may reach a lock procedure: the .lockdef trust
    // contract was applied through an indirection the analysis cannot
    // resolve, so say so instead of silently approximating.
    for (const IndirectLockSite &site : lockset.indirectLockSites()) {
        std::ostringstream os;
        os << "indirect call may reach a lock procedure (acquires "
           << lock_text(site.acquires) << ", releases "
           << lock_text(site.releases)
           << "): the .lockdef contract is applied through the jalr "
              "but the actual target is unverified";
        add("lock-indirect-call", Severity::Warning, site.address,
            os.str());
    }
}

void
Linter::attachPaths(const CallGraph &cg)
{
    for (Finding &f : result_.findings) {
        if (!f.path.empty())
            continue;
        const uint32_t proc = cg.procOfAddress(f.address);
        if (proc == CallGraph::noProc)
            continue;
        std::vector<std::string> path = cg.callPath(proc);
        if (path.size() >= 2)
            f.path = std::move(path);
    }
}

LintResult
Linter::run()
{
    flatCheck();

    if (options_.flowSensitive && !program_.words.empty()) {
        Cfg cfg(program_);

        LivenessOptions live_options;
        live_options.delaySlots = options_.delaySlots;
        Liveness liveness(cfg, live_options);

        std::optional<CallGraph> cg;
        if (options_.interprocedural || options_.lockset)
            cg.emplace(cfg);

        RrmOptions rrm_options;
        rrm_options.delaySlots = options_.delaySlots;
        rrm_options.initialRrm = options_.initialRrm;
        rrm_options.geometry = options_.geometry;
        rrm_options.muxContextSize = options_.declaredContext;
        RrmAnalysis rrm(cfg, rrm_options, cg ? &*cg : nullptr);

        flowChecks(cfg, rrm, liveness);
        buildThreadReports(cfg, rrm, liveness);
        crossContextChecks(cfg, rrm);
        if (cg && options_.interprocedural)
            interprocChecks(*cg, rrm);
        if (cg && options_.lockset)
            locksetChecks(cfg, *cg, rrm);
        if (cg && options_.interprocedural)
            attachPaths(*cg);
    }

    std::sort(result_.findings.begin(), result_.findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.address != b.address)
                      return a.address < b.address;
                  return a.code < b.code;
              });
    for (const Finding &f : result_.findings) {
        if (f.severity == Severity::Error)
            ++result_.errors;
        else if (f.severity == Severity::Warning)
            ++result_.warnings;
        else
            ++result_.notes;
    }
    return std::move(result_);
}

/** Registers in @p mask rendered as "r0 r1 r5" (or "none"). */
std::string
regList(uint64_t mask)
{
    if (mask == 0)
        return "none";
    std::ostringstream os;
    bool first = true;
    for (unsigned r = 0; r < 64; ++r) {
        if ((mask >> r) & 1) {
            os << (first ? "" : " ") << "r" << r;
            first = false;
        }
    }
    return os.str();
}

} // namespace

LintResult
lintProgram(const assembler::Program &program,
            const LintOptions &options)
{
    const std::string geometry = options.geometry.error();
    rr_assert(geometry.empty(), geometry);
    Linter linter(program, options);
    return linter.run();
}

std::string
renderText(const LintResult &result, const std::string &filename)
{
    std::ostringstream os;
    for (const Finding &finding : result.findings)
        os << filename << ": " << finding.str() << "\n";
    for (const ThreadReport &report : result.threads) {
        os << filename << ": context window 0x" << std::hex
           << report.rrm << std::dec << ": " << report.registers
           << " register(s) referenced, minimal context "
           << report.minContext << ", live-in "
           << regList(report.liveIn) << "\n";
    }
    for (const ProcedureReport &proc : result.procedures) {
        os << filename << ": procedure '" << proc.name << "' @"
           << proc.entry << ": " << proc.registers
           << " register(s) in its call subtree, minimal context "
           << proc.minContext
           << (proc.switchesRrm ? ", switches rrm" : "")
           << (proc.returns ? ", returns" : "") << "\n";
    }
    os << filename << ": " << result.errors << " error(s), "
       << result.warnings << " warning(s)\n";
    return os.str();
}

namespace {

/** A register bitmask as an index array: [0, 1, 5]. */
void
writeRegs(exp::JsonWriter &w, uint64_t mask)
{
    w.beginArray();
    for (unsigned r = 0; r < 64; ++r) {
        if ((mask >> r) & 1)
            w.value(r);
    }
    w.endArray();
}

void
writeFinding(exp::JsonWriter &w, const Finding &f)
{
    w.beginObject();
    w.member("code", f.code);
    w.member("severity", severityName(f.severity));
    w.member("address", f.address);
    w.member("line", f.line);
    w.member("message", f.message);
    if (!f.path.empty())
        w.member("path", f.path);
    w.endObject();
}

void
writeRaceSite(exp::JsonWriter &w, const RaceSite &site)
{
    w.beginObject();
    w.member("address", site.address);
    w.member("line", site.line);
    w.member("write", site.write);
    w.member("thread", site.thread);
    w.member("locks", site.locks);
    w.endObject();
}

} // namespace

std::string
renderJsonDocument(const std::vector<FileReport> &files,
                   const std::string &toolVersion, int exitCode)
{
    unsigned errors = 0, warnings = 0, notes = 0;
    exp::JsonWriter w;
    w.beginObject();
    w.member("schema", "rr.lint.v1");
    w.key("tool");
    w.beginObject();
    w.member("name", "rrlint");
    w.member("version", toolVersion);
    w.endObject();
    w.key("files");
    w.beginArray();
    for (const FileReport &file : files) {
        const LintResult &result = file.result;
        w.beginObject();
        w.member("file", file.file);
        w.member("readable", file.readable);

        unsigned file_errors = result.errors;
        w.key("findings");
        w.beginArray();
        for (const assembler::Diagnostic &diag : file.assemblyErrors) {
            Finding f;
            f.code = "assembly-error";
            f.severity = Severity::Error;
            f.line = diag.line;
            f.message = diag.message;
            writeFinding(w, f);
            ++file_errors;
        }
        for (const Finding &f : result.findings)
            writeFinding(w, f);
        w.endArray();

        w.key("threads");
        w.beginArray();
        for (const ThreadReport &t : result.threads) {
            w.beginObject();
            w.member("rrm", t.rrm);
            w.member("registers", t.registers);
            w.member("min_context", t.minContext);
            w.key("footprint");
            writeRegs(w, t.footprint);
            w.key("live_in");
            writeRegs(w, t.liveIn);
            w.endObject();
        }
        w.endArray();

        w.key("procedures");
        w.beginArray();
        for (const ProcedureReport &p : result.procedures) {
            w.beginObject();
            w.member("name", p.name);
            w.member("entry", p.entry);
            w.member("registers", p.registers);
            w.member("min_context", p.minContext);
            w.key("reads");
            writeRegs(w, p.regsRead);
            w.key("writes");
            writeRegs(w, p.regsWritten);
            w.member("switches_rrm", p.switchesRrm);
            w.member("returns", p.returns);
            w.member("call_path", p.callPath);
            w.endObject();
        }
        w.endArray();

        w.key("races");
        w.beginArray();
        for (const RaceReport &race : result.races) {
            w.beginObject();
            w.member("mem", race.mem);
            w.member("symbol", race.symbol);
            w.key("sites");
            w.beginArray();
            writeRaceSite(w, race.first);
            writeRaceSite(w, race.second);
            w.endArray();
            w.endObject();
        }
        w.endArray();

        w.key("summary");
        w.beginObject();
        w.member("errors", file_errors);
        w.member("warnings", result.warnings);
        w.member("notes", result.notes);
        w.endObject();
        w.endObject();
        errors += file_errors;
        warnings += result.warnings;
        notes += result.notes;
    }
    w.endArray();

    w.key("summary");
    w.beginObject();
    w.member("files", files.size());
    w.member("errors", errors);
    w.member("warnings", warnings);
    w.member("notes", notes);
    w.member("exit", exitCode);
    w.endObject();
    w.endObject();
    return w.str() + "\n";
}

} // namespace rr::lint
