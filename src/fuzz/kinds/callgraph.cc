/**
 * @file
 * The `callgraph` fuzz kind: rrlint's interprocedural summaries and lockset
 * race detector vs a constructed call forest with lock idioms, checked
 * against the construction's ground truth and against the registers
 * and memory machine::Cpu touches when each thread root runs.
 */

#include "fuzz/kind.hh"

#include <map>
#include <set>
#include <sstream>

#include "analysis/static/callgraph.hh"
#include "analysis/static/cfg.hh"
#include "analysis/static/lint.hh"
#include "analysis/static/liveness.hh"
#include "analysis/static/lockset.hh"
#include "analysis/static/rrm_state.hh"
#include "assembler/assembler.hh"
#include "base/parse_num.hh"
#include "exp/report.hh"
#include "machine/cpu.hh"

namespace rr::fuzz {

namespace {

/** The machine callgraph samples are analysed for and run on. */
constexpr machine::Geometry kCgGeometry{.numRegs = kCgNumRegs,
                                        .operandWidth = 6};

CallgraphSample
genCallgraph(Rng &rng)
{
    CallgraphSample s;
    s.numCells = static_cast<unsigned>(rng.nextRange(1, 3));
    s.numLocks = static_cast<unsigned>(rng.nextRange(0, 2));
    s.maxSteps = 20000;

    const unsigned num_procs =
        static_cast<unsigned>(rng.nextRange(1, 10));
    s.procs.resize(num_procs);

    // Forest shape first: each procedure either starts a new tree or
    // attaches under an earlier one (single parent, depth <= 3, at
    // most 4 children), so every per-root call path is unique and
    // the ground-truth locksets below are exact.
    std::vector<unsigned> depth(num_procs, 1);
    std::vector<int> parent(num_procs, -1);
    for (unsigned i = 1; i < num_procs; ++i) {
        if (!chance(rng, 55))
            continue;
        const auto candidate = static_cast<uint32_t>(
            rng.nextRange(0, i - 1));
        if (depth[candidate] >= 3 ||
            s.procs[candidate].calls.size() >= 4)
            continue;
        parent[i] = static_cast<int>(candidate);
        depth[i] = depth[candidate] + 1;
        s.procs[candidate].calls.push_back(i);
    }

    for (unsigned i = 0; i < num_procs; ++i) {
        CgProc &proc = s.procs[i];
        const unsigned touches =
            static_cast<unsigned>(rng.nextRange(0, 3));
        for (unsigned t = 0; t < touches; ++t)
            proc.touch |= 1u << rng.nextRange(1, 11);
        if (chance(rng, 65)) {
            proc.cell = static_cast<int>(
                rng.nextRange(0, s.numCells - 1));
            proc.write = chance(rng, 60);
        }
        if (s.numLocks > 0 && chance(rng, 50)) {
            const int lock = static_cast<int>(
                rng.nextRange(0, s.numLocks - 1));
            // A spinlock re-acquired while held never returns.
            bool on_path = false;
            for (int a = parent[i]; a >= 0; a = parent[a])
                on_path = on_path || s.procs[a].lock == lock;
            if (!on_path)
                proc.lock = lock;
        }
    }

    // Roots call parentless procedures only; independent draws per
    // root make shared trees (the cross-thread case) common.
    const unsigned num_roots =
        static_cast<unsigned>(rng.nextRange(1, 4));
    s.roots.resize(num_roots);
    for (CgRoot &root : s.roots) {
        for (unsigned i = 0; i < num_procs; ++i) {
            if (parent[i] < 0 && root.calls.size() < 4 &&
                chance(rng, 60))
                root.calls.push_back(i);
        }
    }
    return s;
}

/** Forest depth of every procedure (tree roots at depth 1). */
std::vector<unsigned>
cgDepths(const CallgraphSample &s)
{
    std::vector<unsigned> depth(s.procs.size(), 1);
    for (size_t p = 0; p < s.procs.size(); ++p) {
        for (const uint32_t child : s.procs[p].calls)
            depth[child] = depth[p] + 1;
    }
    return depth;
}

/** One ground-truth shared-cell access site. */
struct CgSite
{
    uint32_t proc = 0; ///< sample procedure index
    uint32_t mem = 0;  ///< effective word address (kCgCellBase + cell)
    bool write = false;
    uint32_t held = 0; ///< lockset bitmask along the unique call path
};

/** What the construction itself implies the analyses must report. */
struct CgTruth
{
    std::vector<std::vector<CgSite>> byRoot; ///< per sample root
    std::set<uint32_t> racyMems;             ///< expected race words
};

CgTruth
truthOf(const CallgraphSample &s)
{
    // Mirror the analysis' per-root must-hold dataflow, including its
    // one deliberate imprecision: the lock procedures are shared, so
    // their entry state is the meet (intersection) over every call
    // site reached from the root, and the acquire/release return
    // edges carry *that* meet back to each caller — not the caller's
    // own lockset. Within a root every regular procedure still has a
    // unique call site (the sample graph is a forest and a root's
    // calls are distinct), so only the lock procedures merge context.
    constexpr uint32_t top = ~uint32_t{0};
    CgTruth truth;
    truth.byRoot.resize(s.roots.size());
    for (size_t r = 0; r < s.roots.size(); ++r) {
        // A[l] / R[l]: converged entry state of lk{l}_acq / lk{l}_rel.
        std::vector<uint32_t> acq_in(s.numLocks, top);
        std::vector<uint32_t> rel_in(s.numLocks, top);
        const auto meet = [](uint32_t a, uint32_t b) {
            return a == top ? b : (b == top ? a : (a & b));
        };

        // One descending Kleene pass: walk the root's call sequence
        // (a later tree starts in the previous tree's exit state),
        // recording each procedure's body lockset and gathering the
        // lock procedures' next entry states; repeat to fixpoint.
        std::vector<uint32_t> next_acq, next_rel;
        const std::function<uint32_t(uint32_t, uint32_t)> walk =
            [&](uint32_t p, uint32_t entry) -> uint32_t {
            const CgProc &proc = s.procs[p];
            uint32_t body = entry;
            if (proc.lock >= 0) {
                next_acq[proc.lock] =
                    meet(next_acq[proc.lock], entry);
                body = acq_in[proc.lock] == top
                           ? top
                           : acq_in[proc.lock] |
                                 (uint32_t{1} << proc.lock);
            }
            if (proc.cell >= 0) {
                truth.byRoot[r].push_back(
                    {p, kCgCellBase + static_cast<uint32_t>(proc.cell),
                     proc.write, body});
            }
            uint32_t cur = body;
            for (const uint32_t child : proc.calls)
                cur = walk(child, cur);
            if (proc.lock >= 0) {
                next_rel[proc.lock] = meet(next_rel[proc.lock], cur);
                return rel_in[proc.lock] == top
                           ? top
                           : rel_in[proc.lock] &
                                 ~(uint32_t{1} << proc.lock);
            }
            return cur;
        };
        for (unsigned iter = 0; iter < 64; ++iter) {
            truth.byRoot[r].clear();
            next_acq.assign(s.numLocks, top);
            next_rel.assign(s.numLocks, top);
            uint32_t cur = 0;
            for (const uint32_t p : s.roots[r].calls)
                cur = walk(p, cur);
            if (next_acq == acq_in && next_rel == rel_in)
                break;
            acq_in = next_acq;
            rel_in = next_rel;
        }
    }

    // Mirror LocksetAnalysis::findRaces: a word races when any two
    // accesses from different roots conflict (>= 1 write, disjoint
    // locksets).
    for (size_t r1 = 0; r1 < truth.byRoot.size(); ++r1) {
        for (size_t r2 = r1 + 1; r2 < truth.byRoot.size(); ++r2) {
            for (const CgSite &a : truth.byRoot[r1]) {
                for (const CgSite &b : truth.byRoot[r2]) {
                    if (a.mem == b.mem && (a.write || b.write) &&
                        (a.held & b.held) == 0)
                        truth.racyMems.insert(a.mem);
                }
            }
        }
    }
    return truth;
}

/** Parse a generated procedure label ("p7" -> 7). */
bool
cgProcIndex(const std::string &name, uint32_t &out)
{
    if (name.size() < 2 || name[0] != 'p')
        return false;
    uint64_t v = 0;
    if (!parseUnsigned(name.c_str() + 1, v))
        return false;
    out = static_cast<uint32_t>(v);
    return true;
}

Problems
checkCallgraph(const CallgraphSample &s)
{
    Problems problems;
    const std::string source = callgraphSource(s);
    const assembler::Program program = assembler::assemble(source);
    if (!program.ok()) {
        problems.push_back(exp::strf(
            "callgraph: generated source does not assemble: %s",
            program.errors.front().str().c_str()));
        return problems;
    }

    lint::Cfg cfg(program);
    const lint::CallGraph graph(cfg);
    // The callgraph-aware dataflow propagates constants across call
    // return edges; without it no address inside a procedure folds.
    lint::RrmOptions rrm_options;
    rrm_options.geometry = kCgGeometry;
    const lint::RrmAnalysis rrm(cfg, rrm_options, &graph);
    const lint::LocksetAnalysis lockset(cfg, graph, rrm);
    const CgTruth truth = truthOf(s);

    // Thread roots and lock names must match the construction.
    std::map<std::string, uint32_t> root_by_name;
    for (uint32_t ri = 0; ri < lockset.roots().size(); ++ri)
        root_by_name[lockset.roots()[ri].name] = ri;
    if (lockset.roots().size() != s.roots.size()) {
        problems.push_back(exp::strf(
            "callgraph: %zu thread roots constructed but the "
            "analysis found %zu",
            s.roots.size(), lockset.roots().size()));
        return problems;
    }
    std::vector<uint32_t> ls_root(s.roots.size(), 0);
    for (size_t r = 0; r < s.roots.size(); ++r) {
        const std::string name =
            r == 0 ? "entry" : exp::strf("t%zu", r);
        const auto it = root_by_name.find(name);
        if (it == root_by_name.end()) {
            problems.push_back(exp::strf(
                "callgraph: thread root '%s' not found by the "
                "analysis", name.c_str()));
            return problems;
        }
        ls_root[r] = it->second;
    }
    for (unsigned l = 0; l < s.numLocks; ++l) {
        const std::string expect = exp::strf("lk%u", l);
        if (l >= graph.lockNames().size() ||
            graph.lockNames()[l] != expect) {
            problems.push_back(exp::strf(
                "callgraph: lock %u is not '%s' in lockdef order",
                l, expect.c_str()));
            return problems;
        }
    }

    // Oracle 1a: the classified shared accesses are exactly the
    // construction's, site by site, lockset included.
    std::map<std::pair<uint32_t, uint32_t>, const CgSite *> expected;
    for (size_t r = 0; r < truth.byRoot.size(); ++r) {
        for (const CgSite &site : truth.byRoot[r])
            expected[{ls_root[r], site.proc}] = &site;
    }
    std::set<std::pair<uint32_t, uint32_t>> seen;
    for (const lint::Access &access : lockset.accesses()) {
        if (problems.size() >= 4)
            return problems;
        const uint32_t owner = graph.procOfAddress(access.address);
        uint32_t proc_idx = 0;
        if (owner == lint::CallGraph::noProc ||
            !cgProcIndex(graph.procedures()[owner].name, proc_idx)) {
            problems.push_back(exp::strf(
                "callgraph: classified access at addr %u is not "
                "inside a generated procedure", access.address));
            continue;
        }
        const auto it = expected.find({access.root, proc_idx});
        if (it == expected.end()) {
            problems.push_back(exp::strf(
                "callgraph: access at addr %u (root %u, proc p%u) "
                "has no constructed counterpart",
                access.address, access.root, proc_idx));
            continue;
        }
        if (!seen.insert({access.root, proc_idx}).second) {
            problems.push_back(exp::strf(
                "callgraph: proc p%u classified twice for root %u",
                proc_idx, access.root));
            continue;
        }
        const CgSite &site = *it->second;
        if (access.mem != site.mem || access.write != site.write ||
            access.held != site.held) {
            problems.push_back(exp::strf(
                "callgraph: access at addr %u (root %u, proc p%u): "
                "analysis says mem=0x%x write=%d held=0x%x, "
                "construction says mem=0x%x write=%d held=0x%x",
                access.address, access.root, proc_idx, access.mem,
                access.write ? 1 : 0, access.held, site.mem,
                site.write ? 1 : 0, site.held));
        }
    }
    if (problems.empty() && seen.size() != expected.size()) {
        problems.push_back(exp::strf(
            "callgraph: %zu constructed shared accesses but the "
            "analysis classified %zu",
            expected.size(), seen.size()));
    }

    // Oracle 1b: reported races are exactly the constructed ones.
    std::set<uint32_t> reported;
    for (const lint::Race &race : lockset.races())
        reported.insert(race.mem);
    if (reported != truth.racyMems) {
        std::string got, want;
        for (const uint32_t mem : reported)
            got += exp::strf(" 0x%x", mem);
        for (const uint32_t mem : truth.racyMems)
            want += exp::strf(" 0x%x", mem);
        problems.push_back(exp::strf(
            "callgraph: race set mismatch: analysis reports {%s }, "
            "construction implies {%s }",
            got.c_str(), want.c_str()));
    }

    // Oracle 1c: the full lint pipeline must agree — and find
    // nothing else in this clean-by-construction program.
    lint::LintOptions lint_options;
    lint_options.geometry = kCgGeometry;
    lint_options.interprocedural = true;
    lint_options.lockset = true;
    const lint::LintResult lint_result =
        lint::lintProgram(program, lint_options);
    for (const lint::Finding &finding : lint_result.findings) {
        if (finding.code != "race") {
            problems.push_back(exp::strf(
                "callgraph: unexpected finding [%s] at addr %u: %s",
                finding.code.c_str(), finding.address,
                finding.message.c_str()));
            break;
        }
    }
    if (lint_result.races.size() != truth.racyMems.size()) {
        problems.push_back(exp::strf(
            "callgraph: lintProgram reports %zu races, construction "
            "implies %zu",
            lint_result.races.size(), truth.racyMems.size()));
    }
    if (!problems.empty())
        return problems;

    // Oracle 2: run every thread root on the machine; execution must
    // stay inside the interprocedural summary claims, and every
    // runtime shared-cell touch must have been classified.
    for (size_t r = 0; r < s.roots.size(); ++r) {
        machine::CpuConfig config;
        config.geometry = kCgGeometry;
        config.memWords = kCgMemWords;
        machine::Cpu cpu(config);
        for (size_t i = 0; i < program.words.size(); ++i)
            cpu.mem().write(static_cast<uint32_t>(i),
                            program.words[i]);

        const uint32_t root_entry =
            graph.procedures()[lockset.roots()[ls_root[r]].proc]
                .entry;
        cpu.setPc(root_entry);

        struct Step
        {
            uint32_t pc;
            isa::Instruction inst;
            uint32_t ea; ///< LD/ST only
        };
        std::vector<Step> steps;
        cpu.setTraceHook([&](const machine::TraceEntry &entry) {
            // The hook fires before execution and the program never
            // relocates (RRM stays 0), so rs1 reads the architected
            // register directly and the effective address is exact.
            uint32_t ea = 0;
            if (entry.inst.op == isa::Opcode::LD ||
                entry.inst.op == isa::Opcode::ST) {
                ea = cpu.regs().data()[entry.inst.rs1] +
                     static_cast<uint32_t>(entry.inst.imm);
            }
            steps.push_back({entry.pc, entry.inst, ea});
        });
        cpu.run(s.maxSteps);
        if (!cpu.halted()) {
            problems.push_back(exp::strf(
                "callgraph: root %zu did not halt within %llu steps "
                "(trap %d)",
                r, static_cast<unsigned long long>(s.maxSteps),
                static_cast<int>(cpu.trap())));
            return problems;
        }

        std::set<std::pair<uint32_t, uint32_t>> touched_sites;
        for (const Step &step : steps) {
            if (problems.size() >= 4)
                return problems;
            const uint32_t owner = graph.procOfAddress(step.pc);
            if (owner == lint::CallGraph::noProc) {
                problems.push_back(exp::strf(
                    "callgraph: root %zu executed addr %u, which "
                    "belongs to no discovered procedure",
                    r, step.pc));
                continue;
            }
            const lint::Procedure &proc =
                graph.procedures()[owner];
            const lint::UseDef ud = lint::useDef(step.inst);
            const uint64_t used = ud.uses | ud.defs;
            if (used & ~proc.footprint) {
                problems.push_back(exp::strf(
                    "callgraph: root %zu at addr %u touches regs "
                    "0x%llx outside procedure '%s' footprint 0x%llx",
                    r, step.pc,
                    static_cast<unsigned long long>(used),
                    proc.name.c_str(),
                    static_cast<unsigned long long>(
                        proc.footprint)));
                continue;
            }
            const bool is_mem = step.inst.op == isa::Opcode::LD ||
                                step.inst.op == isa::Opcode::ST;
            if (is_mem && step.ea >= kCgCellBase &&
                step.ea < kCgCellBase + s.numCells) {
                touched_sites.insert({step.pc, step.ea});
            }
        }

        // Every runtime cell touch must be a classified access of
        // this root, at the same site and address.
        std::set<std::pair<uint32_t, uint32_t>> classified;
        for (const lint::Access &access : lockset.accesses()) {
            if (access.root == ls_root[r])
                classified.insert({access.address, access.mem});
        }
        for (const auto &[pc, ea] : touched_sites) {
            if (!classified.count({pc, ea})) {
                problems.push_back(exp::strf(
                    "callgraph: root %zu touched shared word 0x%x "
                    "at addr %u but the lockset pass did not "
                    "classify that access",
                    r, ea, pc));
                return problems;
            }
        }
    }
    return problems;
}

/** @return true when procedure @p index has a caller or a root call. */
bool
cgReferenced(const CallgraphSample &s, uint32_t index)
{
    for (const CgProc &p : s.procs) {
        for (const uint32_t callee : p.calls) {
            if (callee == index)
                return true;
        }
    }
    for (const CgRoot &r : s.roots) {
        for (const uint32_t callee : r.calls) {
            if (callee == index)
                return true;
        }
    }
    return false;
}

void
shrinkCallgraph(CallgraphSample &s, Budget &budget)
{
    // Fewer roots first: each root costs a full Cpu run per check.
    if (s.roots.size() > 1) {
        shrinkList(s.roots, budget,
                   [&](const std::vector<CgRoot> &roots) {
                       CallgraphSample candidate = s;
                       candidate.roots = roots;
                       if (candidate.roots.empty())
                           candidate.roots.push_back(CgRoot{});
                       return AnySample{candidate};
                   });
        if (s.roots.empty())
            s.roots.push_back(CgRoot{});
    }
    for (size_t r = 0; r < s.roots.size(); ++r) {
        shrinkList(s.roots[r].calls, budget,
                   [&](const std::vector<uint32_t> &calls) {
                       CallgraphSample candidate = s;
                       candidate.roots[r].calls = calls;
                       return AnySample{candidate};
                   });
    }
    for (size_t i = 0; i < s.procs.size(); ++i) {
        shrinkList(s.procs[i].calls, budget,
                   [&](const std::vector<uint32_t> &calls) {
                       CallgraphSample candidate = s;
                       candidate.procs[i].calls = calls;
                       return AnySample{candidate};
                   });
    }

    // Drop now-unreferenced trailing procedures (indices of earlier
    // procedures are unaffected, so the candidate stays well formed).
    while (s.procs.size() > 1 && !budget.spent() &&
           !cgReferenced(s, static_cast<uint32_t>(s.procs.size() - 1)) &&
           tryEdit(s, budget,
                   [](CallgraphSample &c) { c.procs.pop_back(); })) {
    }

    // Simplify per-procedure bodies, one aspect at a time.
    for (size_t i = 0; i < s.procs.size() && !budget.spent(); ++i) {
        if (s.procs[i].touch != 0)
            tryEdit(s, budget,
                    [&](CallgraphSample &c) { c.procs[i].touch = 0; });
        if (s.procs[i].lock >= 0 && !budget.spent())
            tryEdit(s, budget,
                    [&](CallgraphSample &c) { c.procs[i].lock = -1; });
        if (s.procs[i].cell >= 0 && !budget.spent())
            tryEdit(s, budget, [&](CallgraphSample &c) {
                c.procs[i].cell = -1;
                c.procs[i].write = false;
            });
    }

    // Shed unused cell/lock declarations (keeps repro files small and
    // the emitted data segment honest about what the sample needs).
    if (!budget.spent()) {
        int maxCell = 0, maxLock = -1;
        for (const CgProc &p : s.procs) {
            maxCell = std::max(maxCell, p.cell);
            maxLock = std::max(maxLock, p.lock);
        }
        const auto cells = static_cast<unsigned>(maxCell + 1);
        const auto locks = static_cast<unsigned>(maxLock + 1);
        if (cells != s.numCells || locks != s.numLocks)
            tryEdit(s, budget, [&](CallgraphSample &c) {
                c.numCells = cells;
                c.numLocks = locks;
            });
    }

    shrinkScalar(s, &CallgraphSample::maxSteps,
                 {uint64_t{2000}, uint64_t{20000}}, budget);
}

constexpr Field<CallgraphSample> kFields[] = {
    {"numCells", &CallgraphSample::numCells, 1, 8},
    {"numLocks", &CallgraphSample::numLocks, 0, 4},
    {"maxSteps", &CallgraphSample::maxSteps, 1, 10000000},
};

/**
 * One line per procedure: touch mask, cell+1 (0 = none), write flag,
 * lock+1 (0 = none), then the child indices; then one per root.
 */
void
writeForest(const CallgraphSample &s, std::string &out)
{
    for (const CgProc &proc : s.procs) {
        out += "proc " + std::to_string(proc.touch) + ' ' +
               std::to_string(proc.cell + 1) + ' ' +
               (proc.write ? '1' : '0') + ' ' +
               std::to_string(proc.lock + 1);
        for (const uint32_t callee : proc.calls)
            out += ' ' + std::to_string(callee);
        out += '\n';
    }
    for (const CgRoot &root : s.roots) {
        out += "root";
        for (const uint32_t callee : root.calls)
            out += ' ' + std::to_string(callee);
        out += '\n';
    }
}

/**
 * Every number on a proc/root line is capped well below the narrow
 * casts; the forest rules in validateCallgraph() do the real checks.
 */
bool
readForest(const Line &line, CallgraphSample &s, std::string &)
{
    std::vector<uint32_t> v;
    for (const std::string &w : splitWords(line.rest)) {
        uint64_t n = 0;
        if (!parseU64(w, 100000, n))
            return false;
        v.push_back(static_cast<uint32_t>(n));
    }
    if (line.key == "root") {
        s.roots.push_back(CgRoot{v});
        return true;
    }
    if (line.key != "proc" || v.size() < 4 || v[2] > 1)
        return false;
    CgProc proc;
    proc.touch = v[0];
    proc.cell = static_cast<int>(v[1]) - 1;
    proc.write = v[2] != 0;
    proc.lock = static_cast<int>(v[3]) - 1;
    proc.calls.assign(v.begin() + 4, v.end());
    s.procs.push_back(std::move(proc));
    return true;
}

bool
validateCallgraph(const CallgraphSample &s, std::string &error)
{
    if (!inRange(s.procs.size(), 1, 16, "procs", error) ||
        !inRange(s.roots.size(), 1, 6, "roots", error))
        return false;

    // Establish the forest shape first (at most one parent each),
    // then check depth and lock nesting along parent chains.
    const uint32_t none = ~0u;
    std::vector<uint32_t> parent(s.procs.size(), none);
    for (size_t i = 0; i < s.procs.size(); ++i) {
        const CgProc &p = s.procs[i];
        if ((p.touch & ~0xFFEu) != 0) {
            error = "proc touch outside r1..r11";
            return false;
        }
        if (p.cell < -1 || p.cell >= static_cast<int>(s.numCells)) {
            error = "proc cell out of range";
            return false;
        }
        if (p.cell < 0 && p.write) {
            error = "write without a cell";
            return false;
        }
        if (p.lock < -1 || p.lock >= static_cast<int>(s.numLocks)) {
            error = "proc lock out of range";
            return false;
        }
        if (p.calls.size() > 4) {
            error = "proc calls too many children";
            return false;
        }
        uint32_t prev = 0;
        bool first = true;
        for (const uint32_t callee : p.calls) {
            if (callee <= i || callee >= s.procs.size()) {
                error = "proc call target out of range";
                return false;
            }
            if (!first && callee <= prev) {
                error = "proc calls not strictly increasing";
                return false;
            }
            first = false;
            prev = callee;
            if (parent[callee] != none) {
                error = "procedure has two callers";
                return false;
            }
            parent[callee] = static_cast<uint32_t>(i);
        }
    }
    for (size_t i = 0; i < s.procs.size(); ++i) {
        unsigned depth = 1;
        for (uint32_t a = parent[i]; a != none; a = parent[a]) {
            ++depth;
            if (depth > 3) {
                error = "call forest deeper than three";
                return false;
            }
            if (s.procs[i].lock >= 0 &&
                s.procs[a].lock == s.procs[i].lock) {
                error = "lock repeated along an ancestor path";
                return false;
            }
        }
    }
    for (const CgRoot &r : s.roots) {
        if (r.calls.size() > 4) {
            error = "root calls too many procedures";
            return false;
        }
        for (size_t i = 0; i < r.calls.size(); ++i) {
            const uint32_t callee = r.calls[i];
            if (callee >= s.procs.size()) {
                error = "root call target out of range";
                return false;
            }
            if (parent[callee] != none) {
                error = "root calls a non-root procedure";
                return false;
            }
            for (size_t j = 0; j < i; ++j) {
                if (r.calls[j] == callee) {
                    error = "root calls a procedure twice";
                    return false;
                }
            }
        }
    }
    return true;
}

constexpr Codec<CallgraphSample> kCodec{
    kFields, writeForest, readForest, validateCallgraph};

} // namespace

std::string
callgraphSource(const CallgraphSample &s)
{
    std::ostringstream out;
    out << "; generated by the rrfuzz callgraph domain\n";
    for (unsigned c = 0; c < s.numCells; ++c)
        out << "        .equ CELL" << c << ", "
            << (kCgCellBase + c) << '\n';
    for (unsigned l = 0; l < s.numLocks; ++l)
        out << "        .equ LOCKW" << l << ", "
            << (kCgLockBase + l) << '\n';
    out << '\n';
    for (size_t r = 1; r < s.roots.size(); ++r)
        out << "        .thread t" << r << '\n';
    for (unsigned l = 0; l < s.numLocks; ++l)
        out << "        .lockdef lk" << l << ", lk" << l
            << "_acq, lk" << l << "_rel\n";
    out << '\n';

    // Thread roots: entry first (address 0), then the .thread labels.
    for (size_t r = 0; r < s.roots.size(); ++r) {
        out << (r == 0 ? std::string("entry")
                       : "t" + std::to_string(r))
            << ":\n";
        for (const uint32_t callee : s.roots[r].calls)
            out << "        jal   r12, p" << callee << '\n';
        out << "        halt\n\n";
    }

    // Procedures, in index order — but only those reachable from a
    // root. Dead code with a call into a lock procedure would poison
    // the RRM analysis' constant propagation (unreachable labels are
    // conservatively seeded with an unknown mask), and the sample's
    // ground truth deliberately models only the reachable forest.
    std::vector<bool> emitted(s.procs.size(), false);
    {
        const std::function<void(uint32_t)> mark = [&](uint32_t p) {
            if (emitted[p])
                return;
            emitted[p] = true;
            for (const uint32_t child : s.procs[p].calls)
                mark(child);
        };
        for (const CgRoot &root : s.roots) {
            for (const uint32_t callee : root.calls)
                mark(callee);
        }
    }

    // A procedure at forest depth d is entered with its return
    // address in r(11+d) and calls its children through r(12+d);
    // lock procedures always link via r15.
    const std::vector<unsigned> depth = cgDepths(s);
    for (size_t p = 0; p < s.procs.size(); ++p) {
        const CgProc &proc = s.procs[p];
        if (!emitted[p])
            continue;
        const unsigned link = 11 + depth[p];
        out << 'p' << p << ":\n";
        if (proc.lock >= 0)
            out << "        jal   r15, lk" << proc.lock << "_acq\n";
        for (unsigned reg = 1; reg <= 11; ++reg) {
            if (proc.touch & (1u << reg))
                out << "        addi  r" << reg << ", r" << reg
                    << ", 1\n";
        }
        if (proc.cell >= 0) {
            out << "        li    r11, CELL" << proc.cell << '\n';
            out << "        " << (proc.write ? "st" : "ld")
                << "    r10, 0(r11)\n";
        }
        for (const uint32_t callee : proc.calls)
            out << "        jal   r" << (link + 1) << ", p" << callee
                << '\n';
        if (proc.lock >= 0)
            out << "        jal   r15, lk" << proc.lock << "_rel\n";
        out << "        jmp   r" << link << "\n\n";
    }

    // Spinlock idioms, one acquire/release pair per declared lock
    // (the .lockdef contract: the analyses trust these, so keep them
    // the canonical shape from docs/LINT.md).
    for (unsigned l = 0; l < s.numLocks; ++l) {
        out << "lk" << l << "_acq:\n"
            << "        li    r5, LOCKW" << l << '\n'
            << "        li    r6, 1\n"
            << "lk" << l << "_spin:\n"
            << "        ld    r7, 0(r5)\n"
            << "        beq   r7, r6, lk" << l << "_spin\n"
            << "        st    r6, 0(r5)\n"
            << "        jmp   r15\n\n";
        out << "lk" << l << "_rel:\n"
            << "        li    r5, LOCKW" << l << '\n'
            << "        li    r6, 0\n"
            << "        st    r6, 0(r5)\n"
            << "        jmp   r15\n\n";
    }
    return out.str();
}

constinit const KindOps callgraphKind =
    kindOps<genCallgraph, checkCallgraph, shrinkCallgraph, kCodec>(
        "callgraph");

} // namespace rr::fuzz
