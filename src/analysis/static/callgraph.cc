#include "analysis/static/callgraph.hh"

#include <algorithm>
#include <deque>
#include <map>

#include "base/bitops.hh"
#include "base/logging.hh"
#include "isa/instruction.hh"

namespace rr::lint {

using isa::Opcode;

CallGraph::CallGraph(const Cfg &cfg) : cfg_(cfg)
{
    blockOwner_.assign(cfg_.blocks().size(), noProc);
    collectEntries();
    discoverBodies();
    summarize();
    buildPaths();
}

uint32_t
CallGraph::procByEntry(uint32_t addr) const
{
    for (uint32_t i = 0; i < procs_.size(); ++i) {
        if (procs_[i].entry == addr)
            return i;
    }
    return noProc;
}

uint32_t
CallGraph::procOfBlock(uint32_t blockId) const
{
    return blockId < blockOwner_.size() ? blockOwner_[blockId]
                                        : noProc;
}

uint32_t
CallGraph::procOfAddress(uint32_t addr) const
{
    const uint32_t block = cfg_.blockAt(addr);
    return block == Cfg::noBlock ? noProc : procOfBlock(block);
}

void
CallGraph::collectEntries()
{
    const assembler::Program &program = cfg_.program();

    // Entry address -> flags, gathered before procedure creation so a
    // label can be entry, thread, and lock procedure at once.
    std::map<uint32_t, Procedure> entries;
    auto declare = [&](uint32_t addr) -> Procedure * {
        if (cfg_.blockAt(addr) == Cfg::noBlock)
            return nullptr; // data or outside the image
        auto [it, inserted] = entries.try_emplace(addr);
        if (inserted)
            it->second.entry = addr;
        return &it->second;
    };

    if (cfg_.entryBlock() != Cfg::noBlock) {
        const uint32_t addr =
            cfg_.blocks()[cfg_.entryBlock()].begin;
        if (Procedure *p = declare(addr))
            p->isEntry = true;
    }
    for (const assembler::ThreadDecl &decl : program.threads) {
        if (Procedure *p = declare(decl.address)) {
            p->isThread = true;
            if (decl.hasRrm) {
                p->hasThreadRrm = true;
                p->threadRrm = decl.rrm;
            }
        }
    }
    for (const uint32_t addr : program.addressTaken) {
        if (Procedure *p = declare(addr))
            p->addressTaken = true;
    }
    for (const assembler::LockDef &def : program.lockdefs) {
        if (locks_.size() >= 32)
            break; // lockset bitmasks are 32 bits wide
        const int lock = static_cast<int>(locks_.size());
        locks_.push_back(def.name);
        if (Procedure *p = declare(def.acquire))
            p->lockAcquire = lock;
        if (Procedure *p = declare(def.release))
            p->lockRelease = lock;
    }
    for (const CfgInstruction &ci : cfg_.instructions()) {
        if (!ci.valid || ci.inst.op != Opcode::JAL)
            continue;
        uint32_t target;
        if (cfg_.directTarget(ci, target))
            declare(target);
    }

    for (auto &[addr, proc] : entries) {
        const std::vector<std::string> labels =
            cfg_.program().labelsAt(addr);
        proc.name = labels.empty() ? "@" + std::to_string(addr)
                                   : labels.front();
        procs_.push_back(std::move(proc));
    }
}

void
CallGraph::discoverBodies()
{
    for (uint32_t pi = 0; pi < procs_.size(); ++pi) {
        Procedure &proc = procs_[pi];
        const uint32_t entry_block = cfg_.blockAt(proc.entry);
        rr_assert(entry_block != Cfg::noBlock,
                  "procedure entry has no block");

        std::deque<uint32_t> work{entry_block};
        std::vector<bool> seen(cfg_.blocks().size(), false);
        seen[entry_block] = true;
        while (!work.empty()) {
            const uint32_t id = work.front();
            work.pop_front();
            const BasicBlock &block = cfg_.blocks()[id];
            proc.blocks.push_back(id);
            if (blockOwner_[id] == noProc)
                blockOwner_[id] = pi;

            auto enqueue = [&](uint32_t next) {
                if (next != Cfg::noBlock && !seen[next]) {
                    seen[next] = true;
                    work.push_back(next);
                }
            };

            const CfgInstruction &last = cfg_.at(block.end - 1);
            if (last.valid && last.inst.op == Opcode::JAL) {
                // A call: record the site and resume at the return
                // address instead of descending into the callee.
                CallSite site;
                site.address = last.address;
                site.line = last.line;
                site.caller = pi;
                site.returnAddress = last.address + 1;
                uint32_t target;
                site.callee =
                    cfg_.directTarget(last, target)
                        ? procByEntry(target)
                        : noProc;
                site.indirect = false;
                proc.callSites.push_back(
                    static_cast<uint32_t>(sites_.size()));
                sites_.push_back(site);
                enqueue(cfg_.blockAt(site.returnAddress));
                continue;
            }
            if (last.valid && last.inst.op == Opcode::JALR) {
                CallSite site;
                site.address = last.address;
                site.line = last.line;
                site.caller = pi;
                site.callee = noProc;
                site.indirect = true;
                site.returnAddress = last.address + 1;
                proc.callSites.push_back(
                    static_cast<uint32_t>(sites_.size()));
                sites_.push_back(site);
                enqueue(cfg_.blockAt(site.returnAddress));
                continue;
            }
            if (last.valid && last.inst.op == Opcode::JMP) {
                // Return-by-convention: `jmp link` ends the body.
                proc.returnBlocks.push_back(id);
                proc.returns = true;
                continue;
            }
            for (const uint32_t succ : block.succs)
                enqueue(succ);
        }
    }

    // Callee -> caller back edges.
    for (uint32_t si = 0; si < sites_.size(); ++si) {
        const CallSite &site = sites_[si];
        if (!site.indirect && site.callee != noProc)
            procs_[site.callee].callers.push_back(si);
    }
}

void
CallGraph::summarize()
{
    for (Procedure &proc : procs_) {
        for (const uint32_t id : proc.blocks) {
            const BasicBlock &block = cfg_.blocks()[id];
            for (uint32_t addr = block.begin; addr < block.end;
                 ++addr) {
                const CfgInstruction &ci = cfg_.at(addr);
                if (!ci.valid)
                    continue;
                for (const isa::RegisterOperand &op :
                     isa::registerOperands(ci.inst)) {
                    (op.isWrite ? proc.regsWritten : proc.regsRead) |=
                        uint64_t{1} << (op.reg & 63);
                }
                if (ci.inst.op == Opcode::LDRRM ||
                    ci.inst.op == Opcode::LDRRMX) {
                    proc.switchesRrm = true;
                }
                if (ci.inst.op == Opcode::JALR)
                    proc.callsIndirect = true;
            }
        }
        proc.footprint = proc.regsRead | proc.regsWritten;
    }

    // Transitive closure over direct call edges, to a fixpoint (the
    // graph may be recursive).
    bool changed = true;
    while (changed) {
        changed = false;
        for (const CallSite &site : sites_) {
            if (site.indirect || site.callee == noProc)
                continue;
            Procedure &caller = procs_[site.caller];
            const Procedure &callee = procs_[site.callee];
            const uint64_t footprint =
                caller.footprint | callee.footprint;
            const bool switches =
                caller.switchesRrm || callee.switchesRrm;
            const bool indirect =
                caller.callsIndirect || callee.callsIndirect;
            if (footprint != caller.footprint ||
                switches != caller.switchesRrm ||
                indirect != caller.callsIndirect) {
                caller.footprint = footprint;
                caller.switchesRrm = switches;
                caller.callsIndirect = indirect;
                changed = true;
            }
        }
    }

    for (Procedure &proc : procs_) {
        if (proc.footprint != 0) {
            proc.registers =
                64 - static_cast<unsigned>(
                         std::countl_zero(proc.footprint));
        }
        proc.minContext = static_cast<unsigned>(
            roundUpPowerOfTwo(std::max(1u, proc.registers)));
    }
}

void
CallGraph::buildPaths()
{
    pathParent_.assign(procs_.size(), noProc);
    std::vector<bool> seen(procs_.size(), false);
    std::deque<uint32_t> work;

    // Roots in priority order: the program entry, declared threads,
    // address-taken procedures, then anything never called.
    auto seed = [&](uint32_t pi) {
        if (!seen[pi]) {
            seen[pi] = true;
            work.push_back(pi);
        }
    };
    for (uint32_t pi = 0; pi < procs_.size(); ++pi) {
        if (procs_[pi].isEntry)
            seed(pi);
    }
    for (uint32_t pi = 0; pi < procs_.size(); ++pi) {
        if (procs_[pi].isThread)
            seed(pi);
    }
    for (uint32_t pi = 0; pi < procs_.size(); ++pi) {
        if (procs_[pi].addressTaken)
            seed(pi);
    }
    for (uint32_t pi = 0; pi < procs_.size(); ++pi) {
        if (procs_[pi].callers.empty())
            seed(pi);
    }

    while (!work.empty()) {
        const uint32_t pi = work.front();
        work.pop_front();
        for (const uint32_t si : procs_[pi].callSites) {
            const CallSite &site = sites_[si];
            if (site.indirect || site.callee == noProc)
                continue;
            if (!seen[site.callee]) {
                seen[site.callee] = true;
                pathParent_[site.callee] = si;
                work.push_back(site.callee);
            }
        }
    }
}

std::vector<std::string>
CallGraph::callPath(uint32_t proc) const
{
    std::vector<std::string> path;
    if (proc >= procs_.size())
        return path;
    uint32_t cur = proc;
    path.push_back(procs_[cur].name);
    while (pathParent_[cur] != noProc) {
        const CallSite &site = sites_[pathParent_[cur]];
        cur = site.caller;
        path.push_back(procs_[cur].name);
        if (path.size() > procs_.size())
            break; // defensive: cyclic parents cannot happen
    }
    std::reverse(path.begin(), path.end());
    return path;
}

} // namespace rr::lint
