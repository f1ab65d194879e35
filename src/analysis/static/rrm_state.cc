#include "analysis/static/rrm_state.hh"

#include <algorithm>
#include <deque>

#include "analysis/static/callgraph.hh"
#include "base/logging.hh"
#include "isa/semantics.hh"

namespace rr::lint {

using isa::Instruction;
using isa::Opcode;

namespace {

/** Physical registers above this are not worth tracking. */
constexpr uint32_t physTrackLimit = 1u << 20;

} // namespace

AbsVal
AbsVal::join(const AbsVal &a, const AbsVal &b)
{
    if (a.kind == Bottom)
        return b;
    if (b.kind == Bottom)
        return a;
    if (a.kind == Const && b.kind == Const && a.value == b.value)
        return a;
    return top();
}

RrmAnalysis::RrmAnalysis(const Cfg &cfg, const RrmOptions &options,
                         const CallGraph *callgraph)
    : cfg_(cfg), options_(options), callgraph_(callgraph)
{
    const size_t num_blocks = cfg_.blocks().size();
    inStates_.resize(num_blocks);
    rrmBefore_.assign(cfg_.instructions().size(), AbsVal::bottom());
    memAddrBefore_.assign(cfg_.instructions().size(),
                          AbsVal::bottom());

    if (num_blocks == 0)
        return;

    // Interprocedural return edges: a callee's `jmp` exit state flows
    // to every direct call site's return point — pending LDRRM
    // included, since the hardware keeps ticking across the jump.
    // Those return points then need no conservative Top seed.
    //
    // Indirect call sites get a caller-side edge instead: a JALR may
    // target any address-taken returning procedure, whose own entry
    // state is unknown, so the callee's exit state is useless — but
    // its *summary* is not. The caller's RRM survives the call when
    // no possible callee subtree switches it; registers are assumed
    // clobbered either way.
    std::vector<std::vector<uint32_t>> return_succs(num_blocks);
    std::vector<std::vector<uint32_t>> indirect_return_succs(
        num_blocks);
    std::vector<bool> return_point(num_blocks, false);
    bool indirect_keeps_rrm = true;
    if (callgraph_ != nullptr) {
        bool any_indirect_target = false;
        for (const Procedure &p : callgraph_->procedures()) {
            if (!p.addressTaken || !p.returns)
                continue;
            any_indirect_target = true;
            if (p.switchesRrm)
                indirect_keeps_rrm = false;
        }
        for (const CallSite &site : callgraph_->callSites()) {
            if (site.indirect) {
                if (!any_indirect_target)
                    continue; // no callee returns: point stays a root
                const uint32_t point =
                    cfg_.blockAt(site.returnAddress);
                const uint32_t call_block =
                    cfg_.blockAt(site.address);
                if (point == Cfg::noBlock ||
                    call_block == Cfg::noBlock) {
                    continue;
                }
                return_point[point] = true;
                indirect_return_succs[call_block].push_back(point);
                continue;
            }
            if (site.callee == CallGraph::noProc)
                continue;
            const uint32_t point = cfg_.blockAt(site.returnAddress);
            if (point == Cfg::noBlock)
                continue;
            return_point[point] = true;
            const Procedure &callee =
                callgraph_->procedures()[site.callee];
            for (const uint32_t from : callee.returnBlocks)
                return_succs[from].push_back(point);
        }
        for (std::vector<uint32_t> &succs : return_succs) {
            std::sort(succs.begin(), succs.end());
            succs.erase(std::unique(succs.begin(), succs.end()),
                        succs.end());
        }
        for (std::vector<uint32_t> &succs : indirect_return_succs) {
            std::sort(succs.begin(), succs.end());
            succs.erase(std::unique(succs.begin(), succs.end()),
                        succs.end());
        }
    }

    // Seed: the entry runs under the configured initial mask; with a
    // call graph, `.thread` entries run under their declared mask
    // (default: the initial one) and direct-call return points wait
    // for their return edge; any other root (label- or indirect-
    // jump-reachable code) runs under an unknown mask so that nothing
    // escapes analysis.
    std::deque<uint32_t> work;
    std::vector<bool> queued(num_blocks, false);
    for (const uint32_t root : cfg_.roots()) {
        State seed;
        seed.reachable = true;
        bool seeded = false;
        if (root == cfg_.entryBlock()) {
            seed.rrm = AbsVal::constant(options_.initialRrm);
            seeded = true;
        }
        if (callgraph_ != nullptr) {
            const uint32_t proc = callgraph_->procByEntry(
                cfg_.blocks()[root].begin);
            if (proc != CallGraph::noProc &&
                callgraph_->procedures()[proc].isThread) {
                const Procedure &p = callgraph_->procedures()[proc];
                seed.rrm = AbsVal::join(
                    seed.rrm,
                    AbsVal::constant(p.hasThreadRrm
                                         ? p.threadRrm
                                         : options_.initialRrm));
                seeded = true;
            }
        }
        if (!seeded) {
            if (callgraph_ != nullptr && return_point[root])
                continue; // fed by its return edge instead
            seed.rrm = AbsVal::top();
        }
        inStates_[root] = joinStates(inStates_[root], seed);
        if (!queued[root]) {
            work.push_back(root);
            queued[root] = true;
        }
    }

    while (!work.empty()) {
        const uint32_t id = work.front();
        work.pop_front();
        queued[id] = false;
        const BasicBlock &block = cfg_.blocks()[id];

        const State out = transferBlock(block, inStates_[id], false);
        auto propagate = [&](uint32_t succ, const State &state) {
            const State joined = joinStates(inStates_[succ], state);
            if (joined == inStates_[succ])
                return;
            inStates_[succ] = joined;
            if (!queued[succ]) {
                work.push_back(succ);
                queued[succ] = true;
            }
        };
        State cleared = out;
        clearPendingAtExit(block, cleared);
        for (const uint32_t succ : block.succs)
            propagate(succ, cleared);
        // Return edges carry the raw state: the delay-slot machinery
        // keeps ticking across a `jmp`.
        for (const uint32_t succ : return_succs[id])
            propagate(succ, out);
        // Indirect return edges carry a summary approximation: any
        // register may be clobbered, and the RRM survives only when
        // no address-taken returning procedure switches it (a mask
        // still pending at the JALR lands inside the callee, so it is
        // unknown here too).
        for (const uint32_t succ : indirect_return_succs[id]) {
            State weak;
            weak.reachable = true;
            weak.rrm = indirect_keeps_rrm && !out.pending.active
                           ? out.rrm
                           : AbsVal::top();
            propagate(succ, weak);
        }
    }

    // Recording pass: per-instruction masks and hazards, once.
    for (const BasicBlock &block : cfg_.blocks()) {
        if (!inStates_[block.id].reachable)
            continue;
        const State out =
            transferBlock(block, inStates_[block.id], true);
        if (!return_succs[block.id].empty() && out.pending.active) {
            const CfgInstruction &last = cfg_.at(block.end - 1);
            hazards_.push_back({RrmHazard::PendingAcrossReturn,
                                last.address, last.line});
        }
    }

    // Collect the distinct constant windows.
    for (const AbsVal &v : rrmBefore_) {
        if (v.isConst())
            windows_.push_back(v.value);
    }
    std::sort(windows_.begin(), windows_.end());
    windows_.erase(std::unique(windows_.begin(), windows_.end()),
                   windows_.end());
    std::sort(hazards_.begin(), hazards_.end(),
              [](const RrmHazard &a, const RrmHazard &b) {
                  return a.address < b.address;
              });
}

const AbsVal &
RrmAnalysis::rrmBefore(uint32_t addr) const
{
    rr_assert(cfg_.contains(addr), "address outside image");
    return rrmBefore_[addr - cfg_.program().base];
}

const AbsVal &
RrmAnalysis::memAddrBefore(uint32_t addr) const
{
    rr_assert(cfg_.contains(addr), "address outside image");
    return memAddrBefore_[addr - cfg_.program().base];
}

bool
RrmAnalysis::relocate(uint32_t rrm, unsigned reg,
                      uint32_t &physical) const
{
    switch (options_.geometry.mode) {
      case machine::RelocationMode::Or:
        physical = rrm | reg;
        return true;
      case machine::RelocationMode::Add:
        physical = rrm + reg;
        return true;
      case machine::RelocationMode::Mux:
        if (options_.muxContextSize == 0)
            return false;
        physical =
            (rrm & ~(options_.muxContextSize - 1)) |
            (reg & (options_.muxContextSize - 1));
        return true;
    }
    return false;
}

RrmAnalysis::State
RrmAnalysis::joinStates(const State &a, const State &b)
{
    if (!a.reachable)
        return b;
    if (!b.reachable)
        return a;

    State out;
    out.reachable = true;
    out.rrm = AbsVal::join(a.rrm, b.rrm);

    if (a.pending == b.pending) {
        out.pending = a.pending;
    } else if (a.pending.active && b.pending.active &&
               a.pending.remaining == b.pending.remaining) {
        out.pending.active = true;
        out.pending.remaining = a.pending.remaining;
        out.pending.value =
            AbsVal::join(a.pending.value, b.pending.value);
    } else {
        // Delay windows out of phase between the two paths: the mask
        // a few instructions from now is simply unknown.
        out.pending = Pending{};
        out.rrm = AbsVal::top();
    }

    for (const auto &[reg, value] : a.phys) {
        const auto it = b.phys.find(reg);
        if (it != b.phys.end() && it->second == value)
            out.phys.emplace(reg, value);
    }
    return out;
}

AbsVal
RrmAnalysis::readReg(const State &state, unsigned reg) const
{
    if (!tracksOperand(options_.geometry, reg))
        return AbsVal::top();
    if (!state.rrm.isConst())
        return AbsVal::top();
    uint32_t physical;
    if (!relocate(state.rrm.value, reg, physical))
        return AbsVal::top();
    const auto it = state.phys.find(physical);
    return it != state.phys.end() ? AbsVal::constant(it->second)
                                  : AbsVal::top();
}

void
RrmAnalysis::writeReg(State &state, unsigned reg,
                      const AbsVal &v) const
{
    if (!state.rrm.isConst()) {
        // Unknown destination: anything may have been clobbered.
        state.phys.clear();
        return;
    }
    if (!tracksOperand(options_.geometry, reg)) {
        state.phys.clear();
        return;
    }
    uint32_t physical;
    if (!relocate(state.rrm.value, reg, physical)) {
        state.phys.clear();
        return;
    }
    if (physical >= physTrackLimit)
        return;
    if (v.isConst())
        state.phys[physical] = v.value;
    else
        state.phys.erase(physical);
}

void
RrmAnalysis::transferInstruction(State &state,
                                 const CfgInstruction &ci, bool record)
{
    // Mirror Cpu::step: a pending LDRRM advances before the
    // instruction decodes.
    if (state.pending.active) {
        --state.pending.remaining;
        if (state.pending.remaining == 0) {
            state.rrm = state.pending.value.isConst()
                            ? state.pending.value
                            : AbsVal::top();
            state.pending.active = false;
        }
    }

    if (record) {
        rrmBefore_[ci.address - cfg_.program().base] =
            AbsVal::join(rrmBefore_[ci.address - cfg_.program().base],
                         state.rrm);
        if (ci.inst.op == Opcode::LD || ci.inst.op == Opcode::ST) {
            const AbsVal base = readReg(state, ci.inst.rs1);
            const AbsVal eff =
                base.isConst()
                    ? AbsVal::constant(
                          base.value +
                          static_cast<uint32_t>(ci.inst.imm))
                    : AbsVal::top();
            AbsVal &slot =
                memAddrBefore_[ci.address - cfg_.program().base];
            slot = AbsVal::join(slot, eff);
        }
    }

    const Instruction &inst = ci.inst;
    auto r1 = [&] { return readReg(state, inst.rs1); };
    auto r2 = [&] { return readReg(state, inst.rs2); };
    auto wr = [&](const AbsVal &v) { writeReg(state, inst.rd, v); };
    // Fold through the machine's own semantics: a constant result when
    // rs1 and the second operand are both known.
    auto fold = [&](const AbsVal &b) {
        const AbsVal a = r1();
        wr(a.isConst() && b.isConst()
               ? AbsVal::constant(isa::alu(inst.op, a.value, b.value))
               : AbsVal::top());
    };

    switch (inst.op) {
      case Opcode::ADD:
      case Opcode::SUB:
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
      case Opcode::SLL:
      case Opcode::SRL:
      case Opcode::SRA:
      case Opcode::SLT:
      case Opcode::SLTU:
        fold(r2());
        break;
      case Opcode::ADDI:
      case Opcode::ANDI:
      case Opcode::ORI:
      case Opcode::XORI:
      case Opcode::SLTI:
      case Opcode::SLLI:
      case Opcode::SRLI:
      case Opcode::SRAI:
        fold(AbsVal::constant(static_cast<uint32_t>(inst.imm)));
        break;

      case Opcode::LUI:
        wr(AbsVal::constant(
            isa::alu(inst.op, 0, static_cast<uint32_t>(inst.imm))));
        break;

      case Opcode::LD:
        wr(AbsVal::top());
        break;
      case Opcode::ST:
      case Opcode::MTPSW:
      case Opcode::FAULT:
      case Opcode::NOP:
      case Opcode::HALT:
        break;

      case Opcode::JAL:
      case Opcode::JALR:
        // The link value is the static return address.
        wr(AbsVal::constant(ci.address + 1));
        break;
      case Opcode::JMP:
        break;

      case Opcode::LDRRM:
        if (state.pending.active && record) {
            hazards_.push_back(
                {RrmHazard::LdrrmInDelay, ci.address, ci.line});
        }
        state.pending.active = true;
        state.pending.value = r1();
        state.pending.remaining = options_.delaySlots + 1;
        break;
      case Opcode::LDRRMX:
        if (inst.imm == 0) {
            if (state.pending.active && record) {
                hazards_.push_back(
                    {RrmHazard::LdrrmInDelay, ci.address, ci.line});
            }
            state.pending.active = true;
            state.pending.value = r1();
            state.pending.remaining = options_.delaySlots + 1;
        }
        // Other banks are not tracked.
        break;

      case Opcode::RDRRM:
        wr(state.rrm);
        break;
      case Opcode::MFPSW:
        wr(AbsVal::top());
        break;
      case Opcode::FF1:
        fold(AbsVal::constant(0));
        break;

      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
        break;

      case Opcode::NumOpcodes:
        break;
    }

    // A control transfer inside a still-pending delay window means
    // the mask lands at the transfer target. HALT is exempt: the
    // pending mask dies with the machine, it lands nowhere.
    if (state.pending.active && isControlTransfer(inst) &&
        transferKind(inst) != Transfer::Halt && record) {
        hazards_.push_back(
            {RrmHazard::ControlInDelay, ci.address, ci.line});
    }
}

RrmAnalysis::State
RrmAnalysis::transferBlock(const BasicBlock &block, State state,
                           bool record)
{
    for (uint32_t addr = block.begin; addr < block.end; ++addr)
        transferInstruction(state, cfg_.at(addr), record);
    return state;
}

void
RrmAnalysis::clearPendingAtExit(const BasicBlock &block,
                                State &state) const
{
    // A pending window surviving a control-transfer exit lands at an
    // unknown point; CFG successors see an unknown mask. (Plain
    // fallthrough into a label keeps the pending state intact, and
    // return edges bypass this entirely: the call-site side knows
    // exactly where the mask lands.)
    const CfgInstruction &last = cfg_.at(block.end - 1);
    if (state.pending.active && isControlTransfer(last.inst)) {
        state.pending = Pending{};
        state.rrm = AbsVal::top();
    }
}

} // namespace rr::lint
