/**
 * @file
 * The oracles. checkSample() runs every applicable property on one
 * sample and returns human-readable problem descriptions; an empty
 * list is a pass. Oracles are deterministic: a failing sample fails
 * identically on replay, which is what makes the corpus pinning
 * under tests/fuzz/corpus/ meaningful.
 *
 * The properties per kind are specified in docs/FUZZ.md; comments
 * here cover only the subtleties (tie handling in the heap oracle,
 * the vacuous-pass rules, and which lint claims are checkable).
 */

#include "fuzz/fuzz.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <sstream>

#include "analysis/static/callgraph.hh"
#include "analysis/static/cfg.hh"
#include "analysis/static/lint.hh"
#include "analysis/static/liveness.hh"
#include "analysis/static/lockset.hh"
#include "analysis/static/rrm_state.hh"
#include "assembler/assembler.hh"
#include "base/distributions.hh"
#include "base/parse_num.hh"
#include "exp/json_in.hh"
#include "exp/json_out.hh"
#include "ext/context_cache.hh"
#include "kernel/machine_mt_kernel.hh"
#include "ckpt/io.hh"
#include "machine/cpu.hh"
#include "multithread/event_core.hh"
#include "multithread/fault_model.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"
#include "multithread/workload.hh"
#include "trace/audit.hh"
#include "trace/sink.hh"

namespace rr::fuzz {

namespace {

/** printf-style into a std::string (problem formatting). */
std::string
strf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    return buf;
}

// ---------------------------------------------------------------------
// reloc

Problems
checkReloc(const RelocSample &s)
{
    Problems problems;
    machine::RelocationUnit unit(
        s.numRegs, s.operandWidth,
        static_cast<machine::RelocationMode>(s.mode), s.banks);

    const unsigned table_size = unit.tableSize();
    for (size_t i = 0; i < s.ops.size(); ++i) {
        const RelocOp &op = s.ops[i];
        if (op.kind == RelocOp::SetMask)
            unit.setMask(op.value, op.bank);
        else
            unit.setContextSize(op.value);

        const machine::RelocationResult *table = unit.table();
        for (unsigned operand = 0; operand < table_size; ++operand) {
            const machine::RelocationResult ref =
                unit.relocate(operand);
            if (table[operand].physical != ref.physical ||
                table[operand].ok != ref.ok) {
                problems.push_back(strf(
                    "reloc: after op %zu, operand %u: table() gives "
                    "phys=%u ok=%d but relocate() gives phys=%u "
                    "ok=%d",
                    i, operand, table[operand].physical,
                    table[operand].ok ? 1 : 0, ref.physical,
                    ref.ok ? 1 : 0));
                if (problems.size() >= 4)
                    return problems;
            }
        }
    }
    return problems;
}

// ---------------------------------------------------------------------
// heap

/**
 * Owner-side bookkeeping shared by both heap drivers: per-thread
 * epochs, at most one live (pending) event per thread — the
 * MtProcessor contract — and epoch-rule staleness.
 */
struct HeapOwner
{
    std::vector<uint64_t> cur;       ///< current epoch per thread
    std::vector<uint64_t> staleBelow; ///< stale iff epoch <= this
    std::vector<bool> pending;       ///< tid has an undelivered event

    explicit HeapOwner(unsigned threads)
        : cur(threads, 1), staleBelow(threads, 0),
          pending(threads, false)
    {
    }

    bool isStale(const mt::CompletionEvent &ev) const
    {
        return ev.epoch <= staleBelow[ev.tid];
    }
};

struct Delivered
{
    uint64_t time;
    uint64_t epoch;
    uint32_t tid;

    bool operator==(const Delivered &other) const = default;
    auto operator<=>(const Delivered &other) const = default;
};

/** Reference: the pre-EventCore lazy-deletion priority queue. */
struct RefHeap
{
    struct Later
    {
        bool operator()(const mt::CompletionEvent &a,
                        const mt::CompletionEvent &b) const
        {
            return a.time > b.time;
        }
    };

    std::priority_queue<mt::CompletionEvent,
                        std::vector<mt::CompletionEvent>, Later>
        q;
};

/**
 * One side's full run over the script; times optionally uniqued.
 * The EventCore owner contract is enforced here: whenever a thread's
 * epoch advances (explicit Invalidate, or a Push while an event is
 * already outstanding), @p invalidate runs before anything else.
 */
template <typename PushFn, typename PopLiveFn, typename InvalFn>
std::vector<Delivered>
driveHeap(const HeapSample &s, bool unique_times, PushFn push,
          PopLiveFn popLive, InvalFn invalidate)
{
    HeapOwner owner(s.numThreads);
    std::vector<Delivered> delivered;
    uint64_t stamp = 0;
    const auto advanceEpoch = [&](uint32_t tid) {
        owner.staleBelow[tid] = owner.cur[tid];
        ++owner.cur[tid];
        owner.pending[tid] = false;
        invalidate(tid, owner);
    };
    for (const HeapOp &op : s.ops) {
        switch (op.kind) {
          case HeapOp::Push: {
            // Re-blocking a thread with an event outstanding: the
            // old event goes stale first (owner contract).
            if (owner.pending[op.tid])
                advanceEpoch(op.tid);
            const uint64_t time =
                unique_times ? op.time * 64 + stamp : op.time;
            ++stamp;
            push(mt::CompletionEvent{time, owner.cur[op.tid],
                                     op.tid});
            owner.pending[op.tid] = true;
            break;
          }
          case HeapOp::Pop: {
            std::optional<mt::CompletionEvent> ev = popLive(owner);
            if (ev) {
                owner.pending[ev->tid] = false;
                delivered.push_back({ev->time, ev->epoch, ev->tid});
            }
            break;
          }
          case HeapOp::Invalidate:
            if (owner.pending[op.tid])
                advanceEpoch(op.tid);
            break;
        }
    }
    // Final drain.
    for (;;) {
        std::optional<mt::CompletionEvent> ev = popLive(owner);
        if (!ev)
            break;
        owner.pending[ev->tid] = false;
        delivered.push_back({ev->time, ev->epoch, ev->tid});
    }
    return delivered;
}

Problems
checkHeap(const HeapSample &s)
{
    Problems problems;

    // --- pass 1: strict differential with unique times -------------
    // With all times distinct the heap order is total, so EventCore
    // and the lazy-deletion priority queue must deliver identical
    // (time, epoch, tid) sequences.
    {
        mt::EventCore core;
        const auto corePush = [&](const mt::CompletionEvent &ev) {
            core.push(ev);
        };
        const auto corePop =
            [&](HeapOwner &owner) -> std::optional<mt::CompletionEvent> {
            while (!core.empty()) {
                const mt::CompletionEvent ev = core.top();
                if (owner.isStale(ev)) {
                    core.popStale();
                    continue;
                }
                core.pop();
                return ev;
            }
            return std::nullopt;
        };
        const auto coreInval = [&](uint32_t tid, HeapOwner &) {
            core.invalidateThread(tid);
        };
        const std::vector<Delivered> coreSeq =
            driveHeap(s, true, corePush, corePop, coreInval);

        RefHeap ref;
        const auto refPush = [&](const mt::CompletionEvent &ev) {
            ref.q.push(ev);
        };
        const auto refPop =
            [&](HeapOwner &owner) -> std::optional<mt::CompletionEvent> {
            while (!ref.q.empty()) {
                const mt::CompletionEvent ev = ref.q.top();
                ref.q.pop();
                if (owner.isStale(ev))
                    continue;
                return ev;
            }
            return std::nullopt;
        };
        const auto refInval = [](uint32_t, HeapOwner &) {};
        const std::vector<Delivered> refSeq =
            driveHeap(s, true, refPush, refPop, refInval);

        if (coreSeq.size() != refSeq.size()) {
            problems.push_back(strf(
                "heap: unique-time run delivered %zu events via "
                "EventCore but %zu via priority_queue",
                coreSeq.size(), refSeq.size()));
        } else {
            for (size_t i = 0; i < coreSeq.size(); ++i) {
                if (coreSeq[i] == refSeq[i])
                    continue;
                problems.push_back(strf(
                    "heap: unique-time delivery %zu differs: "
                    "EventCore (t=%llu e=%llu tid=%u) vs "
                    "priority_queue (t=%llu e=%llu tid=%u)",
                    i,
                    static_cast<unsigned long long>(coreSeq[i].time),
                    static_cast<unsigned long long>(coreSeq[i].epoch),
                    coreSeq[i].tid,
                    static_cast<unsigned long long>(refSeq[i].time),
                    static_cast<unsigned long long>(refSeq[i].epoch),
                    refSeq[i].tid));
                break;
            }
        }
    }

    // --- pass 2: tie/compaction model check -------------------------
    // With raw (colliding) times, equal-time delivery order may
    // legitimately differ after a compaction re-heapifies, so the
    // oracle checks EventCore against a live-multiset model instead:
    // every delivery is a live event of minimal time, the live
    // counter tracks the model exactly, and the final drain returns
    // precisely the model's live multiset.
    {
        mt::EventCore core;
        std::multiset<Delivered> live;
        const auto modelPush = [&](const mt::CompletionEvent &ev) {
            core.push(ev);
            live.insert({ev.time, ev.epoch, ev.tid});
        };
        const auto modelInval = [&](uint32_t tid, HeapOwner &owner) {
            core.invalidateThread(tid);
            // Epoch-rule erase of the tid's live events.
            for (auto it = live.begin(); it != live.end();) {
                if (it->tid == tid &&
                    it->epoch <= owner.staleBelow[tid])
                    it = live.erase(it);
                else
                    ++it;
            }
        };
        const auto modelPop =
            [&](HeapOwner &owner) -> std::optional<mt::CompletionEvent> {
            while (!core.empty()) {
                const mt::CompletionEvent ev = core.top();
                if (owner.isStale(ev)) {
                    core.popStale();
                    continue;
                }
                core.pop();
                const Delivered d{ev.time, ev.epoch, ev.tid};
                const auto it = live.find(d);
                if (it == live.end()) {
                    problems.push_back(strf(
                        "heap: delivered event (t=%llu e=%llu "
                        "tid=%u) is not live in the model",
                        static_cast<unsigned long long>(ev.time),
                        static_cast<unsigned long long>(ev.epoch),
                        ev.tid));
                } else {
                    if (!live.empty() &&
                        live.begin()->time != ev.time) {
                        problems.push_back(strf(
                            "heap: delivered t=%llu but the minimal "
                            "live time is %llu",
                            static_cast<unsigned long long>(ev.time),
                            static_cast<unsigned long long>(
                                live.begin()->time)));
                    }
                    live.erase(it);
                }
                return ev;
            }
            return std::nullopt;
        };
        driveHeap(s, false, modelPush, modelPop, modelInval);
        if (!live.empty()) {
            problems.push_back(strf(
                "heap: %zu live events never delivered by the final "
                "drain (first: t=%llu tid=%u)",
                live.size(),
                static_cast<unsigned long long>(live.begin()->time),
                live.begin()->tid));
        }
        if (core.live() != 0 || !core.empty()) {
            problems.push_back(strf(
                "heap: core reports %zu live / %zu total after a "
                "full drain",
                core.live(), core.size()));
        }
    }
    return problems;
}

// ---------------------------------------------------------------------
// json

/**
 * Re-emit @p v through exp::JsonWriter, the writer behind every tool
 * document, rr.bench.v1 report and rrserve reply.
 */
void
writeValue(exp::JsonWriter &w, const exp::JsonValue &v)
{
    if (v.isArray()) {
        w.beginArray();
        for (const exp::JsonValue &e : v.elements)
            writeValue(w, e);
        w.endArray();
    } else if (v.isObject()) {
        w.beginObject();
        for (const auto &[name, member] : v.members) {
            w.key(name);
            writeValue(w, member);
        }
        w.endObject();
    } else if (v.isString()) {
        w.value(v.string);
    } else if (v.isNumber()) {
        w.value(v.number);
    } else if (v.isBool()) {
        w.value(v.boolean);
    } else {
        w.null();
    }
}

std::string
serialize(const exp::JsonValue &v)
{
    exp::JsonWriter w;
    writeValue(w, v);
    return w.str();
}

bool
valuesEqual(const exp::JsonValue &a, const exp::JsonValue &b)
{
    using Kind = exp::JsonValue::Kind;
    if (a.kind != b.kind)
        return false;
    switch (a.kind) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return a.boolean == b.boolean;
      case Kind::Number:
        // Bitwise: NaN never appears (the parser rejects it) and
        // -0.0 must survive the round trip as -0.0.
        return std::memcmp(&a.number, &b.number, sizeof(double)) == 0;
      case Kind::String:
        return a.string == b.string;
      case Kind::Array:
        if (a.elements.size() != b.elements.size())
            return false;
        for (size_t i = 0; i < a.elements.size(); ++i)
            if (!valuesEqual(a.elements[i], b.elements[i]))
                return false;
        return true;
      case Kind::Object:
        if (a.members.size() != b.members.size())
            return false;
        for (size_t i = 0; i < a.members.size(); ++i) {
            if (a.members[i].first != b.members[i].first ||
                !valuesEqual(a.members[i].second,
                             b.members[i].second))
                return false;
        }
        return true;
    }
    return false;
}

/** Validate UTF-8 (RFC 3629: no surrogates, no overlongs, <= U+10FFFF). */
bool
utf8Valid(const std::string &text)
{
    const auto *p = reinterpret_cast<const unsigned char *>(
        text.data());
    const size_t n = text.size();
    size_t i = 0;
    while (i < n) {
        const unsigned char c = p[i];
        if (c < 0x80) {
            ++i;
            continue;
        }
        unsigned len;
        uint32_t cp;
        if ((c & 0xe0) == 0xc0) {
            len = 2;
            cp = c & 0x1f;
        } else if ((c & 0xf0) == 0xe0) {
            len = 3;
            cp = c & 0x0f;
        } else if ((c & 0xf8) == 0xf0) {
            len = 4;
            cp = c & 0x07;
        } else {
            return false;
        }
        if (i + len > n)
            return false;
        for (unsigned j = 1; j < len; ++j) {
            if ((p[i + j] & 0xc0) != 0x80)
                return false;
            cp = (cp << 6) | (p[i + j] & 0x3f);
        }
        if (len == 2 && cp < 0x80)
            return false;
        if (len == 3 && cp < 0x800)
            return false;
        if (len == 4 && cp < 0x10000)
            return false;
        if (cp > 0x10ffff || (cp >= 0xd800 && cp <= 0xdfff))
            return false;
        i += len;
    }
    return true;
}

void
forEachString(const exp::JsonValue &v,
              const std::function<void(const std::string &)> &fn)
{
    if (v.isString())
        fn(v.string);
    for (const exp::JsonValue &e : v.elements)
        forEachString(e, fn);
    for (const auto &[key, val] : v.members) {
        fn(key);
        forEachString(val, fn);
    }
}

Problems
checkJson(const JsonSample &s)
{
    Problems problems;
    const std::optional<exp::JsonValue> v1 = exp::parseJson(s.text);
    if (!v1)
        return problems; // vacuous: unparseable input

    const std::string t2 = serialize(*v1);
    std::string error;
    const std::optional<exp::JsonValue> v2 =
        exp::parseJson(t2, &error);
    if (!v2) {
        problems.push_back(
            strf("json: writer output does not reparse (%s)",
                 error.c_str()));
        return problems;
    }
    if (!valuesEqual(*v1, *v2))
        problems.push_back(
            "json: value changed across a write/parse round trip");
    if (serialize(*v2) != t2)
        problems.push_back(
            "json: serialize(parse(serialize(v))) is not a fixpoint");

    // A JSON document that is pure ASCII can only denote Unicode
    // strings (via \u escapes), so every decoded string must be
    // valid UTF-8. Surrogate pairs decoded one-half-at-a-time
    // (CESU-8) violate this.
    const bool ascii = std::all_of(
        s.text.begin(), s.text.end(),
        [](char c) { return static_cast<unsigned char>(c) < 0x80; });
    if (ascii) {
        forEachString(*v1, [&](const std::string &str) {
            if (!utf8Valid(str) && problems.size() < 4) {
                problems.push_back(
                    "json: pure-ASCII document decoded to an "
                    "invalid-UTF-8 string (surrogate pair not "
                    "combined?)");
            }
        });
    }
    return problems;
}

// ---------------------------------------------------------------------
// num

/**
 * The documented strict grammar (docs/TOOLS.md): `[0-9]+` or
 * `0[xX][0-9a-fA-F]+`, nothing else — no sign, no whitespace, no
 * octal reinterpretation ("010" is decimal ten), value <= max.
 */
bool
strictReference(const std::string &text, uint64_t max, uint64_t &out)
{
    size_t i = 0;
    unsigned base = 10;
    if (text.size() >= 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        base = 16;
        i = 2;
    }
    if (i >= text.size())
        return false;
    uint64_t value = 0;
    for (; i < text.size(); ++i) {
        const char c = text[i];
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a') + 10;
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = static_cast<unsigned>(c - 'A') + 10;
        else
            return false;
        if (value > (~0ull - digit) / base)
            return false; // overflow
        value = value * base + digit;
    }
    if (value > max)
        return false;
    out = value;
    return true;
}

Problems
checkNum(const NumSample &s)
{
    Problems problems;
    uint64_t got = 0;
    const bool accepted =
        rr::parseUnsigned(s.text.c_str(), got, s.max);
    uint64_t want = 0;
    const bool grammar = strictReference(s.text, s.max, want);

    if (accepted && !grammar) {
        problems.push_back(strf(
            "num: parseUnsigned accepted \"%s\" (=%llu) which is "
            "outside the documented strict grammar",
            s.text.c_str(), static_cast<unsigned long long>(got)));
    } else if (!accepted && grammar) {
        problems.push_back(strf(
            "num: parseUnsigned rejected \"%s\" which the "
            "documented grammar accepts as %llu",
            s.text.c_str(), static_cast<unsigned long long>(want)));
    } else if (accepted && got != want) {
        problems.push_back(strf(
            "num: parseUnsigned(\"%s\") = %llu but the documented "
            "grammar reads it as %llu",
            s.text.c_str(), static_cast<unsigned long long>(got),
            static_cast<unsigned long long>(want)));
    }
    return problems;
}

// ---------------------------------------------------------------------
// phase

Problems
checkPhase(const PhaseSample &s)
{
    Problems problems;
    const auto makeModel = [&](uint64_t phase1_latency) {
        std::vector<mt::PhasedFaultModel::Phase> phases;
        phases.push_back({s.phase0Faults, s.meanRun,
                          static_cast<double>(s.latency0), false,
                          mt::FaultClass::Cache});
        phases.push_back({1ull << 60, s.meanRun,
                          static_cast<double>(phase1_latency), false,
                          mt::FaultClass::Cache});
        return std::make_shared<mt::PhasedFaultModel>(
            std::move(phases));
    };

    ext::ContextCacheConfig config;
    config.numThreads = s.threads;
    config.workDist = makeConstant(s.workPerThread);
    config.regsDist = makeConstant(12);
    config.numRegs = s.numRegs;
    config.seed = s.seed;

    config.faultModel = makeModel(s.latency1);
    const ext::ContextCacheStats slow = simulateContextCache(config);
    config.faultModel = makeModel(s.latency0);
    const ext::ContextCacheStats fast = simulateContextCache(config);

    // Identical phase-0 behaviour and identical rng consumption
    // (constant latencies draw nothing), so the useful work must
    // match...
    if (slow.usefulCycles != fast.usefulCycles) {
        problems.push_back(strf(
            "phase: useful cycles diverged (%llu vs %llu) though "
            "only the phase-1 latency differs",
            static_cast<unsigned long long>(slow.usefulCycles),
            static_cast<unsigned long long>(fast.usefulCycles)));
    }
    // ... while the 100x phase-1 latency must show up in the clock.
    // If it does not, fault draws ignore the per-thread sequence
    // index and threads are pinned to phase 0.
    if (slow.totalCycles == fast.totalCycles) {
        problems.push_back(strf(
            "phase: total cycles identical (%llu) with phase-1 "
            "latency %llu vs %llu — sequence-indexed fault draws "
            "are not reaching phase 1",
            static_cast<unsigned long long>(slow.totalCycles),
            static_cast<unsigned long long>(s.latency1),
            static_cast<unsigned long long>(s.latency0)));
    }
    return problems;
}

// ---------------------------------------------------------------------
// program

struct CpuRun
{
    struct Rec
    {
        uint64_t cycle;
        uint32_t pc;
        uint32_t word;
        uint32_t rrm;

        bool operator==(const Rec &other) const = default;
    };

    std::vector<Rec> trace;
    std::vector<uint32_t> regs;
    std::vector<uint32_t> mem;
    uint32_t pc = 0;
    uint32_t psw = 0;
    bool halted = false;
    machine::TrapKind trap = machine::TrapKind::None;
    uint64_t cycles = 0;
    uint64_t instret = 0;
    uint64_t faults = 0;
    machine::PipelineTimingStats timing;
    bool predecodeActive = false;
};

machine::CpuConfig
cpuConfigOf(const ProgramSample &s, bool predecode)
{
    machine::CpuConfig config;
    config.numRegs = s.numRegs;
    config.operandWidth = s.operandWidth;
    config.ldrrmDelaySlots = s.delaySlots;
    config.memWords = s.memWords;
    config.relocationMode =
        static_cast<machine::RelocationMode>(s.mode);
    config.rrmBanks = s.banks;
    config.timing.takenBranchPenalty = s.takenBranchPenalty;
    config.timing.loadUsePenalty = s.loadUsePenalty;
    config.timing.ldrrmPenalty = s.ldrrmPenalty;
    config.predecode = predecode;
    return config;
}

CpuRun
runProgram(const ProgramSample &s, bool predecode,
           Problems *reloc_problems)
{
    machine::Cpu cpu(cpuConfigOf(s, predecode));
    for (size_t i = 0; i < s.words.size(); ++i)
        cpu.mem().write(static_cast<uint32_t>(i), s.words[i]);

    CpuRun run;
    cpu.setTraceHook([&](const machine::TraceEntry &entry) {
        run.trace.push_back({entry.cycle, entry.pc,
                             isa::encode(entry.inst), entry.rrm});
        if (reloc_problems && reloc_problems->size() < 4) {
            // Oracle 2, exercised mid-execution at every mask state
            // the program reaches: the memoized table and the
            // uncached reference must agree on every operand.
            const machine::RelocationUnit &unit = cpu.relocation();
            const machine::RelocationResult *table = unit.table();
            for (unsigned op = 0; op < unit.tableSize(); ++op) {
                const machine::RelocationResult ref =
                    unit.relocate(op);
                if (table[op].physical != ref.physical ||
                    table[op].ok != ref.ok) {
                    reloc_problems->push_back(strf(
                        "program: at pc=%u (cycle %llu) table() and "
                        "relocate() disagree on operand %u",
                        entry.pc,
                        static_cast<unsigned long long>(entry.cycle),
                        op));
                    break;
                }
            }
        }
    });
    cpu.run(s.maxSteps);

    const uint32_t *regs = cpu.regs().data();
    run.regs.assign(regs, regs + s.numRegs);
    const uint32_t *mem = cpu.mem().data();
    run.mem.assign(mem, mem + s.memWords);
    run.pc = cpu.pc();
    run.psw = cpu.psw();
    run.halted = cpu.halted();
    run.trap = cpu.trap();
    run.cycles = cpu.cycles();
    run.instret = cpu.instructionsRetired();
    run.faults = cpu.faultCount();
    run.timing = cpu.timingStats();
    run.predecodeActive = cpu.predecodeActive();
    return run;
}

void
compareRuns(const CpuRun &off, const CpuRun &on, Problems &problems)
{
    const auto diff = [&](const char *what, uint64_t a, uint64_t b) {
        if (a != b)
            problems.push_back(strf(
                "program: %s differs with predecode off vs on: "
                "%llu vs %llu",
                what, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b)));
    };
    diff("final pc", off.pc, on.pc);
    diff("final psw", off.psw, on.psw);
    diff("halted", off.halted, on.halted);
    diff("trap kind", static_cast<uint64_t>(off.trap),
         static_cast<uint64_t>(on.trap));
    diff("cycle count", off.cycles, on.cycles);
    diff("instructions retired", off.instret, on.instret);
    diff("fault count", off.faults, on.faults);
    diff("branch stalls", off.timing.branchStalls,
         on.timing.branchStalls);
    diff("load-use stalls", off.timing.loadUseStalls,
         on.timing.loadUseStalls);
    diff("ldrrm stalls", off.timing.ldrrmStalls,
         on.timing.ldrrmStalls);
    if (off.regs != on.regs)
        problems.push_back("program: final register file differs "
                           "with predecode off vs on");
    if (off.mem != on.mem)
        problems.push_back("program: final memory differs with "
                           "predecode off vs on");
    if (off.trace.size() != on.trace.size()) {
        problems.push_back(strf(
            "program: trace length differs with predecode off vs "
            "on: %zu vs %zu",
            off.trace.size(), on.trace.size()));
    } else {
        for (size_t i = 0; i < off.trace.size(); ++i) {
            if (off.trace[i] == on.trace[i])
                continue;
            problems.push_back(strf(
                "program: trace diverges with predecode on at "
                "instruction %zu (pc %u vs %u, cycle %llu vs %llu)",
                i, off.trace[i].pc, on.trace[i].pc,
                static_cast<unsigned long long>(off.trace[i].cycle),
                static_cast<unsigned long long>(on.trace[i].cycle)));
            break;
        }
    }
}

void
checkLintClaims(const ProgramSample &s, const CpuRun &run,
                Problems &problems)
{
    assembler::Program program;
    program.base = 0;
    program.words = s.words;
    program.lines.assign(s.words.size(), 0);

    lint::Cfg cfg(program);
    lint::RrmOptions options;
    options.delaySlots = s.delaySlots;
    options.initialRrm = 0;
    options.mode = lint::RelocMode::Or;
    options.banks = 1;
    options.operandWidth = s.operandWidth;
    const lint::RrmAnalysis rrm(cfg, options);

    lint::LintOptions lintOptions;
    lintOptions.delaySlots = s.delaySlots;
    lintOptions.mode = lint::RelocMode::Or;
    lintOptions.banks = 1;
    lintOptions.operandWidth = s.operandWidth;
    const lint::LintResult lintResult =
        lint::lintProgram(program, lintOptions);

    // Union the per-window claims by window mask: multiple LDRRM
    // sites can open the same window.
    std::map<uint32_t, uint64_t> footprintByWindow;
    for (const lint::ThreadReport &report : lintResult.threads)
        footprintByWindow[report.rrm] |= report.footprint;

    for (const CpuRun::Rec &rec : run.trace) {
        if (problems.size() >= 4)
            return;
        const lint::AbsVal &before = rrm.rrmBefore(rec.pc);
        if (before.kind == lint::AbsVal::Bottom) {
            problems.push_back(strf(
                "program/lint: pc %u executed at runtime but the "
                "lint CFG claims it unreachable",
                rec.pc));
            continue;
        }
        if (!before.isConst())
            continue; // Top: lint makes no claim here
        if (before.value != rec.rrm) {
            problems.push_back(strf(
                "program/lint: pc %u — lint derives RRM=0x%x but "
                "the machine decoded under RRM=0x%x",
                rec.pc, before.value, rec.rrm));
            continue;
        }
        isa::Instruction inst;
        if (!isa::decode(rec.word, inst))
            continue;
        const lint::UseDef ud = lint::useDef(inst);
        const uint64_t touched = ud.uses | ud.defs;
        const auto it = footprintByWindow.find(rec.rrm);
        const uint64_t claimed =
            it == footprintByWindow.end() ? 0 : it->second;
        if (touched & ~claimed) {
            problems.push_back(strf(
                "program/lint: pc %u under window 0x%x touches "
                "registers 0x%llx outside the lint footprint "
                "0x%llx",
                rec.pc, rec.rrm,
                static_cast<unsigned long long>(touched),
                static_cast<unsigned long long>(claimed)));
        }
    }
}

Problems
checkProgram(const ProgramSample &s)
{
    Problems problems;
    // The identity oracle: the undecoded reference run against the
    // superblock engine must retire the same instruction stream with
    // the same architectural state, counters, and cycle-stamped
    // trace. Oracle 2 (table-vs-relocate) rides on the superblock
    // leg.
    const CpuRun off = runProgram(s, false, nullptr);
    const CpuRun on = runProgram(s, true, &problems);
    if (!on.predecodeActive)
        problems.push_back("program: predecode did not engage");
    compareRuns(off, on, problems);
    if (s.lintChecked && problems.empty())
        checkLintClaims(s, off, problems);
    return problems;
}

// ---------------------------------------------------------------------
// mt

mt::SimulationSpec
specOf(const MtSample &s)
{
    mt::SimulationSpec spec;
    spec.threads(s.threads)
        .registerDemand(s.regsLo, s.regsHi)
        .arch(static_cast<mt::ArchKind>(s.arch))
        .numRegs(s.numRegs)
        .operandWidth(s.operandWidth)
        .minContextSize(s.minContextSize)
        .fixedContextRegs(s.fixedContextRegs)
        .seed(s.seed);
    switch (s.family) {
      case 0:
        spec.cacheFaults(s.param0,
                         static_cast<uint64_t>(s.param1));
        break;
      case 1:
        spec.syncFaults(s.param0, s.param1);
        break;
      case 2:
        spec.combinedFaults(s.param0,
                            static_cast<uint64_t>(s.param1),
                            s.param2, s.param3);
        break;
      case 3:
        spec.deterministicFaults(
            static_cast<uint64_t>(s.param0),
            static_cast<uint64_t>(s.param1));
        break;
      default: {
        std::vector<mt::PhasedFaultModel::Phase> phases;
        phases.push_back({s.phase0Faults, s.param0, s.param1, false,
                          mt::FaultClass::Cache});
        phases.push_back({s.phase1Faults, s.param2, s.param3, true,
                          mt::FaultClass::Synchronization});
        auto model = std::make_shared<mt::PhasedFaultModel>(
            std::move(phases));
        const double mean = model->meanRunLength();
        spec.faultModel(std::move(model), mean);
        break;
      }
    }
    if (s.work > 0)
        spec.workPerThread(s.work);
    if (s.unload == 0)
        spec.neverUnload();
    else
        spec.twoPhaseUnload();
    if (s.residencyCap > 0)
        spec.residencyCap(s.residencyCap);
    if (s.priorityLevels > 1)
        spec.priorities(s.priorityLevels,
                        makeUniformInt(0, s.priorityLevels - 1));
    return spec;
}

void
compareStats(const mt::MtStats &a, const mt::MtStats &b,
             Problems &problems)
{
    const auto diff = [&](const char *what, uint64_t x, uint64_t y) {
        if (x != y)
            problems.push_back(strf(
                "mt: re-run changed %s: %llu vs %llu (simulation "
                "is not deterministic)",
                what, static_cast<unsigned long long>(x),
                static_cast<unsigned long long>(y)));
    };
    diff("totalCycles", a.totalCycles, b.totalCycles);
    diff("usefulCycles", a.usefulCycles, b.usefulCycles);
    diff("idleCycles", a.idleCycles, b.idleCycles);
    diff("switchCycles", a.switchCycles, b.switchCycles);
    diff("allocCycles", a.allocCycles, b.allocCycles);
    diff("deallocCycles", a.deallocCycles, b.deallocCycles);
    diff("loadCycles", a.loadCycles, b.loadCycles);
    diff("unloadCycles", a.unloadCycles, b.unloadCycles);
    diff("queueCycles", a.queueCycles, b.queueCycles);
    diff("faults", a.faults, b.faults);
    diff("loads", a.loads, b.loads);
    diff("unloads", a.unloads, b.unloads);
    diff("allocSuccesses", a.allocSuccesses, b.allocSuccesses);
    diff("allocFailures", a.allocFailures, b.allocFailures);
    diff("threadsFinished", a.threadsFinished, b.threadsFinished);
    if (std::memcmp(&a.efficiencyCentral, &b.efficiencyCentral,
                    sizeof(double)) != 0 ||
        std::memcmp(&a.efficiencyTotal, &b.efficiencyTotal,
                    sizeof(double)) != 0)
        problems.push_back("mt: re-run changed an efficiency value");
}

Problems
checkMt(const MtSample &s)
{
    Problems problems;
    mt::MtConfig config;
    try {
        config = specOf(s).build();
    } catch (const mt::SpecError &) {
        return problems; // vacuous: generator hit a validation edge
    }

    trace::TraceAuditor auditor(config.costs);
    config.traceSink = &auditor;
    const mt::MtStats stats = mt::simulate(config);

    for (const std::string &p :
         auditor.reconcile(mt::auditTotals(stats)))
        if (problems.size() < 6)
            problems.push_back("mt/audit: " + p);

    if (stats.accountedCycles() != stats.totalCycles) {
        problems.push_back(strf(
            "mt: cycle buckets sum to %llu but totalCycles is %llu",
            static_cast<unsigned long long>(stats.accountedCycles()),
            static_cast<unsigned long long>(stats.totalCycles)));
    }
    if (stats.threadsFinished != s.threads) {
        problems.push_back(strf(
            "mt: only %u of %u threads finished",
            stats.threadsFinished, s.threads));
    }
    const auto inUnit = [](double v) {
        return v >= 0.0 && v <= 1.0 + 1e-9;
    };
    if (!inUnit(stats.efficiencyCentral) ||
        !inUnit(stats.efficiencyTotal)) {
        problems.push_back(strf(
            "mt: efficiency out of [0,1]: central=%f total=%f",
            stats.efficiencyCentral, stats.efficiencyTotal));
    }

    // Determinism: an identical rebuild must reproduce every
    // statistic bit for bit (no sink the second time — tracing must
    // not perturb results either).
    const mt::MtStats again = mt::simulate(specOf(s).build());
    compareStats(stats, again, problems);
    return problems;
}

// ---------------------------------------------------------------------
// ckpt

bool
sameTraceEvent(const trace::TraceEvent &a, const trace::TraceEvent &b)
{
    return a.kind == b.kind && a.arch == b.arch && a.ok == b.ok &&
           a.tid == b.tid && a.ctx == b.ctx && a.regs == b.regs &&
           a.cycle == b.cycle && a.cycles == b.cycles &&
           a.aux == b.aux;
}

Problems
checkCkpt(const CkptSample &s)
{
    Problems problems;
    mt::MtConfig straightConfig;
    try {
        straightConfig = specOf(s.spec).build();
    } catch (const mt::SpecError &) {
        return problems; // vacuous: generator hit a validation edge
    }

    // The uninterrupted reference run.
    trace::VectorSink straightSink;
    straightConfig.traceSink = &straightSink;
    mt::MtProcessor straight(straightConfig);
    const mt::MtStats straightStats = straight.run();

    // Head: step to the boundary and snapshot. splitEvents past the
    // end means the head finishes first — a legal snapshot point.
    mt::MtConfig headConfig = specOf(s.spec).build();
    trace::VectorSink headSink;
    headConfig.traceSink = &headSink;
    mt::MtProcessor head(headConfig);
    head.begin();
    while (!head.done() && head.eventIndex() < s.splitEvents)
        head.step();
    const std::vector<uint8_t> doc = head.snapshot();

    // Tail: a fresh processor restored from the document.
    mt::MtConfig tailConfig = specOf(s.spec).build();
    trace::VectorSink tailSink;
    tailConfig.traceSink = &tailSink;
    mt::MtProcessor tail(tailConfig);
    try {
        tail.restore(doc);
    } catch (const ckpt::Error &error) {
        problems.push_back(
            std::string("ckpt: restore rejected its own snapshot: ") +
            error.what());
        return problems;
    }

    // A snapshot re-taken right after restore must be byte-identical
    // (snapshot . restore is a fixpoint).
    if (tail.snapshot() != doc)
        problems.push_back(
            "ckpt: snapshot is not byte-stable across restore");

    const mt::MtStats tailStats = tail.run();
    Problems statDiffs;
    compareStats(straightStats, tailStats, statDiffs);
    for (const std::string &p : statDiffs)
        if (problems.size() < 6)
            problems.push_back("ckpt: restored leg diverged: " + p);

    // The head and tail traces concatenate to the straight trace.
    const std::vector<trace::TraceEvent> &se = straightSink.events();
    const std::vector<trace::TraceEvent> &he = headSink.events();
    const std::vector<trace::TraceEvent> &te = tailSink.events();
    if (se.size() != he.size() + te.size()) {
        problems.push_back(strf(
            "ckpt: straight run emitted %zu events but head %zu + "
            "tail %zu",
            se.size(), he.size(), te.size()));
    } else {
        for (std::size_t i = 0; i < se.size(); ++i) {
            const trace::TraceEvent &b =
                i < he.size() ? he[i] : te[i - he.size()];
            if (!sameTraceEvent(se[i], b)) {
                problems.push_back(strf(
                    "ckpt: trace diverges at event %zu (%s the "
                    "snapshot)",
                    i, i < he.size() ? "before" : "after"));
                break;
            }
        }
    }

    // Hostile copy: one flipped bit anywhere must be rejected with
    // ckpt::Error (magic or checksum), never an abort.
    std::vector<uint8_t> bad = doc;
    bad[static_cast<std::size_t>(s.corruptPos % bad.size())] ^=
        static_cast<uint8_t>(1u << (s.corruptBit & 7));
    bool rejected = false;
    try {
        mt::MtProcessor victim(specOf(s.spec).build());
        victim.restore(bad);
    } catch (const ckpt::Error &) {
        rejected = true;
    }
    if (!rejected)
        problems.push_back(strf(
            "ckpt: corrupted document (byte %llu bit %u) was accepted",
            static_cast<unsigned long long>(s.corruptPos % bad.size()),
            static_cast<unsigned>(s.corruptBit & 7)));
    return problems;
}

// ---------------------------------------------------------------------
// xsim

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
        problems.push_back("xsim: machine kernel did not halt");
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
        problems.push_back(strf(
            "xsim: machine executed %llu work units, schedule has "
            "%llu",
            static_cast<unsigned long long>(machine.workUnits),
            static_cast<unsigned long long>(expectUnits)));
    const uint64_t expectFaults =
        static_cast<uint64_t>(s.threads) * s.segments;
    if (machine.faults != expectFaults)
        problems.push_back(strf(
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
        problems.push_back(strf(
            "xsim: event model ran %llu useful cycles, workload has "
            "%llu",
            static_cast<unsigned long long>(event.usefulCycles),
            static_cast<unsigned long long>(
                static_cast<uint64_t>(s.threads) * work)));
    if (event.threadsFinished != s.threads)
        problems.push_back(strf(
            "xsim: event model finished %u of %u threads",
            event.threadsFinished, s.threads));

    if (event.efficiencyTotal <= 0.0) {
        problems.push_back(strf(
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
        problems.push_back(strf(
            "xsim: machine/event efficiency ratio %.4f outside "
            "±%.0f%% (machine=%.4f event=%.4f, N=%u segments=%u "
            "latency=%llu)",
            ratio, slack * 100.0, machine.efficiencyTotal,
            event.efficiencyTotal, s.threads, s.segments,
            static_cast<unsigned long long>(s.latency)));
    }
    return problems;
}

// ---------------------------------------------------------------------
// callgraph

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
        problems.push_back(strf(
            "callgraph: generated source does not assemble: %s",
            program.errors.front().str().c_str()));
        return problems;
    }

    lint::Cfg cfg(program);
    const lint::CallGraph graph(cfg);
    // The callgraph-aware dataflow propagates constants across call
    // return edges; without it no address inside a procedure folds.
    const lint::RrmAnalysis rrm(cfg, {}, &graph);
    const lint::LocksetAnalysis lockset(cfg, graph, rrm);
    const CgTruth truth = truthOf(s);

    // Thread roots and lock names must match the construction.
    std::map<std::string, uint32_t> root_by_name;
    for (uint32_t ri = 0; ri < lockset.roots().size(); ++ri)
        root_by_name[lockset.roots()[ri].name] = ri;
    if (lockset.roots().size() != s.roots.size()) {
        problems.push_back(strf(
            "callgraph: %zu thread roots constructed but the "
            "analysis found %zu",
            s.roots.size(), lockset.roots().size()));
        return problems;
    }
    std::vector<uint32_t> ls_root(s.roots.size(), 0);
    for (size_t r = 0; r < s.roots.size(); ++r) {
        const std::string name =
            r == 0 ? "entry" : strf("t%zu", r);
        const auto it = root_by_name.find(name);
        if (it == root_by_name.end()) {
            problems.push_back(strf(
                "callgraph: thread root '%s' not found by the "
                "analysis", name.c_str()));
            return problems;
        }
        ls_root[r] = it->second;
    }
    for (unsigned l = 0; l < s.numLocks; ++l) {
        const std::string expect = strf("lk%u", l);
        if (l >= graph.lockNames().size() ||
            graph.lockNames()[l] != expect) {
            problems.push_back(strf(
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
            problems.push_back(strf(
                "callgraph: classified access at addr %u is not "
                "inside a generated procedure", access.address));
            continue;
        }
        const auto it = expected.find({access.root, proc_idx});
        if (it == expected.end()) {
            problems.push_back(strf(
                "callgraph: access at addr %u (root %u, proc p%u) "
                "has no constructed counterpart",
                access.address, access.root, proc_idx));
            continue;
        }
        if (!seen.insert({access.root, proc_idx}).second) {
            problems.push_back(strf(
                "callgraph: proc p%u classified twice for root %u",
                proc_idx, access.root));
            continue;
        }
        const CgSite &site = *it->second;
        if (access.mem != site.mem || access.write != site.write ||
            access.held != site.held) {
            problems.push_back(strf(
                "callgraph: access at addr %u (root %u, proc p%u): "
                "analysis says mem=0x%x write=%d held=0x%x, "
                "construction says mem=0x%x write=%d held=0x%x",
                access.address, access.root, proc_idx, access.mem,
                access.write ? 1 : 0, access.held, site.mem,
                site.write ? 1 : 0, site.held));
        }
    }
    if (problems.empty() && seen.size() != expected.size()) {
        problems.push_back(strf(
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
            got += strf(" 0x%x", mem);
        for (const uint32_t mem : truth.racyMems)
            want += strf(" 0x%x", mem);
        problems.push_back(strf(
            "callgraph: race set mismatch: analysis reports {%s }, "
            "construction implies {%s }",
            got.c_str(), want.c_str()));
    }

    // Oracle 1c: the full lint pipeline must agree — and find
    // nothing else in this clean-by-construction program.
    lint::LintOptions lint_options;
    lint_options.interprocedural = true;
    lint_options.lockset = true;
    const lint::LintResult lint_result =
        lint::lintProgram(program, lint_options);
    for (const lint::Finding &finding : lint_result.findings) {
        if (finding.code != "race") {
            problems.push_back(strf(
                "callgraph: unexpected finding [%s] at addr %u: %s",
                finding.code.c_str(), finding.address,
                finding.message.c_str()));
            break;
        }
    }
    if (lint_result.races.size() != truth.racyMems.size()) {
        problems.push_back(strf(
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
        config.numRegs = kCgNumRegs;
        config.operandWidth = 6;
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
            problems.push_back(strf(
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
                problems.push_back(strf(
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
                problems.push_back(strf(
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
                problems.push_back(strf(
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

Problems
checkSample(const AnySample &sample)
{
    return std::visit(
        [](const auto &s) -> Problems {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, RelocSample>)
                return checkReloc(s);
            else if constexpr (std::is_same_v<T, HeapSample>)
                return checkHeap(s);
            else if constexpr (std::is_same_v<T, JsonSample>)
                return checkJson(s);
            else if constexpr (std::is_same_v<T, NumSample>)
                return checkNum(s);
            else if constexpr (std::is_same_v<T, PhaseSample>)
                return checkPhase(s);
            else if constexpr (std::is_same_v<T, ProgramSample>)
                return checkProgram(s);
            else if constexpr (std::is_same_v<T, MtSample>)
                return checkMt(s);
            else if constexpr (std::is_same_v<T, XsimSample>)
                return checkXsim(s);
            else if constexpr (std::is_same_v<T, CallgraphSample>)
                return checkCallgraph(s);
            else
                return checkCkpt(s);
        },
        sample);
}

} // namespace rr::fuzz
