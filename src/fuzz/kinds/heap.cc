/**
 * @file
 * The `heap` fuzz kind: mt::EventCore vs a reference lazy-deletion
 * priority_queue over push/pop/invalidate scripts.
 */

#include "fuzz/kind.hh"

#include <optional>
#include <queue>
#include <set>

#include "exp/report.hh"
#include "multithread/event_core.hh"

namespace rr::fuzz {

namespace {

HeapSample
genHeap(Rng &rng)
{
    HeapSample s;
    s.numThreads = static_cast<unsigned>(rng.nextRange(1, 8));
    const uint64_t n = rng.nextRange(4, 60);
    for (uint64_t i = 0; i < n; ++i) {
        HeapOp op;
        const uint64_t roll = rng.nextRange(1, 10);
        if (roll <= 5) {
            op.kind = HeapOp::Push;
            // A narrow time range makes equal-time ties routine.
            op.time = rng.nextRange(0, 40);
            op.tid =
                static_cast<uint32_t>(rng.nextRange(0, s.numThreads - 1));
        } else if (roll <= 8) {
            op.kind = HeapOp::Pop;
        } else {
            op.kind = HeapOp::Invalidate;
            op.tid =
                static_cast<uint32_t>(rng.nextRange(0, s.numThreads - 1));
        }
        s.ops.push_back(op);
    }
    return s;
}

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
            problems.push_back(exp::strf(
                "heap: unique-time run delivered %zu events via "
                "EventCore but %zu via priority_queue",
                coreSeq.size(), refSeq.size()));
        } else {
            for (size_t i = 0; i < coreSeq.size(); ++i) {
                if (coreSeq[i] == refSeq[i])
                    continue;
                problems.push_back(exp::strf(
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
                    problems.push_back(exp::strf(
                        "heap: delivered event (t=%llu e=%llu "
                        "tid=%u) is not live in the model",
                        static_cast<unsigned long long>(ev.time),
                        static_cast<unsigned long long>(ev.epoch),
                        ev.tid));
                } else {
                    if (!live.empty() &&
                        live.begin()->time != ev.time) {
                        problems.push_back(exp::strf(
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
            problems.push_back(exp::strf(
                "heap: %zu live events never delivered by the final "
                "drain (first: t=%llu tid=%u)",
                live.size(),
                static_cast<unsigned long long>(live.begin()->time),
                live.begin()->tid));
        }
        if (core.live() != 0 || !core.empty()) {
            problems.push_back(exp::strf(
                "heap: core reports %zu live / %zu total after a "
                "full drain",
                core.live(), core.size()));
        }
    }
    return problems;
}

void
shrinkHeap(HeapSample &s, Budget &budget)
{
    shrinkList(s.ops, budget, [&](const std::vector<HeapOp> &ops) {
        HeapSample candidate = s;
        candidate.ops = ops;
        return AnySample{candidate};
    });
}

constexpr Field<HeapSample> kFields[] = {
    {"numThreads", &HeapSample::numThreads, 1, 1024},
};

void
writeOps(const HeapSample &s, std::string &out)
{
    for (const HeapOp &op : s.ops) {
        switch (op.kind) {
          case HeapOp::Push:
            out += "op push " + std::to_string(op.time) + ' ' +
                   std::to_string(op.tid) + '\n';
            break;
          case HeapOp::Pop:
            out += "op pop\n";
            break;
          case HeapOp::Invalidate:
            out += "op inval " + std::to_string(op.tid) + '\n';
            break;
        }
    }
}

bool
readOp(const Line &line, HeapSample &s, std::string &)
{
    if (line.key != "op")
        return false;
    const std::vector<std::string> w = splitWords(line.rest);
    HeapOp op;
    uint64_t tid = 0;
    if (w.size() == 3 && w[0] == "push") {
        if (!parseU64(w[1], UINT64_MAX, op.time) ||
            !parseU64(w[2], UINT32_MAX, tid))
            return false;
        op.kind = HeapOp::Push;
    } else if (w.size() == 1 && w[0] == "pop") {
        op.kind = HeapOp::Pop;
    } else if (w.size() == 2 && w[0] == "inval") {
        if (!parseU64(w[1], UINT32_MAX, tid))
            return false;
        op.kind = HeapOp::Invalidate;
    } else {
        return false;
    }
    op.tid = static_cast<uint32_t>(tid);
    s.ops.push_back(op);
    return true;
}

bool
validateHeap(const HeapSample &s, std::string &error)
{
    if (!inRange(s.ops.size(), 0, 1000000, "op count", error))
        return false;
    for (const HeapOp &op : s.ops) {
        if (op.kind != HeapOp::Pop && op.tid >= s.numThreads) {
            error = "op tid out of range";
            return false;
        }
    }
    return true;
}

constexpr Codec<HeapSample> kCodec{kFields, writeOps, readOp, validateHeap};

} // namespace

constinit const KindOps heapKind =
    kindOps<genHeap, checkHeap, shrinkHeap, kCodec>("heap");

} // namespace rr::fuzz
