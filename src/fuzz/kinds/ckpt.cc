/**
 * @file
 * The `ckpt` fuzz kind: rr.ckpt.v1 snapshot/restore of an mt simulation at
 * a generated event boundary vs a straight run, plus rejection of a
 * corrupted document.
 */

#include "fuzz/kind.hh"

#include "ckpt/io.hh"
#include "exp/report.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"
#include "trace/sink.hh"

namespace rr::fuzz {

namespace {

CkptSample
genCkpt(Rng &rng)
{
    CkptSample s;
    s.spec = genMt(rng);
    // Small specs keep the oracle's three runs cheap; the interesting
    // structure is in *where* the snapshot lands, not run length.
    s.spec.threads = pick<unsigned>(rng, {1, 2, 4, 16});
    s.spec.work = rng.nextRange(200, 1500);
    // Bias toward the edges: event 0 (nothing begun), tiny prefixes,
    // and values past the end (snapshot of a finished run) all have
    // their own restore paths.
    const uint64_t roll = rng.nextRange(1, 10);
    if (roll <= 2)
        s.splitEvents = rng.nextRange(0, 2);
    else if (roll <= 8)
        s.splitEvents = rng.nextRange(3, 4000);
    else
        s.splitEvents = ~0ull; // clamped to "after the last event"
    s.corruptPos = rng.next();
    s.corruptBit = static_cast<uint8_t>(rng.nextRange(0, 7));
    return s;
}

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
        problems.push_back(exp::strf(
            "ckpt: straight run emitted %zu events but head %zu + "
            "tail %zu",
            se.size(), he.size(), te.size()));
    } else {
        for (std::size_t i = 0; i < se.size(); ++i) {
            const trace::TraceEvent &b =
                i < he.size() ? he[i] : te[i - he.size()];
            if (!sameTraceEvent(se[i], b)) {
                problems.push_back(exp::strf(
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
        problems.push_back(exp::strf(
            "ckpt: corrupted document (byte %llu bit %u) was accepted",
            static_cast<unsigned long long>(s.corruptPos % bad.size()),
            static_cast<unsigned>(s.corruptBit & 7)));
    return problems;
}

/** Select a field of the embedded spec, for shrinkScalar(). */
template <typename T>
auto
spec(T MtSample::*field)
{
    return [field](CkptSample &s) -> T & { return s.spec.*field; };
}

void
shrinkCkpt(CkptSample &s, Budget &budget)
{
    // Simplify the simulation first (cheapest big wins), then walk
    // the snapshot point toward the run's start.
    shrinkScalar(s, spec(&MtSample::threads), {1u, 2u, 4u}, budget);
    shrinkScalar(s, spec(&MtSample::work),
                 {uint64_t{100}, uint64_t{400}}, budget);
    shrinkScalar(s, spec(&MtSample::priorityLevels), {1u}, budget);
    shrinkScalar(s, spec(&MtSample::residencyCap), {0u}, budget);
    shrinkScalar(s, spec(&MtSample::unload), {uint8_t{0}}, budget);
    shrinkScalar(s, spec(&MtSample::regsLo), {6u}, budget);
    shrinkScalar(s, spec(&MtSample::regsHi), {6u, 24u}, budget);
    shrinkScalar(s, spec(&MtSample::seed), {uint64_t{1}}, budget);
    shrinkScalar(s, &CkptSample::splitEvents,
                 {uint64_t{0}, uint64_t{1}, uint64_t{10},
                  uint64_t{100}},
                 budget);
    shrinkScalar(s, &CkptSample::corruptPos, {uint64_t{0}}, budget);
    shrinkScalar(s, &CkptSample::corruptBit, {uint8_t{0}}, budget);
}

constexpr Field<CkptSample> kFields[] = {
    {"splitEvents", &CkptSample::splitEvents},
    {"corruptPos", &CkptSample::corruptPos},
    {"corruptBit", &CkptSample::corruptBit, 0, 7},
};

/** The embedded spec under the mt field names, then the ckpt fields. */
void
writeCkpt(const CkptSample &s, std::string &out)
{
    writeFields(mtFields(), s.spec, out);
    writeFields(kFields, s, out);
}

bool
readCkpt(const Line &line, CkptSample &s, std::string &error)
{
    if (const Field<MtSample> *f = findField(mtFields(), line.key))
        return readField(*f, line.rest, s.spec, error);
    const Field<CkptSample> *f = findField(kFields, line.key);
    return f && readField(*f, line.rest, s, error);
}

constexpr Codec<CkptSample> kCodec{{}, writeCkpt, readCkpt};

} // namespace

constinit const KindOps ckptKind =
    kindOps<genCkpt, checkCkpt, shrinkCkpt, kCodec>("ckpt");

} // namespace rr::fuzz
