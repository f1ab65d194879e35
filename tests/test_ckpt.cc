/**
 * @file
 * rr.ckpt.v1 checkpoint/restore tests (docs/CKPT.md).
 *
 * The determinism contract under test: snapshot a simulation at any
 * event boundary, restore it into a *fresh* processor, and the
 * remaining trace and the final statistics are identical to the
 * uninterrupted run. Plus: the container format round-trips exactly,
 * every corrupted or cross-spec document is rejected with a
 * ckpt::Error (never an assertion abort), and a restored
 * RelocationUnit never trusts memo epochs minted before the restore.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/distributions.hh"
#include "base/stats.hh"
#include "ckpt/io.hh"
#include "ckpt/snapshot.hh"
#include "machine/cpu.hh"
#include "machine/relocation_unit.hh"
#include "multithread/event_core.hh"
#include "multithread/mt_processor.hh"
#include "multithread/simulation_spec.hh"
#include "trace/audit.hh"
#include "trace/sink.hh"

namespace rr {
namespace {

using mt::ArchKind;
using mt::MtConfig;
using mt::MtProcessor;
using mt::MtStats;
using mt::SimulationSpec;
using trace::TraceEvent;
using trace::VectorSink;

// ---------------------------------------------------------------------
// Container format

TEST(CkptIo, RoundTripsEveryFieldType)
{
    ckpt::Writer writer;
    writer.beginSection(0x50);
    writer.u64(1, 0xdeadbeefcafef00dull);
    writer.f64(2, -0.1);
    writer.str(3, "hello ckpt");
    writer.bytes(4, {0x00, 0xff, 0x7f});
    writer.u64vec(5, {1, 2, 3});
    writer.u32vec(6, {});
    writer.endSection();
    writer.beginSection(0x51);
    writer.u64(1, 7);
    writer.endSection();
    const std::vector<uint8_t> doc = writer.seal();

    const ckpt::Reader reader(doc);
    EXPECT_TRUE(reader.hasSection(0x50));
    EXPECT_TRUE(reader.hasSection(0x51));
    EXPECT_FALSE(reader.hasSection(0x52));
    EXPECT_EQ(reader.u64(0x50, 1), 0xdeadbeefcafef00dull);
    EXPECT_EQ(reader.f64(0x50, 2), -0.1);
    EXPECT_EQ(reader.str(0x50, 3), "hello ckpt");
    EXPECT_EQ(reader.bytes(0x50, 4),
              (std::vector<uint8_t>{0x00, 0xff, 0x7f}));
    EXPECT_EQ(reader.u64vec(0x50, 5),
              (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_TRUE(reader.u32vec(0x50, 6).empty());
    EXPECT_EQ(reader.u64(0x51, 1), 7u);
    EXPECT_FALSE(reader.has(0x50, 9));
    EXPECT_THROW(reader.u64(0x50, 9), ckpt::Error);
    EXPECT_THROW(reader.str(0x50, 1), ckpt::Error); // wrong type
}

TEST(CkptIo, RejectsEveryTruncation)
{
    ckpt::Writer writer;
    writer.beginSection(0x50);
    writer.u64(1, 42);
    writer.str(2, "payload");
    writer.endSection();
    const std::vector<uint8_t> doc = writer.seal();

    for (std::size_t n = 0; n < doc.size(); ++n) {
        const std::vector<uint8_t> cut(doc.begin(),
                                       doc.begin() +
                                           static_cast<long>(n));
        EXPECT_THROW(ckpt::Reader reader(cut), ckpt::Error)
            << "truncation to " << n << " bytes was accepted";
    }
}

TEST(CkptIo, RejectsEverySingleBitFlip)
{
    ckpt::Writer writer;
    writer.beginSection(0x50);
    writer.u64vec(1, {5, 6, 7});
    writer.endSection();
    const std::vector<uint8_t> doc = writer.seal();

    // Any flipped bit lands in the magic (rejected outright) or in
    // the body/trailer (rejected by the FNV-1a checksum).
    for (std::size_t byte = 0; byte < doc.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> bad = doc;
            bad[byte] ^= static_cast<uint8_t>(1u << bit);
            EXPECT_THROW(ckpt::Reader reader(bad), ckpt::Error)
                << "flip at byte " << byte << " bit " << bit;
        }
    }
}

TEST(CkptIo, ErrorsCarryTheSchemaPrefix)
{
    try {
        ckpt::Reader reader(std::vector<uint8_t>{});
        FAIL() << "empty document was accepted";
    } catch (const ckpt::Error &error) {
        EXPECT_EQ(std::string(error.what()).rfind("rr.ckpt: ", 0), 0u)
            << error.what();
    }
}

TEST(CkptMeta, RejectsKindAndFingerprintMismatches)
{
    ckpt::Writer writer;
    ckpt::writeMeta(writer, "mt", "spec-a");
    const std::vector<uint8_t> doc = writer.seal();
    const ckpt::Reader reader(doc);

    EXPECT_EQ(ckpt::metaKind(reader), "mt");
    EXPECT_NO_THROW(ckpt::checkMeta(reader, "mt", "spec-a"));
    EXPECT_THROW(ckpt::checkMeta(reader, "machine", "spec-a"),
                 ckpt::Error);
    try {
        ckpt::checkMeta(reader, "mt", "spec-b");
        FAIL() << "cross-spec restore was accepted";
    } catch (const ckpt::Error &error) {
        EXPECT_NE(std::string(error.what()).find("cross-spec"),
                  std::string::npos)
            << error.what();
    }
}

// ---------------------------------------------------------------------
// MT simulator: snapshot/restore equals the straight run

void
expectSameEvent(const TraceEvent &a, const TraceEvent &b,
                std::size_t index)
{
    EXPECT_EQ(a.kind, b.kind) << "event " << index;
    EXPECT_EQ(a.arch, b.arch) << "event " << index;
    EXPECT_EQ(a.ok, b.ok) << "event " << index;
    EXPECT_EQ(a.tid, b.tid) << "event " << index;
    EXPECT_EQ(a.ctx, b.ctx) << "event " << index;
    EXPECT_EQ(a.regs, b.regs) << "event " << index;
    EXPECT_EQ(a.cycle, b.cycle) << "event " << index;
    EXPECT_EQ(a.cycles, b.cycles) << "event " << index;
    EXPECT_EQ(a.aux, b.aux) << "event " << index;
}

void
expectSameStats(const MtStats &a, const MtStats &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.usefulCycles, b.usefulCycles);
    EXPECT_EQ(a.idleCycles, b.idleCycles);
    EXPECT_EQ(a.switchCycles, b.switchCycles);
    EXPECT_EQ(a.allocCycles, b.allocCycles);
    EXPECT_EQ(a.deallocCycles, b.deallocCycles);
    EXPECT_EQ(a.loadCycles, b.loadCycles);
    EXPECT_EQ(a.unloadCycles, b.unloadCycles);
    EXPECT_EQ(a.queueCycles, b.queueCycles);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.cacheFaults, b.cacheFaults);
    EXPECT_EQ(a.syncFaults, b.syncFaults);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.unloads, b.unloads);
    EXPECT_EQ(a.allocSuccesses, b.allocSuccesses);
    EXPECT_EQ(a.allocFailures, b.allocFailures);
    EXPECT_EQ(a.efficiencyCentral, b.efficiencyCentral);
    EXPECT_EQ(a.efficiencyTotal, b.efficiencyTotal);
    EXPECT_EQ(a.avgResidentContexts, b.avgResidentContexts);
    EXPECT_EQ(a.maxResidentContexts, b.maxResidentContexts);
    EXPECT_EQ(a.threadsFinished, b.threadsFinished);
}

/**
 * Run @p spec straight through, then again split at event boundary
 * @p splitAt (snapshot, restore into a fresh processor, continue),
 * and require identical traces, statistics, and thread tables.
 */
void
checkResumeEqualsStraight(const SimulationSpec &spec,
                          uint64_t splitAt)
{
    SCOPED_TRACE("split at event " + std::to_string(splitAt));

    // The uninterrupted reference run.
    VectorSink straightSink;
    SimulationSpec straightSpec = spec;
    MtProcessor straight(straightSpec.traceSink(&straightSink).build());
    const MtStats straightStats = straight.run();

    // Head: run to the boundary and snapshot.
    VectorSink headSink;
    SimulationSpec headSpec = spec;
    MtProcessor head(headSpec.traceSink(&headSink).build());
    head.begin();
    while (!head.done() && head.eventIndex() < splitAt)
        head.step();
    const std::vector<uint8_t> doc = head.snapshot();

    // Tail: a fresh processor restored from the document.
    VectorSink tailSink;
    SimulationSpec tailSpec = spec;
    MtProcessor tail(tailSpec.traceSink(&tailSink).build());
    tail.restore(doc);
    const MtStats tailStats = tail.run();

    expectSameStats(straightStats, tailStats);

    const std::vector<TraceEvent> &straightEvents =
        straightSink.events();
    ASSERT_EQ(straightEvents.size(),
              headSink.events().size() + tailSink.events().size());
    for (std::size_t i = 0; i < straightEvents.size(); ++i) {
        const bool inHead = i < headSink.events().size();
        expectSameEvent(straightEvents[i],
                        inHead ? headSink.events()[i]
                               : tailSink.events()
                                     [i - headSink.events().size()],
                        i);
    }

    ASSERT_EQ(straight.threads().size(), tail.threads().size());
    for (std::size_t i = 0; i < straight.threads().size(); ++i) {
        const mt::Thread &a = straight.threads()[i];
        const mt::Thread &b = tail.threads()[i];
        EXPECT_EQ(a.totalWork, b.totalWork) << "thread " << i;
        EXPECT_EQ(a.faults, b.faults) << "thread " << i;
        EXPECT_EQ(a.timesLoaded, b.timesLoaded) << "thread " << i;
        EXPECT_EQ(a.timesUnloaded, b.timesUnloaded) << "thread " << i;
        EXPECT_EQ(a.finishTime, b.finishTime) << "thread " << i;
    }
}

SimulationSpec
cacheSpec()
{
    return SimulationSpec()
        .cacheFaults(20, 60)
        .threads(24)
        .workPerThread(2000)
        .numRegs(128)
        .seed(7);
}

TEST(CkptMt, CacheFlexibleResumeEqualsStraightRun)
{
    for (const uint64_t splitAt : {0ull, 1ull, 57ull, 400ull})
        checkResumeEqualsStraight(cacheSpec(), splitAt);
}

TEST(CkptMt, SnapshotPastTheEndRestoresAFinishedRun)
{
    // splitAt beyond the run length: the head finishes, the snapshot
    // captures the final state, and the tail has nothing left to do.
    checkResumeEqualsStraight(cacheSpec(), ~0ull);
}

TEST(CkptMt, SyncFixedTwoPhaseResumeEqualsStraightRun)
{
    const SimulationSpec spec = SimulationSpec()
                                    .syncFaults(20, 100)
                                    .arch(ArchKind::FixedHw)
                                    .threads(16)
                                    .workPerThread(1500)
                                    .numRegs(128)
                                    .seed(3);
    for (const uint64_t splitAt : {1ull, 123ull})
        checkResumeEqualsStraight(spec, splitAt);
}

TEST(CkptMt, CombinedAddRelocResumeEqualsStraightRun)
{
    const SimulationSpec spec = SimulationSpec()
                                    .combinedFaults(20, 60, 40, 100)
                                    .arch(ArchKind::AddReloc)
                                    .threads(16)
                                    .workPerThread(1500)
                                    .numRegs(128)
                                    .seed(5);
    for (const uint64_t splitAt : {1ull, 123ull})
        checkResumeEqualsStraight(spec, splitAt);
}

TEST(CkptMt, PrioritizedWorkloadResumeEqualsStraightRun)
{
    const SimulationSpec spec = SimulationSpec()
                                    .cacheFaults(20, 60)
                                    .threads(24)
                                    .workPerThread(1500)
                                    .priorities(3, makeUniformInt(0, 2))
                                    .numRegs(128)
                                    .seed(11);
    for (const uint64_t splitAt : {1ull, 200ull})
        checkResumeEqualsStraight(spec, splitAt);
}

TEST(CkptMt, SnapshotIsByteStableAcrossRestore)
{
    MtProcessor head(cacheSpec().build());
    head.begin();
    for (int i = 0; i < 150 && !head.done(); ++i)
        head.step();
    const std::vector<uint8_t> doc = head.snapshot();
    EXPECT_EQ(doc, head.snapshot()); // snapshotting is pure

    MtProcessor restored(cacheSpec().build());
    restored.restore(doc);
    EXPECT_EQ(doc, restored.snapshot()); // restore loses nothing
}

/** 64-bit FNV-1a of @p bytes. */
uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const uint8_t byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

// A mid-run two-phase snapshot, taken after enough events that the
// efficiency series (section 0x42) spans three storage chunks. The
// recorder's in-memory layout may change; these bytes may not.
TEST(CkptMt, TwoPhaseSnapshotBytesArePinned)
{
    const SimulationSpec spec = SimulationSpec()
                                    .syncFaults(24, 600)
                                    .twoPhaseUnload()
                                    .threads(24)
                                    .workPerThread(12000)
                                    .numRegs(64)
                                    .seed(23);
    MtProcessor head(spec.build());
    head.begin();
    for (int i = 0; i < 9000 && !head.done(); ++i)
        head.step();
    ASSERT_FALSE(head.done());
    const std::vector<uint8_t> doc = head.snapshot();
    ASSERT_GT(ckpt::Reader(doc).u64vec(0x42, 1).size(),
              2 * IntervalRecorder::kChunkPoints);
    // Golden digest: a change here is an rr.ckpt.v1 format change.
    EXPECT_EQ(doc.size(), 149075u);
    EXPECT_EQ(fnv1a(doc), 0x1fc4d93dc7f95baeull);

    MtProcessor restored(spec.build());
    restored.restore(doc);
    EXPECT_EQ(restored.snapshot(), doc);
    // The restored run carries on exactly as the original.
    for (int i = 0; i < 500; ++i) {
        head.step();
        restored.step();
    }
    EXPECT_EQ(restored.snapshot(), head.snapshot());
}

// The blocked-loaded list, the smallest context requirement and the
// two-phase budgets are not saved: restore rebuilds them from the
// thread table. A snapshot taken while resident contexts wait blocked
// and threads queue for registers must still resume into the straight
// run's statistics and its exact rr.trace.v1 bytes.
TEST(CkptMt, TwoPhaseResumeWithBlockedResidentsMatchesTraceBytes)
{
    const SimulationSpec spec = SimulationSpec()
                                    .syncFaults(24, 600)
                                    .twoPhaseUnload()
                                    .threads(24)
                                    .workPerThread(3000)
                                    .numRegs(64)
                                    .seed(19);

    // Split points: every 40th boundary with at least two blocked
    // resident contexts and a non-empty thread queue.
    std::vector<uint64_t> splits;
    {
        SimulationSpec probeSpec = spec;
        MtProcessor probe(probeSpec.build());
        probe.begin();
        unsigned qualifying = 0;
        while (!probe.done() && splits.size() < 3) {
            unsigned blocked = 0, queued = 0;
            for (const mt::Thread &t : probe.threads()) {
                blocked += t.state == mt::ThreadState::BlockedLoaded;
                queued += t.state == mt::ThreadState::UnloadedReady;
            }
            if (blocked >= 2 && queued >= 1 && qualifying++ % 40 == 0)
                splits.push_back(probe.eventIndex());
            probe.step();
        }
    }
    ASSERT_EQ(splits.size(), 3u);

    std::ostringstream straightOut;
    trace::StreamJsonSink straightSink(straightOut);
    SimulationSpec straightSpec = spec;
    const MtStats straightStats =
        straightSpec.traceSink(&straightSink).run();
    ASSERT_GT(straightStats.unloads, 0u);

    for (const uint64_t splitAt : splits) {
        SCOPED_TRACE("split at event " + std::to_string(splitAt));
        std::ostringstream headOut, tailOut;
        trace::StreamJsonSink headSink(headOut), tailSink(tailOut);

        SimulationSpec headSpec = spec;
        MtProcessor head(headSpec.traceSink(&headSink).build());
        head.begin();
        while (head.eventIndex() < splitAt)
            head.step();
        const std::vector<uint8_t> doc = head.snapshot();

        SimulationSpec tailSpec = spec;
        MtProcessor tail(tailSpec.traceSink(&tailSink).build());
        tail.restore(doc);
        const MtStats tailStats = tail.run();
        expectSameStats(straightStats, tailStats);

        // Each stream opens with the header line; the tail's is
        // dropped when the halves are joined.
        const std::string header = trace::traceJsonHeaderLine() + "\n";
        const std::string tailText = tailOut.str();
        ASSERT_EQ(tailText.compare(0, header.size(), header), 0);
        EXPECT_EQ(straightOut.str(),
                  headOut.str() + tailText.substr(header.size()));
    }
}

// A snapshot that goes through a file resumes in a fresh processor,
// and taking it does not perturb the run it was taken from.
TEST(CkptMt, ResumeViaConfigReproducesFinalStats)
{
    const std::string path =
        testing::TempDir() + "/rr_ckpt_resume_test.ckpt";

    SimulationSpec straightSpec = cacheSpec();
    const MtStats straightStats = straightSpec.run();

    MtProcessor head(cacheSpec().build());
    head.begin();
    while (!head.done() && head.eventIndex() < 100)
        head.step();
    ASSERT_FALSE(head.done());
    ckpt::writeFile(path, head.snapshot());
    expectSameStats(straightStats, head.run());

    MtProcessor tail(cacheSpec().build());
    tail.restore(ckpt::readFile(path));
    expectSameStats(straightStats, tail.run());

    std::remove(path.c_str());
}

TEST(CkptMt, CrossSpecRestoreThrows)
{
    MtProcessor source(cacheSpec().build());
    source.begin();
    const std::vector<uint8_t> doc = source.snapshot();

    SimulationSpec other = cacheSpec();
    MtProcessor target(other.seed(8).build());
    EXPECT_THROW(target.restore(doc), ckpt::Error);
}

TEST(CkptMt, HostileDocumentsThrowNotAbort)
{
    MtProcessor source(cacheSpec().build());
    source.begin();
    for (int i = 0; i < 50 && !source.done(); ++i)
        source.step();
    const std::vector<uint8_t> doc = source.snapshot();

    // Truncations die in the Reader.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{20},
          doc.size() / 2, doc.size() - 1}) {
        MtProcessor target(cacheSpec().build());
        const std::vector<uint8_t> cut(doc.begin(),
                                       doc.begin() +
                                           static_cast<long>(keep));
        EXPECT_THROW(target.restore(cut), ckpt::Error)
            << "kept " << keep << " bytes";
    }

    // A structurally valid document with the right meta but no
    // component sections dies in restoreState, not on an assert.
    ckpt::Writer writer;
    ckpt::writeMeta(writer, "mt", source.fingerprint());
    MtProcessor target(cacheSpec().build());
    EXPECT_THROW(target.restore(writer.seal()), ckpt::Error);
}

// ---------------------------------------------------------------------
// Component round trips

TEST(CkptEventCore, RoundTripsLiveAndStaleEvents)
{
    mt::EventCore core;
    core.push({100, 1, 0});
    core.push({90, 1, 1});
    core.push({110, 1, 2});
    core.push({90, 2, 1}); // equal-time tie with the earlier event
    core.invalidateThread(2);

    ckpt::Writer writer;
    core.saveState(writer);
    const std::vector<uint8_t> doc = writer.seal();

    mt::EventCore restored;
    restored.restoreState(ckpt::Reader(doc));
    EXPECT_EQ(restored.size(), core.size());
    EXPECT_EQ(restored.live(), core.live());
    EXPECT_EQ(restored.stale(), core.stale());

    // Byte-for-byte round trip: the raw heap order (and with it the
    // pop tie-breaking among equal times) survives.
    ckpt::Writer again;
    restored.saveState(again);
    EXPECT_EQ(again.seal(), doc);
}

TEST(CkptAuditor, SplitAuditReconcilesLikeAWholeRun)
{
    VectorSink sink;
    SimulationSpec spec = cacheSpec();
    MtConfig config = spec.traceSink(&sink).build();
    const MtStats stats = mt::simulate(config);
    const std::vector<TraceEvent> &events = sink.events();
    ASSERT_GT(events.size(), 100u);

    trace::TraceAuditor whole(config.costs);
    for (const TraceEvent &event : events)
        whole.emit(event);
    EXPECT_TRUE(whole.reconcile(mt::auditTotals(stats)).empty());

    const std::size_t split = events.size() / 3;
    trace::TraceAuditor headAuditor(config.costs);
    for (std::size_t i = 0; i < split; ++i)
        headAuditor.emit(events[i]);
    ckpt::Writer writer;
    headAuditor.saveState(writer);
    const std::vector<uint8_t> doc = writer.seal();

    trace::TraceAuditor tailAuditor(config.costs);
    tailAuditor.restoreState(ckpt::Reader(doc));
    for (std::size_t i = split; i < events.size(); ++i)
        tailAuditor.emit(events[i]);
    EXPECT_TRUE(tailAuditor.reconcile(mt::auditTotals(stats)).empty());
    EXPECT_EQ(tailAuditor.eventsSeen(), whole.eventsSeen());
}

TraceEvent
auditEvent(trace::EventKind kind, uint32_t tid, uint64_t cycle,
           uint64_t cycles)
{
    TraceEvent event;
    event.kind = kind;
    event.tid = tid;
    event.cycle = cycle;
    event.cycles = cycles;
    return event;
}

std::string
hexOf(const std::vector<uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (const uint8_t byte : bytes) {
        out += digits[byte >> 4];
        out += digits[byte & 0xf];
    }
    return out;
}

// A mid-run auditor over sparse tids: 0 allocated and loaded, 5
// allocated only, 1000 seen by events that set no flag, plus
// scheduler-only events and one streaming problem.
void
feedMidRunAuditor(trace::TraceAuditor &auditor)
{
    using trace::EventKind;
    constexpr uint32_t none = TraceEvent::kNoThread;
    auditor.emit(auditEvent(EventKind::SchedulerPoll, none, 10, 10));
    auditor.emit(auditEvent(EventKind::Alloc, 0, 10, 0));
    TraceEvent load = auditEvent(EventKind::Load, 0, 28, 18);
    load.regs = 8;
    auditor.emit(load);
    auditor.emit(auditEvent(EventKind::Alloc, 5, 28, 0));
    TraceEvent fault = auditEvent(EventKind::FaultIssue, 1000, 28, 0);
    fault.aux = 200;
    auditor.emit(fault);
    auditor.emit(auditEvent(EventKind::RunSegment, 0, 100, 72));
    auditor.emit(auditEvent(EventKind::Switch, none, 106, 6));
    auditor.emit(auditEvent(EventKind::RunSegment, 1000, 110, 4));
}

// Section 0x30 is part of the rr.ckpt.v1 format: the auditor's
// in-memory layout may change, its bytes may not.
TEST(CkptAuditor, SectionBytesArePinned)
{
    trace::TraceAuditor auditor{runtime::CostModel{}};
    feedMidRunAuditor(auditor);
    ASSERT_EQ(auditor.problems().size(), 1u);
    ckpt::Writer writer;
    auditor.saveState(writer);
    const std::vector<uint8_t> doc = writer.seal();
    // Golden bytes: a change here is an rr.ckpt.v1 format change.
    const char *const pinned =
        "7272636b7074310a30000000b9010000000000000100000001080000"
        "000000000002000000016e0000000000000003000000050d00000000"
        "0000004c000000000000000600000000000000000000000000000000"
        "00000000000000000000000000000000000000000000001200000000"
        "000000000000000000000000000000000000000a0000000000000000"
        "00000000000000000000000000000000000000000000000400000005"
        "0d000000000000000200000000000000010000000000000001000000"
        "00000000000000000000000002000000000000000000000000000000"
        "01000000000000000000000000000000000000000000000001000000"
        "00000000000000000000000000000000000000000000000000000000"
        "05000000010200000000000000060000000100000000000000000700"
        "00000100000000000000000800000001000000000000000009000000"
        "0603000000000000000000000005000000e80300000a000000060300"
        "0000000000000300000001000000000000000b000000010100000000"
        "0000000c000000043500000000000000310000007469642031303030"
        "2072616e20776974686f75742061206c6f6164656420636f6e746578"
        "7420286379636c652031313029ffffffffc63e2fb7034bf42e";
    EXPECT_EQ(hexOf(doc), pinned);

    // A restored auditor saves the same bytes again.
    trace::TraceAuditor restored{runtime::CostModel{}};
    restored.restoreState(ckpt::Reader(doc));
    ckpt::Writer again;
    restored.saveState(again);
    EXPECT_EQ(again.seal(), doc);
}

/** An otherwise valid auditor section carrying @p tids / @p flags. */
std::vector<uint8_t>
auditorSection(const std::vector<uint32_t> &tids,
               const std::vector<uint32_t> &flags)
{
    const std::vector<uint64_t> perKind(trace::numEventKinds, 0);
    ckpt::Writer writer;
    writer.beginSection(trace::TraceAuditor::kCkptSection);
    for (uint32_t tag = 1; tag <= 8; ++tag) {
        if (tag == 3 || tag == 4)
            writer.u64vec(tag, perKind);
        else
            writer.u64(tag, 0);
    }
    writer.u32vec(9, tids);
    writer.u32vec(10, flags);
    writer.u64(11, 0);
    writer.bytes(12, {});
    writer.endSection();
    return writer.seal();
}

// A hostile thread table is a ckpt::Error, never a 2^32-entry flag
// table or a silently merged duplicate.
TEST(CkptAuditor, RestoreRejectsHostileThreadTables)
{
    const auto restore = [](const std::vector<uint32_t> &tids,
                            const std::vector<uint32_t> &flags) {
        trace::TraceAuditor auditor{runtime::CostModel{}};
        auditor.restoreState(ckpt::Reader(auditorSection(tids, flags)));
        return auditor.reconcile(trace::AuditTotals{});
    };
    constexpr uint32_t limit = trace::TraceAuditor::kTidLimit;

    EXPECT_NO_THROW(restore({0, 5, limit - 1}, {0, 0, 0}));
    EXPECT_EQ(restore({7}, {1}),
              std::vector<std::string>{
                  "tid 7 still holds an allocated context at end of "
                  "trace"});
    EXPECT_THROW(restore({0xffffffffu}, {0}), ckpt::Error);
    EXPECT_THROW(restore({0, limit}, {0, 0}), ckpt::Error);
    EXPECT_THROW(restore({5, 5}, {0, 0}), ckpt::Error);
    EXPECT_THROW(restore({5, 3}, {0, 0}), ckpt::Error);
    EXPECT_THROW(restore({5}, {4}), ckpt::Error);
    EXPECT_THROW(restore({5}, {}), ckpt::Error);
}

// ---------------------------------------------------------------------
// RelocationUnit: the memo-epoch restore regression

TEST(CkptReloc, RestoredMasksNeverTrustPreRestoreEpochs)
{
    using machine::RelocationResult;
    using machine::RelocationUnit;

    RelocationUnit unit({128, 5});

    // Churn through more mask states than the 16-slot table cache
    // holds, forcing recycling, and remember one mid-churn state.
    std::vector<uint32_t> savedMasks;
    unsigned savedSize = 0;
    for (unsigned i = 0; i < 24; ++i) {
        unit.setMask((i * 8) % 128);
        unit.setContextSize(8);
        (void)unit.table();
        if (i == 10) {
            savedMasks = unit.masks();
            savedSize = unit.contextSize();
        }
    }

    // More churn after the save, then restore. The unit's cache now
    // holds tables for masks the snapshot never saw; a restore that
    // trusted pre-restore epochs could serve one of them.
    for (unsigned i = 0; i < 8; ++i) {
        unit.setMask(16 + i * 8);
        unit.setContextSize(16);
        (void)unit.table();
    }
    const uint64_t epochBefore = unit.epoch();
    unit.restoreMasks(savedMasks, savedSize);
    EXPECT_GT(unit.epoch(), epochBefore);

    RelocationUnit fresh({128, 5});
    fresh.setMask(savedMasks[0]);
    fresh.setContextSize(savedSize);
    const RelocationResult *restored = unit.table();
    const RelocationResult *expected = fresh.table();
    for (unsigned operand = 0; operand < unit.tableSize();
         ++operand) {
        EXPECT_EQ(restored[operand].physical,
                  expected[operand].physical)
            << "operand " << operand;
        EXPECT_EQ(restored[operand].ok, expected[operand].ok)
            << "operand " << operand;
    }
    for (unsigned operand = 0; operand < unit.tableSize();
         ++operand) {
        EXPECT_EQ(unit.relocate(operand).physical,
                  fresh.relocate(operand).physical);
    }
}

TEST(CkptReloc, RestoreRejectsHostileMaskState)
{
    machine::RelocationUnit unit({128, 5});
    EXPECT_THROW(unit.restoreMasks({}, 8), ckpt::Error);
    EXPECT_THROW(unit.restoreMasks({0, 8}, 8), ckpt::Error);
    EXPECT_THROW(unit.restoreMasks({8}, 3), ckpt::Error);
    EXPECT_THROW(unit.restoreMasks({8}, 256), ckpt::Error);
    EXPECT_THROW(unit.restoreMasks({0xffffu}, 8), ckpt::Error);
}

// A machine snapshot whose geometry no relocation unit can have is a
// ckpt::Error naming the value, never a constructor abort.
TEST(CkptMachine, ConfigRejectsImpossibleGeometry)
{
    // The "machine" kind's config section and field tags
    // (src/machine/cpu.cc): F, w, delay, mem, mode, banks, timing.
    auto config_of = [](uint64_t regs, uint64_t width, uint64_t banks) {
        ckpt::Writer writer;
        writer.beginSection(0x10);
        for (const auto &[tag, value] :
             std::vector<std::pair<uint32_t, uint64_t>>{
                 {1, regs}, {2, width}, {3, 1}, {4, 1024}, {5, 0},
                 {6, banks}, {7, 0}, {8, 0}, {9, 0}})
            writer.u64(tag, value);
        writer.endSection();
        const ckpt::Reader reader(writer.seal());
        return machine::Cpu::configFromCheckpoint(reader);
    };
    EXPECT_EQ(config_of(128, 5, 2).geometry.banks, 2u);

    const struct
    {
        uint64_t regs, width, banks;
        const char *message;
    } hostile[] = {
        {100, 5, 1, "power of two: 100"},
        {16, 5, 1, "addresses more registers"},
        {128, 7, 1, "operand width must be in [1, 6]: 7"},
        {128, 5, 3, "power of two: 3"},
        {128, 5, 32, "32 RRM banks leave no offset bits"},
    };
    for (const auto &h : hostile) {
        try {
            config_of(h.regs, h.width, h.banks);
            ADD_FAILURE() << h.message << ": accepted";
        } catch (const ckpt::Error &error) {
            EXPECT_NE(std::string(error.what()).find(h.message),
                      std::string::npos)
                << error.what();
        }
    }
}

} // namespace
} // namespace rr
