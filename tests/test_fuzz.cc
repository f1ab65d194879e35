/**
 * @file
 * Tests for the rr::fuzz subsystem itself: generator determinism,
 * repro round-trip exactness, parse-time validation of hostile repro
 * files, shrinker contracts, and end-to-end runFuzz determinism.
 * The *oracles* are exercised continuously by tool_rrfuzz_smoke and
 * the pinned corpus (tests/fuzz/corpus/); this file pins the
 * machinery those runs depend on.
 */

#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "fuzz/fuzz.hh"
#include "serve/cache.hh"

namespace rr::fuzz {
namespace {

/** Every kind, built from the count so none can be left out. */
const auto kAllKinds = [] {
    std::array<SampleKind, numSampleKinds> kinds{};
    for (unsigned i = 0; i < numSampleKinds; ++i)
        kinds[i] = static_cast<SampleKind>(i);
    return kinds;
}();

TEST(FuzzGen, SameSeedSameSample)
{
    for (const SampleKind kind : kAllKinds) {
        const uint64_t seed =
            1234 + static_cast<uint64_t>(kind) * 17;
        Rng a(seed), b(seed);
        const std::string first =
            serializeRepro(generateSample(kind, a));
        const std::string second =
            serializeRepro(generateSample(kind, b));
        EXPECT_EQ(first, second) << kindName(kind);
    }
}

TEST(FuzzGen, DifferentSeedsDiffer)
{
    // Not a hard guarantee for every kind/seed pair, but these seeds
    // must not collide — a generator ignoring its rng would pass
    // SameSeedSameSample trivially.
    Rng a(1), b(2);
    EXPECT_NE(serializeRepro(generateSample(SampleKind::Program, a)),
              serializeRepro(generateSample(SampleKind::Program, b)));
}

TEST(FuzzRepro, RoundTripIsByteExact)
{
    for (const SampleKind kind : kAllKinds) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            Rng rng(seed * 1000 + static_cast<uint64_t>(kind));
            const AnySample sample = generateSample(kind, rng);
            const std::string text = serializeRepro(sample);

            AnySample parsed;
            std::string error;
            ASSERT_TRUE(parseRepro(text, parsed, error))
                << kindName(kind) << ": " << error;
            EXPECT_EQ(kindOf(parsed), kind);
            EXPECT_EQ(serializeRepro(parsed), text)
                << kindName(kind);
        }
    }
}

TEST(FuzzRepro, RejectsGarbage)
{
    AnySample out;
    std::string error;
    EXPECT_FALSE(parseRepro("", out, error));
    EXPECT_FALSE(parseRepro("not a repro", out, error));
    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\n", out, error));
    EXPECT_FALSE(
        parseRepro("rrfuzz.repro.v1\nkind nope\nend\n", out, error));
    // Missing terminator: a truncated file must not parse.
    EXPECT_FALSE(parseRepro(
        "rrfuzz.repro.v1\nkind num\ntext 5\nmax 10\n", out, error));
}

TEST(FuzzRepro, RejectsOutOfDomainValues)
{
    // Hand-edited repro files are parsed before any simulator runs;
    // values outside the generator domains must be parse errors, not
    // assertion failures or multi-hour simulations.
    AnySample out;
    std::string error;
    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\nkind xsim\n"
                            "threads 9\nregsUsed 16\nlatency 100\n"
                            "segments 4\nseed 1\ntolerance 0.15\n"
                            "script 10\nend\n",
                            out, error));
    EXPECT_NE(error.find("threads"), std::string::npos) << error;

    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\nkind reloc\n"
                            "numRegs 33\noperandWidth 5\nbanks 1\n"
                            "mode 0\nend\n",
                            out, error));

    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\nkind phase\n"
                            "threads 1\nworkPerThread 0\n"
                            "phase0Faults 1\nmeanRun 8\nlatency0 10\n"
                            "latency1 100\nnumRegs 128\nseed 1\n"
                            "end\n",
                            out, error));

    // Values too wide for the field's type are out of range too; they
    // must not wrap into a plausible smaller value (32 regs, mode 0,
    // one thread) and replay as something else.
    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\nkind reloc\n"
                            "numRegs 4294967328\noperandWidth 5\n"
                            "banks 1\nmode 0\nend\n",
                            out, error));
    EXPECT_NE(error.find("numRegs out of range"), std::string::npos)
        << error;
    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\nkind reloc\n"
                            "numRegs 32\noperandWidth 5\nbanks 1\n"
                            "mode 256\nend\n",
                            out, error));
    EXPECT_NE(error.find("mode out of range"), std::string::npos)
        << error;
    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\nkind phase\n"
                            "threads 4294967297\nworkPerThread 1024\n"
                            "phase0Faults 1\nmeanRun 8\nlatency0 10\n"
                            "latency1 100\nnumRegs 128\nseed 1\n"
                            "end\n",
                            out, error));
    EXPECT_NE(error.find("threads out of range"), std::string::npos)
        << error;
}

TEST(FuzzRepro, CorpusFilesAreCanonical)
{
    // Every pinned repro is already in canonical form: parsing and
    // re-serializing gives back the file's exact bytes.
    namespace fs = std::filesystem;
    unsigned files = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(RR_FUZZ_CORPUS_DIR)) {
        if (entry.path().extension() != ".repro")
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();

        AnySample sample;
        std::string error;
        ASSERT_TRUE(parseRepro(text.str(), sample, error))
            << entry.path() << ": " << error;
        EXPECT_EQ(serializeRepro(sample), text.str()) << entry.path();
        ++files;
    }
    EXPECT_GE(files, 11u); // the corpus only grows
}

TEST(FuzzRepro, RejectsMalformedCallgraphs)
{
    AnySample out;
    std::string error;
    // A procedure with two callers breaks the forest invariant the
    // ground-truth locksets depend on.
    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\nkind callgraph\n"
                            "numCells 1\nnumLocks 0\nmaxSteps 100\n"
                            "proc 0 0 0 0 2\nproc 0 0 0 0 2\n"
                            "proc 0 0 0 0\nroot 0 1\nend\n",
                            out, error));
    EXPECT_NE(error.find("two callers"), std::string::npos) << error;

    // A lock held by both a procedure and its forest ancestor would
    // make the generated spinlock deadlock at runtime.
    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\nkind callgraph\n"
                            "numCells 1\nnumLocks 1\nmaxSteps 100\n"
                            "proc 0 0 0 1 1\nproc 0 0 0 1\n"
                            "root 0\nend\n",
                            out, error));
    EXPECT_NE(error.find("ancestor"), std::string::npos) << error;

    // Roots may only call parentless procedures (unique call paths).
    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\nkind callgraph\n"
                            "numCells 1\nnumLocks 0\nmaxSteps 100\n"
                            "proc 0 0 0 0 1\nproc 0 0 0 0\n"
                            "root 1\nend\n",
                            out, error));

    // Back or self call targets would make the graph cyclic.
    EXPECT_FALSE(parseRepro("rrfuzz.repro.v1\nkind callgraph\n"
                            "numCells 1\nnumLocks 0\nmaxSteps 100\n"
                            "proc 0 0 0 0 0\nroot 0\nend\n",
                            out, error));
}

/** A two-thread unlocked write/write conflict on one shared cell. */
CallgraphSample
racyCallgraphSample()
{
    CallgraphSample s;
    s.numCells = 1;
    s.numLocks = 1;
    s.maxSteps = 20000;
    CgProc writer;
    writer.cell = 0;
    writer.write = true;
    CgProc locked_writer;
    locked_writer.cell = 0;
    locked_writer.write = true;
    locked_writer.lock = 0;
    s.procs = {writer, locked_writer};
    s.roots.resize(3);
    s.roots[1].calls = {0}; // t1: unlocked write
    s.roots[2].calls = {1}; // t2: write under lk0
    return s;
}

TEST(FuzzCheck, CallgraphOracleAcceptsARacyConstruction)
{
    // The oracle demands the lint race set *equal* the construction's
    // — a sample with a genuine race passes only if the analysis
    // reports exactly that race.
    const AnySample sample = racyCallgraphSample();
    const Problems problems = checkSample(sample);
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
}

TEST(FuzzCheck, CallgraphSourceIsDeterministic)
{
    const CallgraphSample s = racyCallgraphSample();
    const std::string a = callgraphSource(s);
    EXPECT_EQ(a, callgraphSource(s));
    EXPECT_NE(a.find(".lockdef lk0"), std::string::npos);
    EXPECT_NE(a.find(".thread t2"), std::string::npos);
}

/** A sample that fails checkSample deterministically: the phase
 * oracle demands that raising only the phase-1 latency changes the
 * clock, which is impossible when both latencies are equal. */
PhaseSample
degeneratePhaseSample()
{
    PhaseSample s;
    s.threads = 6;
    s.workPerThread = 2048;
    s.phase0Faults = 2;
    s.meanRun = 32.0;
    s.latency0 = 50;
    s.latency1 = 50;
    s.numRegs = 128;
    s.seed = 3;
    return s;
}

TEST(FuzzShrink, PassingSampleReturnedUnchanged)
{
    NumSample s;
    s.text = "42";
    const AnySample sample = s;
    ASSERT_TRUE(checkSample(sample).empty());
    unsigned steps = 0;
    const AnySample shrunk = shrinkSample(sample, 100, steps);
    EXPECT_EQ(serializeRepro(shrunk), serializeRepro(sample));
}

TEST(FuzzShrink, FailingSampleStaysFailingAndShrinks)
{
    const AnySample sample = degeneratePhaseSample();
    ASSERT_FALSE(checkSample(sample).empty());

    unsigned steps = 0;
    const AnySample shrunk = shrinkSample(sample, 200, steps);
    EXPECT_FALSE(checkSample(shrunk).empty());
    EXPECT_GT(steps, 0u);
    EXPECT_LE(serializeRepro(shrunk).size(),
              serializeRepro(sample).size());
}

TEST(FuzzShrink, IsDeterministic)
{
    const AnySample sample = degeneratePhaseSample();
    unsigned steps1 = 0, steps2 = 0;
    const AnySample a = shrinkSample(sample, 200, steps1);
    const AnySample b = shrinkSample(sample, 200, steps2);
    EXPECT_EQ(serializeRepro(a), serializeRepro(b));
    EXPECT_EQ(steps1, steps2);
}

TEST(FuzzGen, GeneratedBytesArePinned)
{
    // Golden digests: any change to a generator, or to the repro
    // writer, changes these. Update them only for an intended change
    // and record it (docs/FUZZ.md, "Determinism").
    const uint64_t pinned[numSampleKinds] = {
        0xb0ed16cd737d6fdeull, // reloc
        0x46b88ffbdcc6ef1bull, // heap
        0x6ec36b8296b56c78ull, // json
        0x0a30fa89664e34c7ull, // num
        0x99cd4068a5a069cdull, // phase
        0xc1c43d1dff9be8faull, // program
        0xbf2136b0ae6ad2f2ull, // mt
        0x8876a803be65c72cull, // xsim
        0x555252a4a46e72ecull, // callgraph
        0x662089b18db35af4ull, // ckpt
    };
    for (const SampleKind kind : kAllKinds) {
        std::string texts;
        for (uint64_t seed = 1; seed <= 16; ++seed) {
            Rng rng(seed);
            texts += serializeRepro(generateSample(kind, rng));
        }
        EXPECT_EQ(serve::fnv1a64(texts),
                  pinned[static_cast<unsigned>(kind)])
            << kindName(kind) << " 0x" << std::hex
            << serve::fnv1a64(texts);
    }

    // The phase ladder's values and order, end to end.
    unsigned steps = 0;
    const AnySample shrunk =
        shrinkSample(degeneratePhaseSample(), 200, steps);
    EXPECT_EQ(serializeRepro(shrunk), "rrfuzz.repro.v1\n"
                                      "kind phase\n"
                                      "threads 1\n"
                                      "workPerThread 64\n"
                                      "phase0Faults 1\n"
                                      "meanRun 8\n"
                                      "latency0 50\n"
                                      "latency1 50\n"
                                      "numRegs 128\n"
                                      "seed 1\n"
                                      "end\n");
}

TEST(FuzzCheck, GeneratedSamplesPassAllOracles)
{
    // Spot check; the CI smoke run covers far more samples.
    for (const SampleKind kind : kAllKinds) {
        Rng rng(77 + static_cast<uint64_t>(kind));
        const AnySample sample = generateSample(kind, rng);
        const Problems problems = checkSample(sample);
        EXPECT_TRUE(problems.empty())
            << kindName(kind) << ": "
            << (problems.empty() ? "" : problems.front());
    }
}

TEST(FuzzRun, SameOptionsSameReport)
{
    FuzzOptions options;
    options.seed = 42;
    options.samples = 16;

    const FuzzReport a = runFuzz(options);
    const FuzzReport b = runFuzz(options);
    EXPECT_EQ(a.samplesRun, 16u);
    EXPECT_EQ(a.samplesRun, b.samplesRun);
    EXPECT_EQ(a.perKind, b.perKind);
    EXPECT_EQ(a.failures.size(), b.failures.size());
    EXPECT_TRUE(a.clean());
}

TEST(FuzzRun, KindFilterRestrictsSamples)
{
    FuzzOptions options;
    options.seed = 7;
    options.samples = 8;
    options.kinds = {SampleKind::Num, SampleKind::Json};

    const FuzzReport report = runFuzz(options);
    EXPECT_EQ(report.samplesRun, 8u);
    EXPECT_EQ(report.perKind[static_cast<unsigned>(SampleKind::Num)],
              4u);
    EXPECT_EQ(report.perKind[static_cast<unsigned>(SampleKind::Json)],
              4u);
    EXPECT_EQ(
        report.perKind[static_cast<unsigned>(SampleKind::Reloc)], 0u);
}

TEST(FuzzKinds, NamesRoundTrip)
{
    for (const SampleKind kind : kAllKinds) {
        SampleKind back = SampleKind::Reloc;
        ASSERT_TRUE(kindFromName(kindName(kind), back));
        EXPECT_EQ(back, kind);
    }
    SampleKind ignored;
    EXPECT_FALSE(kindFromName("frobnicate", ignored));
}

} // namespace
} // namespace rr::fuzz
