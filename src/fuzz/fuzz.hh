/**
 * @file
 * rr::fuzz — seeded, deterministic property testing and differential
 * fuzzing across the repo's redundant implementations.
 *
 * Every sample kind contributes four pure functions — generate
 * (seed -> sample), check (sample -> Problems, empty = pass), shrink
 * (failing sample -> minimal failing sample) and a repro codec
 * (sample <-> self-contained text file) — defined together in
 * src/fuzz/kinds/<kind>.cc and reached through one descriptor table
 * (src/fuzz/kind.hh), so the whole pipeline replays from a seed.
 *
 * runFuzz() ties them together: draw per-sample seeds from a master
 * xoshiro stream, round-robin over the enabled kinds, check every
 * sample, and on failure shrink + serialize a repro. The same
 * (seed, samples, kinds) always yields the same samples, the same
 * verdicts, and byte-identical repro files; see docs/FUZZ.md.
 */

#ifndef RR_FUZZ_FUZZ_HH
#define RR_FUZZ_FUZZ_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "fuzz/samples.hh"

namespace rr::fuzz {

/** Draw one sample of @p kind from @p rng. Deterministic. */
AnySample generateSample(SampleKind kind, Rng &rng);

/**
 * Run every applicable oracle on @p sample.
 *
 * @return problem descriptions; empty means the sample passed (or
 * was vacuous, e.g. a json sample whose text does not parse).
 */
Problems checkSample(const AnySample &sample);

/** Callgraph-sample geometry (fixed; the sample varies structure). */
constexpr unsigned kCgNumRegs = 64;   ///< register file size
constexpr unsigned kCgMemWords = 1024; ///< memory size (words)
constexpr uint32_t kCgCellBase = 0x200; ///< first shared cell
constexpr uint32_t kCgLockBase = 0x240; ///< first lock word

/**
 * Expand @p sample into RRISC assembly (pure and deterministic: the
 * same sample always yields byte-identical source). The layout is
 * roots first (entry at address 0), then procedures in index order,
 * then one spinlock acquire/release pair per declared lock.
 */
std::string callgraphSource(const CallgraphSample &sample);

/**
 * Delta-debug @p sample (which must fail checkSample) to a smaller
 * sample that still fails. Spends at most @p maxSteps oracle
 * evaluations; @p stepsUsed reports how many were spent. If the
 * sample does not actually fail, it is returned unchanged.
 */
AnySample shrinkSample(const AnySample &sample, unsigned maxSteps,
                       unsigned &stepsUsed);

/**
 * Serialize @p sample as a self-contained repro file (format
 * `rrfuzz.repro.v1`, line oriented, byte-stable). parseRepro() is
 * the exact inverse: parse(serialize(s)) == s for every sample.
 */
std::string serializeRepro(const AnySample &sample);

/** Parse a repro file. @return false and set @p error on failure. */
bool parseRepro(const std::string &text, AnySample &out,
                std::string &error);

/** Configuration for one fuzzing run. */
struct FuzzOptions
{
    uint64_t seed = 1;
    uint64_t samples = 100;

    /** Kinds to draw from (round-robin). Empty = all kinds. */
    std::vector<SampleKind> kinds;

    /** Directory for repro files; empty = do not write files. */
    std::string outDir;

    bool shrink = true;
    unsigned maxShrinkSteps = 400;

    /** Stop after this many failures (0 = no limit). */
    uint64_t maxFailures = 0;
};

/** One oracle violation, minimized and ready to pin. */
struct Failure
{
    SampleKind kind = SampleKind::Reloc;
    uint64_t index = 0;      ///< sample index within the run
    uint64_t sampleSeed = 0; ///< per-sample generator seed
    Problems problems;       ///< oracle output for the final sample
    unsigned shrinkSteps = 0;
    AnySample sample;        ///< minimized failing sample
    std::string repro;       ///< serializeRepro(sample)
    std::string reproPath;   ///< file written, empty if none
};

/** Result of a fuzzing run. */
struct FuzzReport
{
    uint64_t samplesRun = 0;
    std::array<uint64_t, numSampleKinds> perKind{};
    std::vector<Failure> failures;

    bool clean() const { return failures.empty(); }
};

/**
 * Run the pipeline. @p log, when non-null, receives one line per
 * failure and occasional progress notes (the lines are part of no
 * contract; the report is).
 */
FuzzReport runFuzz(const FuzzOptions &options,
                   std::ostream *log = nullptr);

} // namespace rr::fuzz

#endif // RR_FUZZ_FUZZ_HH
