/**
 * @file
 * The Snapshot/Restorable interface and rr.ckpt.v1 file helpers
 * (rr::ckpt).
 *
 * Every stateful simulation component implements Restorable:
 * saveState() emits one or more sections into a Writer,
 * restoreState() reads them back from a Reader. A checkpoint file is
 * a meta section (version, kind, spec fingerprint) followed by the
 * component sections; checkMeta() rejects version or kind mismatches
 * and cross-spec restores (snapshot from spec A into spec B) with a
 * ckpt::Error, which tools surface as exit code 2.
 *
 * The correctness contract (docs/CKPT.md): snapshot at any event
 * boundary, restore in a fresh process, and the remaining trace,
 * stats, and rr.bench.v1 output are byte-identical to the
 * uninterrupted run.
 */

#ifndef RR_CKPT_SNAPSHOT_HH
#define RR_CKPT_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/io.hh"

namespace rr::ckpt {

/** Format version of rr.ckpt.v1 documents. */
constexpr uint64_t kVersion = 1;

/** The meta section present in every checkpoint document. */
constexpr uint32_t kSectionMeta = 0x01;

/** Meta section fields. */
enum MetaField : uint32_t
{
    kMetaVersion = 1,     ///< u64, must equal kVersion
    kMetaKind = 2,        ///< str, e.g. "mt" or "machine"
    kMetaFingerprint = 3, ///< str, configuration fingerprint
};

/**
 * A component whose complete simulation-visible state can round-trip
 * through an rr.ckpt.v1 document. Implementations must be exact:
 * after restoreState(), continuing the simulation produces output
 * byte-identical to never having snapshotted. Derived or memoized
 * state (superblock caches, relocation tables) is rebuilt, not
 * trusted.
 */
class Restorable
{
  public:
    virtual ~Restorable() = default;

    /** Appends this component's sections to @p writer. */
    virtual void saveState(Writer &writer) const = 0;

    /**
     * Restores this component from @p reader. Throws ckpt::Error
     * when sections or fields are missing or incompatible; the
     * component may be left in an unspecified state on throw.
     */
    virtual void restoreState(const Reader &reader) = 0;
};

/** Writes the meta section: version, kind, spec fingerprint. */
void writeMeta(Writer &writer, const std::string &kind,
               const std::string &fingerprint);

/**
 * Validates the meta section: version must equal kVersion, kind and
 * fingerprint must match. A fingerprint mismatch means the snapshot
 * was taken under a different configuration (cross-spec restore) and
 * throws with both fingerprints in the message.
 */
void checkMeta(const Reader &reader, const std::string &kind,
               const std::string &fingerprint);

/** @return the kind string of @p reader's meta section. */
std::string metaKind(const Reader &reader);

/** Reads a whole file. Throws ckpt::Error when unreadable. */
std::vector<uint8_t> readFile(const std::string &path);

/** Writes @p document to @p path atomically enough for our use:
 * write to the final name, throw ckpt::Error on any short write. */
void writeFile(const std::string &path,
               const std::vector<uint8_t> &document);

} // namespace rr::ckpt

#endif // RR_CKPT_SNAPSHOT_HH
