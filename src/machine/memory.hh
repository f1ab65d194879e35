/**
 * @file
 * A flat, word-addressed memory for the cycle-level machine. RRISC is
 * word-oriented: addresses count 32-bit words.
 */

#ifndef RR_MACHINE_MEMORY_HH
#define RR_MACHINE_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rr::machine {

/** Word-addressed RAM. */
class Memory
{
  public:
    /** Construct with @p num_words words, zero-initialized. */
    explicit Memory(size_t num_words);

    /** Number of words. */
    size_t size() const { return words_.size(); }

    /** @return true when @p addr is a valid word address. */
    bool inRange(uint64_t addr) const { return addr < words_.size(); }

    /** Read the word at @p addr; panics when out of range. */
    uint32_t read(uint64_t addr) const;

    /** Write the word at @p addr; panics when out of range. */
    void write(uint64_t addr, uint32_t value);

    /** Copy @p image into memory starting at word @p base. */
    void loadImage(uint64_t base, const std::vector<uint32_t> &image);

    /** Zero all of memory. */
    void clear();

    /**
     * Raw word storage for pre-validated fast paths (the Cpu
     * superblock engine). Callers must bounds-check addresses
     * themselves; the pointer stays valid for the Memory's lifetime
     * (the size is fixed at construction). Writes through this pointer
     * bypass the mutation counter and write journal below — the
     * superblock engine does its own invalidation for those.
     */
    const uint32_t *data() const { return words_.data(); }
    uint32_t *data() { return words_.data(); }

    // ---- mutation tracking ----------------------------------------------
    //
    // Derived caches keyed on memory contents (the Cpu's superblock
    // cache) need to notice writes that arrive through the public
    // API — host pokes from the runtime, checkpoint restores, image
    // loads — without re-hashing memory. version() is a monotonic
    // counter bumped by every mutating call; the write journal records
    // which addresses changed since the consumer last drained it, so
    // a cache can invalidate selectively. Past kWriteLogCap entries
    // (or after a bulk loadImage/clear) the journal degrades to an
    // overflow flag meaning "anything may have changed".

    /** Journal capacity before it degrades to the overflow flag. */
    static constexpr size_t kWriteLogCap = 64;

    /** Monotonic counter bumped by write/loadImage/clear. */
    uint64_t version() const { return version_; }

    /** Addresses written since the last clearWriteLog(). */
    const std::vector<uint32_t> &writeLog() const { return writeLog_; }

    /** True when the journal overflowed (treat all words as dirty). */
    bool writeLogOverflowed() const { return writeLogOverflow_; }

    /** Drain the journal (consumer has caught up with version()). */
    void clearWriteLog();

  private:
    std::vector<uint32_t> words_;
    uint64_t version_ = 0;
    std::vector<uint32_t> writeLog_;
    bool writeLogOverflow_ = false;
};

} // namespace rr::machine

#endif // RR_MACHINE_MEMORY_HH
