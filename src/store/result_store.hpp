#ifndef COOLAIR_STORE_RESULT_STORE_HPP
#define COOLAIR_STORE_RESULT_STORE_HPP

/**
 * @file
 * Persistent content-addressed result store: a directory of small
 * CRC-protected entry files, each mapping one canonical identity text
 * (for experiments: the normalized spec text, see sim/result_cache.hpp)
 * to one payload (the serialized run result).
 *
 * The store is deliberately generic — it knows nothing about
 * ExperimentSpec or metrics.  Callers hand it an *id* (any canonical
 * text) and a payload; the store derives the entry file name from a
 * 128-bit hash of (salt, schema version, id), and every entry embeds
 * the full id text so a hash collision is detected on lookup and
 * served as a miss instead of a wrong result.
 *
 * Safety rules (the "never serve a wrong or torn result" contract):
 *
 *  - entries are written to a unique temp file and atomically renamed
 *    into place, so concurrent readers see either the old complete
 *    entry or the new complete entry, never a torn one;
 *  - every entry carries a CRC-32 over id + payload; corruption,
 *    truncation, or a malformed header makes lookup() miss (and the
 *    bad file is removed so the slot heals on the next store);
 *  - entries record the salt and schema version they were written
 *    under; a mismatch (the code or the result format changed) is a
 *    *stale* entry: also a miss, also removed;
 *  - lookup() and store() are thread-safe and may run concurrently
 *    from a worker pool (stats are atomics, file ops are atomic).
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace coolair {

namespace obs {
class StatsRegistry;
}

namespace store {

/** Snapshot of one store's lifetime activity. */
struct StoreStats
{
    int64_t lookups = 0;         ///< lookup() calls.
    int64_t hits = 0;            ///< lookups served with a valid payload.
    int64_t misses = 0;          ///< lookups that found nothing usable.
    int64_t stores = 0;          ///< entries written successfully.
    int64_t storeFailures = 0;   ///< writes that failed (IO error).
    int64_t staleEntries = 0;    ///< entries dropped: salt/schema mismatch.
    int64_t corruptEntries = 0;  ///< entries dropped: CRC/format/truncation.
    int64_t collisions = 0;      ///< entries whose id text did not match.
    int64_t verifyFailures = 0;  ///< --cache-verify re-runs that diverged.
    int64_t bytesRead = 0;       ///< entry bytes read on hits.
    int64_t bytesWritten = 0;    ///< entry bytes written by stores.
};

/** A persistent on-disk id -> payload store (one directory). */
class ResultStore
{
  public:
    /**
     * Open (creating if needed) the store at @p dir.  Entries written
     * under a different @p salt or @p schema_version are invisible —
     * they read as stale and are re-run by the caller.
     *
     * @throws std::runtime_error when the directory cannot be created.
     */
    ResultStore(std::string dir, std::string salt, int schema_version);

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Look up the payload stored for @p id.  Returns true and fills
     * @p payload only for a complete, CRC-valid, same-salt, same-schema
     * entry whose embedded id text equals @p id byte for byte; every
     * other outcome (missing, stale, corrupt, collided) is a miss.
     * Never throws; IO problems read as misses.
     */
    bool lookup(const std::string &id, std::string &payload);

    /**
     * Write (or atomically replace) the entry for @p id.  Returns false
     * on IO failure instead of throwing, so a read-only or full cache
     * directory degrades to "nothing gets cached" rather than failing
     * sweep jobs whose simulation already succeeded.
     */
    bool store(const std::string &id, const std::string &payload);

    /** Remove the entry for @p id (used when a payload fails to parse). */
    void discard(const std::string &id);

    /** Hex entry key (128-bit hash of salt, schema version, and @p id). */
    std::string keyFor(const std::string &id) const;

    /** Full path of the entry file for @p id. */
    std::string entryPath(const std::string &id) const;

    const std::string &dir() const { return _dir; }
    const std::string &salt() const { return _salt; }

    /**
     * Reclassify the latest hit as corrupt: the entry passed the CRC
     * but its payload failed to parse (a schema drift that forgot to
     * bump the version).  Call after discard()ing the entry.
     */
    void noteInvalidPayload();

    /** Count one verification failure (a re-run hit that diverged). */
    void noteVerifyFailure();

    /** Snapshot of the lifetime counters. */
    StoreStats stats() const;

    /**
     * Add this store's counters to @p reg under store.* (hits, misses,
     * stores, stale/corrupt entries, verify failures, bytes).  Counters
     * are lifetime totals: add to a given registry at most once per
     * store, or the merge double-counts.
     */
    void addStats(obs::StatsRegistry &reg) const;

    /** On-disk footprint (counts every entry file in the directory). */
    struct DiskUsage
    {
        uint64_t entries = 0;
        uint64_t bytes = 0;
    };
    DiskUsage diskUsage() const;

  private:
    std::string _dir;
    std::string _salt;
    int _schemaVersion;

    std::atomic<int64_t> _lookups{0};
    std::atomic<int64_t> _hits{0};
    std::atomic<int64_t> _misses{0};
    std::atomic<int64_t> _stores{0};
    std::atomic<int64_t> _storeFailures{0};
    std::atomic<int64_t> _staleEntries{0};
    std::atomic<int64_t> _corruptEntries{0};
    std::atomic<int64_t> _collisions{0};
    std::atomic<int64_t> _verifyFailures{0};
    std::atomic<int64_t> _bytesRead{0};
    std::atomic<int64_t> _bytesWritten{0};
    std::atomic<uint64_t> _tempCounter{0};
};

/** CRC-32 (IEEE 802.3) of a byte string, the checksum entries carry;
    folded by carry-less multiplication where crc32Folds(). */
uint32_t crc32(std::string_view data);

/** crc32 by slicing-by-8 tables alone: the portable path, and the
    reference the fold is tested against. */
uint32_t crc32Table(std::string_view data);

/** Whether this CPU has PCLMULQDQ and SSE4.1, so crc32 folds. */
bool crc32Folds();

} // namespace store
} // namespace coolair

#endif // COOLAIR_STORE_RESULT_STORE_HPP
