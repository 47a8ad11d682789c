#include "store/result_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <array>
#include <cerrno>
#include <filesystem>
#include <stdexcept>

#include "obs/stats.hpp"
#include "util/parse.hpp"

namespace coolair {
namespace store {

namespace {

namespace fs = std::filesystem;

constexpr const char kMagic[] = "coolair-store 1";
constexpr const char kEntrySuffix[] = ".res";

/**
 * Sanity cap on one entry's id/payload size headers (1 GiB).  Real
 * entries are a few hundred bytes; a corrupt header claiming more than
 * this — or one whose digits would overflow the accumulator and wrap
 * to a small value, mis-framing the payload read — marks the entry
 * corrupt so it is dropped and re-run.
 */
constexpr uint64_t kMaxEntryBytes = uint64_t(1) << 30;

/** SplitMix64 finalizer: avalanches a 64-bit state. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Write the low 4 * @p n bits of @p v as @p n lowercase hex digits. */
void
putHex(char *out, uint64_t v, int n)
{
    for (int i = n - 1; i >= 0; --i, v >>= 4)
        out[i] = "0123456789abcdef"[v & 0xF];
}

/** crc32 slicing-by-8 tables: [0] the bytewise table, [k][b] the CRC
    of byte b followed by k zero bytes. */
const std::array<std::array<uint32_t, 256>, 8> &
crcTables()
{
    static const auto tables = [] {
        std::array<std::array<uint32_t, 256>, 8> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (size_t k = 1; k < t.size(); ++k)
            for (uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
        return t;
    }();
    return tables;
}

/** Advance the running CRC @p c over @p data through the tables, 8
    bytes at a time, then bytewise. */
uint32_t
crcTable(std::string_view data, uint32_t c)
{
    const auto &t = crcTables();
    const auto *p = reinterpret_cast<const unsigned char *>(data.data());
    size_t n = data.size();
    for (; n >= 8; n -= 8, p += 8) {
        const uint32_t lo = c ^ (uint32_t(p[0]) | uint32_t(p[1]) << 8 |
                                 uint32_t(p[2]) << 16 | uint32_t(p[3]) << 24);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; n > 0; --n, ++p)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c;
}

#if defined(__x86_64__)
/** @p x folded forward onto @p next: its low half times @p k's low
    constant plus its high half times @p k's high one. */
__attribute__((target("pclmul,sse4.1"))) __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/** Advance the running CRC @p c over @p n >= 64 bytes at @p p, a
    multiple of 16, as in Gopal et al., "Fast CRC Computation for Generic
    Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). */
__attribute__((target("pclmul,sse4.1"))) uint32_t
crcFold(const char *p, size_t n, uint32_t c)
{
    const auto load = [](const char *q) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(q));
    };
    // Four lanes fold 64 bytes at a time with x^(512 +- 32) mod P, one
    // lane 16 with x^(128 +- 32); x^64 narrows 128 bits to 64, and
    // Barrett (P, x^64 / P) reduces those to 32.
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_cvtsi64_si128(0x163cd6124);
    const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    __m128i x[4];
    for (int i = 0; i < 4; ++i)
        x[i] = load(p + 16 * i);
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(int(c)));
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64)
        for (int i = 0; i < 4; ++i)
            x[i] = fold(x[i], k1k2, load(p + 16 * i));
    __m128i y = fold(fold(fold(x[0], k3k4, x[1]), k3k4, x[2]), k3k4, x[3]);
    for (; n >= 16; p += 16, n -= 16)
        y = fold(y, k3k4, load(p));

    y = _mm_xor_si128(_mm_srli_si128(y, 8),
                      _mm_clmulepi64_si128(y, k3k4, 0x10));
    y = _mm_xor_si128(_mm_srli_si128(y, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(y, low32), k5, 0));
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(y, low32), poly, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
    return uint32_t(_mm_extract_epi32(_mm_xor_si128(y, q), 1));
}
#endif

/**
 * Read the file at @p path into @p out with one open, fstat and read
 * loop (EINTR and short reads retried); false if it cannot be read.  A
 * file over kMaxEntryBytes stays unread and empty: it fails the magic.
 */
bool
readEntry(const std::string &path, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st{};
    bool ok = ::fstat(fd, &st) == 0;
    if (ok && uint64_t(st.st_size) <= kMaxEntryBytes)
        out.resize(size_t(st.st_size));
    for (size_t got = 0; ok && got < out.size();) {
        const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
        if (n > 0)
            got += size_t(n);
        else if (n == 0)
            out.resize(got);  // shorter than fstat said: truncated
        else
            ok = errno == EINTR;
    }
    ::close(fd);
    return ok;
}

} // anonymous namespace

uint32_t
crc32(std::string_view data)
{
    uint32_t c = 0xFFFFFFFFu;
#if defined(__x86_64__)
    if (data.size() >= 64 && crc32Folds()) {
        const size_t n = data.size() & ~size_t(15);
        c = crcFold(data.data(), n, c);
        data.remove_prefix(n);
    }
#endif
    return crcTable(data, c) ^ 0xFFFFFFFFu;
}

uint32_t
crc32Table(std::string_view data)
{
    return crcTable(data, 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

bool
crc32Folds()
{
#if defined(__x86_64__)
    static const bool folds = __builtin_cpu_supports("pclmul") &&
                              __builtin_cpu_supports("sse4.1");
    return folds;
#else
    return false;
#endif
}

ResultStore::ResultStore(std::string dir, std::string salt,
                         int schema_version)
    : _dir(std::move(dir)), _salt(std::move(salt)),
      _schemaVersion(schema_version)
{
    std::error_code ec;
    fs::create_directories(_dir, ec);
    if (ec || !fs::is_directory(_dir))
        throw std::runtime_error("ResultStore: cannot create directory: " +
                                 _dir + ": " + ec.message());
}

std::string
ResultStore::keyFor(const std::string &id) const
{
    // Salt and schema participate in the key so a salt bump leaves old
    // entries unreachable (they also fail the embedded-header check if
    // a collision lands on one).  Two FNV-1a bases, then mix64.
    uint64_t h1 = 0xCBF29CE484222325ULL, h2 = 0x84222325CBF29CE4ULL;
    auto feed = [&h1, &h2](std::string_view bytes) {
        for (const unsigned char c : bytes) {
            h1 = (h1 ^ c) * 0x100000001B3ULL;
            h2 = (h2 ^ c) * 0x100000001B3ULL;
        }
    };
    feed(_salt), feed("\n"), feed(std::to_string(_schemaVersion));
    feed("\n"), feed(id);
    std::string key(32, '0');
    putHex(key.data(), mix64(h1), 16);
    putHex(key.data() + 16, mix64(h2), 16);
    return key;
}

std::string
ResultStore::entryPath(const std::string &id) const
{
    return _dir + "/" + keyFor(id) + kEntrySuffix;
}

bool
ResultStore::lookup(const std::string &id, std::string &payload)
{
    _lookups.fetch_add(1, std::memory_order_relaxed);
    const std::string path = entryPath(id);

    std::string blob;
    if (!readEntry(path, blob)) {
        _misses.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    // Parse the header; classify failures so the caller's stats say
    // *why* entries were re-run.
    enum class Bad
    {
        Corrupt,
        Stale,
        Collision
    };
    auto reject = [&](Bad why) {
        switch (why) {
          case Bad::Corrupt:
            _corruptEntries.fetch_add(1, std::memory_order_relaxed);
            break;
          case Bad::Stale:
            _staleEntries.fetch_add(1, std::memory_order_relaxed);
            break;
          case Bad::Collision:
            _collisions.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        // Corrupt and stale entries can never become valid again;
        // remove them so the slot heals on the next store.  A collided
        // entry is someone else's valid data: leave it.
        if (why != Bad::Collision) {
            std::error_code ec;
            fs::remove(path, ec);
        }
        _misses.fetch_add(1, std::memory_order_relaxed);
        return false;
    };

    // Six header lines, each "<name>value" up to its newline (salts may
    // contain spaces); the body (id + payload) is the rest of the blob.
    constexpr std::string_view kNames[] = {
        kMagic, "salt ", "schema ", "id_bytes ", "payload_bytes ", "crc32 "};
    std::string_view fields[std::size(kNames)];
    std::string_view body = blob;
    for (size_t i = 0; i < std::size(kNames); ++i) {
        const size_t nl = body.find('\n');
        if (nl == body.npos || body.substr(0, kNames[i].size()) != kNames[i])
            return reject(Bad::Corrupt);
        fields[i] = body.substr(kNames[i].size(), nl - kNames[i].size());
        body.remove_prefix(nl + 1);
    }
    const auto &[magic_tail, salt, schema, id_bytes_s, payload_bytes_s,
                 crc_s] = fields;
    if (!magic_tail.empty())
        return reject(Bad::Corrupt);

    uint64_t id_bytes = 0, payload_bytes = 0;
    if (!util::parseSize(id_bytes_s, id_bytes, kMaxEntryBytes) ||
        !util::parseSize(payload_bytes_s, payload_bytes, kMaxEntryBytes))
        return reject(Bad::Corrupt);
    if (body.size() != id_bytes + payload_bytes)
        return reject(Bad::Corrupt);  // truncated (or padded) body

    char crc[8];
    putHex(crc, crc32(body), 8);
    if (crc_s != std::string_view(crc, sizeof(crc)))
        return reject(Bad::Corrupt);

    // The entry is internally consistent; now check it is *ours*.
    if (salt != _salt || schema != std::to_string(_schemaVersion))
        return reject(Bad::Stale);
    if (body.substr(0, id_bytes) != id)
        return reject(Bad::Collision);

    payload.assign(body.substr(id_bytes));
    _hits.fetch_add(1, std::memory_order_relaxed);
    _bytesRead.fetch_add(int64_t(blob.size()), std::memory_order_relaxed);
    return true;
}

bool
ResultStore::store(const std::string &id, const std::string &payload)
{
    // One string holds the whole entry; the CRC of its body (id +
    // payload) is written into the header's slot once the body is in.
    std::string blob = std::string(kMagic) + "\nsalt " + _salt +
                       "\nschema " + std::to_string(_schemaVersion) +
                       "\nid_bytes " + std::to_string(id.size()) +
                       "\npayload_bytes " + std::to_string(payload.size()) +
                       "\ncrc32 ";
    const size_t crc_at = blob.size();
    blob.append("00000000\n").append(id).append(payload);
    putHex(blob.data() + crc_at,
           crc32(std::string_view(blob).substr(crc_at + 9)), 8);

    // Unique temp name per write (pid + a process-wide counter), then
    // an atomic rename: concurrent writers race benignly — last rename
    // wins and readers never see a torn entry.
    const std::string path = entryPath(id);
    const std::string tmp =
        path + ".tmp." + std::to_string(uint64_t(::getpid())) + "." +
        std::to_string(_tempCounter.fetch_add(1, std::memory_order_relaxed));

    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    bool written = fd >= 0;
    for (std::string_view rest = blob; written && !rest.empty();) {
        const ssize_t n = ::write(fd, rest.data(), rest.size());
        if (n > 0)
            rest.remove_prefix(size_t(n));
        else
            written = n < 0 && errno == EINTR;  // retry, or a real error
    }
    std::error_code ec;
    if ((fd >= 0 && ::close(fd) != 0) || !written) {
        _storeFailures.fetch_add(1, std::memory_order_relaxed);
        fs::remove(tmp, ec);
        return false;
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        _storeFailures.fetch_add(1, std::memory_order_relaxed);
        fs::remove(tmp, ec);
        return false;
    }
    _stores.fetch_add(1, std::memory_order_relaxed);
    _bytesWritten.fetch_add(int64_t(blob.size()), std::memory_order_relaxed);
    return true;
}

void
ResultStore::discard(const std::string &id)
{
    std::error_code ec;
    fs::remove(entryPath(id), ec);
}

void
ResultStore::noteInvalidPayload()
{
    // The lookup counted a hit before the payload failed to parse;
    // reclassify it so hits only ever count served results.
    _hits.fetch_sub(1, std::memory_order_relaxed);
    _misses.fetch_add(1, std::memory_order_relaxed);
    _corruptEntries.fetch_add(1, std::memory_order_relaxed);
}

void
ResultStore::noteVerifyFailure()
{
    _verifyFailures.fetch_add(1, std::memory_order_relaxed);
}

StoreStats
ResultStore::stats() const
{
    StoreStats s;
    s.lookups = _lookups.load(std::memory_order_relaxed);
    s.hits = _hits.load(std::memory_order_relaxed);
    s.misses = _misses.load(std::memory_order_relaxed);
    s.stores = _stores.load(std::memory_order_relaxed);
    s.storeFailures = _storeFailures.load(std::memory_order_relaxed);
    s.staleEntries = _staleEntries.load(std::memory_order_relaxed);
    s.corruptEntries = _corruptEntries.load(std::memory_order_relaxed);
    s.collisions = _collisions.load(std::memory_order_relaxed);
    s.verifyFailures = _verifyFailures.load(std::memory_order_relaxed);
    s.bytesRead = _bytesRead.load(std::memory_order_relaxed);
    s.bytesWritten = _bytesWritten.load(std::memory_order_relaxed);
    return s;
}

void
ResultStore::addStats(obs::StatsRegistry &reg) const
{
    StoreStats s = stats();
    reg.counter("store.lookups", "result-store lookups").add(s.lookups);
    reg.counter("store.hits", "lookups served from the result store")
        .add(s.hits);
    reg.counter("store.misses", "lookups that had to run").add(s.misses);
    reg.counter("store.stores", "results written to the store")
        .add(s.stores);
    reg.counter("store.store_failures", "result writes that failed (IO)")
        .add(s.storeFailures);
    reg.counter("store.stale_entries",
                "entries dropped on salt/schema mismatch")
        .add(s.staleEntries);
    reg.counter("store.corrupt_entries",
                "entries dropped on CRC/format failure")
        .add(s.corruptEntries);
    reg.counter("store.collisions", "entries whose id text did not match")
        .add(s.collisions);
    reg.counter("store.verify_failures",
                "verified hits that did not reproduce")
        .add(s.verifyFailures);
    reg.counter("store.bytes_read", "entry bytes read on hits")
        .add(s.bytesRead);
    reg.counter("store.bytes_written", "entry bytes written")
        .add(s.bytesWritten);
}

ResultStore::DiskUsage
ResultStore::diskUsage() const
{
    DiskUsage usage;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(_dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        if (entry.path().extension() != kEntrySuffix)
            continue;
        ++usage.entries;
        usage.bytes += uint64_t(entry.file_size(ec));
    }
    return usage;
}

} // namespace store
} // namespace coolair
