/**
 * @file
 * Unit tests for the persistent content-addressed result store
 * (src/store/): the round trip, every rejection class (stale, corrupt,
 * truncated, collided), the counters, and concurrent lookup/store from
 * the sweep runner's worker pool.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/stats.hpp"
#include "sim/runner.hpp"
#include "store/hot_cache.hpp"
#include "store/result_store.hpp"

using namespace coolair;
namespace fs = std::filesystem;

namespace {

constexpr char kSalt[] = "test-salt-1";
constexpr int kSchema = 1;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

} // anonymous namespace

class StoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = (fs::temp_directory_path() /
               (std::string("coolair-store-") + info->name()))
                  .string();
        fs::remove_all(dir);
    }
    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

TEST_F(StoreTest, RoundTrip)
{
    store::ResultStore st(dir, kSalt, kSchema);
    const std::string id = "site = newark\nsystem = allnd\n";
    const std::string payload = "result = 1\npue = 1.08\n";

    std::string out;
    EXPECT_FALSE(st.lookup(id, out));
    EXPECT_TRUE(st.store(id, payload));
    ASSERT_TRUE(st.lookup(id, out));
    EXPECT_EQ(payload, out);

    const store::StoreStats s = st.stats();
    EXPECT_EQ(2, s.lookups);
    EXPECT_EQ(1, s.hits);
    EXPECT_EQ(1, s.misses);
    EXPECT_EQ(1, s.stores);
    EXPECT_EQ(0, s.staleEntries);
    EXPECT_EQ(0, s.corruptEntries);
    EXPECT_GT(s.bytesWritten, 0);
    EXPECT_GT(s.bytesRead, 0);

    // Reopening the store (fresh process) still serves the entry.
    store::ResultStore again(dir, kSalt, kSchema);
    ASSERT_TRUE(again.lookup(id, out));
    EXPECT_EQ(payload, out);
}

TEST_F(StoreTest, KeysAreDeterministicAndDistinct)
{
    store::ResultStore st(dir, kSalt, kSchema);
    EXPECT_EQ(st.keyFor("a"), st.keyFor("a"));
    EXPECT_NE(st.keyFor("a"), st.keyFor("b"));
    // 128-bit key, hex-encoded.
    EXPECT_EQ(32u, st.keyFor("a").size());

    // The key covers the salt and schema version, not just the id.
    store::ResultStore other_salt(dir, "other-salt", kSchema);
    store::ResultStore other_schema(dir, kSalt, kSchema + 1);
    EXPECT_NE(st.keyFor("a"), other_salt.keyFor("a"));
    EXPECT_NE(st.keyFor("a"), other_schema.keyFor("a"));
}

TEST_F(StoreTest, OverwriteReplacesPayload)
{
    store::ResultStore st(dir, kSalt, kSchema);
    EXPECT_TRUE(st.store("id", "old"));
    EXPECT_TRUE(st.store("id", "new"));
    std::string out;
    ASSERT_TRUE(st.lookup("id", out));
    EXPECT_EQ("new", out);
    EXPECT_EQ(1u, st.diskUsage().entries);
}

TEST_F(StoreTest, StaleSaltEntryIsDroppedNotServed)
{
    const std::string id = "spec-text";
    {
        store::ResultStore writer(dir, "old-salt", kSchema);
        EXPECT_TRUE(writer.store(id, "payload"));
    }
    store::ResultStore st(dir, kSalt, kSchema);
    // Different salt hashes to a different entry file, so this is a
    // plain miss; the stale classification is for entries reached via
    // the same path (e.g. a hand-rolled or future-format file).  Force
    // that by copying the old entry onto the new path.
    store::ResultStore writer(dir, "old-salt", kSchema);
    fs::copy_file(writer.entryPath(id), st.entryPath(id),
                  fs::copy_options::overwrite_existing);
    std::string out;
    EXPECT_FALSE(st.lookup(id, out));
    EXPECT_EQ(1, st.stats().staleEntries);
    // The stale file was removed so the slot heals on the next store.
    EXPECT_FALSE(fs::exists(st.entryPath(id)));
}

TEST_F(StoreTest, StaleSchemaEntryIsDroppedNotServed)
{
    const std::string id = "spec-text";
    store::ResultStore writer(dir, kSalt, kSchema + 1);
    EXPECT_TRUE(writer.store(id, "payload"));
    store::ResultStore st(dir, kSalt, kSchema);
    fs::copy_file(writer.entryPath(id), st.entryPath(id),
                  fs::copy_options::overwrite_existing);
    std::string out;
    EXPECT_FALSE(st.lookup(id, out));
    EXPECT_EQ(1, st.stats().staleEntries);
    EXPECT_FALSE(fs::exists(st.entryPath(id)));
}

TEST_F(StoreTest, CorruptedBytesAreDetectedByCrc)
{
    store::ResultStore st(dir, kSalt, kSchema);
    const std::string id = "spec-text";
    EXPECT_TRUE(st.store(id, "payload-payload-payload"));

    std::string bytes = readFile(st.entryPath(id));
    bytes[bytes.size() - 3] ^= 0x20;  // flip one payload bit
    writeFile(st.entryPath(id), bytes);

    std::string out;
    EXPECT_FALSE(st.lookup(id, out));
    EXPECT_EQ(1, st.stats().corruptEntries);
    EXPECT_FALSE(fs::exists(st.entryPath(id)));

    // The slot heals: a fresh store and lookup work again.
    EXPECT_TRUE(st.store(id, "fresh"));
    ASSERT_TRUE(st.lookup(id, out));
    EXPECT_EQ("fresh", out);
}

TEST_F(StoreTest, TruncatedEntryIsDetected)
{
    store::ResultStore st(dir, kSalt, kSchema);
    const std::string id = "spec-text";
    EXPECT_TRUE(st.store(id, "payload-payload-payload"));

    std::string bytes = readFile(st.entryPath(id));
    writeFile(st.entryPath(id), bytes.substr(0, bytes.size() - 5));

    std::string out;
    EXPECT_FALSE(st.lookup(id, out));
    EXPECT_EQ(1, st.stats().corruptEntries);
    EXPECT_FALSE(fs::exists(st.entryPath(id)));
}

TEST_F(StoreTest, GarbageEntryIsDetected)
{
    store::ResultStore st(dir, kSalt, kSchema);
    const std::string id = "spec-text";
    writeFile(st.entryPath(id), "not a store entry at all\n");
    std::string out;
    EXPECT_FALSE(st.lookup(id, out));
    EXPECT_EQ(1, st.stats().corruptEntries);
}

TEST_F(StoreTest, OversizedEntryIsCorruptAndNotRead)
{
    // A file past the 1 GiB size-header cap can never be a valid entry:
    // it is dropped as corrupt from its size alone (the file is sparse,
    // so it costs no disk; reading it would cost 1 GiB of memory).
    store::ResultStore st(dir, kSalt, kSchema);
    const std::string id = "spec-text";
    EXPECT_TRUE(st.store(id, "payload"));
    fs::resize_file(st.entryPath(id), (uintmax_t(1) << 30) + 1);
    std::string out;
    EXPECT_FALSE(st.lookup(id, out));
    EXPECT_EQ(1, st.stats().corruptEntries);
    EXPECT_EQ(0, st.stats().bytesRead);
    EXPECT_FALSE(fs::exists(st.entryPath(id)));
}

TEST_F(StoreTest, HashCollisionIsServedAsMiss)
{
    store::ResultStore st(dir, kSalt, kSchema);
    const std::string id_a = "spec-a";
    const std::string id_b = "spec-b";
    EXPECT_TRUE(st.store(id_a, "payload-a"));
    // Simulate a 128-bit hash collision: id_b's entry path holds a
    // CRC-valid entry whose embedded id text is id_a's.
    fs::copy_file(st.entryPath(id_a), st.entryPath(id_b),
                  fs::copy_options::overwrite_existing);

    std::string out;
    EXPECT_FALSE(st.lookup(id_b, out));
    EXPECT_EQ(1, st.stats().collisions);
    // A collided entry is someone else's valid data: left in place.
    EXPECT_TRUE(fs::exists(st.entryPath(id_b)));
    ASSERT_TRUE(st.lookup(id_a, out));
    EXPECT_EQ("payload-a", out);
}

TEST_F(StoreTest, StoreIntoVanishedDirectoryFailsSoftly)
{
    store::ResultStore st(dir, kSalt, kSchema);
    fs::remove_all(dir);
    EXPECT_FALSE(st.store("id", "payload"));
    EXPECT_EQ(1, st.stats().storeFailures);
    std::string out;
    EXPECT_FALSE(st.lookup("id", out));  // degrades to a miss, no throw
}

TEST_F(StoreTest, ConstructorThrowsWhenDirUncreatable)
{
    fs::create_directories(dir);
    writeFile(dir + "/blocker", "a regular file");
    EXPECT_THROW(
        store::ResultStore(dir + "/blocker/sub", kSalt, kSchema),
        std::runtime_error);
}

TEST_F(StoreTest, DiscardRemovesEntry)
{
    store::ResultStore st(dir, kSalt, kSchema);
    EXPECT_TRUE(st.store("id", "payload"));
    EXPECT_TRUE(fs::exists(st.entryPath("id")));
    st.discard("id");
    EXPECT_FALSE(fs::exists(st.entryPath("id")));
    std::string out;
    EXPECT_FALSE(st.lookup("id", out));
}

TEST_F(StoreTest, DiskUsageCountsEntries)
{
    store::ResultStore st(dir, kSalt, kSchema);
    EXPECT_EQ(0u, st.diskUsage().entries);
    EXPECT_TRUE(st.store("a", "payload-a"));
    EXPECT_TRUE(st.store("b", "payload-bee"));
    const store::ResultStore::DiskUsage du = st.diskUsage();
    EXPECT_EQ(2u, du.entries);
    EXPECT_GT(du.bytes, 0u);
}

TEST_F(StoreTest, Crc32MatchesKnownVector)
{
    // The classic IEEE 802.3 check value.
    EXPECT_EQ(0xCBF43926u, store::crc32("123456789"));
    EXPECT_EQ(0x00000000u, store::crc32(""));

    // Every length and alignment against the bitwise definition.
    std::string bytes;
    for (int i = 0; i < 300; ++i)
        bytes += char((i * 131 + 17) & 0xFF);
    for (size_t start = 0; start < 8; ++start) {
        for (size_t len = 0; start + len <= bytes.size(); ++len) {
            uint32_t c = 0xFFFFFFFFu;
            for (size_t i = start; i < start + len; ++i) {
                c ^= uint8_t(bytes[i]);
                for (int k = 0; k < 8; ++k)
                    c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            }
            ASSERT_EQ(c ^ 0xFFFFFFFFu, store::crc32(bytes.substr(start, len)))
                << start << "+" << len;
        }
    }
}

TEST_F(StoreTest, ConcurrentLookupAndStoreFromWorkerPool)
{
    // Hammer one store from the sweep runner's pool: every worker
    // stores and looks up a mix of shared and private ids.  TSan builds
    // of this test (ctest --preset tsan) check the synchronization;
    // plain builds check the results.
    store::ResultStore st(dir, kSalt, kSchema);
    sim::RunnerConfig rc;
    rc.threads = 8;
    sim::ExperimentRunner runner(rc);

    const size_t kJobs = 64;
    std::vector<uint8_t> ok(kJobs, 0);
    auto failures = runner.forEach(kJobs, [&](size_t i) {
        const std::string shared_id = "shared-" + std::to_string(i % 4);
        const std::string shared_payload = "payload-" + std::to_string(i % 4);
        const std::string own_id = "own-" + std::to_string(i);

        st.store(shared_id, shared_payload);
        std::string out;
        if (st.lookup(shared_id, out) && out != shared_payload)
            return;  // ok[i] stays 0
        st.store(own_id, "mine-" + std::to_string(i));
        if (!st.lookup(own_id, out) || out != "mine-" + std::to_string(i))
            return;
        ok[i] = 1;
    });
    EXPECT_TRUE(failures.empty());
    for (size_t i = 0; i < kJobs; ++i)
        EXPECT_TRUE(ok[i]) << "job " << i;

    const store::StoreStats s = st.stats();
    EXPECT_EQ(0, s.corruptEntries);
    EXPECT_EQ(0, s.storeFailures);
    EXPECT_EQ(4u + kJobs, st.diskUsage().entries);
}

// ---------------------------------------------------------- hot cache
//
// The in-memory tier in front of the store: byte-capped, sharded LRU.
// One shard makes the eviction order deterministic; ids are one byte
// so an entry's charge is 1 + payload bytes.

TEST(HotCache, LruEvictsOldestWithinByteCap)
{
    store::HotResultCache cache(64, /*shards=*/1);
    const std::string payload(30, 'x');  // 31-byte charge per entry

    cache.insert("a", payload);
    cache.insert("b", payload);  // 62 of 64: both fit
    cache.insert("c", payload);  // 93 > 64: "a" (LRU tail) evicts

    std::string out;
    EXPECT_FALSE(cache.lookup("a", out));
    EXPECT_TRUE(cache.lookup("b", out));
    EXPECT_TRUE(cache.lookup("c", out));
    EXPECT_EQ(out, payload);

    const store::HotResultCache::Stats s = cache.stats();
    EXPECT_EQ(1, s.evictions);
    EXPECT_EQ(2, s.entries);
    EXPECT_EQ(62, s.bytes);
    EXPECT_EQ(2, s.hits);
    EXPECT_EQ(1, s.misses);
}

TEST(HotCache, LookupRefreshesRecency)
{
    store::HotResultCache cache(64, /*shards=*/1);
    const std::string payload(30, 'x');

    cache.insert("a", payload);
    cache.insert("b", payload);
    std::string out;
    ASSERT_TRUE(cache.lookup("a", out));  // "a" becomes most recent
    cache.insert("c", payload);           // so "b" is now the victim

    EXPECT_TRUE(cache.lookup("a", out));
    EXPECT_FALSE(cache.lookup("b", out));
    EXPECT_TRUE(cache.lookup("c", out));
}

TEST(HotCache, ReplaceInPlaceChargesOnce)
{
    store::HotResultCache cache(1024, /*shards=*/1);

    cache.insert("a", std::string(10, 'x'));
    cache.insert("a", std::string(30, 'y'));  // same id, new bytes

    std::string out;
    ASSERT_TRUE(cache.lookup("a", out));
    EXPECT_EQ(out, std::string(30, 'y'));

    const store::HotResultCache::Stats s = cache.stats();
    EXPECT_EQ(1, s.entries);
    EXPECT_EQ(31, s.bytes);  // only the replacement's charge remains
    EXPECT_EQ(2, s.insertions);
    EXPECT_EQ(0, s.evictions);
}

TEST(HotCache, OversizedPayloadIsNotCached)
{
    store::HotResultCache cache(64, /*shards=*/1);
    const std::string small(30, 'x');
    cache.insert("a", small);

    // Larger than the whole shard: ignored, and the resident entry
    // is not sacrificed for it.
    cache.insert("big", std::string(100, 'z'));

    std::string out;
    EXPECT_FALSE(cache.lookup("big", out));
    EXPECT_TRUE(cache.lookup("a", out));

    const store::HotResultCache::Stats s = cache.stats();
    EXPECT_EQ(1, s.insertions);
    EXPECT_EQ(0, s.evictions);
    EXPECT_EQ(1, s.entries);
}

TEST(HotCache, ShardedStatsAggregateAndPublish)
{
    store::HotResultCache cache(1 << 16, /*shards=*/4);
    EXPECT_EQ(4, cache.shards());

    for (int i = 0; i < 32; ++i)
        cache.insert("key-" + std::to_string(i), std::string(100, 'p'));

    std::string out;
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(cache.lookup("key-" + std::to_string(i), out));
    EXPECT_FALSE(cache.lookup("absent", out));

    const store::HotResultCache::Stats s = cache.stats();
    EXPECT_EQ(32, s.entries);
    EXPECT_EQ(32, s.insertions);
    EXPECT_EQ(32, s.hits);
    EXPECT_EQ(1, s.misses);

    obs::StatsRegistry reg;
    cache.addStats(reg);
    EXPECT_EQ(32, reg.counter("serve.hot_hits", "").value());
    EXPECT_EQ(1, reg.counter("serve.hot_misses", "").value());
    EXPECT_EQ(32, reg.counter("serve.hot_insertions", "").value());
    EXPECT_EQ(0, reg.counter("serve.hot_evictions", "").value());
}
