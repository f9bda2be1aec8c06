// Tests for the sharded LRU signature cache: capacity accounting,
// eviction order, TTL expiry, epoch invalidation, and a thread-pool
// driven concurrent stress run (exercised under TSan in CI).

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "serve/cache.h"
#include "serve/signature.h"

namespace autocat {
namespace {

Schema OneColumnSchema() {
  auto schema = Schema::Create({
      ColumnDef("n", ValueType::kInt64, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

std::shared_ptr<const CachedCategorization> MakePayload(size_t rows) {
  Table table(OneColumnSchema());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(table.AppendRow({Value(static_cast<int64_t>(i))}).ok());
  }
  auto payload = CachedCategorization::Build(
      std::move(table),
      [](const Table& owned) -> Result<CategoryTree> {
        return CategoryTree(&owned);
      });
  EXPECT_TRUE(payload.ok());
  return payload.ok() ? payload.value() : nullptr;
}

// The byte cost one `rows`-row entry is accounted at under `key`
// (constant across equally sized keys/payloads).
size_t EntryBytes(size_t rows, const std::string& key) {
  SignatureCache probe(CacheOptions{});
  probe.Insert(key, SignatureHash(key), MakePayload(rows));
  return probe.Stats().bytes;
}

TEST(CachedCategorizationTest, TreeReferencesTheOwnedTable) {
  auto payload = MakePayload(5);
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(&payload->tree().result(), &payload->result());
  EXPECT_EQ(payload->result_rows(), 5u);
  EXPECT_GT(payload->approx_bytes(), 0u);
}

TEST(CachedCategorizationTest, BuildPropagatesBuilderErrors) {
  Table table(OneColumnSchema());
  auto payload = CachedCategorization::Build(
      std::move(table), [](const Table&) -> Result<CategoryTree> {
        return Status::Internal("boom");
      });
  EXPECT_FALSE(payload.ok());
}

TEST(SignatureCacheTest, HitAndMissAccounting) {
  SignatureCache cache(CacheOptions{});
  EXPECT_EQ(cache.Get("k1", SignatureHash("k1")), nullptr);
  cache.Insert("k1", SignatureHash("k1"), MakePayload(3));
  auto hit = cache.Get("k1", SignatureHash("k1"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result_rows(), 3u);
  EXPECT_EQ(cache.Get("k2", SignatureHash("k2")), nullptr);

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(SignatureCacheTest, ReplacingAKeyKeepsOneEntry) {
  SignatureCache cache(CacheOptions{});
  cache.Insert("k", SignatureHash("k"), MakePayload(3));
  const size_t bytes_small = cache.Stats().bytes;
  cache.Insert("k", SignatureHash("k"), MakePayload(30));
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, bytes_small);
  auto hit = cache.Get("k", SignatureHash("k"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result_rows(), 30u);
}

TEST(SignatureCacheTest, CapacityEvictsLeastRecentlyUsed) {
  // Keys of equal length so every entry costs the same.
  const size_t entry = EntryBytes(4, "ka");
  CacheOptions options;
  options.shards = 1;  // One shard: eviction order is globally observable.
  options.capacity_bytes = 2 * entry + entry / 2;
  SignatureCache cache(options);

  cache.Insert("ka", SignatureHash("ka"), MakePayload(4));
  cache.Insert("kb", SignatureHash("kb"), MakePayload(4));
  EXPECT_EQ(cache.Stats().entries, 2u);
  EXPECT_EQ(cache.Stats().bytes, 2 * entry);

  // Touch ka so kb is the LRU entry, then overflow with kc.
  ASSERT_NE(cache.Get("ka", SignatureHash("ka")), nullptr);
  cache.Insert("kc", SignatureHash("kc"), MakePayload(4));

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 2 * entry);
  EXPECT_NE(cache.Get("ka", SignatureHash("ka")), nullptr);
  EXPECT_EQ(cache.Get("kb", SignatureHash("kb")), nullptr);
  EXPECT_NE(cache.Get("kc", SignatureHash("kc")), nullptr);
}

TEST(SignatureCacheTest, OversizedEntriesAreSkippedNotCached) {
  const size_t entry = EntryBytes(40, "k");
  CacheOptions options;
  options.shards = 1;
  options.capacity_bytes = entry / 2;
  SignatureCache cache(options);
  cache.Insert("k", SignatureHash("k"), MakePayload(40));
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.oversized, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(SignatureCacheTest, TtlExpiresEntriesOnAccess) {
  int64_t now = 0;
  CacheOptions options;
  options.ttl_ms = 100;
  options.now_ms = [&now]() { return now; };
  SignatureCache cache(options);

  cache.Insert("k", SignatureHash("k"), MakePayload(2));
  now = 99;
  EXPECT_NE(cache.Get("k", SignatureHash("k")), nullptr);
  now = 100;
  EXPECT_EQ(cache.Get("k", SignatureHash("k")), nullptr);

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(SignatureCacheTest, BumpEpochInvalidatesEverything) {
  SignatureCache cache(CacheOptions{});
  cache.Insert("k1", SignatureHash("k1"), MakePayload(2));
  cache.Insert("k2", SignatureHash("k2"), MakePayload(2));
  EXPECT_EQ(cache.epoch(), 0u);
  cache.BumpEpoch();
  EXPECT_EQ(cache.epoch(), 1u);

  EXPECT_EQ(cache.Get("k1", SignatureHash("k1")), nullptr);
  EXPECT_EQ(cache.Get("k2", SignatureHash("k2")), nullptr);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.epoch, 1u);

  // Fresh inserts under the new epoch serve normally.
  cache.Insert("k1", SignatureHash("k1"), MakePayload(2));
  EXPECT_NE(cache.Get("k1", SignatureHash("k1")), nullptr);
}

TEST(SignatureCacheTest, InsertWithStaleObservedEpochNeverServes) {
  SignatureCache cache(CacheOptions{});
  const uint64_t observed = cache.epoch();
  // The epoch advances while a request is computing its payload...
  cache.BumpEpoch();
  // ...so the insert lands already stale and the next read drops it.
  cache.Insert("k", SignatureHash("k"), MakePayload(2), observed);
  EXPECT_EQ(cache.Get("k", SignatureHash("k")), nullptr);
  EXPECT_EQ(cache.Stats().invalidations, 1u);
}

TEST(SignatureCacheTest, BumpEpochRemovesStaleEntriesBeforeReturning) {
  SignatureCache cache(CacheOptions{});
  std::weak_ptr<const CachedCategorization> held;
  {
    auto payload = MakePayload(2);
    held = payload;
    cache.Insert("k1", SignatureHash("k1"), std::move(payload));
  }
  cache.Insert("k2", SignatureHash("k2"), MakePayload(2));
  ASSERT_FALSE(held.expired());
  cache.BumpEpoch();
  // No access needed: the bump itself released the stale payloads.
  EXPECT_TRUE(held.expired());
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(SignatureCacheTest, StaleInsertIsRefusedAndCounted) {
  SignatureCache cache(CacheOptions{});
  const uint64_t observed = cache.epoch();
  cache.BumpEpoch();
  std::weak_ptr<const CachedCategorization> held;
  {
    auto payload = MakePayload(2);
    held = payload;
    cache.Insert("k", SignatureHash("k"), std::move(payload), observed);
  }
  EXPECT_TRUE(held.expired());  // never stored
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  // An insert under the current epoch is stored.
  cache.Insert("k", SignatureHash("k"), MakePayload(2), cache.epoch());
  EXPECT_NE(cache.Get("k", SignatureHash("k")), nullptr);
}

TEST(SignatureCacheTest, ClearRemovesEntriesAndKeepsCounters) {
  SignatureCache cache(CacheOptions{});
  cache.Insert("k", SignatureHash("k"), MakePayload(2));
  ASSERT_NE(cache.Get("k", SignatureHash("k")), nullptr);
  cache.Clear();
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.Get("k", SignatureHash("k")), nullptr);
}

TEST(SignatureCacheTest, EvictedPayloadSurvivesForInFlightReaders) {
  const size_t entry = EntryBytes(4, "ka");
  CacheOptions options;
  options.shards = 1;
  options.capacity_bytes = entry + entry / 2;  // Room for one entry.
  SignatureCache cache(options);
  cache.Insert("ka", SignatureHash("ka"), MakePayload(4));
  auto held = cache.Get("ka", SignatureHash("ka"));
  ASSERT_NE(held, nullptr);
  cache.Insert("kb", SignatureHash("kb"), MakePayload(4));  // Evicts ka.
  EXPECT_EQ(cache.Get("ka", SignatureHash("ka")), nullptr);
  // The shared_ptr handed out earlier still works.
  EXPECT_EQ(held->result_rows(), 4u);
  EXPECT_EQ(&held->tree().result(), &held->result());
}

// Concurrent hit/miss/insert/bump stress over a small key space. The
// assertions check the counters' global invariant; the real check is
// TSan finding no races when CI runs this under AUTOCAT_SANITIZE=thread.
TEST(SignatureCacheTest, ConcurrentStressKeepsCountersConsistent) {
  CacheOptions options;
  options.shards = 4;
  options.capacity_bytes = 1u << 20;
  SignatureCache cache(options);

  constexpr size_t kTasks = 8;
  constexpr size_t kOpsPerTask = 2000;
  constexpr size_t kKeySpace = 16;

  // Pre-built payloads: Build outside the loop keeps the stress focused
  // on cache operations.
  std::vector<std::shared_ptr<const CachedCategorization>> payloads;
  for (size_t i = 0; i < kKeySpace; ++i) {
    payloads.push_back(MakePayload(2 + i));
  }
  std::vector<std::string> keys;
  std::vector<uint64_t> hashes;
  for (size_t i = 0; i < kKeySpace; ++i) {
    keys.push_back("key-" + std::to_string(i));
    hashes.push_back(SignatureHash(keys.back()));
  }

  ThreadPool pool(kTasks);
  std::vector<std::future<Status>> done;
  std::vector<uint64_t> gets_per_task(kTasks, 0);
  for (size_t task = 0; task < kTasks; ++task) {
    done.push_back(pool.Submit([&, task]() {
      uint64_t gets = 0;
      for (size_t i = 0; i < kOpsPerTask; ++i) {
        const size_t k = (task * 31 + i * 7) % kKeySpace;
        if (i % 5 == 0) {
          cache.Insert(keys[k], hashes[k], payloads[k]);
        } else if (i % 401 == 0) {
          cache.BumpEpoch();
        } else if (i % 173 == 0) {
          (void)cache.Stats();
        } else {
          auto payload = cache.Get(keys[k], hashes[k]);
          if (payload != nullptr) {
            // Read through the payload: TSan verifies entries are safe to
            // use after eviction/invalidation by other tasks.
            EXPECT_EQ(payload->result_rows(), 2 + k);
          }
          ++gets;
        }
      }
      gets_per_task[task] = gets;
      return Status::OK();
    }));
  }
  for (auto& f : done) {
    EXPECT_TRUE(f.get().ok());
  }

  uint64_t total_gets = 0;
  for (const uint64_t gets : gets_per_task) {
    total_gets += gets;
  }
  const CacheStats stats = cache.Stats();
  // Every Get resolves to exactly one of hit / miss (expiry and
  // invalidation removals count as misses too).
  EXPECT_EQ(stats.hits + stats.misses, total_gets);
  EXPECT_LE(stats.bytes, options.capacity_bytes);
  EXPECT_GT(stats.epoch, 0u);
}

}  // namespace
}  // namespace autocat
