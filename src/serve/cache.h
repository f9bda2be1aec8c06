#ifndef AUTOCAT_SERVE_CACHE_H_
#define AUTOCAT_SERVE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "core/category.h"
#include "storage/table.h"

namespace autocat {

/// One cached categorization: the canonical query's result table, the
/// category tree built over it, and the byte estimate the cache accounts
/// it at. The payload owns the table at a stable heap address so the
/// tree's internal `const Table*` stays valid for the payload's lifetime;
/// entries are handed out as shared_ptr so eviction never invalidates an
/// in-flight reader.
class CachedCategorization {
 public:
  /// Takes ownership of `result`, then runs `build_tree` against the
  /// stored (address-stable) copy. Propagates the builder's error.
  static Result<std::shared_ptr<const CachedCategorization>> Build(
      Table result,
      const std::function<Result<CategoryTree>(const Table&)>& build_tree);

  /// Build with a precomputed table-byte estimate: the cold pipeline
  /// already counts `ApproxTableBytes(result)` as its `result_bytes`, so
  /// the payload takes that figure instead of counting again.
  /// `table_bytes` must equal `ApproxTableBytes(result)` (checked in
  /// debug builds).
  static Result<std::shared_ptr<const CachedCategorization>> Build(
      Table result, size_t table_bytes,
      const std::function<Result<CategoryTree>(const Table&)>& build_tree);

  const Table& result() const { return result_; }
  const CategoryTree& tree() const { return *tree_; }
  size_t result_rows() const { return result_.num_rows(); }

  /// The byte estimate used for cache capacity accounting: table cells
  /// (including string payloads) plus tree nodes and tuple lists.
  size_t approx_bytes() const { return approx_bytes_; }

 private:
  explicit CachedCategorization(Table result) : result_(std::move(result)) {}

  Table result_;
  // Set by Build; empty only while the builder runs (a placeholder tree
  // would allocate a root over every row just to be replaced).
  std::optional<CategoryTree> tree_;
  size_t approx_bytes_ = 0;
};

/// Cache configuration.
struct CacheOptions {
  /// Total capacity across all shards, split evenly per shard. An entry
  /// larger than one shard's share is not cached (counted as oversized).
  size_t capacity_bytes = 64ull << 20;
  /// Entry time-to-live in milliseconds; 0 disables expiry.
  int64_t ttl_ms = 0;
  /// Number of independently locked shards (clamped to >= 1).
  size_t shards = 8;
  /// Monotonic clock in milliseconds; injectable for TTL tests. Null uses
  /// the steady clock.
  std::function<int64_t()> now_ms;
};

/// Aggregate cache counters (sum over shards), snapshotted atomically per
/// shard. All fields are totals since construction.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      ///< Capacity-driven LRU removals.
  uint64_t expirations = 0;    ///< TTL-driven removals.
  uint64_t invalidations = 0;  ///< Epoch-mismatch removals.
  uint64_t oversized = 0;      ///< Inserts skipped: entry > shard share.
  size_t entries = 0;          ///< Live entries right now.
  size_t bytes = 0;            ///< Accounted bytes right now.
  size_t capacity_bytes = 0;
  uint64_t epoch = 0;          ///< Current invalidation epoch.
};

/// A sharded LRU cache keyed by canonical query signature.
///
/// Each shard is an independently locked LRU list + ordered index, chosen
/// by the signature hash, so concurrent requests for different shards
/// never contend. Three removal mechanisms compose:
///   - capacity: inserting past the shard's byte share evicts from the
///     LRU tail;
///   - TTL: entries older than `ttl_ms` are treated as misses and removed
///     on access;
///   - epoch: `BumpEpoch()` (called by the service when table contents or
///     workload stats change) logically invalidates every entry at once;
///     stale entries are removed lazily on access.
/// All operations are thread-safe.
class SignatureCache {
 public:
  explicit SignatureCache(CacheOptions options);

  /// Returns the payload for `key`, or nullptr on miss (also on TTL
  /// expiry and epoch mismatch, which remove the stale entry). A hit
  /// refreshes the entry's LRU position.
  std::shared_ptr<const CachedCategorization> Get(const std::string& key,
                                                  uint64_t hash);

  /// Inserts (or replaces) the entry for `key`, evicting LRU entries as
  /// needed to fit the shard's byte share. Oversized payloads are skipped.
  /// The entry is stamped with the current epoch.
  void Insert(const std::string& key, uint64_t hash,
              std::shared_ptr<const CachedCategorization> payload);

  /// Insert stamped with the epoch the caller observed while computing
  /// `payload`. If the epoch advanced mid-computation the entry is
  /// already stale; it will be dropped on its next access rather than
  /// served. The service uses this to close the read-table/insert race.
  void Insert(const std::string& key, uint64_t hash,
              std::shared_ptr<const CachedCategorization> payload,
              uint64_t observed_epoch);
  // (Both public entry points pick the shard, take its lock once, and
  // delegate to the *Locked helpers below — no conditional or repeated
  // acquisition inside one operation.)

  /// The current invalidation epoch.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Invalidates every cached entry (logically, in O(1)): entries from
  /// earlier epochs miss on their next access and are removed then.
  void BumpEpoch();

  /// Removes every entry immediately (counters are kept).
  void Clear();

  /// Runtime knobs for the adaptive serving loop. SetTtlMs applies to
  /// entries inserted from now on (live entries keep their stamped
  /// expiry); SetCapacityBytes resizes every shard's share and evicts
  /// immediately down to the new limit. Both are safe against concurrent
  /// requests.
  void SetTtlMs(int64_t ttl_ms);
  void SetCapacityBytes(size_t capacity_bytes);
  int64_t ttl_ms() const { return ttl_ms_.load(std::memory_order_relaxed); }
  size_t capacity_bytes() const {
    return per_shard_capacity_.load(std::memory_order_relaxed) *
           shards_.size();
  }

  CacheStats Stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedCategorization> payload;
    size_t bytes = 0;
    uint64_t epoch = 0;
    int64_t expires_at_ms = 0;  ///< INT64_MAX when TTL is disabled.
  };

  struct Shard {
    mutable Mutex mu;
    // front = most recently used
    std::list<Entry> lru AUTOCAT_GUARDED_BY(mu);
    std::map<std::string, std::list<Entry>::iterator> index
        AUTOCAT_GUARDED_BY(mu);
    size_t bytes AUTOCAT_GUARDED_BY(mu) = 0;
    uint64_t hits AUTOCAT_GUARDED_BY(mu) = 0;
    uint64_t misses AUTOCAT_GUARDED_BY(mu) = 0;
    uint64_t evictions AUTOCAT_GUARDED_BY(mu) = 0;
    uint64_t expirations AUTOCAT_GUARDED_BY(mu) = 0;
    uint64_t invalidations AUTOCAT_GUARDED_BY(mu) = 0;
    uint64_t oversized AUTOCAT_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint64_t hash) {
    return *shards_[hash % shards_.size()];
  }
  int64_t NowMs() const;
  /// Get() with `shard`'s lock already held: lookup, staleness checks
  /// (against `epoch`, the value loaded before locking), LRU refresh.
  std::shared_ptr<const CachedCategorization> GetLocked(
      Shard& shard, const std::string& key, uint64_t epoch)
      AUTOCAT_REQUIRES(shard.mu);
  /// Insert() with `shard`'s lock already held: byte accounting,
  /// replacement, LRU eviction, epoch stamping.
  void InsertLocked(Shard& shard, const std::string& key,
                    std::shared_ptr<const CachedCategorization> payload,
                    uint64_t observed_epoch) AUTOCAT_REQUIRES(shard.mu);
  // Removes `it` from `shard` (index, list, byte accounting).
  static void RemoveLocked(Shard& shard, std::list<Entry>::iterator it)
      AUTOCAT_REQUIRES(shard.mu);

  CacheOptions options_;
  // atomic-order: relaxed — the adaptive knobs are advisory limits, not
  // synchronization points. A shard applies whatever value an insert
  // happens to read; eventual agreement is enough, and every structural
  // mutation they gate happens under the shard's mu anyway.
  std::atomic<size_t> per_shard_capacity_{0};
  // atomic-order: relaxed — same advisory-knob reasoning as
  // per_shard_capacity_; TTL stamping needs no cross-thread ordering.
  std::atomic<int64_t> ttl_ms_{0};
  // The shard vector itself is immutable after construction; each shard's
  // contents are guarded by its own `mu`.
  std::vector<std::unique_ptr<Shard>> shards_;
  // atomic-order: release/acquire — BumpEpoch's increment must be visible
  // to readers that subsequently observe new table contents, and Get pairs
  // its acquire load with the service's state_mu_ critical sections.
  // Entries from earlier epochs are detected by value comparison, so no
  // stronger ordering is needed.
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace autocat

#endif  // AUTOCAT_SERVE_CACHE_H_
