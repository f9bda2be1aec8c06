#include "serve/cache.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/check.h"

namespace autocat {

namespace {

size_t ApproxTreeBytes(const CategoryTree& tree) {
  size_t bytes = sizeof(CategoryTree);
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    const CategoryNode& node = tree.node(static_cast<NodeId>(id));
    bytes += sizeof(CategoryNode);
    bytes += node.children.size() * sizeof(NodeId);
    bytes += node.tuples.size() * sizeof(size_t);
    bytes += node.label.attribute().size();
    for (const Value& v : node.label.values()) {
      bytes += ApproxValueBytes(v);
    }
  }
  return bytes;
}

}  // namespace

Result<std::shared_ptr<const CachedCategorization>> CachedCategorization::
    Build(Table result,
          const std::function<Result<CategoryTree>(const Table&)>&
              build_tree) {
  std::shared_ptr<CachedCategorization> payload(
      new CachedCategorization(std::move(result)));
  AUTOCAT_ASSIGN_OR_RETURN(CategoryTree tree, build_tree(payload->result_));
  payload->tree_ = std::move(tree);
  payload->approx_bytes_ =
      ApproxTableBytes(payload->result_) + ApproxTreeBytes(*payload->tree_);
  return std::shared_ptr<const CachedCategorization>(std::move(payload));
}

Result<std::shared_ptr<const CachedCategorization>> CachedCategorization::
    Build(Table result, size_t table_bytes,
          const std::function<Result<CategoryTree>(const Table&)>&
              build_tree) {
  AUTOCAT_DCHECK_EQ(table_bytes, ApproxTableBytes(result));
  std::shared_ptr<CachedCategorization> payload(
      new CachedCategorization(std::move(result)));
  AUTOCAT_ASSIGN_OR_RETURN(CategoryTree tree, build_tree(payload->result_));
  payload->tree_ = std::move(tree);
  payload->approx_bytes_ = table_bytes + ApproxTreeBytes(*payload->tree_);
  return std::shared_ptr<const CachedCategorization>(std::move(payload));
}

SignatureCache::SignatureCache(CacheOptions options)
    : options_(std::move(options)) {
  const size_t num_shards = std::max<size_t>(options_.shards, 1);
  per_shard_capacity_.store(
      std::max<size_t>(options_.capacity_bytes / num_shards, 1),
      std::memory_order_relaxed);
  ttl_ms_.store(options_.ttl_ms, std::memory_order_relaxed);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

int64_t SignatureCache::NowMs() const {
  if (options_.now_ms) {
    return options_.now_ms();
  }
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SignatureCache::RemoveLocked(Shard& shard,
                                  std::list<Entry>::iterator it)
    AUTOCAT_REQUIRES(shard.mu) {
  shard.bytes -= it->bytes;
  shard.index.erase(it->key);
  shard.lru.erase(it);
}

std::shared_ptr<const CachedCategorization> SignatureCache::Get(
    const std::string& key, uint64_t hash) {
  Shard& shard = ShardFor(hash);
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  MutexLock lock(shard.mu);
  return GetLocked(shard, key, epoch);
}

std::shared_ptr<const CachedCategorization> SignatureCache::GetLocked(
    Shard& shard, const std::string& key, uint64_t epoch)
    AUTOCAT_REQUIRES(shard.mu) {
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  if (it->second->epoch != epoch) {
    ++shard.invalidations;
    ++shard.misses;
    RemoveLocked(shard, it->second);
    return nullptr;
  }
  if (NowMs() >= it->second->expires_at_ms) {
    ++shard.expirations;
    ++shard.misses;
    RemoveLocked(shard, it->second);
    return nullptr;
  }
  // Refresh the LRU position: splice the entry to the front.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  return it->second->payload;
}

void SignatureCache::Insert(
    const std::string& key, uint64_t hash,
    std::shared_ptr<const CachedCategorization> payload) {
  Insert(key, hash, std::move(payload),
         epoch_.load(std::memory_order_acquire));
}

void SignatureCache::Insert(
    const std::string& key, uint64_t hash,
    std::shared_ptr<const CachedCategorization> payload,
    uint64_t observed_epoch) {
  if (payload == nullptr) {
    return;
  }
  Shard& shard = ShardFor(hash);
  MutexLock lock(shard.mu);
  InsertLocked(shard, key, std::move(payload), observed_epoch);
}

void SignatureCache::InsertLocked(
    Shard& shard, const std::string& key,
    std::shared_ptr<const CachedCategorization> payload,
    uint64_t observed_epoch) AUTOCAT_REQUIRES(shard.mu) {
  // A payload computed under an earlier epoch is stale before it lands
  // (a PutTable raced the computation); it would also pin the replaced
  // table version's shadow, so it is refused.
  if (observed_epoch != epoch_.load(std::memory_order_acquire)) {
    ++shard.invalidations;
    return;
  }
  // Per-entry overhead: the key (stored twice) plus node bookkeeping.
  const size_t entry_bytes = payload->approx_bytes() + 2 * key.size() +
                             sizeof(Entry) + 64;
  const uint64_t epoch = observed_epoch;
  const size_t shard_capacity =
      per_shard_capacity_.load(std::memory_order_relaxed);
  if (entry_bytes > shard_capacity) {
    ++shard.oversized;
    return;
  }
  const auto existing = shard.index.find(key);
  if (existing != shard.index.end()) {
    RemoveLocked(shard, existing->second);
  }
  while (shard.bytes + entry_bytes > shard_capacity &&
         !shard.lru.empty()) {
    ++shard.evictions;
    RemoveLocked(shard, std::prev(shard.lru.end()));
  }
  const int64_t ttl_ms = ttl_ms_.load(std::memory_order_relaxed);
  Entry entry;
  entry.key = key;
  entry.payload = std::move(payload);
  entry.bytes = entry_bytes;
  entry.epoch = epoch;
  entry.expires_at_ms = ttl_ms > 0 ? NowMs() + ttl_ms
                                   : std::numeric_limits<int64_t>::max();
  shard.lru.push_front(std::move(entry));
  shard.index[key] = shard.lru.begin();
  shard.bytes += entry_bytes;
}

void SignatureCache::BumpEpoch() {
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Drop what the bump made stale now, not on each entry's next access:
  // a payload selects from its table version's shadow, so a stale entry
  // left behind would keep a replaced shadow alive. An insert racing this
  // loop either lands before its shard is swept (and is swept) or sees
  // the new epoch and is refused.
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      const auto next = std::next(it);
      if (it->epoch != epoch) {
        ++shard->invalidations;
        RemoveLocked(*shard, it);
      }
      it = next;
    }
  }
}

void SignatureCache::SetTtlMs(int64_t ttl_ms) {
  ttl_ms_.store(ttl_ms, std::memory_order_relaxed);
}

void SignatureCache::SetCapacityBytes(size_t capacity_bytes) {
  const size_t per_shard =
      std::max<size_t>(capacity_bytes / shards_.size(), 1);
  per_shard_capacity_.store(per_shard, std::memory_order_relaxed);
  // Shrink immediately: a smaller budget should free memory now, not on
  // the next insert that happens to land in each shard.
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    while (shard->bytes > per_shard && !shard->lru.empty()) {
      ++shard->evictions;
      RemoveLocked(*shard, std::prev(shard->lru.end()));
    }
  }
}

void SignatureCache::Clear() {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

CacheStats SignatureCache::Stats() const {
  CacheStats stats;
  stats.capacity_bytes =
      per_shard_capacity_.load(std::memory_order_relaxed) * shards_.size();
  stats.epoch = epoch_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.expirations += shard->expirations;
    stats.invalidations += shard->invalidations;
    stats.oversized += shard->oversized;
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

}  // namespace autocat
