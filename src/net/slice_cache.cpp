#include "net/slice_cache.hpp"

#include <atomic>
#include <cstdlib>

namespace triolet::net {

const SliceCache::Entry* SliceCache::lookup(const serial::SliceKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.pos);  // touch: move to front
  return &it->second.entry;
}

serial::SliceBuffer SliceCache::insert(const serial::SliceKey& key,
                                       std::span<const std::byte> payload) {
  Entry e;
  e.len = payload.size();
  e.bytes = serial::make_slice_buffer(payload);
  if (stats_) stats_->bytes_inserted += static_cast<std::int64_t>(e.len);
  serial::SliceBuffer out = e.bytes;
  place(key, std::move(e));
  return out;
}

void SliceCache::insert_meta(const serial::SliceKey& key, std::size_t len,
                             std::uint64_t checksum) {
  Entry e;
  e.len = len;
  e.checksum = checksum;
  place(key, std::move(e));
}

void SliceCache::place(const serial::SliceKey& key, Entry e) {
  retire_older_versions(key);
  auto it = map_.find(key);
  if (it != map_.end()) erase_node(it);
  const std::size_t len = e.len;
  lru_.push_front(key);
  map_.emplace(key, Node{std::move(e), lru_.begin()});
  held_ += len;
  evict_until_within_budget();
}

void SliceCache::retire_older_versions(const serial::SliceKey& key) {
  // Stale versions can never be looked up again (the version is part of the
  // key), so drop them eagerly — identically on sender model and receiver.
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.id == key.id && it->first.version < key.version) {
      auto victim = it++;
      erase_node(victim);
    } else {
      ++it;
    }
  }
}

void SliceCache::evict_until_within_budget() {
  while (held_ > budget_ && !lru_.empty()) {
    auto it = map_.find(lru_.back());
    erase_node(it);
    if (stats_) stats_->evictions += 1;
  }
}

void SliceCache::erase(const serial::SliceKey& key) {
  auto it = map_.find(key);
  if (it != map_.end()) erase_node(it);
}

void SliceCache::erase_node(
    std::unordered_map<serial::SliceKey, Node, serial::SliceKeyHash>::iterator
        it) {
  held_ -= it->second.entry.len;
  lru_.erase(it->second.pos);
  map_.erase(it);
}

bool SliceCache::corrupt_one_for_testing() {
  for (auto& [key, node] : map_) {
    if (node.entry.bytes && node.entry.len != 0) {
      node.entry.bytes.get()[0] ^= std::byte{0x01};
      return true;
    }
  }
  return false;
}

namespace {

constexpr std::size_t kDefaultBudget = std::size_t{256} << 20;  // 256 MiB

std::atomic<std::size_t>& budget_override() {
  // all-ones is a sentinel for "not overridden: read the env".
  static std::atomic<std::size_t> v{~std::size_t{0}};
  return v;
}

std::size_t budget_from_env() {
  const char* s = std::getenv("TRIOLET_SLICE_CACHE_BYTES");
  if (s == nullptr || *s == '\0') return kDefaultBudget;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return kDefaultBudget;  // not a number
  return static_cast<std::size_t>(v);
}

}  // namespace

std::size_t slice_cache_budget() {
  const std::size_t o = budget_override().load(std::memory_order_relaxed);
  if (o != ~std::size_t{0}) return o;
  static const std::size_t env = budget_from_env();
  return env;
}

void set_slice_cache_budget(std::size_t bytes) {
  budget_override().store(bytes, std::memory_order_relaxed);
}

}  // namespace triolet::net
