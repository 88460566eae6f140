#include "query/extent_cache.h"

#include <cstdio>

namespace wlansim {

ColumnPtr ExtentCache::GetScalarColumn(const BinaryGroup& group, size_t column) {
  const Key key{&group, column};
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lookups;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.value;
    }
    ++stats_.misses;
  }

  // Decode outside the lock: a miss on a large column must not serialize
  // the other workers behind it.
  auto values = std::make_shared<std::vector<double>>();
  ReadScalarColumn(group, column, values.get());
  ColumnPtr column_ptr = std::move(values);
  const size_t bytes = column_ptr->size() * sizeof(double);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A concurrent miss beat us to the insert; its copy wins.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.value;
  }
  if (bytes <= byte_budget_) {
    EvictToFitLocked(bytes);
    lru_.push_front(key);
    entries_.emplace(key, Entry{column_ptr, bytes, lru_.begin()});
    stats_.cached_bytes += bytes;
    stats_.cached_columns = entries_.size();
  }
  return column_ptr;
}

void ExtentCache::EvictToFitLocked(size_t incoming_bytes) {
  while (!lru_.empty() && stats_.cached_bytes + incoming_bytes > byte_budget_) {
    auto it = entries_.find(lru_.back());
    stats_.cached_bytes -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.cached_columns = entries_.size();
}

ExtentCacheStats ExtentCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string ExtentCache::Report() const {
  const ExtentCacheStats s = Stats();
  char line[192];
  std::snprintf(line, sizeof(line),
                "cache lookups=%llu hits=%llu misses=%llu evictions=%llu bytes=%llu columns=%llu\n",
                static_cast<unsigned long long>(s.lookups),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.evictions),
                static_cast<unsigned long long>(s.cached_bytes),
                static_cast<unsigned long long>(s.cached_columns));
  return line;
}

void ExtentCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  stats_.cached_bytes = 0;
  stats_.cached_columns = 0;
}

}  // namespace wlansim
