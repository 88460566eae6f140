// Byte-budgeted LRU cache of decoded scalar columns, keyed by
// (group, column). The query engine's hot loop is "decode this
// column of this group" — the same extent walk repeated per query — so
// caching the decoded doubles turns a warm repeat of a query into pure
// arithmetic over resident vectors, no varint or extent framing work.
//
// The cache only ever changes *when* work happens, never *what* is
// computed: values are immutable shared snapshots of exactly what
// ReadScalarColumn returns, so answers are bit-identical whether they hit
// or miss (invariant #8 in docs/architecture.md). Eviction is strict LRU
// by byte budget; a single column larger than the whole budget is still
// served (returned to the caller) but not retained.

#ifndef WLANSIM_QUERY_EXTENT_CACHE_H_
#define WLANSIM_QUERY_EXTENT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "results/binary_reader.h"

namespace wlansim {

using ColumnPtr = std::shared_ptr<const std::vector<double>>;

struct ExtentCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t cached_bytes = 0;
  uint64_t cached_columns = 0;
};

class ExtentCache {
 public:
  explicit ExtentCache(size_t byte_budget) : byte_budget_(byte_budget) {}

  // Returns the decoded scalar column `column` (index into the group's
  // scalar_names) of `group`, from cache when resident, decoding and
  // inserting it otherwise. The group must outlive the cache (the catalog
  // owns it). Thread-safe; concurrent misses on the same key may decode
  // twice but converge on one cached copy.
  ColumnPtr GetScalarColumn(const BinaryGroup& group, size_t column);

  ExtentCacheStats Stats() const;

  // One line per counter, the STATS response body fragment:
  //   cache lookups=.. hits=.. misses=.. evictions=.. bytes=.. columns=..
  std::string Report() const;

  // Drops every cached column (counters are kept — evictions does not
  // count a Clear). Benchmarks use this to measure the cold path.
  void Clear();

  size_t byte_budget() const { return byte_budget_; }

 private:
  // (group identity, column index).
  using Key = std::pair<const BinaryGroup*, size_t>;

  struct Entry {
    ColumnPtr value;
    size_t bytes = 0;
    std::list<Key>::iterator lru_it;
  };

  void EvictToFitLocked(size_t incoming_bytes);

  size_t byte_budget_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  // front = most recently used
  ExtentCacheStats stats_;
};

}  // namespace wlansim

#endif  // WLANSIM_QUERY_EXTENT_CACHE_H_
