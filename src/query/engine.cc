#include "query/engine.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "results/binary_reader.h"
#include "runner/result_sink.h"

namespace wlansim {
namespace {

std::vector<std::string> Tokenize(const std::string& query) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : query) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : list) {
    if (c == ',') {
      parts.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(std::move(current));
  for (const std::string& part : parts) {
    if (part.empty()) {
      throw std::runtime_error("malformed list '" + list + "' (empty element)");
    }
  }
  return parts;
}

// A parsed WHERE clause: (param index, value) pairs. Empty: no WHERE,
// every group matches.
using Filter = std::vector<std::pair<size_t, std::string>>;

size_t ParamIndex(const Collection& c, const std::string& key) {
  for (size_t k = 0; k < c.param_keys.size(); ++k) {
    if (c.param_keys[k] == key) {
      return k;
    }
  }
  throw std::runtime_error("unknown sweep parameter '" + key + "' in collection '" + c.name +
                           "'");
}

// Parses `key=value [AND key=value ...]` starting at tokens[pos], stopping
// at end of tokens or the GROUP keyword. Advances pos past what it consumed.
Filter ParseWhere(const Collection& c, const std::vector<std::string>& tokens, size_t& pos) {
  Filter filter;
  while (pos < tokens.size() && tokens[pos] != "GROUP") {
    if (!filter.empty()) {
      if (tokens[pos] != "AND") {
        throw std::runtime_error("malformed WHERE clause: expected AND before '" + tokens[pos] +
                                 "'");
      }
      ++pos;
      if (pos >= tokens.size()) {
        throw std::runtime_error("malformed WHERE clause: dangling AND");
      }
    }
    const std::string& clause = tokens[pos];
    const size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= clause.size()) {
      throw std::runtime_error("malformed WHERE clause '" + clause + "' (expected key=value)");
    }
    filter.emplace_back(ParamIndex(c, clause.substr(0, eq)), clause.substr(eq + 1));
    ++pos;
  }
  if (filter.empty()) {
    throw std::runtime_error("malformed WHERE clause: no conditions");
  }
  return filter;
}

// One GROUP BY bucket: its key tuple and its member groups.
using Bucket = std::pair<std::vector<std::string>, std::vector<const BinaryGroup*>>;

// Partitions the groups of `c` matching `filter` by their values of the
// `key_indices` parameters. Buckets keep their members in pooled order
// (ascending point, path order within a point) and come in order of first
// appearance — both pure functions of the member set, never of
// registration order. No keys: at most one bucket, every matching group.
std::vector<Bucket> Partition(const Collection& c, const Filter& filter,
                              const std::vector<size_t>& key_indices) {
  std::vector<Bucket> buckets;
  std::map<std::vector<std::string>, size_t> bucket_index;
  for (const auto& [point, groups] : c.points) {
    for (const BinaryGroup* group : groups) {
      const auto differs = [group](const auto& clause) {
        return group->header.param_values[clause.first] != clause.second;
      };
      if (std::any_of(filter.begin(), filter.end(), differs)) {
        continue;
      }
      std::vector<std::string> key;
      key.reserve(key_indices.size());
      for (size_t k : key_indices) {
        key.push_back(group->header.param_values[k]);
      }
      auto [it, created] = bucket_index.try_emplace(key, buckets.size());
      if (created) {
        buckets.emplace_back(std::move(key), std::vector<const BinaryGroup*>{});
      }
      buckets[it->second].second.push_back(group);
    }
  }
  return buckets;
}

const Collection& FindCollection(const Catalog& catalog, const std::string& name) {
  const Collection* c = catalog.Find(name);
  if (c == nullptr) {
    throw std::runtime_error("unknown collection '" + name + "'");
  }
  return *c;
}

// Validates a SELECT metric list against the collection's union schema.
// Returns an empty vector for "*" (caller expands it per bucket, so each
// grid point reports its own schema exactly as the offline aggregate does).
std::vector<std::string> ResolveMetrics(const Collection& c,
                                        const std::vector<std::string>& names) {
  if (names.size() == 1 && names.front() == "*") {
    return {};
  }
  for (const std::string& name : names) {
    if (!std::binary_search(c.scalar_names.begin(), c.scalar_names.end(), name)) {
      throw std::runtime_error("unknown metric '" + name + "' in collection '" + c.name + "'");
    }
  }
  return names;
}

}  // namespace

std::string QueryEngine::Execute(const std::string& query) {
  const std::vector<std::string> tokens = Tokenize(query);
  if (tokens.empty()) {
    throw std::runtime_error("empty query");
  }
  const std::string& verb = tokens.front();

  if (verb == "LIST") {
    if (tokens.size() != 1) {
      throw std::runtime_error("LIST takes no arguments");
    }
    return catalog_->Describe();
  }

  if (verb == "SCHEMA") {
    if (tokens.size() != 2) {
      throw std::runtime_error("usage: SCHEMA <collection>");
    }
    return catalog_->DescribeSchema(tokens[1]);
  }

  if (verb == "AGGREGATE") {
    if (tokens.size() != 2) {
      throw std::runtime_error("usage: AGGREGATE <collection>");
    }
    // AGGREGATE is sugar for the full default SELECT; one code path, one
    // byte stream.
    return Execute("SELECT * FROM " + tokens[1]);
  }

  if (verb == "HIST") {
    if (tokens.size() < 3) {
      throw std::runtime_error("usage: HIST <collection> <dist-column> [WHERE ...]");
    }
    const Collection& c = FindCollection(*catalog_, tokens[1]);
    const std::string& dist_name = tokens[2];
    if (!std::binary_search(c.dist_names.begin(), c.dist_names.end(), dist_name)) {
      throw std::runtime_error("unknown distribution column '" + dist_name +
                               "' in collection '" + c.name + "'");
    }
    if (c.dist_geometry_conflicts.count(dist_name) != 0) {
      throw std::runtime_error("distribution column '" + dist_name +
                               "' has different bin geometries across the collection's groups; "
                               "their bins cannot be merged");
    }
    Filter filter;
    size_t pos = 3;
    if (pos < tokens.size()) {
      if (tokens[pos] != "WHERE") {
        throw std::runtime_error("unexpected token '" + tokens[pos] + "' after HIST column");
      }
      ++pos;
      filter = ParseWhere(c, tokens, pos);
      if (pos != tokens.size()) {
        throw std::runtime_error("unexpected token '" + tokens[pos] + "' after WHERE clause");
      }
    }

    // Fold each selected row's snapshot as its extent is decoded, in
    // pooled row order: exact integer sums for the counts, min/max over
    // the rows that saw samples, mean weighted by each row's sample count
    // (fold order = row order, so the result is independent of sharding
    // and cache state). The row set is SELECT's WHERE partition as one
    // bucket; a WHERE matching no group is an empty histogram.
    const DistGeometry& geo = c.dist_geometry.at(dist_name);
    std::vector<uint64_t> bins(geo.n_bins, 0);
    uint64_t underflow = 0, overflow = 0, total = 0;
    double min = 0.0, max = 0.0, weighted_sum = 0.0;
    bool any = false;
    for (const auto& [key, members] : Partition(c, filter, {})) {
      for (const BinaryGroup* group : members) {
        const std::vector<std::string>& group_dists = group->header.dist_names;
        auto dist_it = std::find(group_dists.begin(), group_dists.end(), dist_name);
        if (dist_it == group_dists.end()) {
          throw std::runtime_error("distribution column '" + dist_name +
                                   "' is not present at grid point " +
                                   std::to_string(group->header.point_index) +
                                   "; add a WHERE clause to restrict the rows");
        }
        VisitDistRows(*group, static_cast<size_t>(dist_it - group_dists.begin()),
                      [&](uint64_t, const DistributionSnapshot& row) {
                        for (size_t b = 0; b < bins.size(); ++b) {
                          bins[b] += row.bins[b];
                        }
                        underflow += row.underflow;
                        overflow += row.overflow;
                        total += row.total;
                        weighted_sum += row.mean * static_cast<double>(row.total);
                        if (row.total > 0) {
                          if (!any || row.min < min) min = row.min;
                          if (!any || row.max > max) max = row.max;
                          any = true;
                        }
                      });
      }
    }
    const double mean = total > 0 ? weighted_sum / static_cast<double>(total) : 0.0;
    std::string text = "hist " + dist_name + " count=" + std::to_string(total) +
                       " underflow=" + std::to_string(underflow) +
                       " overflow=" + std::to_string(overflow) + " min=" + CsvNum(min) +
                       " max=" + CsvNum(max) + " mean=" + CsvNum(mean) + "\n";
    text += "bin,lo,count\n";
    for (size_t b = 0; b < bins.size(); ++b) {
      if (bins[b] != 0) {
        text += std::to_string(b) + "," + CsvNum(geo.lo + static_cast<double>(b) * geo.bin_width) +
                "," + std::to_string(bins[b]) + "\n";
      }
    }
    return text;
  }

  if (verb != "SELECT") {
    throw std::runtime_error("unknown query verb '" + verb + "'");
  }

  // SELECT <metrics> FROM <collection> [WHERE ...] [GROUP BY ...]
  size_t from = 1;
  while (from < tokens.size() && tokens[from] != "FROM") {
    ++from;
  }
  if (from == 1 || from + 1 >= tokens.size()) {
    throw std::runtime_error("usage: SELECT <metrics|*> FROM <collection> [WHERE ...] "
                             "[GROUP BY ...]");
  }
  // The metric list may be split across tokens ("a, b"), but adjacent
  // tokens must be joined by a comma — otherwise "SELECT a b FROM c" would
  // silently fuse into the single metric "ab".
  std::string metric_list;
  for (size_t i = 1; i < from; ++i) {
    if (i > 1 && metric_list.back() != ',' && tokens[i].front() != ',') {
      throw std::runtime_error("malformed metric list: '" + tokens[i - 1] + " " + tokens[i] +
                               "' is missing a comma between metrics");
    }
    metric_list += tokens[i];
  }
  const Collection& c = FindCollection(*catalog_, tokens[from + 1]);
  // Empty = "*": every bucket reports its own full schema.
  const std::vector<std::string> metrics = ResolveMetrics(c, SplitCommas(metric_list));

  Filter filter;
  std::vector<std::string> group_keys;
  bool explicit_group = false;
  size_t pos = from + 2;
  while (pos < tokens.size()) {
    if (tokens[pos] == "WHERE") {
      if (!filter.empty()) {
        throw std::runtime_error("duplicate WHERE clause");
      }
      ++pos;
      filter = ParseWhere(c, tokens, pos);
    } else if (tokens[pos] == "GROUP") {
      if (explicit_group) {
        throw std::runtime_error("duplicate GROUP BY clause");
      }
      if (pos + 2 >= tokens.size() || tokens[pos + 1] != "BY") {
        throw std::runtime_error("malformed GROUP BY clause");
      }
      group_keys = SplitCommas(tokens[pos + 2]);
      for (const std::string& key : group_keys) {
        ParamIndex(c, key);  // validates
      }
      explicit_group = true;
      pos += 3;
    } else {
      throw std::runtime_error("unexpected token '" + tokens[pos] + "'");
    }
  }

  // Default grouping is every sweep axis: one bucket per grid point, and
  // for a campaign (no axes) the single bucket of point 0 — the default
  // SELECT row set of the offline long-format aggregate.
  if (!explicit_group) {
    group_keys = c.param_keys;
  }
  std::vector<size_t> key_indices;
  key_indices.reserve(group_keys.size());
  for (const std::string& key : group_keys) {
    key_indices.push_back(ParamIndex(c, key));
  }

  const std::vector<Bucket> buckets = Partition(c, filter, key_indices);
  if (!filter.empty() && buckets.empty()) {
    throw std::runtime_error("no grid points match the WHERE clause");
  }

  // "*" expands to each bucket's own schema — exactly the point's column
  // list under the default per-point grouping, which is what keeps the
  // default SELECT byte-identical to the offline aggregate even when
  // sweep points differ in schema. Both run AggregateBucket; only the
  // column source differs.
  const ScalarColumnSource cached = [this](const BinaryGroup& group, size_t column) {
    return cache_->GetScalarColumn(group, column);
  };
  std::string csv = SweepLongCsvHeader(group_keys);
  for (const auto& [key, members] : buckets) {
    csv += SweepLongCsvRows(key, AggregateBucket(members, metrics, cached));
  }
  return csv;
}

}  // namespace wlansim
