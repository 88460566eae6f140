// The query engine: executes one text query against the catalog, fetching
// decoded columns through the extent cache and aggregating them with the
// exact same arithmetic — and the same CSV formatters — as the offline
// `wlansim_results aggregate` path. That sharing is the determinism
// contract (invariant #8): a served answer is byte-identical to the
// offline answer over the same files, whatever the cache or thread state.
//
// Grammar (keywords are uppercase; names/values are case-sensitive):
//   LIST
//   SCHEMA <collection>
//   AGGREGATE <collection>
//   SELECT <metric[,metric...] | *> FROM <collection>
//       [WHERE key=value [AND key=value ...]] [GROUP BY key[,key...]]
//   HIST <collection> <dist-column> [WHERE key=value [AND key=value ...]]
//
// SELECT groups by every sweep parameter by default — one bucket per grid
// point, and a campaign's single bucket — so `SELECT * FROM <c>` returns
// exactly the AGGREGATE bytes. WHERE matches swept parameter values
// textually (the stored grid values are strings). GROUP BY pools the
// matching groups per distinct key tuple, member rows folded in pooled
// order (ascending grid point, path order within a point); buckets are
// emitted in order of their first (lowest) grid point. Campaigns have no
// parameters, so a WHERE or GROUP BY key on a campaign collection is an
// unknown sweep parameter.

#ifndef WLANSIM_QUERY_ENGINE_H_
#define WLANSIM_QUERY_ENGINE_H_

#include <string>

#include "query/catalog.h"
#include "query/extent_cache.h"

namespace wlansim {

class QueryEngine {
 public:
  // Both borrowed; the catalog must be immutable while queries run.
  QueryEngine(const Catalog* catalog, ExtentCache* cache)
      : catalog_(catalog), cache_(cache) {}

  // Executes one query line and returns the response body (CSV or text).
  // Throws std::runtime_error with a client-facing message on a malformed
  // query, unknown collection, unknown column, or empty result set.
  std::string Execute(const std::string& query);

 private:
  const Catalog* catalog_;
  ExtentCache* cache_;
};

}  // namespace wlansim

#endif  // WLANSIM_QUERY_ENGINE_H_
