// The query server's catalog: registered WLSR result files grouped into
// logical *collections*.
//
// Registering a file parses and CRC-verifies it in full (a damaged file is
// rejected at the door, not at query time) and files it under the
// collection named `<scenario>:campaign` (no sweep axes) or
// `<scenario>:sweep`. A collection is one model for both: its `points` are
// PoolGroups over its member files in path order, the very function
// `wlansim_results aggregate` runs over its argument files. So the catalog
// accepts exactly the file sets the offline aggregate accepts: a file that
// changes the scenario or axes, re-supplies a group identity (base seed,
// grid point) already registered, or pools a group whose schema differs
// from its point's throws. Sweep *points* may legitimately differ in schema
// from one another (a swept parameter can change the metric set), so the
// collection carries the union schema and queries resolve columns per
// group.
//
// Determinism: a collection is a pure function of its member set — files
// sorted by path, points ascending — so every query answer is independent
// of registration order. The catalog is immutable once serving starts
// (registration happens during server startup); queries only read.

#ifndef WLANSIM_QUERY_CATALOG_H_
#define WLANSIM_QUERY_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "results/binary_reader.h"

namespace wlansim {

// One registered file, parsed and verified.
struct CatalogFile {
  std::string path;
  BinaryResultsFile file;
};

struct Collection {
  std::string name;  // "<scenario>:campaign" or "<scenario>:sweep"
  std::vector<std::string> param_keys;  // sweep axis keys; empty for campaigns
  // Union of the member groups' schemas, sorted by name. Sweep points may
  // each carry a subset.
  std::vector<std::string> scalar_names;
  std::vector<std::string> dist_names;
  // Bin geometry per distribution name, from the first group (in point
  // order) that carries it. A name whose geometry varies between groups
  // lands in dist_geometry_conflicts: such columns can still be read per
  // group but refuse a cross-group HIST merge (summing bins of unlike
  // geometries would be silent nonsense).
  std::map<std::string, DistGeometry> dist_geometry;
  std::set<std::string> dist_geometry_conflicts;
  std::vector<const CatalogFile*> files;  // sorted by path
  // PoolGroups(files): each grid point's groups in path order, ascending
  // point index. A campaign collection is the single point 0.
  PooledPoints points;
  size_t total_groups = 0;
  uint64_t total_rows = 0;
};

class Catalog {
 public:
  // Registers one WLSR file: reads, parses, CRC-verifies, and files it into
  // its collection. Throws std::runtime_error on an unreadable, truncated
  // or corrupt file, a duplicate path, or a file PoolGroups refuses to
  // pool with the collection's members.
  const CatalogFile& RegisterFile(const std::string& path);

  // Registers every regular file ending in ".wlsr" directly inside `path`
  // (sorted by name, so the resulting catalog is directory-order
  // independent). Returns the number registered; throws on an unreadable
  // directory or any per-file failure.
  size_t RegisterDirectory(const std::string& path);

  // Collection names, sorted.
  std::vector<std::string> CollectionNames() const;

  // nullptr when the name is unknown.
  const Collection* Find(const std::string& name) const;

  size_t file_count() const { return files_.size(); }

  // The LIST response body: one CSV row per collection.
  std::string Describe() const;

  // The SCHEMA response body for one collection; throws on unknown name.
  std::string DescribeSchema(const std::string& name) const;

 private:
  std::vector<std::unique_ptr<CatalogFile>> files_;
  std::map<std::string, Collection> collections_;
};

}  // namespace wlansim

#endif  // WLANSIM_QUERY_CATALOG_H_
