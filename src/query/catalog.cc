#include "query/catalog.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace wlansim {
namespace {

std::string KindName(const std::vector<std::string>& param_keys) {
  return param_keys.empty() ? "campaign" : "sweep";
}

// Inserts `name` into a sorted unique vector.
void UnionInsert(std::vector<std::string>& sorted, const std::string& name) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), name);
  if (it == sorted.end() || *it != name) {
    sorted.insert(it, name);
  }
}

// Rebuilds everything a collection derives from its member files: the
// pooled points and, from them in canonical order, the union schema and
// the totals.
void Derive(Collection& c, PooledPoints points) {
  c.points = std::move(points);
  c.scalar_names.clear();
  c.dist_names.clear();
  c.dist_geometry.clear();
  c.dist_geometry_conflicts.clear();
  c.total_groups = 0;
  c.total_rows = 0;
  for (const auto& [point, groups] : c.points) {
    for (const BinaryGroup* group : groups) {
      const BinaryGroupHeader& header = group->header;
      for (const std::string& name : header.scalar_names) {
        UnionInsert(c.scalar_names, name);
      }
      for (size_t d = 0; d < header.dist_names.size(); ++d) {
        const std::string& name = header.dist_names[d];
        UnionInsert(c.dist_names, name);
        auto [it, inserted] = c.dist_geometry.emplace(name, header.dist_geometries[d]);
        if (!inserted && !SameGeometry(it->second, header.dist_geometries[d])) {
          c.dist_geometry_conflicts.insert(name);
        }
      }
      ++c.total_groups;
      c.total_rows += header.n_rows;
    }
  }
}

}  // namespace

const CatalogFile& Catalog::RegisterFile(const std::string& path) {
  for (const auto& existing : files_) {
    if (existing->path == path) {
      throw std::runtime_error("'" + path + "' is already registered");
    }
  }

  auto entry = std::make_unique<CatalogFile>();
  entry->path = path;
  entry->file = ReadBinaryResultsFile(path);  // parses + CRC-verifies, throws on damage
  const BinaryFileHeader& header = entry->file.header;
  const std::string name = header.scenario + ":" + KindName(header.param_keys);

  // Pool the would-be member set before committing anything, so a refused
  // file leaves no trace. Members stay sorted by path, which makes every
  // answer registration-order independent (Welford folds are
  // order-sensitive).
  auto existing_it = collections_.find(name);
  std::vector<const CatalogFile*> members;
  if (existing_it != collections_.end()) {
    members = existing_it->second.files;
  }
  members.push_back(entry.get());
  std::sort(members.begin(), members.end(),
            [](const CatalogFile* a, const CatalogFile* b) { return a->path < b->path; });
  std::vector<const BinaryResultsFile*> member_files;
  member_files.reserve(members.size());
  for (const CatalogFile* member : members) {
    member_files.push_back(&member->file);
  }
  PooledPoints points;
  try {
    points = PoolGroups(member_files);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("'" + path + "' cannot join collection '" + name + "': " + e.what());
  }

  Collection& collection = collections_[name];
  collection.name = name;
  collection.param_keys = header.param_keys;
  collection.files = std::move(members);
  Derive(collection, std::move(points));
  files_.push_back(std::move(entry));
  return *files_.back();
}

size_t Catalog::RegisterDirectory(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& dir_entry : fs::directory_iterator(path, ec)) {
    if (dir_entry.is_regular_file() && dir_entry.path().extension() == ".wlsr") {
      paths.push_back(dir_entry.path().string());
    }
  }
  if (ec) {
    throw std::runtime_error("cannot read directory '" + path + "': " + ec.message());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& file_path : paths) {
    RegisterFile(file_path);
  }
  return paths.size();
}

std::vector<std::string> Catalog::CollectionNames() const {
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, collection] : collections_) {
    (void)collection;
    names.push_back(name);
  }
  return names;
}

const Collection* Catalog::Find(const std::string& name) const {
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : &it->second;
}

std::string Catalog::Describe() const {
  std::string text = "collection,kind,files,groups,rows,scalar_columns,dist_columns\n";
  for (const auto& [name, c] : collections_) {
    text += name + "," + KindName(c.param_keys) + "," + std::to_string(c.files.size()) + "," +
            std::to_string(c.total_groups) + "," + std::to_string(c.total_rows) + "," +
            std::to_string(c.scalar_names.size()) + "," + std::to_string(c.dist_names.size()) +
            "\n";
  }
  return text;
}

std::string Catalog::DescribeSchema(const std::string& name) const {
  const Collection* c = Find(name);
  if (c == nullptr) {
    throw std::runtime_error("unknown collection '" + name + "'");
  }
  std::string text = "collection " + c->name + " kind=" + KindName(c->param_keys) +
                     " files=" + std::to_string(c->files.size()) +
                     " rows=" + std::to_string(c->total_rows) + "\n";
  for (const std::string& key : c->param_keys) {
    text += "param " + key + "\n";
  }
  for (const std::string& scalar : c->scalar_names) {
    text += "scalar " + scalar + "\n";
  }
  for (const std::string& dist : c->dist_names) {
    const DistGeometry& geo = c->dist_geometry.at(dist);
    char line[192];
    std::snprintf(line, sizeof(line), "dist %s lo=%g bin_width=%g n_bins=%llu%s\n", dist.c_str(),
                  geo.lo, geo.bin_width, static_cast<unsigned long long>(geo.n_bins),
                  c->dist_geometry_conflicts.count(dist) != 0 ? " (geometry varies)" : "");
    text += line;
  }
  return text;
}

}  // namespace wlansim
