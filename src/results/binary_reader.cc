#include "results/binary_reader.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>
#include <utility>

#include "crypto/crc32.h"
#include "results/binary_writer.h"
#include "runner/result_sink.h"

namespace wlansim {
namespace {

uint32_t BodyCrc(const std::string& body) {
  return Crc32({reinterpret_cast<const uint8_t*>(body.data()), body.size()});
}

void SkipChunk(ByteReader& reader) {
  reader.GetU8();  // encoding tag
  reader.GetRange(reader.GetVarint());
}

void SkipDistColumns(ByteReader& reader, size_t n_dists) {
  for (size_t d = 0; d < n_dists; ++d) {
    for (int c = 0; c < 6; ++c) {
      SkipChunk(reader);
    }
    reader.GetRange(reader.GetVarint());  // bins block
  }
}

// Walks the group's extents in order: per_extent(reader, rows) must consume
// exactly one extent's bytes.
void WalkExtents(const BinaryGroup& group,
                 const std::function<void(ByteReader&, size_t)>& per_extent) {
  ByteReader reader(group.body.data() + group.extents_offset,
                    group.body.size() - group.extents_offset);
  uint64_t rows_left = group.header.n_rows;
  while (rows_left > 0) {
    const size_t rows = static_cast<size_t>(std::min<uint64_t>(kExtentRows, rows_left));
    per_extent(reader, rows);
    rows_left -= rows;
  }
  if (reader.remaining() != 0) {
    throw std::runtime_error("corrupt binary results file: trailing bytes after the last extent");
  }
}

// Every extent costs at least one byte per column, so a row count the
// group's extent bytes cannot hold is damage. The group has a column: the
// readers calling this have checked the column index.
void RequireRowsFit(const BinaryGroup& group) {
  const uint64_t rows = group.header.n_rows;
  const uint64_t extents = rows / kExtentRows + (rows % kExtentRows != 0 ? 1 : 0);
  ByteReader(group.body.data() + group.extents_offset, group.body.size() - group.extents_offset)
      .RequireFits(extents, group.header.scalar_names.size() + group.header.dist_names.size());
}

bool SameSchema(const BinaryGroupHeader& a, const BinaryGroupHeader& b) {
  if (a.param_values != b.param_values || a.scalar_names != b.scalar_names ||
      a.dist_names != b.dist_names) {
    return false;
  }
  for (size_t d = 0; d < a.dist_geometries.size(); ++d) {
    if (!SameGeometry(a.dist_geometries[d], b.dist_geometries[d])) {
      return false;
    }
  }
  return true;
}

// The scalar column index of `name` in one group's own schema; throws when
// the group does not carry the metric (sweep points may differ in schema).
size_t ColumnIndexIn(const BinaryGroup& group, const std::string& name) {
  const std::vector<std::string>& names = group.header.scalar_names;
  auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    throw std::runtime_error("metric '" + name + "' is not present at grid point " +
                             std::to_string(group.header.point_index));
  }
  return static_cast<size_t>(it - names.begin());
}

}  // namespace

ColumnPtr DecodeScalarColumn(const BinaryGroup& group, size_t column) {
  auto values = std::make_shared<std::vector<double>>();
  ReadScalarColumn(group, column, values.get());
  return values;
}

std::vector<MetricAggregate> AggregateBucket(const std::vector<const BinaryGroup*>& members,
                                             const std::vector<std::string>& metrics,
                                             const ScalarColumnSource& source) {
  const std::vector<std::string>& names =
      metrics.empty() ? members.front()->header.scalar_names : metrics;
  if (metrics.empty()) {
    for (const BinaryGroup* group : members) {
      if (group->header.scalar_names != names) {
        throw std::runtime_error(
            "grid points pooled into one GROUP BY bucket disagree on their metric set; "
            "select explicit metrics instead of *");
      }
    }
  }
  std::vector<MetricAggregate> aggregates;
  aggregates.reserve(names.size());
  for (const std::string& name : names) {
    std::vector<double> pooled;
    for (const BinaryGroup* group : members) {
      const ColumnPtr values = source(*group, ColumnIndexIn(*group, name));
      pooled.insert(pooled.end(), values->begin(), values->end());
    }
    aggregates.push_back(AggregateScalarSamples(name, std::move(pooled)));
  }
  return aggregates;
}

BinaryResultsFile ParseBinaryResults(const std::string& bytes) {
  ByteReader reader(bytes);
  BinaryResultsFile file;
  file.header = DecodeFileHeader(reader);
  reader.RequireFits(file.header.n_groups, 16);  // magic, body_len, crc per group
  file.groups.reserve(file.header.n_groups);
  for (uint64_t g = 0; g < file.header.n_groups; ++g) {
    if (reader.GetU32() != kBinaryGroupMagic) {
      throw std::runtime_error("corrupt binary results file: bad group magic at group " +
                               std::to_string(g));
    }
    const uint64_t body_len = reader.GetU64();
    const size_t body_start = reader.pos();
    reader.GetRange(body_len);  // bounds check + advance
    BinaryGroup group;
    group.body = bytes.substr(body_start, body_len);
    const uint32_t stored_crc = reader.GetU32();
    if (BodyCrc(group.body) != stored_crc) {
      throw std::runtime_error("corrupt binary results file: group " + std::to_string(g) +
                               " CRC mismatch (damaged or rewritten bytes)");
    }
    ByteReader body_reader(group.body);
    group.header = DecodeGroupHeader(body_reader);
    group.extents_offset = body_reader.pos();
    if (group.header.param_values.size() != file.header.param_keys.size()) {
      throw std::runtime_error("corrupt binary results file: group " + std::to_string(g) +
                               " carries " + std::to_string(group.header.param_values.size()) +
                               " parameter values for " +
                               std::to_string(file.header.param_keys.size()) + " keys");
    }
    const uint64_t point = group.header.point_index;
    if (!file.groups.empty() && point <= file.groups.back().header.point_index) {
      throw std::runtime_error("corrupt binary results file: group " + std::to_string(g) +
                               " repeats or reorders grid point " + std::to_string(point));
    }
    if (file.header.param_keys.empty() && point != 0) {
      throw std::runtime_error("corrupt binary results file: a file without sweep axes holds "
                               "grid point " + std::to_string(point) + ", not point 0");
    }
    file.groups.push_back(std::move(group));
  }
  if (reader.remaining() != 0) {
    throw std::runtime_error("corrupt binary results file: trailing bytes after the last group");
  }
  return file;
}

BinaryResultsFile ReadBinaryResultsFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return ParseBinaryResults(bytes);
}

void ReadScalarColumn(const BinaryGroup& group, size_t column, std::vector<double>* out) {
  if (column >= group.header.scalar_names.size()) {
    throw std::out_of_range("scalar column " + std::to_string(column) + " outside schema of " +
                            std::to_string(group.header.scalar_names.size()));
  }
  RequireRowsFit(group);
  out->clear();
  out->reserve(group.header.n_rows);
  std::vector<double> extent_values;
  WalkExtents(group, [&](ByteReader& reader, size_t rows) {
    for (size_t c = 0; c < group.header.scalar_names.size(); ++c) {
      if (c == column) {
        DecodeScalarChunk(reader, rows, &extent_values);
        out->insert(out->end(), extent_values.begin(), extent_values.end());
      } else {
        SkipChunk(reader);
      }
    }
    SkipDistColumns(reader, group.header.dist_names.size());
  });
}

void VisitScalarRows(const BinaryGroup& group,
                     const std::function<void(uint64_t, const std::vector<double>&)>& visit) {
  const size_t n_scalars = group.header.scalar_names.size();
  std::vector<std::vector<double>> columns(n_scalars);
  std::vector<double> values(n_scalars);
  uint64_t row_base = 0;
  WalkExtents(group, [&](ByteReader& reader, size_t rows) {
    for (size_t c = 0; c < n_scalars; ++c) {
      DecodeScalarChunk(reader, rows, &columns[c]);
    }
    SkipDistColumns(reader, group.header.dist_names.size());
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < n_scalars; ++c) {
        values[c] = columns[c][r];
      }
      visit(row_base + r, values);
    }
    row_base += rows;
  });
}

void VisitDistRows(const BinaryGroup& group, size_t dist,
                   const std::function<void(uint64_t, const DistributionSnapshot&)>& visit) {
  if (dist >= group.header.dist_names.size()) {
    throw std::out_of_range("distribution column " + std::to_string(dist) +
                            " outside schema of " +
                            std::to_string(group.header.dist_names.size()));
  }
  RequireRowsFit(group);
  const DistGeometry& geometry = group.header.dist_geometries[dist];
  DistributionSnapshot snapshot;
  snapshot.lo = geometry.lo;
  snapshot.bin_width = geometry.bin_width;
  std::vector<uint64_t> underflow, overflow, total;
  std::vector<double> min, max, mean;
  uint64_t row_base = 0;
  WalkExtents(group, [&](ByteReader& reader, size_t rows) {
    for (size_t c = 0; c < group.header.scalar_names.size(); ++c) {
      SkipChunk(reader);
    }
    SkipDistColumns(reader, dist);
    DecodeU64Chunk(reader, rows, &underflow);
    DecodeU64Chunk(reader, rows, &overflow);
    DecodeU64Chunk(reader, rows, &total);
    DecodeScalarChunk(reader, rows, &min);
    DecodeScalarChunk(reader, rows, &max);
    DecodeScalarChunk(reader, rows, &mean);
    ByteReader bins = reader.GetRange(reader.GetVarint());
    SkipDistColumns(reader, group.header.dist_names.size() - dist - 1);
    for (size_t r = 0; r < rows; ++r) {
      DecodeBins(bins, geometry.n_bins, &snapshot.bins);
      snapshot.underflow = underflow[r];
      snapshot.overflow = overflow[r];
      snapshot.total = total[r];
      snapshot.min = min[r];
      snapshot.max = max[r];
      snapshot.mean = mean[r];
      visit(row_base + r, snapshot);
    }
    if (bins.remaining() != 0) {
      throw std::runtime_error(
          "corrupt binary results file: histogram bin block longer than its rows");
    }
    row_base += rows;
  });
}

std::string InspectBinary(const BinaryResultsFile& file) {
  std::string axes;
  for (const std::string& key : file.header.param_keys) {
    axes += (axes.empty() ? "" : ", ") + key;
  }
  std::string text = "wlansim binary results, format version " +
                     std::to_string(kBinaryFormatVersion) + "\n";
  text += "kind: " +
          (axes.empty() ? std::string("campaign (no sweep axes: the single grid point 0)")
                        : "sweep (axes: " + axes + ")") +
          "\n";
  text += "scenario: " + file.header.scenario + "\n";
  text += "base_seed: " + std::to_string(file.header.base_seed) + "\n";
  text += "replications: " + std::to_string(file.header.replications) + " per grid point\n";
  text += "groups: " + std::to_string(file.groups.size()) + "\n";
  if (!file.groups.empty()) {
    const BinaryGroupHeader& schema = file.groups.front().header;
    std::string scalars;
    for (const std::string& name : schema.scalar_names) {
      scalars += (scalars.empty() ? "" : ", ") + name;
    }
    std::string dists;
    for (const std::string& name : schema.dist_names) {
      dists += (dists.empty() ? "" : ", ") + name;
    }
    text += "scalar columns (" + std::to_string(schema.scalar_names.size()) + "): " +
            (scalars.empty() ? "(none)" : scalars) + "\n";
    text += "distribution columns (" + std::to_string(schema.dist_names.size()) + "): " +
            (dists.empty() ? "(none)" : dists) + "\n";
  }
  const size_t shown = std::min<size_t>(file.groups.size(), 20);
  for (size_t g = 0; g < shown; ++g) {
    const BinaryGroupHeader& header = file.groups[g].header;
    text += "group " + std::to_string(g) + ": point_index=" +
            std::to_string(header.point_index) + " seed=" + std::to_string(header.point_seed) +
            " rows=" + std::to_string(header.n_rows);
    for (size_t k = 0; k < header.param_values.size(); ++k) {
      text += " " + file.header.param_keys[k] + "=" + header.param_values[k];
    }
    text += "\n";
  }
  if (file.groups.size() > shown) {
    text += "... (" + std::to_string(file.groups.size() - shown) + " more groups)\n";
  }
  return text;
}

PooledPoints PoolGroups(const std::vector<const BinaryResultsFile*>& files) {
  PooledPoints points;
  std::set<std::pair<uint64_t, uint64_t>> identities;  // (base_seed, point_index)
  for (size_t f = 0; f < files.size(); ++f) {
    const BinaryFileHeader& header = files[f]->header;
    if (header.scenario != files.front()->header.scenario ||
        header.param_keys != files.front()->header.param_keys) {
      throw std::runtime_error("input " + std::to_string(f + 1) +
                               " does not share the first input's scenario and sweep axes");
    }
    for (const BinaryGroup& group : files[f]->groups) {
      const uint64_t point = group.header.point_index;
      if (!identities.emplace(header.base_seed, point).second) {
        throw std::runtime_error("grid point " + std::to_string(point) + " of base seed " +
                                 std::to_string(header.base_seed) +
                                 " appears twice across the inputs (the same run supplied "
                                 "twice would count its replications twice)");
      }
      std::vector<const BinaryGroup*>& pooled = points[point];
      if (!pooled.empty() && !SameSchema(pooled.front()->header, group.header)) {
        throw std::runtime_error("the groups at grid point " + std::to_string(point) +
                                 " disagree on their parameter values, metric columns or "
                                 "histogram geometries, so they cannot pool");
      }
      pooled.push_back(&group);
    }
  }
  return points;
}

void MergeBinaryFiles(const std::vector<std::string>& input_paths, std::ostream& out) {
  if (input_paths.empty()) {
    throw std::runtime_error("merge needs at least one input file");
  }
  std::vector<BinaryResultsFile> files;
  std::vector<const BinaryResultsFile*> borrowed;
  files.reserve(input_paths.size());
  for (const std::string& path : input_paths) {
    files.push_back(ReadBinaryResultsFile(path));
    const BinaryFileHeader& first = files.front().header;
    if (files.back().header.base_seed != first.base_seed ||
        files.back().header.replications != first.replications) {
      throw std::runtime_error("'" + path +
                               "' is not a shard of the first input's run "
                               "(base seed and replications must agree)");
    }
    borrowed.push_back(&files.back());
  }
  // Shards of one run share its base seed, so the identity rule leaves one
  // group per point: the merge is pure reordering into ascending grid
  // order under a header whose group count is the sum, which is exactly
  // what an unsharded run would have written.
  const PooledPoints points = PoolGroups(borrowed);
  BinaryFileHeader header = files.front().header;
  header.n_groups = points.size();
  std::string bytes;
  EncodeFileHeader(bytes, header);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  for (const auto& [point_index, groups] : points) {
    WriteFramedGroup(out, groups.front()->body);
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("binary results write failed");
  }
}

void WriteReplicationCsv(const BinaryGroup& group, std::ostream& out) {
  if (group.header.n_rows == 0) {
    return;
  }
  // Rows are formatted into one small buffer that is handed to `out`
  // every kFlushBytes, so the text never exists whole.
  constexpr size_t kFlushBytes = size_t{1} << 16;
  std::string text = "replication";
  for (const std::string& name : group.header.scalar_names) {
    text += ",";
    text += CsvField(name);
  }
  text += "\n";
  VisitScalarRows(group, [&](uint64_t row, const std::vector<double>& values) {
    text += std::to_string(row);
    for (double v : values) {
      text += ",";
      text += CsvNum(v);
    }
    text += "\n";
    if (text.size() >= kFlushBytes) {
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
      text.clear();
    }
  });
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void ExportBinaryCsv(const BinaryResultsFile& file, std::ostream& out) {
  if (!file.header.param_keys.empty()) {
    out << AggregateBinary(std::vector<const BinaryResultsFile*>{&file});
  } else if (!file.groups.empty()) {
    WriteReplicationCsv(file.groups.front(), out);
  }
}

std::string AggregateBinary(const std::vector<BinaryResultsFile>& files) {
  std::vector<const BinaryResultsFile*> borrowed;
  borrowed.reserve(files.size());
  for (const BinaryResultsFile& file : files) {
    borrowed.push_back(&file);
  }
  return AggregateBinary(borrowed);
}

std::string AggregateBinary(const std::vector<const BinaryResultsFile*>& files) {
  if (files.empty()) {
    throw std::runtime_error("aggregate needs at least one input file");
  }
  const PooledPoints points = PoolGroups(files);
  std::string csv = SweepLongCsvHeader(files.front()->header.param_keys);
  for (const auto& [point_index, groups] : points) {
    csv += SweepLongCsvRows(groups.front()->header.param_values,
                            AggregateBucket(groups, {}, DecodeScalarColumn));
  }
  return csv;
}

}  // namespace wlansim
