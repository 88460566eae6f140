#include "results/binary_writer.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "crypto/crc32.h"

namespace wlansim {
namespace {

DistGeometry GeometryOf(const DistributionSnapshot& snapshot) {
  return {snapshot.lo, snapshot.bin_width, snapshot.bins.size()};
}

}  // namespace

void WriteFramedGroup(std::ostream& out, const std::string& body) {
  std::string frame;
  PutU32(frame, kBinaryGroupMagic);
  PutU64(frame, body.size());
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  frame.clear();
  PutU32(frame, Crc32({reinterpret_cast<const uint8_t*>(body.data()), body.size()}));
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
}

GroupEncoder::GroupEncoder(uint64_t point_index, uint64_t point_seed,
                           std::vector<std::string> param_values, uint64_t expected_rows)
    : expected_rows_(expected_rows) {
  header_.point_index = point_index;
  header_.point_seed = point_seed;
  header_.param_values = std::move(param_values);
}

void GroupEncoder::FixSchema(const ReplicationRecord& record) {
  header_.scalar_names.reserve(record.metrics.size());
  for (const auto& [name, value] : record.metrics) {
    header_.scalar_names.push_back(name);
  }
  header_.dist_names.reserve(record.distributions.size());
  for (const auto& [name, snapshot] : record.distributions) {
    if (snapshot.bins.size() > kMaxDistBins) {
      throw std::runtime_error("distribution '" + name + "' has " +
                               std::to_string(snapshot.bins.size()) +
                               " bins; the binary results format stores at most " +
                               std::to_string(kMaxDistBins));
    }
    header_.dist_names.push_back(name);
    header_.dist_geometries.push_back(GeometryOf(snapshot));
  }
  scalar_cols_.resize(header_.scalar_names.size());
  for (std::vector<double>& col : scalar_cols_) {
    col.reserve(std::min(kExtentRows, expected_rows_));
  }
  dist_cols_.resize(header_.dist_names.size());
  // The header goes first in the body; only its row count is unknown yet.
  n_rows_offset_ = EncodeGroupHeader(body_, header_);
  extents_offset_ = body_.size();
  schema_fixed_ = true;
}

void GroupEncoder::CheckSchema(const ReplicationRecord& record) const {
  // Same contract as the streaming CSV writer: the schema went out with the
  // first record, so a drifting metric set cannot be accommodated.
  const std::vector<std::string>& scalar_names = header_.scalar_names;
  const std::vector<std::string>& dist_names = header_.dist_names;
  if (record.metrics.size() != scalar_names.size() ||
      record.distributions.size() != dist_names.size()) {
    throw std::runtime_error("replication " + std::to_string(record.replication) + " reports " +
                             std::to_string(record.metrics.size()) + " metrics and " +
                             std::to_string(record.distributions.size()) +
                             " distributions; the group schema fixed " +
                             std::to_string(scalar_names.size()) + " and " +
                             std::to_string(dist_names.size()) +
                             " at the first replication (a campaign's replications must all "
                             "report the same metric set)");
  }
  size_t i = 0;
  for (const auto& [name, value] : record.metrics) {
    if (name != scalar_names[i]) {
      throw std::runtime_error("replication " + std::to_string(record.replication) +
                               " reports metric '" + name + "' where the group schema has '" +
                               scalar_names[i] + "'");
    }
    ++i;
  }
  i = 0;
  for (const auto& [name, snapshot] : record.distributions) {
    if (name != dist_names[i]) {
      throw std::runtime_error("replication " + std::to_string(record.replication) +
                               " reports distribution '" + name +
                               "' where the group schema has '" + dist_names[i] + "'");
    }
    if (!SameGeometry(header_.dist_geometries[i], GeometryOf(snapshot))) {
      throw std::runtime_error("replication " + std::to_string(record.replication) +
                               " changed the bin geometry of distribution '" + name +
                               "'; the group schema fixed it at the first record");
    }
    ++i;
  }
}

void GroupEncoder::Add(const ReplicationRecord& record) {
  if (!schema_fixed_) {
    FixSchema(record);
  } else {
    CheckSchema(record);
  }
  size_t i = 0;
  for (const auto& [name, value] : record.metrics) {
    scalar_cols_[i++].push_back(value);
  }
  i = 0;
  for (const auto& [name, snapshot] : record.distributions) {
    DistColumns& cols = dist_cols_[i++];
    cols.underflow.push_back(snapshot.underflow);
    cols.overflow.push_back(snapshot.overflow);
    cols.total.push_back(snapshot.total);
    cols.min.push_back(snapshot.min);
    cols.max.push_back(snapshot.max);
    cols.mean.push_back(snapshot.mean);
    EncodeBins(cols.bins_rle, snapshot.bins.data(), snapshot.bins.size());
  }
  ++n_rows_;
  if (++extent_rows_ == kExtentRows) {
    FlushExtent();
  }
}

void GroupEncoder::FlushExtent() {
  if (extent_rows_ == 0) {
    return;
  }
  for (std::vector<double>& col : scalar_cols_) {
    EncodeScalarChunk(body_, col.data(), col.size());
    col.clear();
  }
  for (DistColumns& cols : dist_cols_) {
    EncodeU64Chunk(body_, cols.underflow.data(), cols.underflow.size());
    EncodeU64Chunk(body_, cols.overflow.data(), cols.overflow.size());
    EncodeU64Chunk(body_, cols.total.data(), cols.total.size());
    EncodeScalarChunk(body_, cols.min.data(), cols.min.size());
    EncodeScalarChunk(body_, cols.max.data(), cols.max.size());
    EncodeScalarChunk(body_, cols.mean.data(), cols.mean.size());
    // Length prefix lets a reader skip the whole bins block of an extent.
    PutVarint(body_, cols.bins_rle.size());
    body_ += cols.bins_rle;
    cols.underflow.clear();
    cols.overflow.clear();
    cols.total.clear();
    cols.min.clear();
    cols.max.clear();
    cols.mean.clear();
    cols.bins_rle.clear();
  }
  extent_rows_ = 0;
  if (n_rows_ == kExtentRows && expected_rows_ > kExtentRows) {
    // Size the body once, from the first extent, for every row the group
    // will hold (with 2x slack). Growing by doubling instead would briefly
    // hold the old and the new copy — twice the group in resident memory —
    // while capacity that is never written costs none.
    const uint64_t extents = (expected_rows_ + kExtentRows - 1) / kExtentRows;
    body_.reserve(extents_offset_ + 2 * extents * (body_.size() - extents_offset_));
  }
}

BinaryGroup GroupEncoder::Finish() {
  if (!schema_fixed_) {
    // No records: the group still carries its point identity.
    n_rows_offset_ = EncodeGroupHeader(body_, header_);
    extents_offset_ = body_.size();
  }
  FlushExtent();
  std::string n_rows;
  PutU64(n_rows, n_rows_);
  body_.replace(n_rows_offset_, n_rows.size(), n_rows);
  header_.n_rows = n_rows_;
  BinaryGroup group;
  group.header = std::move(header_);
  group.body = std::move(body_);
  group.extents_offset = extents_offset_;
  return group;
}

void BinaryResultsWriter::BeginSweep(const SweepManifest& manifest) {
  if (begun_) {
    throw std::logic_error(
        "BinaryResultsWriter attached to a second run: one writer, one stream");
  }
  begun_ = true;
  BinaryFileHeader header;
  header.n_groups = manifest.shard_points;
  header.base_seed = manifest.base_seed;
  header.replications = manifest.replications;
  header.scenario = manifest.scenario;
  header.param_keys = manifest.param_keys;
  std::string bytes;
  EncodeFileHeader(bytes, header);
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void BinaryResultsWriter::OnPointDone(const SweepPointInfo& info,
                                      const std::vector<MetricAggregate>& aggregates,
                                      const BinaryGroup& group) {
  (void)info;
  (void)aggregates;
  WriteFramedGroup(out_, group.body);
}

void BinaryResultsWriter::EndSweep() {
  out_.flush();
  if (!out_) {
    throw std::runtime_error("binary results write failed");
  }
}

}  // namespace wlansim
