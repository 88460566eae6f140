// Readers and out-of-core operations over WLSR binary result files
// (binary_format.h): parse + CRC-verify, column-at-a-time decoding, shard
// merge, byte-identical CSV export, and exact aggregation. These back the
// campaign engine's per-point fold, the wlansim_results CLI and the query
// server.
//
// The operations never materialize the row set: decoding walks one extent
// (kExtentRows rows) or one column at a time, so aggregating a
// 10^6-replication file costs one metric column of memory, not the table.

#ifndef WLANSIM_RESULTS_BINARY_READER_H_
#define WLANSIM_RESULTS_BINARY_READER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "results/binary_format.h"
#include "runner/metric_recorder.h"
#include "runner/result_sink.h"

namespace wlansim {

// One parsed group: its decoded header plus the raw CRC-covered body bytes
// (kept verbatim so a merge can re-frame groups byte-identically without
// re-encoding them).
struct BinaryGroup {
  BinaryGroupHeader header;
  std::string body;          // full body: encoded header + extents
  size_t extents_offset = 0; // where the extent data starts inside body
};

struct BinaryResultsFile {
  BinaryFileHeader header;
  std::vector<BinaryGroup> groups;  // file order (strictly ascending point_index)
};

// Parses a whole serialized file, verifying the magic, version, kind byte,
// per-group framing and CRCs, that group point indices strictly ascend, and
// that a file without sweep axes holds at most the group of point 0. Every
// count is checked against the bytes left before anything is sized by it.
// Throws std::runtime_error with a "truncated ..." / "corrupt ..." / "not a
// wlansim binary results file" message on damage.
BinaryResultsFile ParseBinaryResults(const std::string& bytes);

// Reads `path` fully and parses it. Throws std::runtime_error when the file
// cannot be opened.
BinaryResultsFile ReadBinaryResultsFile(const std::string& path);

// Decodes scalar column `column` (index into header.scalar_names) of one
// group: header.n_rows values in replication order. Both column readers
// throw std::runtime_error when the group's extent bytes cannot hold
// header.n_rows rows, before sizing anything by it.
void ReadScalarColumn(const BinaryGroup& group, size_t column, std::vector<double>* out);

// Decodes distribution column `dist` (index into header.dist_names) of one
// group: header.n_rows full snapshots, exact bin counts included.
void ReadDistColumn(const BinaryGroup& group, size_t dist, std::vector<DistributionSnapshot>* out);

// Calls visit(row_index, values) for every row of the group in replication
// order, decoding extent by extent; `values` is aligned with
// header.scalar_names and reused between calls.
void VisitScalarRows(const BinaryGroup& group,
                     const std::function<void(uint64_t, const std::vector<double>&)>& visit);

// Human-readable schema + group summary (the `inspect` subcommand). The
// kind it prints is derived from the axis count.
std::string InspectBinary(const BinaryResultsFile& file);

// The one collection model behind every multi-file reader (aggregate,
// merge, and the query catalog): a collection maps each grid point to its
// groups, and a point's sample set is its groups pooled in input order. A
// campaign is the zero-axis case, the single point 0.
using PooledPoints = std::map<uint64_t, std::vector<const BinaryGroup*>>;

// Pools `files` (none may be null) in the given order. Throws
// std::runtime_error unless
//   - every input shares the first one's scenario and sweep axis keys;
//   - no group identity (file base_seed, point_index) appears twice, so
//     the same run supplied twice is rejected instead of counted twice;
//   - the groups pooled at one point share their parameter values, scalar
//     names, distribution names and bin geometries.
PooledPoints PoolGroups(const std::vector<const BinaryResultsFile*>& files);

// Merges the shard files of one run (same base seed and replications) into
// one file on `out`: PoolGroups' points in ascending order, each group
// byte-copied. When the shards cover the whole grid, the merged bytes are
// identical to the file an unsharded run writes.
void MergeBinaryFiles(const std::vector<std::string>& input_paths, std::ostream& out);

// The per-replication CSV of one group — `replication,<scalar columns>`,
// one row per replication — streamed to `out` extent by extent. The one
// writer of these bytes: --reps-csv (ReplicationCsvWriter) and
// ExportBinaryCsv both call it. A group without rows writes nothing.
void WriteReplicationCsv(const BinaryGroup& group, std::ostream& out);

// Exports back to the text formats, byte-identical to what the run itself
// wrote: a file without sweep axes reproduces the per-replication CSV
// (--reps-csv, WriteReplicationCsv of its group); a file with axes
// reproduces the long-format CSV (--csv), which is AggregateBinary of the
// file.
void ExportBinaryCsv(const BinaryResultsFile& file, std::ostream& out);

// Exact per-metric aggregates of one group, one column at a time: the fold
// the campaign engine runs on every finished grid point, so a run's --csv
// and the offline tools print the same bytes.
std::vector<MetricAggregate> AggregateGroup(const BinaryGroup& group);

// Aggregates across files without materializing rows: per grid point of
// PoolGroups(files) and per metric, AggregateScalarSamples over the
// point's pooled column. Output is the run's own --csv format, the
// long-format CSV keyed by the sweep axes (none for a campaign).
std::string AggregateBinary(const std::vector<BinaryResultsFile>& files);

// The same operation over borrowed files (none may be null). This is the
// overload the query server calls: its catalog owns the parsed files, and
// served answers must be byte-identical to the offline path, so both
// spellings run literally the same code.
std::string AggregateBinary(const std::vector<const BinaryResultsFile*>& files);

}  // namespace wlansim

#endif  // WLANSIM_RESULTS_BINARY_READER_H_
