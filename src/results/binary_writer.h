// Writers for the WLSR binary columnar result format (binary_format.h).
//
// GroupEncoder turns an ordered stream of ReplicationRecords into one
// encoded group: it buffers kExtentRows rows of column values, flushes each
// full extent as per-column chunks, and finishes into the group's
// CRC-covered body. Peak memory is one extent of raw columns plus the
// (compact) encoded body — never the row set. The campaign engine runs one
// encoder per grid point as that point's only record store; every output
// of the point (its aggregates, --binary-out, --reps-csv) is derived from
// the finished group.
//
// BinaryResultsWriter is the SweepPointSink behind --binary-out: one framed
// group per grid point, emitted in grid order by the engine's ordered point
// delivery, so the bytes are identical for any --jobs value — and sweep
// shards concatenate into exactly the unsharded file. A zero-axis run (a
// campaign) writes a file with no axes and the single group of point 0.

#ifndef WLANSIM_RESULTS_BINARY_WRITER_H_
#define WLANSIM_RESULTS_BINARY_WRITER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "results/binary_format.h"
#include "results/binary_reader.h"
#include "runner/metric_recorder.h"
#include "runner/sweep.h"

namespace wlansim {

// Writes one framed group to `out`: group magic | body_len | body |
// crc32(body), straight from `body` with no framed copy. Shared by the
// writer and the shard merge, so both frame groups identically.
void WriteFramedGroup(std::ostream& out, const std::string& body);

// Encodes the records of one group (one grid point; a campaign is the
// single point of a zero-axis grid). The schema — scalar names,
// distribution names, bin geometries — is fixed by the first record; a
// later record that drifts throws std::runtime_error. A campaign therefore
// requires every replication to report the same metric set.
class GroupEncoder {
 public:
  // `expected_rows` (the replication count) only sizes the body buffer; any
  // number of records may arrive.
  GroupEncoder(uint64_t point_index, uint64_t point_seed, std::vector<std::string> param_values,
               uint64_t expected_rows);

  // Appends one row. Records must arrive in replication order (the
  // engine's reorder buffer guarantees it).
  void Add(const ReplicationRecord& record);

  // Flushes the trailing partial extent and returns the finished group,
  // its body moved out of the encoder (no copy). The encoder is spent
  // afterwards.
  BinaryGroup Finish();

 private:
  void FixSchema(const ReplicationRecord& record);
  void CheckSchema(const ReplicationRecord& record) const;
  void FlushExtent();

  BinaryGroupHeader header_;  // point identity, then the schema of row 0
  uint64_t expected_rows_;
  bool schema_fixed_ = false;
  // The group body under construction: the encoded header (written when
  // the schema is fixed, n_rows patched at Finish) followed by extents.
  std::string body_;
  size_t n_rows_offset_ = 0;
  size_t extents_offset_ = 0;

  uint64_t n_rows_ = 0;
  size_t extent_rows_ = 0;
  std::vector<std::vector<double>> scalar_cols_;
  struct DistColumns {
    std::vector<uint64_t> underflow;
    std::vector<uint64_t> overflow;
    std::vector<uint64_t> total;
    std::vector<double> min;
    std::vector<double> max;
    std::vector<double> mean;
    std::string bins_rle;  // concatenated per-row zero-RLE bin blocks
  };
  std::vector<DistColumns> dist_cols_;
};

// Writes a WLSR file: the header up front (the group count — this shard's
// point count — is known before any point runs), then each finished group
// as the engine delivers it in grid order.
class BinaryResultsWriter final : public SweepPointSink {
 public:
  explicit BinaryResultsWriter(std::ostream& out) : out_(out) {}

  void BeginSweep(const SweepManifest& manifest) override;
  void OnPointDone(const SweepPointInfo& info, const std::vector<MetricAggregate>& aggregates,
                   const BinaryGroup& group) override;
  void EndSweep() override;

 private:
  std::ostream& out_;
  bool begun_ = false;
};

}  // namespace wlansim

#endif  // WLANSIM_RESULTS_BINARY_WRITER_H_
