// The consumption half of the results pipeline: replication records flow
// from the campaign worker pool through a ResultPipeline, which re-orders
// them into replication order (workers finish out of order) and fans each
// record out to every attached ResultConsumer. A consumer only sees one
// record at a time, so a 10^4..10^6-replication campaign streams rows to
// disk without holding them.
//
// The campaign engine's own consumer is the per-point GroupEncoder
// (results/binary_writer.h), the one store of a point's records. Others:
//   - StreamingCsvWriter  appends one CSV row per replication as records
//     arrive (the --reps-csv writer).
//   - InMemoryConsumer    buffers whole records; the test hook.

#ifndef WLANSIM_RUNNER_RESULT_CONSUMER_H_
#define WLANSIM_RUNNER_RESULT_CONSUMER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "runner/metric_recorder.h"
#include "runner/result_sink.h"

namespace wlansim {

// What a consumer knows about the campaign before the first record.
struct CampaignManifest {
  std::string scenario;
  uint64_t base_seed = 1;
  uint64_t replications = 0;
};

// Interface every result consumer implements. The pipeline serializes all
// calls (they happen under its delivery lock, in replication order), so
// consumers need no synchronization of their own.
class ResultConsumer {
 public:
  virtual ~ResultConsumer() = default;

  // Called once, before any record.
  virtual void BeginCampaign(const CampaignManifest& manifest) { (void)manifest; }

  // Called once per replication, in strict replication order 0..N-1.
  virtual void OnRecord(const ReplicationRecord& record) = 0;

  // Called once, after the last record.
  virtual void EndCampaign() {}
};

// Thread-safe fan-out with a reorder buffer. Workers deliver records in
// completion order; the pipeline holds records that arrive early in a map
// keyed by replication index and flushes the in-order prefix to every
// consumer. The buffer stays small in practice — its depth is bounded by
// the completion skew of the worker pool (~jobs records), never by the
// campaign size.
class ResultPipeline {
 public:
  explicit ResultPipeline(CampaignManifest manifest);

  // Consumers are not owned and must outlive the pipeline. Must be called
  // before Begin().
  void AddConsumer(ResultConsumer* consumer);

  // Announces the campaign to every consumer.
  void Begin();

  // Thread-safe. Throws std::out_of_range when record.replication >= the
  // manifest's replication count, and std::logic_error when that index was
  // already delivered (double-set replication: a seeding or scheduling bug
  // that previously would have silently overwritten a row).
  void Deliver(ReplicationRecord record);

  // Verifies every replication arrived (std::logic_error otherwise) and
  // tells every consumer the campaign is over.
  void End();

  // High-water mark of the reorder buffer, for tests and memory accounting.
  size_t max_reorder_depth() const;

 private:
  CampaignManifest manifest_;
  std::vector<ResultConsumer*> consumers_;

  mutable std::mutex mu_;
  uint64_t next_ = 0;  // lowest replication index not yet dispatched
  std::map<uint64_t, ReplicationRecord> pending_;
  size_t max_pending_ = 0;
};

// Streams one CSV row per replication to `out` as records arrive:
// `replication,<metric columns sorted by name>`. The column set is fixed by
// the first record; a later record with a different metric set throws
// std::runtime_error, because the already-written header can no longer be
// amended.
class StreamingCsvWriter final : public ResultConsumer {
 public:
  explicit StreamingCsvWriter(std::ostream& out) : out_(out) {}

  // One writer serves one campaign: a second BeginCampaign throws, because
  // appending a second campaign's rows (restarting at replication 0, no new
  // header) to the same stream would corrupt it silently.
  void BeginCampaign(const CampaignManifest& manifest) override;
  void OnRecord(const ReplicationRecord& record) override;
  void EndCampaign() override;

 private:
  std::ostream& out_;
  std::vector<std::string> columns_;
  bool begun_ = false;
  bool wrote_header_ = false;
};

// Buffers every record whole (scalars + distributions): the natural
// consumer for tests that compare runs record by record.
class InMemoryConsumer final : public ResultConsumer {
 public:
  void OnRecord(const ReplicationRecord& record) override { records_.push_back(record); }

  const std::vector<ReplicationRecord>& records() const { return records_; }

 private:
  std::vector<ReplicationRecord> records_;
};

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_RESULT_CONSUMER_H_
