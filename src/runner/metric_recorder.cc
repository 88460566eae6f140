#include "runner/metric_recorder.h"

#include <stdexcept>
#include <utility>

namespace wlansim {
namespace {

// All flushed names funnel through here so a collision between any two
// sources (returned scalar vs gauge-derived, gauge-derived vs
// histogram-derived, ...) is caught instead of silently overwriting one.
void EmitMetric(std::map<std::string, double>& metrics, const std::string& name, double value) {
  if (!metrics.emplace(name, value).second) {
    throw std::logic_error("metric '" + name + "' recorded more than once in one replication");
  }
}

}  // namespace

void MetricRecorder::AddSample(const std::string& name, double value) {
  gauges_[name].Add(value);
}

void MetricRecorder::DeclareHistogram(const std::string& name, double lo, double bin_width,
                                      size_t bin_count) {
  if (bin_count == 0 || bin_width <= 0.0) {
    throw std::logic_error("histogram '" + name + "' needs bin_width > 0 and bin_count > 0");
  }
  if (!histograms_.emplace(name, HistogramState{Histogram(lo, bin_width, bin_count), Summary()})
           .second) {
    throw std::logic_error("histogram '" + name + "' declared twice");
  }
}

void MetricRecorder::AddHistogramSample(const std::string& name, double value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    throw std::logic_error("histogram '" + name + "' used before DeclareHistogram");
  }
  it->second.histogram.Add(value);
  it->second.summary.Add(value);
}

ReplicationRecord MetricRecorder::Finish(uint64_t replication,
                                         const ReplicationResult& returned) const {
  ReplicationRecord record;
  record.replication = replication;
  for (const auto& [name, summary] : gauges_) {
    EmitMetric(record.metrics, name + "_count", static_cast<double>(summary.count()));
    EmitMetric(record.metrics, name + "_mean", summary.mean());
    EmitMetric(record.metrics, name + "_min", summary.min());
    EmitMetric(record.metrics, name + "_max", summary.max());
  }
  for (const auto& [name, state] : histograms_) {
    const Histogram& h = state.histogram;
    EmitMetric(record.metrics, name + "_p10", h.Quantile(0.10));
    EmitMetric(record.metrics, name + "_p50", h.Quantile(0.50));
    EmitMetric(record.metrics, name + "_p90", h.Quantile(0.90));
    EmitMetric(record.metrics, name + "_mean", state.summary.mean());
    EmitMetric(record.metrics, name + "_min", state.summary.min());
    EmitMetric(record.metrics, name + "_max", state.summary.max());

    DistributionSnapshot snapshot;
    snapshot.lo = h.bin_lower(0);
    snapshot.bin_width = h.bin_count() > 0 ? h.bin_lower(1) - h.bin_lower(0) : 1.0;
    snapshot.bins.reserve(h.bin_count());
    for (size_t i = 0; i < h.bin_count(); ++i) {
      snapshot.bins.push_back(h.bin(i));
    }
    snapshot.underflow = h.underflow();
    snapshot.overflow = h.overflow();
    snapshot.total = h.total();
    snapshot.min = state.summary.min();
    snapshot.max = state.summary.max();
    snapshot.mean = state.summary.mean();
    record.distributions.emplace(name, std::move(snapshot));
  }
  for (const auto& [name, value] : returned.metrics) {
    EmitMetric(record.metrics, name, value);
  }
  return record;
}

}  // namespace wlansim
