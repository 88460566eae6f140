// Aggregate statistics over replication samples — mean / stddev / 95 %
// confidence interval / exact quantiles — and the shared CSV/JSON writers
// every output path formats them with.

#ifndef WLANSIM_RUNNER_RESULT_SINK_H_
#define WLANSIM_RUNNER_RESULT_SINK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wlansim {

// Aggregate of one metric across replications.
struct MetricAggregate {
  std::string metric;
  uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;    // sample standard deviation
  double ci95_half = 0.0; // Student-t 95 % confidence half-width on the mean
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;  // exact sample median
  double p95 = 0.0;  // exact sample 95th percentile
};

// Exact sample quantile with linear interpolation between order statistics
// (the R type-7 / NumPy default): for n values, rank h = (n-1)q, result is
// v[floor(h)] + (h - floor(h)) * (v[floor(h)+1] - v[floor(h)]). `values`
// need not be sorted; it is copied. Returns 0 for an empty sample. The
// reference the aggregation tests compare against.
double ExactQuantile(std::vector<double> values, double q);

// Two-sided 95 % Student-t critical value for `df` degrees of freedom
// (asymptotically 1.960). Exposed for the aggregation test.
double StudentT95(uint64_t df);

// The one aggregation every output path runs — the campaign engine's
// per-point fold, `wlansim_results aggregate`, export, and the query
// server: Welford mean/stddev/CI over `values` in the given (replication)
// order, then exact p50/p95 read off the column sorted once. Taken by
// value: a caller done with its column moves it in and the sort reuses it.
MetricAggregate AggregateScalarSamples(const std::string& name, std::vector<double> values);

// RFC 4180 field quoting: fields containing a comma, double quote, CR or LF
// are wrapped in double quotes with embedded quotes doubled; everything else
// passes through unchanged. Applied to every name/value the CSV writers
// emit, so a scenario, metric or parameter name can contain any character
// without corrupting rows.
std::string CsvField(const std::string& field);

// The fixed-width, locale-independent "%.9g" number format every CSV/JSON
// writer uses, so identical campaigns produce byte-identical files.
std::string CsvNum(double v);

// One row of a long-format sweep CSV: the swept parameter values (parallel
// to the key list handed to SweepLongCsv) plus that point's aggregates.
struct SweepRow {
  std::vector<std::string> param_values;
  std::vector<MetricAggregate> aggregates;
};

// Long-format aggregate CSV: header `<param_keys...>,metric,count,mean,
// stddev,ci95_half,min,max,p50,p95`, then one row per (grid point, metric).
// Rows from a shard slice concatenate under a single header into exactly
// the unsharded output. With no keys this is the campaign aggregate table.
std::string SweepLongCsv(const std::vector<std::string>& param_keys,
                         const std::vector<SweepRow>& rows);

// The pieces SweepLongCsv is assembled from, shared with the streaming
// writer, the binary-export path and the query server so their bytes
// cannot drift: the header line, and one grid point's block of rows.
std::string SweepLongCsvHeader(const std::vector<std::string>& param_keys);
std::string SweepLongCsvRows(const std::vector<std::string>& param_values,
                             const std::vector<MetricAggregate>& aggregates);

// {"scenario": ..., "replications": N, "metrics": {name: {...}, ...}}
std::string AggregatesToJson(const std::string& scenario_name, uint64_t replications,
                             const std::vector<MetricAggregate>& aggregates);

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_RESULT_SINK_H_
