#include "runner/result_sink.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "stats/summary.h"

namespace wlansim {
namespace {

// Local alias for the shared formatter; kept terse because every writer
// line uses it.
std::string Num(double v) { return CsvNum(v); }

}  // namespace

// Fixed-width, locale-independent number formatting so identical campaigns
// produce byte-identical files.
std::string CsvNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string CsvField(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) {
    return field;
  }
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') {
      quoted += '"';
    }
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

double StudentT95(uint64_t df) {
  // Two-sided 95 % critical values; exact to three decimals for df <= 30,
  // then the standard interpolation anchors. Campaigns with one replication
  // have no variance estimate: return infinity so the CI is honest.
  static const double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) {
    return std::numeric_limits<double>::infinity();
  }
  if (df <= 30) {
    return kTable[df - 1];
  }
  if (df <= 40) {
    return 2.021;
  }
  if (df <= 60) {
    return 2.000;
  }
  if (df <= 120) {
    return 1.980;
  }
  return 1.960;
}

namespace {

// ExactQuantile on an already-sorted sample, so a fold can sort each
// column once and read several quantiles off it.
double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double h = static_cast<double>(sorted.size() - 1) * q;
  const size_t lo = static_cast<size_t>(h);
  if (lo + 1 >= sorted.size()) {
    return sorted.back();
  }
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

}  // namespace

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

MetricAggregate AggregateScalarSamples(const std::string& name, std::vector<double> values) {
  Summary summary;
  for (double v : values) {
    summary.Add(v);
  }
  MetricAggregate agg;
  agg.metric = name;
  agg.count = summary.count();
  agg.mean = summary.mean();
  agg.stddev = summary.stddev();
  agg.ci95_half = summary.count() > 1
                      ? StudentT95(summary.count() - 1) * summary.stddev() /
                            std::sqrt(static_cast<double>(summary.count()))
                      : 0.0;
  agg.min = summary.min();
  agg.max = summary.max();
  // One sort serves both quantiles: bit-identical to two ExactQuantile
  // calls, at half the sorting.
  std::sort(values.begin(), values.end());
  agg.p50 = QuantileSorted(values, 0.50);
  agg.p95 = QuantileSorted(values, 0.95);
  return agg;
}

std::string SweepLongCsvHeader(const std::vector<std::string>& param_keys) {
  std::string csv;
  for (const std::string& key : param_keys) {
    csv += CsvField(key) + ",";
  }
  csv += "metric,count,mean,stddev,ci95_half,min,max,p50,p95\n";
  return csv;
}

std::string SweepLongCsvRows(const std::vector<std::string>& param_values,
                             const std::vector<MetricAggregate>& aggregates) {
  std::string prefix;
  for (const std::string& value : param_values) {
    prefix += CsvField(value) + ",";
  }
  std::string csv;
  for (const MetricAggregate& a : aggregates) {
    csv += prefix + CsvField(a.metric) + "," + std::to_string(a.count) + "," + Num(a.mean) + "," +
           Num(a.stddev) + "," + Num(a.ci95_half) + "," + Num(a.min) + "," + Num(a.max) + "," +
           Num(a.p50) + "," + Num(a.p95) + "\n";
  }
  return csv;
}

std::string SweepLongCsv(const std::vector<std::string>& param_keys,
                         const std::vector<SweepRow>& rows) {
  std::string csv = SweepLongCsvHeader(param_keys);
  for (const SweepRow& row : rows) {
    assert(row.param_values.size() == param_keys.size());
    csv += SweepLongCsvRows(row.param_values, row.aggregates);
  }
  return csv;
}

std::string AggregatesToJson(const std::string& scenario_name, uint64_t replications,
                             const std::vector<MetricAggregate>& aggregates) {
  std::string json = "{\n  \"scenario\": \"" + scenario_name + "\",\n  \"replications\": " +
                     std::to_string(replications) + ",\n  \"metrics\": {";
  bool first = true;
  for (const MetricAggregate& a : aggregates) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"" + a.metric + "\": {\"count\": " + std::to_string(a.count) +
            ", \"mean\": " + Num(a.mean) + ", \"stddev\": " + Num(a.stddev) +
            ", \"ci95_half\": " + Num(a.ci95_half) + ", \"min\": " + Num(a.min) +
            ", \"max\": " + Num(a.max) + ", \"p50\": " + Num(a.p50) + ", \"p95\": " + Num(a.p95) +
            "}";
  }
  json += "\n  }\n}\n";
  return json;
}

}  // namespace wlansim
