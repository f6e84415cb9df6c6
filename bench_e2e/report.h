// Result collection and output for bench_e2e: a human-readable table, the
// one-line JSON summary printed as the last line of stdout, and a fuller
// JSON result file (run metadata plus n and p50/p99 per metric).

#ifndef BENCH_E2E_REPORT_H_
#define BENCH_E2E_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bench_e2e {

/// Nearest-rank percentile (p in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t n = 1;              // samples behind the value
  bool distribution = false;  // p50 / p99 are meaningful
  double p50 = 0;
  double p99 = 0;
};

/// Run metadata recorded in the result file.
struct RunInfo {
  std::string workload;
  uint64_t seed = 0;
  double scale = 0;
  double seconds = 0;
  bool traced = false;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t n = 1);
  /// Adds a metric whose value summarizes `samples` (its mean, or a
  /// percentile of them), recording n, p50 and p99 of the samples.
  void AddSamples(const std::string& name, double value,
                  const std::string& unit, const std::vector<double>& samples);

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// "<workload> <name> <value> <unit>" per metric.
  std::string Table(const std::string& workload) const;

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string SummaryLine(bool correct, uint64_t attempted,
                          uint64_t failed) const;

  /// Writes the full result (metadata, git sha, nproc, per-metric n and
  /// p50/p99) as JSON. False on I/O failure.
  bool WriteJson(const std::string& path, const RunInfo& info, bool correct,
                 uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace bench_e2e

#endif  // BENCH_E2E_REPORT_H_
