#include "report.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#ifndef BENCH_E2E_GIT_SHA
#define BENCH_E2E_GIT_SHA "unknown"
#endif

namespace bench_e2e {

namespace {

/// Every digit of `v`; JSON has no infinity, so a failed request's +inf
/// latency prints as the largest double.
std::string Number(double v) {
  if (std::isnan(v)) v = 0;
  if (std::isinf(v)) v = v > 0 ? DBL_MAX : -DBL_MAX;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t n) {
  metrics_.push_back({.name = name, .value = value, .unit = unit, .n = n});
}

void Report::AddSamples(const std::string& name, double value,
                        const std::string& unit,
                        const std::vector<double>& samples) {
  metrics_.push_back({.name = name,
                      .value = value,
                      .unit = unit,
                      .n = samples.size(),
                      .distribution = true,
                      .p50 = Percentile(samples, 0.5),
                      .p99 = Percentile(samples, 0.99)});
}

std::string Report::Table(const std::string& workload) const {
  std::ostringstream out;
  for (const Metric& m : metrics_) {
    out << workload << ' ' << m.name << ' ' << Number(m.value) << ' '
        << m.unit << '\n';
  }
  return out.str();
}

std::string Report::SummaryLine(bool correct, uint64_t attempted,
                                uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
        << Number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

bool Report::WriteJson(const std::string& path, const RunInfo& info,
                       bool correct, uint64_t attempted,
                       uint64_t failed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"bench\": \"bench_e2e\",\n  \"git_sha\": \"%s\",\n"
               "  \"nproc\": %u,\n  \"dataset\": \"yago3\",\n"
               "  \"scale\": %s,\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"seconds\": %s,\n  \"traced\": %s,\n  \"correct\": %s,\n"
               "  \"attempted\": %llu,\n  \"failed\": %llu,\n"
               "  \"metrics\": {",
               BENCH_E2E_GIT_SHA, std::thread::hardware_concurrency(),
               Number(info.scale).c_str(), info.workload.c_str(),
               static_cast<unsigned long long>(info.seed),
               Number(info.seconds).c_str(), info.traced ? "true" : "false",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                    "\"n\": %zu",
                 i ? "," : "", m.name.c_str(), Number(m.value).c_str(),
                 m.unit.c_str(), m.n);
    if (m.distribution) {
      std::fprintf(f, ", \"p50\": %s, \"p99\": %s", Number(m.p50).c_str(),
                   Number(m.p99).c_str());
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench_e2e
