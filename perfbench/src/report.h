// Metric bookkeeping and result rendering: named metrics with units, the
// two contract metric sets BENCHMARK.json declares, medians, the host and
// build fingerprint and the process's peak resident memory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// End-to-end metrics every workload reports on an untraced run — the
/// `end_to_end` list of BENCHMARK.json, in its order.
[[nodiscard]] const std::vector<std::string>& contractEndToEnd();
/// Per-layer metrics every workload reports on a traced run — the
/// `per_layer` list of BENCHMARK.json, in its order.
[[nodiscard]] const std::vector<std::string>& contractPerLayer();

/// Median of a non-empty sample (mean of the middle two for even sizes).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100], of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Host-speed probe: a fixed kernel that does not use the simulator
/// (pseudo-random reads over a 4 MiB table mixed into an accumulator), run
/// for ~35 ms on `threads` threads at once. Returns the mean per-thread
/// rate in kernel iterations per second.
[[nodiscard]] double hostSpeed(unsigned threads);
/// The probe's typical rate on the host that produced the first steady
/// numbers (README.md); host-normalised metrics are expressed at it.
inline constexpr double kReferenceHostSpeed = 2.9e8;
/// How much slower than the reference host the simulator is expected to
/// run at probe rate `speed`: sqrt(kReferenceHostSpeed / speed). On a
/// shared host the simulator's throughput drifts with the neighbours' load
/// and the probe drifts with it, about twice as strongly (README.md), so
/// rate × hostFactor() stays put while a change to the simulator still
/// moves it fully.
[[nodiscard]] double hostFactor(double speed);

/// Peak resident set size of this process (VmHWM) in MB.
[[nodiscard]] double peakRssMb();

/// Host and build identity recorded with every result.
struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string commit;
  std::string source_digest;
  std::uint64_t seed = 0;
};
[[nodiscard]] HostInfo hostInfo(const std::string& commit,
                                const std::string& source_digest,
                                std::uint64_t seed);

[[nodiscard]] std::string jsonString(const std::string& s);
/// `{"name": {"value": v, "unit": "u"}, ...}` — values with full precision.
[[nodiscard]] std::string metricsJson(const std::vector<Metric>& ms);
[[nodiscard]] std::string hostJson(const HostInfo& h);

/// The metric named `name` in `ms`; aborts if it is missing.
[[nodiscard]] const Metric& findMetric(const std::vector<Metric>& ms,
                                       const std::string& name);

}  // namespace perfbench
