#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/check.h"

namespace perfbench {

const std::vector<std::string>& contractEndToEnd() {
  static const std::vector<std::string> names = {"instr_per_s", "setup_s",
                                                 "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& contractPerLayer() {
  static const std::vector<std::string> names = {
      "trace.gen_s",           "trace.gen_records_per_s",
      "core.ifc_s",            "core.ifc_ns_per_op",
      "core.submit_reject_frac", "core.groups",
      "core.group_size",       "core.merged_load_frac",
      "core.ib_stall_cycles",  "core.bank_conflicts",
      "cpu.self_s",            "cpu.host_ns_per_sim_cycle",
      "cpu.quiet_cycle_frac",  "cpu.sim_cycles",
      "cpu.ipc",               "cpu.rob_full_cycles",
      "cpu.lq_stall_cycles",   "waydet.coverage",
      "waydet.lookups",        "waydet.reduced_frac",
      "mem.l1_load_miss_rate", "mem.l1_accesses",
      "lsq.sb_forwards",       "lsq.mb_forwards",
      "lsq.mbe_writes",        "tlb.utlb_searches",
      "tlb.tlb_searches",      "energy.dynamic_pj_per_instr",
      "energy.events",         "probe.overhead_pct"};
  return names;
}

double median(std::vector<double> v) {
  MALEC_CHECK_MSG(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  MALEC_CHECK_MSG(!v.empty(), "percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

double hostSpeed(unsigned threads) {
  constexpr std::size_t kTable = std::size_t{1} << 20;  // 4 MiB of u32
  constexpr std::uint64_t kIters = 10'000'000;
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kTable);
    for (std::size_t i = 0; i < kTable; ++i)
      t[i] = static_cast<std::uint32_t>(i * 2654435761u) & (kTable - 1);
    return t;
  }();
  std::vector<double> rates(threads, 0.0);
  auto kernel = [&](unsigned t) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull + t, acc = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      acc += table[(x >> 40) & (kTable - 1)];
      acc ^= acc << 7;
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    // Keep the accumulator observable so the loop cannot be elided.
    rates[t] = (static_cast<double>(kIters) + static_cast<double>(acc & 1)) / s;
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(kernel, t);
  kernel(0);
  for (std::thread& th : pool) th.join();
  double sum = 0.0;
  for (double r : rates) sum += r;
  return sum / static_cast<double>(threads);
}

double hostFactor(double speed) {
  return std::sqrt(kReferenceHostSpeed / speed);
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    // "VmHWM:   123456 kB"
    double kb = 0.0;
    if (std::sscanf(line.c_str() + 6, "%lf", &kb) == 1) return kb / 1024.0;
  }
  return 0.0;
}

HostInfo hostInfo(const std::string& commit, const std::string& source_digest,
                  std::uint64_t seed) {
  HostInfo h;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      h.cpu_model = line.substr(colon + 1);
      h.cpu_model.erase(0, h.cpu_model.find_first_not_of(' '));
    }
    break;
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.nproc = std::thread::hardware_concurrency();
  h.compiler = std::string("gcc ") + __VERSION__;
#ifdef __clang__
  h.compiler = std::string("clang ") + __clang_version__;
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.commit = commit.empty() ? "unknown" : commit;
  h.source_digest = source_digest.empty() ? "unknown" : source_digest;
  h.seed = seed;
  return h;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    MALEC_CHECK_MSG(std::isfinite(ms[i].value), ms[i].name.c_str());
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i == 0 ? "" : ", ") + jsonString(ms[i].name) +
           ": {\"value\": " + buf + ", \"unit\": " + jsonString(ms[i].unit) +
           "}";
  }
  return out + "}";
}

std::string hostJson(const HostInfo& h) {
  return "{\"cpu_model\": " + jsonString(h.cpu_model) +
         ", \"nproc\": " + std::to_string(h.nproc) +
         ", \"compiler\": " + jsonString(h.compiler) +
         ", \"build_type\": " + jsonString(h.build_type) +
         ", \"commit\": " + jsonString(h.commit) +
         ", \"source_digest\": " + jsonString(h.source_digest) +
         ", \"seed\": " + std::to_string(h.seed) + "}";
}

const Metric& findMetric(const std::vector<Metric>& ms,
                         const std::string& name) {
  for (const Metric& m : ms)
    if (m.name == name) return m;
  const std::string msg = "metric '" + name + "' was not produced";
  MALEC_CHECK_MSG(false, msg.c_str());
  return ms.front();  // unreachable
}

}  // namespace perfbench
