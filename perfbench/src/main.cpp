// perfbench — one workload of the repository benchmark per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--out-dir DIR] [--commit C]
//             [--source-digest D]
//
// Prints one `fingerprint <label> <hex>` line per distinct simulation
// output, a `report {...}` line with every metric of the run plus the host
// and build fingerprint, and — as the last line — the result object
// `{"correct", "attempted", "failed", "metrics"}` holding the metrics
// BENCHMARK.json declares: the end-to-end set untraced, the per-layer set
// traced. A traced run also writes its spans as Chrome trace-event JSON
// and a per-layer self-time table into --out-dir. Exits 1 when an output
// check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "report.h"
#include "sim/experiment.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--out-dir DIR] [--commit C] "
               "[--source-digest D]\n",
               msg);
  std::exit(2);
}

bool writeFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string out_dir, commit, digest;
  bool have_workload = false, have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = malec::sim::parseU64Strict(val, "--seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<double>(
          malec::sim::parseU64Strict(val, "--seconds"));
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      opt.traced = val == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      opt.work_dir = val;
    } else if (arg == "--out-dir") {
      out_dir = val;
    } else if (arg == "--commit") {
      commit = val;
    } else if (arg == "--source-digest") {
      digest = val;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_trace || opt.work_dir.empty())
    usage("--workload, --seed, --trace and --work-dir are required");
  bool known = false;
  for (const std::string& w : workloadNames()) known = known || w == opt.workload;
  if (!known) usage(("unknown workload " + opt.workload).c_str());

  const Result res = runWorkload(opt);

  for (const auto& [label, fp] : res.fingerprints)
    std::printf("fingerprint %s %016llx\n", label.c_str(),
                static_cast<unsigned long long>(fp));
  for (const std::string& f : res.failures)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());

  if (opt.traced) {
    if (out_dir.empty()) out_dir = opt.work_dir;
    std::filesystem::create_directories(out_dir);
    const std::string stem = out_dir + "/" + opt.workload + "_seed" +
                             std::to_string(opt.seed);
    if (!writeFile(stem + ".spans.json", res.chrome_trace) ||
        !writeFile(stem + ".layers.txt", res.layer_table)) {
      std::fprintf(stderr, "perfbench: cannot write span dumps under %s\n",
                   out_dir.c_str());
      return 1;
    }
    std::printf("%s", res.layer_table.c_str());
  }

  const HostInfo host = hostInfo(commit, digest, opt.seed);
  std::printf(
      "report {\"workload\": %s, \"traced\": %s, \"host\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
      jsonString(opt.workload).c_str(), opt.traced ? "true" : "false",
      hostJson(host).c_str(), static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed),
      metricsJson(res.metrics).c_str());

  std::vector<Metric> declared;
  for (const std::string& name :
       opt.traced ? contractPerLayer() : contractEndToEnd())
    declared.push_back(findMetric(res.metrics, name));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      res.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed),
      metricsJson(declared).c_str());
  std::fflush(stdout);
  return res.failed == 0 ? 0 : 1;
}
