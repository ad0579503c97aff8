// Tests for the benchmark harness itself: the timing decorators never
// perturb a simulation, every workload emits the metrics it declares under
// valid names, fingerprints follow the seed, and the fidelity and sampled-
// error metrics agree with the repository's own experiment tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline.h"
#include "report.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "trace/workloads.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
namespace sim = malec::sim;
using perfbench::Metric;

fs::path tmpDir(const std::string& name) {
  const fs::path p = fs::path(PERFBENCH_TEST_TMP) / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

perfbench::Result runTiny(const std::string& workload, std::uint64_t seed,
                          bool traced, const fs::path& dir) {
  perfbench::Options opt;
  opt.workload = workload;
  opt.seed = seed;
  opt.seconds = 0;
  opt.traced = traced;
  opt.work_dir = dir.string();
  opt.sizes = perfbench::Sizes::tiny();
  return perfbench::runWorkload(opt);
}

std::map<std::string, double> byName(const std::vector<Metric>& ms) {
  std::map<std::string, double> out;
  for (const Metric& m : ms) out[m.name] = m.value;
  return out;
}

sim::RunConfig config(const malec::trace::WorkloadProfile& wl,
                      const malec::core::InterfaceConfig& cfg,
                      std::uint64_t instr) {
  sim::RunConfig rc;
  rc.workload = wl;
  rc.interface_cfg = cfg;
  rc.system = sim::defaultSystem();
  rc.instructions = instr;
  rc.seed = 11;
  return rc;
}

/// One row of a CSV table written by malec_bench's csv sink.
std::vector<std::string> csvRow(const fs::path& file, const std::string& label) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    if (!cells.empty() && cells[0] == label) return cells;
  }
  ADD_FAILURE() << "no row '" << label << "' in " << file;
  return {};
}

/// The metric-name rule of the benchmark contract: [A-Za-z0-9_.-]+.
bool validMetricName(const std::string& name) {
  static const std::regex re("[A-Za-z0-9_.-]+");
  return std::regex_match(name, re);
}

int runMalecBench(const std::string& args, const std::string& env = "") {
  const std::string cmd =
      env + " " + PERFBENCH_MALEC_BENCH + " " + args + " >/dev/null 2>&1";
  return std::system(cmd.c_str());
}

TEST(Decorators, TracedPipelineEqualsRunOneOnSyntheticRuns) {
  for (const auto& cfg : {sim::presetMalec(), sim::presetBase2ld1st(),
                          sim::presetBase1ldst()}) {
    const sim::RunConfig rc =
        config(malec::trace::workloadByName("mcf"), cfg, 30'000);
    perfbench::SpanRecorder spans(true);
    const perfbench::ProbedRun pr = perfbench::runProbed(rc, spans, 0);
    EXPECT_EQ(perfbench::fingerprint(pr.out),
              perfbench::fingerprint(sim::runOne(rc)))
        << cfg.name;
    // Every simulated cycle passed the interface boundary exactly once.
    EXPECT_EQ(pr.bounds.cycles, pr.out.cycles);
    EXPECT_EQ(pr.bounds.records, pr.out.instructions);
    EXPECT_GT(pr.bounds.ifc.calls, pr.bounds.cycles);
    EXPECT_GE(pr.run_s, pr.bounds.source.seconds + pr.bounds.ifc.seconds);
  }
}

TEST(Decorators, TracedReplayAndResumeEqualRunOne) {
  const fs::path dir = tmpDir("decorators");
  const std::string path = (dir / "gcc.mtrace").string();
  (void)sim::captureTrace(config(malec::trace::workloadByName("gcc"),
                                 sim::presetMalec(), 40'000),
                          path);
  const perfbench::CaptureTally ct = perfbench::captureProbed(
      config(malec::trace::workloadByName("gcc"), sim::presetMalec(), 40'000),
      (dir / "gcc_probed.mtrace").string());
  EXPECT_EQ(ct.records, 40'000u);
  EXPECT_EQ(fs::file_size(path), ct.bytes);

  const sim::RunConfig rc =
      config(sim::traceWorkload(path), sim::presetBase2ld1st(), 0);
  const std::uint64_t ref = perfbench::fingerprint(sim::runOne(rc));
  perfbench::SpanRecorder spans(false);
  perfbench::CkptRequest save;
  save.save_path = (dir / "run.mckpt").string();
  save.save_every = 25'000;
  const perfbench::ProbedRun saved = perfbench::runProbed(rc, spans, 0, 0, save);
  EXPECT_EQ(perfbench::fingerprint(saved.out), ref);
  EXPECT_EQ(saved.ckpt_save.calls, 1u);
  EXPECT_GT(saved.ckpt_bytes, 0u);
  perfbench::CkptRequest resume;
  resume.resume_path = save.save_path;
  const perfbench::ProbedRun resumed =
      perfbench::runProbed(rc, spans, 0, 0, resume);
  EXPECT_EQ(perfbench::fingerprint(resumed.out), ref);
  EXPECT_LT(resumed.bounds.records, saved.bounds.records);
}

TEST(Metrics, NamesAreValidAndDeclaredOnesAreEmitted) {
  for (const std::string& name : perfbench::contractEndToEnd())
    EXPECT_TRUE(validMetricName(name)) << name;
  for (const std::string& name : perfbench::contractPerLayer())
    EXPECT_TRUE(validMetricName(name)) << name;
  EXPECT_FALSE(validMetricName("bad name"));
  EXPECT_FALSE(validMetricName(""));

  // Workload-specific metrics, beyond the contract sets every workload
  // emits (failed_frac is emitted by both kinds of run).
  const std::map<std::string, std::vector<std::string>> untraced_extra = {
      {"synth_malec", {}},
      {"replay_base", {}},
      {"sampled_malec", {"sampled_ipc_err_pct", "sampled_energy_err_pct"}},
      {"sweep_fig4",
       {"fig4a_malec_err_pts", "fig4b_malec_err_pts", "wt_coverage_err_pts"}}};
  // The raw values behind the host-normalised contract metrics.
  const std::vector<std::string> untraced_raw = {"instr_per_s_raw",
                                                 "setup_s_raw", "host_speed"};
  const std::map<std::string, std::vector<std::string>> traced_extra = {
      {"synth_malec", {}},
      {"replay_base",
       {"trace.read_s", "trace.read_mb_per_s", "trace.write_mb_per_s",
        "ckpt.save_s", "ckpt.load_s", "ckpt.bytes", "ckpt.save_mb_per_s"}},
      {"sampled_malec",
       {"trace.read_s", "trace.read_mb_per_s", "trace.write_mb_per_s",
        "ckpt.bytes", "phase.plan_s", "phase.cold_s", "phase.warm_s",
        "phase.simulated_frac"}},
      {"sweep_fig4",
       {"sim.threads", "sim.run_s_p50", "sim.run_s_p90", "sim.parallel_eff",
        "sim.straggler_frac", "store.append_s", "store.query_s",
        "store.bytes"}}};

  for (const std::string& w : perfbench::workloadNames()) {
    for (const bool traced : {false, true}) {
      const perfbench::Result r = runTiny(w, 5, traced, tmpDir("names"));
      EXPECT_EQ(r.failed, 0u) << w;
      EXPECT_GT(r.attempted, 0u) << w;
      std::vector<std::string> want =
          traced ? perfbench::contractPerLayer() : perfbench::contractEndToEnd();
      const auto& extra = (traced ? traced_extra : untraced_extra).at(w);
      want.insert(want.end(), extra.begin(), extra.end());
      if (!traced)
        want.insert(want.end(), untraced_raw.begin(), untraced_raw.end());
      want.push_back("failed_frac");
      std::vector<std::string> got;
      for (const Metric& m : r.metrics) {
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(std::isfinite(m.value)) << w << " " << m.name;
        got.push_back(m.name);
      }
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << w << (traced ? " traced" : " untraced");
      if (traced) {
        EXPECT_NE(r.chrome_trace.find("\"traceEvents\""), std::string::npos);
        EXPECT_NE(r.chrome_trace.find("sim.run:"), std::string::npos);
        EXPECT_NE(r.layer_table.find("cpu"), std::string::npos);
        EXPECT_GE(byName(r.metrics).at("cpu.self_s"), 0.0) << w;
      }
    }
  }
}

TEST(Metrics, HostSpeedProbeIsPositiveOnOneAndSeveralThreads) {
  EXPECT_GT(perfbench::hostSpeed(1), 0.0);
  EXPECT_GT(perfbench::hostSpeed(2), 0.0);
}

TEST(Metrics, ContractSetsMatchBenchmarkJson) {
  std::ifstream in(fs::path(PERFBENCH_ROOT) / "BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json missing";
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::size_t e2e = text.find("\"end_to_end\"");
  const std::size_t layer = text.find("\"per_layer\"");
  ASSERT_NE(e2e, std::string::npos);
  ASSERT_NE(layer, std::string::npos);
  auto names = [&](std::size_t from, std::size_t to) {
    std::vector<std::string> out;
    const std::string key = "\"name\": \"";
    for (std::size_t at = text.find(key, from); at < to;
         at = text.find(key, at + 1)) {
      const std::size_t b = at + key.size();
      out.push_back(text.substr(b, text.find('"', b) - b));
    }
    return out;
  };
  const bool e2e_first = e2e < layer;
  EXPECT_EQ(names(e2e, e2e_first ? layer : text.size()),
            perfbench::contractEndToEnd());
  EXPECT_EQ(names(layer, e2e_first ? text.size() : e2e),
            perfbench::contractPerLayer());
}

TEST(Fingerprints, FollowTheSeed) {
  for (const std::string& w : perfbench::workloadNames()) {
    const perfbench::Result a = runTiny(w, 21, false, tmpDir("seed_a"));
    const perfbench::Result b = runTiny(w, 21, false, tmpDir("seed_b"));
    const perfbench::Result c = runTiny(w, 22, false, tmpDir("seed_c"));
    ASSERT_FALSE(a.fingerprints.empty()) << w;
    EXPECT_EQ(a.fingerprints, b.fingerprints) << w;
    ASSERT_EQ(a.fingerprints.size(), c.fingerprints.size()) << w;
    for (std::size_t i = 0; i < a.fingerprints.size(); ++i)
      EXPECT_NE(a.fingerprints[i].second, c.fingerprints[i].second)
          << w << " " << a.fingerprints[i].first;
  }
}

TEST(Fidelity, MatchesMalecBenchTables) {
  const fs::path dir = tmpDir("fidelity");
  const std::uint64_t seed = 7;
  const perfbench::Result r = runTiny("sweep_fig4", seed, false, dir / "work");
  const auto m = byName(r.metrics);
  const std::string common = "--instr " +
                             std::to_string(perfbench::Sizes::tiny().sweep_instr) +
                             " --seed " + std::to_string(seed) +
                             " --sink csv --csv-dir " + dir.string();
  ASSERT_EQ(runMalecBench("--suite fig4a " + common), 0);
  ASSERT_EQ(runMalecBench("--suite fig4b " + common), 0);
  ASSERT_EQ(runMalecBench("--suite wdu_vs_wt " + common), 0);

  // The tables print one decimal; the metric must round to the same value.
  const auto fig4a = csvRow(dir / "fig4a_time.csv", "geo.mean Overall");
  const auto fig4b = csvRow(dir / "fig4b_total.csv", "geo.mean Overall");
  const auto cover = csvRow(dir / "wdu_coverage.csv", "geo.mean");
  ASSERT_EQ(fig4a.size(), 6u);  // label + fig4Configs(), MALEC 4th
  ASSERT_EQ(fig4b.size(), 6u);
  ASSERT_EQ(cover.size(), 5u);  // label + WT + WDU8/16/32
  EXPECT_NEAR(m.at("fig4a_malec_err_pts"),
              std::fabs(std::stod(fig4a[4]) - perfbench::kPaperFig4aMalec),
              0.05 + 1e-9);
  EXPECT_NEAR(m.at("fig4b_malec_err_pts"),
              std::fabs(std::stod(fig4b[4]) - perfbench::kPaperFig4bMalec),
              0.05 + 1e-9);
  EXPECT_NEAR(m.at("wt_coverage_err_pts"),
              std::fabs(std::stod(cover[1]) - perfbench::kPaperWtCoverage),
              0.05 + 1e-9);
}

TEST(Fidelity, SampledErrorsMatchPhaseSampledSuite) {
  const fs::path dir = tmpDir("sampled");
  const std::uint64_t seed = 9;
  const perfbench::Result r = runTiny("sampled_malec", seed, false, dir / "work");
  const auto m = byName(r.metrics);
  // The workload leaves its capture and .mplan sidecar in the work
  // directory; the phase_sampled suite replays exactly that capture.
  ASSERT_EQ(runMalecBench("--suite phase_sampled --seed " +
                              std::to_string(seed) + " --sink csv --csv-dir " +
                              dir.string(),
                          "MALEC_TRACE_DIR=" + (dir / "work").string()),
            0);
  const auto row = csvRow(dir / "phase_sampled.csv", "trace:sampled_gcc MALEC");
  ASSERT_EQ(row.size(), 8u);
  EXPECT_NEAR(m.at("sampled_ipc_err_pct"), std::fabs(std::stod(row[3])),
              0.0005 + 1e-9);
  EXPECT_NEAR(m.at("sampled_energy_err_pct"), std::fabs(std::stod(row[6])),
              0.0005 + 1e-9);
}

}  // namespace
