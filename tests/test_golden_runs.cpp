// Golden run fingerprints: the gate on the run loop's bit-identity.
//
// Every run in a fixed matrix — the Table-I presets over synthetic
// workloads (serially and through runManyParallel), a whole-trace replay,
// a phase-sampled replay, and checkpoint->resume of the synthetic gcc runs
// — is hashed (64-bit FNV-1a over sweep::encodeRunOutput, which carries
// every RunOutput scalar, every interface and core counter and the full
// energy StatSet) and compared against tests/golden/runs.golden. Budgets
// are pinned here, so the MALEC_INSTR knob never changes what runs.
//
// A mismatch names the run, both hashes and the headline fields that
// moved, and writes the file this build computes to the test temp dir. An
// intentional model change is then a reviewed diff of runs.golden: copy
// the printed file over tests/golden/runs.golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/check.h"
#include "phase/planner.h"
#include "phase/sample_plan.h"
#include "sim/differential.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "sweep/result_codec.h"
#include "trace/workloads.h"

#ifndef MALEC_TEST_DATA_DIR
#error "MALEC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace malec::sim {
namespace {

constexpr std::uint64_t kInstrs = 8000;

std::string tmpPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::string goldenPath() {
  return std::string(MALEC_TEST_DATA_DIR) + "/golden/runs.golden";
}

const std::vector<core::InterfaceConfig>& tableIPresets() {
  static const std::vector<core::InterfaceConfig> presets{
      presetBase1ldst(), presetBase2ld1st(), presetMalec()};
  return presets;
}

RunConfig synthConfig(const char* bench, const core::InterfaceConfig& cfg,
                      std::uint64_t instrs) {
  RunConfig rc;
  rc.workload = trace::workloadByName(bench);
  rc.interface_cfg = cfg;
  rc.system = defaultSystem();
  rc.instructions = instrs;
  rc.seed = 1;
  return rc;
}

/// One run of the matrix: its golden label and configuration.
struct GoldenCase {
  std::string label;  ///< mode/workload/config
  RunConfig rc;
};

/// The captured inputs of the replay and sampled modes, written once per
/// process into the test temp dir and removed at exit.
struct Captures {
  std::string gcc = tmpPath("golden_gcc.mtrace");
  std::string gap = tmpPath("golden_gap.mtrace");

  Captures() {
    captureTrace(synthConfig("gcc", presetMalec(), kInstrs), gcc);
    captureTrace(synthConfig("gap", presetMalec(), 3 * kInstrs), gap);
    phase::PlanParams params;
    params.interval_size = kInstrs / 2;
    params.phases = 2;
    params.warmup_instructions = kInstrs / 4;
    std::string err;
    const bool ok = phase::saveSamplePlan(phase::buildSamplePlan(gap, params),
                                          phase::planSidecarPath(gap), err);
    MALEC_CHECK_MSG(ok, err.c_str());
  }
  ~Captures() {
    std::remove(gcc.c_str());
    std::remove(phase::planSidecarPath(gap).c_str());
    std::remove(gap.c_str());
  }
};

const Captures& captures() {
  static const Captures c;
  return c;
}

std::vector<GoldenCase> synthCases() {
  std::vector<GoldenCase> cases;
  for (const char* bench : {"gcc", "mcf", "gap", "djpeg"})
    for (const core::InterfaceConfig& cfg : tableIPresets())
      cases.push_back({std::string("synth/") + bench + "/" + cfg.name,
                       synthConfig(bench, cfg, kInstrs)});
  return cases;
}

std::vector<GoldenCase> replayCases() {
  std::vector<GoldenCase> cases;
  for (const core::InterfaceConfig& cfg : tableIPresets()) {
    RunConfig rc = synthConfig("gcc", cfg, 0);  // 0 = the whole capture
    rc.workload = traceWorkload(captures().gcc);
    cases.push_back({"replay/gcc/" + cfg.name, rc});
  }
  return cases;
}

std::vector<GoldenCase> sampledCases() {
  std::vector<GoldenCase> cases;
  for (const core::InterfaceConfig& cfg : tableIPresets()) {
    RunConfig rc = synthConfig("gap", cfg, 0);  // the plan picks the budget
    rc.workload = sampledWorkload(traceWorkload(captures().gap));
    cases.push_back({"sampled/gap/" + cfg.name, rc});
  }
  return cases;
}

std::vector<GoldenCase> allCases() {
  std::vector<GoldenCase> cases = synthCases();
  const std::vector<GoldenCase> replay = replayCases();
  const std::vector<GoldenCase> sampled = sampledCases();
  cases.insert(cases.end(), replay.begin(), replay.end());
  cases.insert(cases.end(), sampled.begin(), sampled.end());
  return cases;
}

std::uint64_t fingerprint(const RunOutput& out) {
  const std::vector<std::uint8_t> blob = sweep::encodeRunOutput(out);
  return binio::fnv1a(binio::kFnvOffset, blob.data(), blob.size());
}

/// The golden line's fields after the label: the hash, then the headline
/// numbers that name what moved when the hash does.
std::vector<std::string> goldenFields(const RunOutput& out) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fingerprint(out));
  std::vector<std::string> fields{buf};
  fields.push_back("cycles=" + std::to_string(out.cycles));
  fields.push_back("instructions=" + std::to_string(out.instructions));
  std::snprintf(buf, sizeof buf, "total_pj=%a", out.total_pj);
  fields.push_back(buf);
  return fields;
}

std::string goldenLine(const std::string& label, const RunOutput& out) {
  std::string line = label;
  for (const std::string& f : goldenFields(out)) line += " " + f;
  return line;
}

/// label -> fields of every line in runs.golden ('#' lines are comments).
const std::map<std::string, std::vector<std::string>>& goldenFile() {
  static const std::map<std::string, std::vector<std::string>> golden = [] {
    std::map<std::string, std::vector<std::string>> m;
    std::ifstream in(goldenPath());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream words(line);
      std::string label, field;
      words >> label;
      while (words >> field) m[label].push_back(field);
    }
    return m;
  }();
  return golden;
}

/// Re-run the whole matrix serially and write what this build produces in
/// runs.golden's format, once per process; returns the path.
const std::string& writeRegenerated() {
  static const std::string path = [] {
    const std::string p = tmpPath("runs.golden");
    std::ofstream out(p);
    out << "# Golden run fingerprints, checked by tests/test_golden_runs.cpp.\n"
           "# label, FNV-1a 64 of sweep::encodeRunOutput, headline fields.\n"
           "# A failing test_golden_runs writes the file its build computes\n"
           "# and prints the path: review the diff, then copy it here.\n";
    for (const GoldenCase& c : allCases())
      out << goldenLine(c.label, runOne(c.rc)) << "\n";
    return p;
  }();
  return path;
}

/// Expect `out` to match the golden line for `label`; on a mismatch the
/// failure names the label, both hashes and every moved headline field.
void expectGolden(const std::string& label, const RunOutput& out) {
  const std::vector<std::string> got = goldenFields(out);
  const auto it = goldenFile().find(label);
  if (it == goldenFile().end()) {
    ADD_FAILURE() << label << ": no line in " << goldenPath()
                  << "\n  computed: " << goldenLine(label, out)
                  << "\n  regenerated file: " << writeRegenerated();
    return;
  }
  const std::vector<std::string>& want = it->second;
  if (got == want) return;
  std::ostringstream msg;
  msg << label << ": fingerprint mismatch\n  golden hash "
      << (want.empty() ? "<none>" : want[0]) << "\n  actual hash " << got[0];
  for (std::size_t i = 1; i < got.size(); ++i) {
    const std::string golden = i < want.size() ? want[i] : "<missing>";
    if (golden != got[i])
      msg << "\n  golden " << golden << " -> actual " << got[i];
  }
  msg << "\n  regenerated file: " << writeRegenerated();
  ADD_FAILURE() << msg.str();
}

TEST(GoldenRuns, SyntheticSerial) {
  for (const GoldenCase& c : synthCases()) expectGolden(c.label, runOne(c.rc));
}

TEST(GoldenRuns, SyntheticParallel) {
  const std::vector<GoldenCase> cases = synthCases();
  std::vector<RunConfig> rcs;
  for (const GoldenCase& c : cases) rcs.push_back(c.rc);
  const std::vector<RunOutput> outs = runManyParallel(rcs, /*jobs=*/4);
  ASSERT_EQ(outs.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i)
    expectGolden(cases[i].label, outs[i]);
}

TEST(GoldenRuns, TraceReplay) {
  for (const GoldenCase& c : replayCases())
    expectGolden(c.label, runOne(c.rc));
}

TEST(GoldenRuns, PhaseSampledReplay) {
  for (const GoldenCase& c : sampledCases())
    expectGolden(c.label, runOne(c.rc));
}

TEST(GoldenRuns, ResumedRunsMatchStraightThrough) {
  // A checkpoint written midway and resumed must land on the
  // straight-through run's line, not a line of its own.
  const std::string ckpt = tmpPath("golden_resume.mckpt");
  for (const core::InterfaceConfig& cfg : tableIPresets()) {
    const RunConfig rc = synthConfig("gcc", cfg, kInstrs);
    RunConfig writing = rc;
    writing.ckpt_out = ckpt;
    writing.ckpt_every = kInstrs / 2;
    (void)runOne(writing);
    RunConfig resuming = rc;
    resuming.start_ckpt = ckpt;
    expectGolden("synth/gcc/" + cfg.name, runOne(resuming));
    std::remove(ckpt.c_str());
  }
}

TEST(GoldenRuns, FileListsExactlyTheMatrix) {
  // A stale line (a run that left the matrix) would otherwise linger
  // unchecked.
  std::vector<std::string> want;
  for (const GoldenCase& c : allCases()) want.push_back(c.label);
  std::vector<std::string> got;
  for (const auto& [label, fields] : goldenFile()) got.push_back(label);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << "runs.golden and the run matrix disagree";
}

TEST(GoldenRuns, DiffOutputsActuallyDetectsDifferences) {
  // Guard the comparator the checkpoint and sampled tests assert with: a
  // harness that can never fail proves nothing. Perturb one field at a
  // time and expect it to be named.
  const RunOutput a = runOne(synthConfig("gcc", presetMalec(), 2000));
  RunOutput b = a;
  EXPECT_EQ(diffOutputs(a, b), "");
  b.cycles += 1;
  EXPECT_NE(diffOutputs(a, b).find("cycles"), std::string::npos);
  b = a;
  b.total_pj += 1.0;
  EXPECT_NE(diffOutputs(a, b).find("total_pj"), std::string::npos);
  b = a;
  b.core.loads += 1;
  EXPECT_NE(diffOutputs(a, b).find("core counter"), std::string::npos);
  b = a;
  b.ifc.loads_submitted += 1;
  EXPECT_NE(diffOutputs(a, b).find("ifc counter"), std::string::npos);
}

}  // namespace
}  // namespace malec::sim
