// The four benchmark workloads. Each runs in one process: a set-up phase
// (repeated; its median is setup_s), a measured phase of repetitions for
// `seconds` (medians), output checks, and — when traced — a separate pass
// through the decorated pipeline for the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "phase/planner.h"
#include "sim/experiment.h"
#include "report.h"

namespace perfbench {

/// Problem sizes. `full()` is what the benchmark measures; `tiny()` keeps
/// the same code paths small enough for the unit tests.
struct Sizes {
  std::uint64_t synth_instr = 0;         ///< per synth_malec profile
  std::uint64_t synth_warmup_instr = 0;  ///< set-up warm-up, per profile
  std::uint64_t replay_records = 0;      ///< per replay_base capture
  std::uint64_t sampled_records = 0;     ///< the sampled_malec capture
  malec::phase::PlanParams plan;
  std::uint64_t sweep_instr = 0;         ///< per fig4 grid cell
  std::uint64_t sweep_warmup_instr = 0;  ///< set-up warm-up, per cell
  unsigned setup_reps = 3;               ///< set-ups per run (median)
  unsigned min_reps = 3;                 ///< measured repetitions, at least

  [[nodiscard]] static Sizes full();
  [[nodiscard]] static Sizes tiny();
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string work_dir;  ///< scratch files (captures, checkpoints, stores)
  Sizes sizes = Sizes::full();
};

struct Result {
  /// Untraced runs: the end-to-end metrics, workload-specific ones
  /// included. Traced runs: every per-layer metric of the layers the
  /// workload runs.
  std::vector<Metric> metrics;
  /// (label, fingerprint) of every distinct RunOutput, in run order.
  std::vector<std::pair<std::string, std::uint64_t>> fingerprints;
  std::uint64_t attempted = 0;  ///< simulation runs + equivalence checks
  std::uint64_t failed = 0;     ///< failed checks
  std::vector<std::string> failures;
  std::string chrome_trace;  ///< traced runs only
  std::string layer_table;   ///< traced runs only
};

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Run one workload. Aborts on an unknown name.
[[nodiscard]] Result runWorkload(const Options& opt);

/// The paper values the fidelity metrics compare against.
inline constexpr double kPaperFig4aMalec = 86.0;  ///< Fig. 4a exec time
inline constexpr double kPaperFig4bMalec = 78.0;  ///< Fig. 4b total energy
inline constexpr double kPaperWtCoverage = 94.0;  ///< Sec. VI-C coverage

/// A fig4 grid (rows = workloads, columns = sim::fig4Configs()) reduced
/// the way the repository's tables reduce it: overall geometric means over
/// the workloads of MALEC's execution time and total energy normalised to
/// Base1ldst (the fig4a / fig4b tables), and of MALEC's way coverage in %
/// (the WT column of the wdu_vs_wt table).
struct Fidelity {
  double fig4a_malec = 0.0;
  double fig4b_malec = 0.0;
  double wt_coverage = 0.0;
};
[[nodiscard]] Fidelity fig4Fidelity(
    const std::vector<std::vector<malec::sim::RunOutput>>& grid);

}  // namespace perfbench
