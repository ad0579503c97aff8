// The traced simulation pipeline: the same stack sim::runOne builds
// (EnergyAccount + sim::defineEnergies, the trace source, sim::makeInterface,
// CoreModel), assembled here from public parts only so the timing
// decorators of probe.h can sit on the TraceSource and MemInterface
// boundaries. Its RunOutput must be bit-identical to sim::runOne's for the
// same RunConfig — the benchmark checks that on every traced run.
#pragma once

#include <cstdint>
#include <string>

#include "probe.h"
#include "sim/experiment.h"

namespace perfbench {

/// 64-bit FNV-1a over the full encoded RunOutput (every scalar, every
/// interface/core counter, the whole energy report), so two runs with the
/// same fingerprint produced the same outputs bit for bit.
[[nodiscard]] std::uint64_t fingerprint(const malec::sim::RunOutput& out);

/// Counters read off the EnergyAccount at the end of a traced run.
struct EnergyCounts {
  std::uint64_t events = 0;  ///< all dynamic events
  std::uint64_t utlb_searches = 0;
  std::uint64_t tlb_searches = 0;
};

/// Checkpoint options of a traced run: save the full state once at
/// `save_every` retired instructions, or resume from `resume_path`.
struct CkptRequest {
  std::string save_path;
  std::uint64_t save_every = 0;
  std::string resume_path;
};

/// What one traced simulation measured.
struct ProbedRun {
  malec::sim::RunOutput out;
  double run_s = 0.0;  ///< the CoreModel::run span
  BoundaryTotals bounds;
  EnergyCounts energy;
  Tally ckpt_save;
  Tally ckpt_load;
  std::uint64_t ckpt_bytes = 0;
};

/// Run `rc` (full replay or synthetic; not sampled) through the decorated
/// pipeline. Records a "sim.run" span under `parent` carrying the run's
/// layer self times, plus ckpt.save/ckpt.load spans when asked.
[[nodiscard]] ProbedRun runProbed(const malec::sim::RunConfig& rc,
                                  SpanRecorder& spans, std::uint64_t parent,
                                  std::uint32_t tid = 0,
                                  const CkptRequest& ckpt = {});

/// sim::captureTrace with the generator and the writer timed separately.
struct CaptureTally {
  BoundaryTotals gen;  ///< generator side (source.*)
  Tally write;         ///< TraceWriter::write + close
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
};
[[nodiscard]] CaptureTally captureProbed(const malec::sim::RunConfig& rc,
                                         const std::string& path);

}  // namespace perfbench
