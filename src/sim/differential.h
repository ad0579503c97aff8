// Field-by-field RunOutput comparison: the assertion behind every
// bit-identity contract in the tests (checkpoint resume, phase-sampled
// determinism, golden run fingerprints), naming what differs instead of
// just failing.
//
// The contract matches docs/ARCHITECTURE.md "Checkpoint determinism":
// "bit-identical" means every RunOutput scalar, every interface and core
// counter, and the byte-exact energy report table.
#pragma once

#include <string>

#include "sim/experiment.h"

namespace malec::sim {

/// Compare two RunOutputs exhaustively: identity fields, timing, the
/// derived doubles (compared bit-exactly, not within a tolerance), every
/// InterfaceStats and CoreStats counter, and the full energy report via
/// StatSet::toTable(). Returns "" when identical, otherwise a newline-
/// separated list of the differing fields with both values.
[[nodiscard]] std::string diffOutputs(const RunOutput& a, const RunOutput& b);

}  // namespace malec::sim
