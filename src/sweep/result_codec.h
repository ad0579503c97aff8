// RunOutput wire codec: one run's full result as a self-delimiting byte
// blob. The result store (`.mstore`) keeps one blob per run and the golden
// run fingerprints (tests/golden/runs.golden) hash it, so its bytes are a
// contract (docs/FILE_FORMATS.md, "Primitive encoding").
//
// Every field of RunOutput travels — the scalar metrics, every
// InterfaceStats counter (kInterfaceCounterFields keeps the listing
// complete by static_assert), every CoreStats counter, and the full
// energy-report StatSet — because table row rules are arbitrary functions
// over RunOutput: a partial result would silently zero whichever metric
// the next spec reads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace malec::sweep {

/// Serialize `out` into a self-delimiting byte blob.
[[nodiscard]] std::vector<std::uint8_t> encodeRunOutput(
    const sim::RunOutput& out);

/// Decode a blob produced by encodeRunOutput. Returns false (with `err`
/// set) on any structural problem — short blob, trailing bytes, bad field
/// counts — without aborting: the store reports a bad blob as a corrupt
/// file, not a crash.
[[nodiscard]] bool decodeRunOutput(const std::uint8_t* p, std::size_t n,
                                   sim::RunOutput& out, std::string& err);

}  // namespace malec::sweep
