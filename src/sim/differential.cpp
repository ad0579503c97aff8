#include "sim/differential.h"

#include <cstddef>
#include <sstream>

#include "cpu/core_model.h"
#include "core/mem_interface.h"

namespace malec::sim {

namespace {

template <class T>
void diffField(std::ostringstream& out, const char* name, const T& a,
               const T& b) {
  if (a == b) return;
  out << name << ": " << a << " != " << b << "\n";
}

}  // namespace

std::string diffOutputs(const RunOutput& a, const RunOutput& b) {
  std::ostringstream out;
  diffField(out, "benchmark", a.benchmark, b.benchmark);
  diffField(out, "config", a.config, b.config);
  diffField(out, "cycles", a.cycles, b.cycles);
  diffField(out, "instructions", a.instructions, b.instructions);
  // Doubles compare with ==, deliberately: the contract is bit identity,
  // not numerical closeness.
  diffField(out, "ipc", a.ipc, b.ipc);
  diffField(out, "dynamic_pj", a.dynamic_pj, b.dynamic_pj);
  diffField(out, "leakage_pj", a.leakage_pj, b.leakage_pj);
  diffField(out, "total_pj", a.total_pj, b.total_pj);
  diffField(out, "way_coverage", a.way_coverage, b.way_coverage);
  diffField(out, "l1_load_miss_rate", a.l1_load_miss_rate,
            b.l1_load_miss_rate);
  diffField(out, "merged_load_fraction", a.merged_load_fraction,
            b.merged_load_fraction);
  for (std::size_t i = 0; i < std::size(core::kInterfaceCounterFields); ++i) {
    const auto field = core::kInterfaceCounterFields[i];
    if (a.ifc.*field != b.ifc.*field)
      out << "ifc counter #" << i << ": " << a.ifc.*field << " != "
          << b.ifc.*field << "\n";
  }
  diffField(out, "core.cycles", a.core.cycles, b.core.cycles);
  diffField(out, "core.instructions", a.core.instructions,
            b.core.instructions);
  for (std::size_t i = 0; i < std::size(cpu::kCoreScaledCounterFields); ++i) {
    const auto field = cpu::kCoreScaledCounterFields[i];
    if (a.core.*field != b.core.*field)
      out << "core counter #" << i << ": " << a.core.*field << " != "
          << b.core.*field << "\n";
  }
  if (a.energy_detail.toTable() != b.energy_detail.toTable())
    out << "energy_detail.toTable() differs\n";
  return out.str();
}

}  // namespace malec::sim
