#include "sweep/result_codec.h"

#include <iterator>
#include <utility>

#include "common/binio.h"

namespace malec::sweep {

namespace {

constexpr std::size_t kIfcFields = std::size(core::kInterfaceCounterFields);
constexpr std::size_t kCoreFields = std::size(cpu::kCoreScaledCounterFields);

}  // namespace

std::vector<std::uint8_t> encodeRunOutput(const sim::RunOutput& out) {
  // Strings carry a u32 length (docs/FILE_FORMATS.md, "Primitive encoding").
  binio::ByteWriter w;
  w.str32(out.benchmark);
  w.str32(out.config);
  w.u64(out.cycles);
  w.u64(out.instructions);
  w.f64(out.ipc);
  w.f64(out.dynamic_pj);
  w.f64(out.leakage_pj);
  w.f64(out.total_pj);
  w.f64(out.way_coverage);
  w.f64(out.l1_load_miss_rate);
  w.f64(out.merged_load_fraction);
  // Field counts travel explicitly: a blob written by a build with a new
  // counter must fail a decode in an old build at the count, not shift
  // every later field.
  w.u32(static_cast<std::uint32_t>(kIfcFields));
  for (const auto field : core::kInterfaceCounterFields) w.u64(out.ifc.*field);
  w.u64(out.core.cycles);
  w.u64(out.core.instructions);
  w.u32(static_cast<std::uint32_t>(kCoreFields));
  for (const auto field : cpu::kCoreScaledCounterFields)
    w.u64(out.core.*field);
  w.u32(static_cast<std::uint32_t>(out.energy_detail.all().size()));
  for (const auto& [name, value] : out.energy_detail.all()) {
    w.str32(name);
    w.f64(value);
  }
  return std::move(w).take();
}

bool decodeRunOutput(const std::uint8_t* p, std::size_t n,
                     sim::RunOutput& out, std::string& err) {
  binio::ByteReader r(p, n);
  out = sim::RunOutput{};
  out.benchmark = r.str(r.u32());
  out.config = r.str(r.u32());
  out.cycles = r.u64();
  out.instructions = r.u64();
  out.ipc = r.f64();
  out.dynamic_pj = r.f64();
  out.leakage_pj = r.f64();
  out.total_pj = r.f64();
  out.way_coverage = r.f64();
  out.l1_load_miss_rate = r.f64();
  out.merged_load_fraction = r.f64();
  if (r.u32() != kIfcFields) {
    err = "result blob interface-counter count mismatch";
    return false;
  }
  for (const auto field : core::kInterfaceCounterFields)
    out.ifc.*field = r.u64();
  out.core.cycles = r.u64();
  out.core.instructions = r.u64();
  if (r.u32() != kCoreFields) {
    err = "result blob core-counter count mismatch";
    return false;
  }
  for (const auto field : cpu::kCoreScaledCounterFields)
    out.core.*field = r.u64();
  const std::uint32_t energy_entries = r.u32();
  for (std::uint32_t i = 0; r.ok() && i < energy_entries; ++i) {
    const std::string name = r.str(r.u32());
    const double value = r.f64();
    if (r.ok()) out.energy_detail.set(name, value);
  }
  if (!r.ok()) {
    err = "result blob is truncated or malformed";
    return false;
  }
  if (r.remaining() != 0) {
    err = "result blob has trailing bytes";
    return false;
  }
  return true;
}

}  // namespace malec::sweep
