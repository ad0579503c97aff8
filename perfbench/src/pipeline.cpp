#include "pipeline.h"

#include <filesystem>
#include <memory>

#include "ckpt/state_io.h"
#include "common/binio.h"
#include "common/check.h"
#include "cpu/core_model.h"
#include "energy/energy_account.h"
#include "sim/presets.h"
#include "sim/structures.h"
#include "sweep/result_codec.h"
#include "trace/synth_generator.h"
#include "trace/trace_io.h"

namespace perfbench {

namespace sim = malec::sim;
namespace trace = malec::trace;

std::uint64_t fingerprint(const sim::RunOutput& out) {
  const std::vector<std::uint8_t> blob = malec::sweep::encodeRunOutput(out);
  return malec::binio::fnv1a(malec::binio::kFnvOffset, blob.data(),
                             blob.size());
}

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The trace source runOne would build for `rc`, with handles on the
/// concrete objects checkpointing needs.
struct Source {
  std::unique_ptr<trace::TraceSource> src;
  trace::TraceReader* reader = nullptr;
  trace::SyntheticTraceGenerator* synth = nullptr;
  trace::LimitedTraceSource* limited = nullptr;
  std::uint64_t instructions = 0;
};

Source makeSource(const sim::RunConfig& rc) {
  Source s;
  if (!rc.workload.isTrace()) {
    auto gen = std::make_unique<trace::SyntheticTraceGenerator>(
        rc.workload, rc.system.layout, rc.instructions, rc.seed);
    s.synth = gen.get();
    s.src = std::move(gen);
    s.instructions = rc.instructions;
    return s;
  }
  auto rd = std::make_unique<trace::TraceReader>(rc.workload.trace_path);
  MALEC_CHECK_MSG(rd->ok(), rd->error().c_str());
  s.reader = rd.get();
  const std::uint64_t total = rd->total();
  s.instructions =
      rc.instructions == 0 ? total : std::min(rc.instructions, total);
  if (s.instructions < total) {
    auto lim = std::make_unique<trace::LimitedTraceSource>(std::move(rd),
                                                           s.instructions);
    s.limited = lim.get();
    s.src = std::move(lim);
  } else {
    s.src = std::move(rd);
  }
  return s;
}

/// The full simulation state in the section layout sim::runOne's
/// checkpoints use (source, core, interface, energy).
void saveState(const std::string& path, const Source& src,
               const malec::energy::EnergyAccount& ea,
               const malec::core::MemInterface& ifc,
               const malec::cpu::CoreModel& core) {
  malec::ckpt::StateWriter w;
  w.beginSection("source");
  if (src.reader != nullptr) {
    w.u64(src.reader->consumed());
    w.u64(src.reader->runningChecksum());
  } else {
    src.synth->saveState(w);
  }
  w.endSection();
  w.beginSection("core");
  core.saveState(w);
  w.endSection();
  w.beginSection("interface");
  ifc.saveState(w);
  w.endSection();
  w.beginSection("energy");
  ea.saveState(w);
  w.endSection();
  std::string err;
  MALEC_CHECK_MSG(w.writeTo(path, err), err.c_str());
}

void loadState(const std::string& path, Source& src,
               malec::energy::EnergyAccount& ea, malec::core::MemInterface& ifc,
               malec::cpu::CoreModel& core) {
  malec::ckpt::StateReader r(path);
  MALEC_CHECK_MSG(r.ok(), r.error().c_str());
  r.openSection("source");
  if (src.reader != nullptr) {
    const std::uint64_t pos = r.u64();
    const std::uint64_t sum = r.u64();
    MALEC_CHECK_MSG(src.reader->seekTo(pos, sum), src.reader->error().c_str());
    if (src.limited != nullptr) src.limited->setServed(pos);
  } else {
    src.synth->loadState(r);
  }
  r.endSection();
  r.openSection("core");
  core.loadState(r);
  r.endSection();
  r.openSection("interface");
  ifc.loadState(r);
  r.endSection();
  r.openSection("energy");
  ea.loadState(r);
  r.endSection();
}

std::uint64_t eventCountOr0(const malec::energy::EnergyAccount& ea,
                            const char* name) {
  return ea.hasEvent(name) ? ea.eventCount(name) : 0;
}

}  // namespace

ProbedRun runProbed(const sim::RunConfig& rc, SpanRecorder& spans,
                    std::uint64_t parent, std::uint32_t tid,
                    const CkptRequest& ckpt) {
  MALEC_CHECK_MSG(!rc.workload.isSampled(),
                  "the traced pipeline replays full streams only");
  ProbedRun pr;
  const std::uint64_t run_id = spans.enabled() ? spans.nextRun() : 0;
  const std::uint64_t span = spans.open(
      "sim.run:" + rc.workload.name + "/" + rc.interface_cfg.name, parent,
      run_id, tid);

  malec::energy::EnergyAccount ea;
  sim::defineEnergies(ea, rc.interface_cfg, rc.system);
  Source src = makeSource(rc);
  auto ifc = sim::makeInterface(rc.interface_cfg, rc.system, ea);
  TimedSource timed_src(*src.src, pr.bounds);
  TimedInterface timed_ifc(*ifc, pr.bounds);
  malec::cpu::CoreModel core(rc.system, rc.interface_cfg, timed_src,
                             timed_ifc);

  if (!ckpt.resume_path.empty()) {
    const std::uint64_t s = spans.open("ckpt.load", span, run_id, tid);
    const auto t0 = Clock::now();
    loadState(ckpt.resume_path, src, ea, *ifc, core);
    pr.ckpt_load.seconds += since(t0);
    ++pr.ckpt_load.calls;
    spans.close(s);
    pr.ckpt_bytes = std::filesystem::file_size(ckpt.resume_path);
  }
  if (!ckpt.save_path.empty()) {
    MALEC_CHECK_MSG(ckpt.save_every != 0, "a checkpoint save needs a cadence");
    core.setCheckpointHook(ckpt.save_every, [&] {
      if (pr.ckpt_save.calls != 0) return;  // one save per run
      const std::uint64_t s = spans.open("ckpt.save", span, run_id, tid);
      const auto t0 = Clock::now();
      saveState(ckpt.save_path, src, ea, *ifc, core);
      pr.ckpt_save.seconds += since(t0);
      ++pr.ckpt_save.calls;
      spans.close(s);
      pr.ckpt_bytes = std::filesystem::file_size(ckpt.save_path);
    });
  }

  const auto t0 = Clock::now();
  const malec::cpu::CoreStats cs = core.run(src.instructions * 60 + 100'000);
  pr.run_s = since(t0);
  if (src.reader != nullptr)
    MALEC_CHECK_MSG(src.reader->finishChecksum(), src.reader->error().c_str());
  MALEC_CHECK_MSG(ckpt.save_path.empty() || pr.ckpt_save.calls == 1,
                  "the checkpoint cadence exceeds the run");

  // The same derivations sim::runOne applies to its counters.
  sim::RunOutput& out = pr.out;
  out.benchmark = rc.workload.name;
  out.config = rc.interface_cfg.name;
  out.cycles = cs.cycles;
  out.instructions = cs.instructions;
  out.ipc = cs.ipc();
  out.core = cs;
  out.ifc = ifc->stats();
  out.dynamic_pj = ea.dynamicPj();
  out.leakage_pj = ea.leakagePj(cs.cycles, rc.system.clock_ghz);
  out.total_pj = out.dynamic_pj + out.leakage_pj;
  out.way_coverage = out.ifc.wayCoverage();
  out.l1_load_miss_rate =
      out.ifc.load_l1_accesses == 0
          ? 0.0
          : static_cast<double>(out.ifc.load_l1_misses) /
                static_cast<double>(out.ifc.load_l1_accesses);
  out.merged_load_fraction =
      out.ifc.loads_submitted == 0
          ? 0.0
          : static_cast<double>(out.ifc.merged_loads) /
                static_cast<double>(out.ifc.loads_submitted);
  out.energy_detail = ea.report(cs.cycles, rc.system.clock_ghz);

  for (malec::energy::EnergyAccount::EventId id = 0; id < ea.eventTypes();
       ++id)
    pr.energy.events += ea.eventCount(id);
  pr.energy.utlb_searches = eventCountOr0(ea, "utlb.search");
  pr.energy.tlb_searches = eventCountOr0(ea, "tlb.search");

  const double cpu_self =
      pr.run_s - pr.bounds.source.seconds - pr.bounds.ifc.seconds;
  spans.close(span, {{"trace_s", pr.bounds.source.seconds},
                     {"core_s", pr.bounds.ifc.seconds},
                     {"cpu_s", cpu_self},
                     {"instructions", static_cast<double>(cs.instructions)}});
  return pr;
}

CaptureTally captureProbed(const sim::RunConfig& rc, const std::string& path) {
  MALEC_CHECK_MSG(!rc.workload.isTrace(), "capture needs a synthetic workload");
  CaptureTally ct;
  trace::SyntheticTraceGenerator gen(rc.workload, rc.system.layout,
                                     rc.instructions, rc.seed);
  TimedSource timed(gen, ct.gen);
  trace::TraceWriter w(path, rc.system.layout);
  MALEC_CHECK_MSG(w.ok(), w.error().c_str());
  trace::InstrRecord r;
  while (timed.next(r)) {
    const auto t0 = Clock::now();
    w.write(r);
    ct.write.seconds += since(t0);
    ++ct.write.calls;
  }
  const auto t0 = Clock::now();
  MALEC_CHECK_MSG(w.close(), w.error().c_str());
  ct.write.seconds += since(t0);
  ct.records = w.written();
  ct.bytes = std::filesystem::file_size(path);
  return ct;
}

}  // namespace perfbench
