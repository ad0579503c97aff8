#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <thread>

#include "common/check.h"
#include "phase/sample_plan.h"
#include "pipeline.h"
#include "probe.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "sim/reporting.h"
#include "sim/suite.h"
#include "store/query.h"
#include "store/result_store.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace perfbench {

namespace sim = malec::sim;
namespace trace = malec::trace;
namespace fs = std::filesystem;

Sizes Sizes::full() {
  Sizes s;
  s.synth_instr = 1'000'000;
  s.synth_warmup_instr = 300'000;
  s.replay_records = 750'000;
  s.sampled_records = 6'000'000;
  s.plan.phases = 32;
  s.sweep_instr = 100'000;
  s.sweep_warmup_instr = 20'000;
  return s;
}

Sizes Sizes::tiny() {
  Sizes s;
  s.synth_instr = 20'000;
  s.synth_warmup_instr = 2'000;
  s.replay_records = 20'000;
  s.sampled_records = 200'000;
  s.plan.interval_size = 10'000;
  s.plan.warmup_instructions = 5'000;
  s.sweep_instr = 2'000;
  s.sweep_warmup_instr = 500;
  s.setup_reps = 1;
  s.min_reps = 1;
  return s;
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "synth_malec", "replay_base", "sampled_malec", "sweep_fig4"};
  return names;
}

Fidelity fig4Fidelity(const std::vector<std::vector<sim::RunOutput>>& grid) {
  // Column order of sim::fig4Configs(): Base1ldst first, MALEC fourth.
  const std::vector<malec::core::InterfaceConfig> cfgs = sim::fig4Configs();
  std::size_t malec_col = cfgs.size();
  for (std::size_t c = 0; c < cfgs.size(); ++c)
    if (cfgs[c].name == sim::presetMalec().name) malec_col = c;
  MALEC_CHECK_MSG(malec_col < cfgs.size(), "fig4Configs() lost MALEC");
  std::vector<double> time, energy, coverage;
  for (const auto& row : grid) {
    MALEC_CHECK_MSG(row.size() == cfgs.size(), "not a fig4 grid row");
    const sim::RunOutput& base = row[0];
    const sim::RunOutput& m = row[malec_col];
    time.push_back(100.0 * static_cast<double>(m.cycles) /
                   static_cast<double>(base.cycles));
    energy.push_back(100.0 * m.total_pj / base.total_pj);
    coverage.push_back(100.0 * m.way_coverage);
  }
  return Fidelity{sim::geomean(time), sim::geomean(energy),
                  sim::geomean(coverage)};
}

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

sim::RunConfig runConfig(const trace::WorkloadProfile& wl,
                         const malec::core::InterfaceConfig& cfg,
                         std::uint64_t instructions, std::uint64_t seed) {
  sim::RunConfig rc;
  rc.workload = wl;
  rc.interface_cfg = cfg;
  rc.system = sim::defaultSystem();
  rc.instructions = instructions;
  rc.seed = seed;
  return rc;
}

/// Run `fn(i, thread)` for i in [0, n) on `threads` workers, work-stealing
/// over an atomic index like sim::runManyParallel.
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t, unsigned)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i, t);
      }
    });
  for (std::thread& th : pool) th.join();
}

/// Per-layer aggregation over every traced simulation and capture of one
/// workload. Simulated counters are summed and ratios formed from the sums.
struct LayerAgg {
  BoundaryTotals gen;   ///< synthetic sources: runs and captures
  BoundaryTotals read;  ///< trace-file sources
  double read_bytes = 0.0;
  Tally write;
  double write_bytes = 0.0;
  Tally ifc;
  std::uint64_t submits = 0, submit_rejects = 0, ifc_cycles = 0, quiet = 0;
  double run_s = 0.0;
  double run_source_s = 0.0;

  std::uint64_t cycles = 0, instructions = 0, rob_full = 0, lq_stall = 0;
  std::uint64_t groups = 0, group_entries = 0, merged = 0, loads = 0;
  std::uint64_t ib_stall = 0, bank_conflicts = 0;
  std::uint64_t way_lookups = 0, way_known = 0, reduced = 0,
                conventional = 0;
  std::uint64_t l1_load = 0, l1_load_miss = 0, l1_write = 0;
  std::uint64_t sb_fwd = 0, mb_fwd = 0, mbe = 0;
  std::uint64_t utlb = 0, tlb = 0, events = 0;
  double dynamic_pj = 0.0;

  /// `count_sim` = false for a resumed run, whose counters include the
  /// restored checkpoint's and would double-count the straight run.
  void addRun(const ProbedRun& pr, bool synthetic, double bytes_per_record,
              bool count_sim = true) {
    const BoundaryTotals& b = pr.bounds;
    if (synthetic) {
      gen.add(b);
    } else {
      read.add(b);
      read_bytes += static_cast<double>(b.records) * bytes_per_record;
    }
    ifc.add(b.ifc);
    submits += b.submits;
    submit_rejects += b.submit_rejects;
    ifc_cycles += b.cycles;
    quiet += b.quiet_cycles;
    run_s += pr.run_s;
    run_source_s += b.source.seconds;
    if (!count_sim) return;
    const sim::RunOutput& o = pr.out;
    cycles += o.cycles;
    instructions += o.instructions;
    rob_full += o.core.rob_full_cycles;
    lq_stall += o.core.lq_stall_cycles;
    groups += o.ifc.groups;
    group_entries += o.ifc.group_entries;
    merged += o.ifc.merged_loads;
    loads += o.ifc.loads_submitted;
    ib_stall += o.ifc.ib_stall_cycles;
    bank_conflicts += o.ifc.bank_conflicts;
    way_lookups += o.ifc.way_lookups;
    way_known += o.ifc.way_known;
    reduced += o.ifc.reduced_accesses;
    conventional += o.ifc.conventional_accesses;
    l1_load += o.ifc.load_l1_accesses;
    l1_load_miss += o.ifc.load_l1_misses;
    l1_write += o.ifc.write_l1_accesses;
    sb_fwd += o.ifc.sb_forwards;
    mb_fwd += o.ifc.mb_forwards;
    mbe += o.ifc.mbe_writes;
    utlb += pr.energy.utlb_searches;
    tlb += pr.energy.tlb_searches;
    events += pr.energy.events;
    dynamic_pj += o.dynamic_pj;
  }

  void addCapture(const CaptureTally& ct) {
    gen.add(ct.gen);
    write.add(ct.write);
    write_bytes += static_cast<double>(ct.bytes);
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Bytes per record of a capture, measured from the file.
double bytesPerRecord(const std::string& path) {
  trace::TraceReader rd(path);
  MALEC_CHECK_MSG(rd.ok() && rd.total() > 0, rd.error().c_str());
  return static_cast<double>(fs::file_size(path)) /
         static_cast<double>(rd.total());
}

/// Median repetition rate: as measured, and scaled to the reference host
/// speed with the probe taken next to each repetition.
struct Rate {
  double raw = 0.0;
  double normalised = 0.0;
  double host_speed = 0.0;  ///< median probe rate
};

/// Median set-up time, as measured and host-normalised.
struct Setup {
  double raw = 0.0;
  double normalised = 0.0;
};

/// Per-run state of one workload execution.
class Run {
 public:
  explicit Run(const Options& opt)
      : opt_(opt), spans_(opt.traced) {
    root_ = spans_.open("workload:" + opt.workload, 0);
  }

  const Options& opt() const { return opt_; }
  const Sizes& sizes() const { return opt_.sizes; }
  SpanRecorder& spans() { return spans_; }
  std::uint64_t root() const { return root_; }

  /// A simulation run (or `n` of them) counted as attempted operations.
  void ran(std::uint64_t n = 1) { res_.attempted += n; }
  /// An equivalence check: attempted, and failed on a mismatch.
  void check(bool ok, const std::string& what) {
    ++res_.attempted;
    if (!ok) {
      ++res_.failed;
      res_.failures.push_back(what);
    }
  }
  /// Record `out`'s fingerprint under `label` (first occurrence only) and
  /// return it.
  std::uint64_t fingerprintOf(const std::string& label,
                              const sim::RunOutput& out) {
    const std::uint64_t fp = fingerprint(out);
    if (labels_.insert(label).second) res_.fingerprints.emplace_back(label, fp);
    return fp;
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    res_.metrics.push_back(Metric{name, value, unit});
  }

  /// Run `setup` sizes().setup_reps times between two host-speed probes on
  /// `threads` threads; returns the median seconds, raw and host-normalised.
  Setup timeSetup(const std::function<void()>& setup, unsigned threads = 1) {
    std::vector<double> raw, norm;
    for (unsigned i = 0; i < sizes().setup_reps; ++i) {
      const double before = hostSpeed(threads);
      const std::uint64_t s = spans_.open("setup", root_);
      const auto t0 = Clock::now();
      setup();
      raw.push_back(since(t0));
      spans_.close(s);
      const double speed = 0.5 * (before + hostSpeed(threads));
      norm.push_back(raw.back() / hostFactor(speed));
    }
    return Setup{median(raw), median(norm)};
  }

  /// Repeat `rep` until opt().seconds have passed and at least
  /// sizes().min_reps ran. Each repetition returns the instructions it
  /// simulated and the seconds its timed part took (checks excluded).
  /// The host-speed probe runs on `threads` threads right before and
  /// right after each repetition; their mean is the repetition's host
  /// speed. Returns the median rate, raw and host-normalised.
  Rate measure(const std::function<std::pair<double, double>()>& rep,
               unsigned threads = 1) {
    std::vector<double> raw, norm, speed;
    const auto start = Clock::now();
    while (raw.size() < sizes().min_reps || since(start) < opt_.seconds) {
      const double before = hostSpeed(threads);
      const std::uint64_t s = spans_.open("measure", root_);
      const auto [instr, seconds] = rep();
      spans_.close(s);
      speed.push_back(0.5 * (before + hostSpeed(threads)));
      raw.push_back(instr / seconds);
      norm.push_back(raw.back() * hostFactor(speed.back()));
    }
    return Rate{median(raw), median(norm), median(speed)};
  }

  /// Emit the untraced end-to-end metrics common to every workload, and
  /// the raw values behind the host-normalised ones.
  void endToEnd(const Rate& rate, const Setup& setup) {
    metric("instr_per_s", rate.normalised, "instr/s");
    metric("setup_s", setup.normalised, "s");
    metric("peak_rss_mb", peakRssMb(), "MB");
    metric("instr_per_s_raw", rate.raw, "instr/s");
    metric("setup_s_raw", setup.raw, "s");
    metric("host_speed", rate.host_speed, "iter/s");
  }

  /// Emit the per-layer metrics of `agg` and the probe overhead.
  void layers(const LayerAgg& a, double overhead_pct) {
    const double gen_s = a.gen.source.seconds;
    metric("trace.gen_s", gen_s, "s");
    metric("trace.gen_records_per_s",
           ratio(static_cast<double>(a.gen.records), gen_s), "records/s");
    if (a.read.source.calls != 0) {
      metric("trace.read_s", a.read.source.seconds, "s");
      metric("trace.read_mb_per_s",
             ratio(a.read_bytes / 1e6, a.read.source.seconds), "MB/s");
    }
    if (a.write.calls != 0)
      metric("trace.write_mb_per_s",
             ratio(a.write_bytes / 1e6, a.write.seconds), "MB/s");
    metric("core.ifc_s", a.ifc.seconds, "s");
    metric("core.ifc_ns_per_op",
           1e9 * ratio(a.ifc.seconds, static_cast<double>(a.ifc.calls)), "ns");
    metric("core.submit_reject_frac", ratio(a.submit_rejects, a.submits),
           "frac");
    metric("core.groups", static_cast<double>(a.groups), "count");
    metric("core.group_size", ratio(a.group_entries, a.groups), "count");
    metric("core.merged_load_frac", ratio(a.merged, a.loads), "frac");
    metric("core.ib_stall_cycles", static_cast<double>(a.ib_stall), "count");
    metric("core.bank_conflicts", static_cast<double>(a.bank_conflicts),
           "count");
    metric("cpu.self_s", a.run_s - a.run_source_s - a.ifc.seconds, "s");
    metric("cpu.host_ns_per_sim_cycle",
           1e9 * ratio(a.run_s, static_cast<double>(a.ifc_cycles)), "ns");
    metric("cpu.quiet_cycle_frac", ratio(a.quiet, a.ifc_cycles), "frac");
    metric("cpu.sim_cycles", static_cast<double>(a.cycles), "count");
    metric("cpu.ipc", ratio(a.instructions, a.cycles), "instr/cycle");
    metric("cpu.rob_full_cycles", static_cast<double>(a.rob_full), "count");
    metric("cpu.lq_stall_cycles", static_cast<double>(a.lq_stall), "count");
    metric("waydet.coverage", ratio(a.way_known, a.way_lookups), "frac");
    metric("waydet.lookups", static_cast<double>(a.way_lookups), "count");
    metric("waydet.reduced_frac",
           ratio(a.reduced, a.reduced + a.conventional), "frac");
    metric("mem.l1_load_miss_rate", ratio(a.l1_load_miss, a.l1_load), "frac");
    metric("mem.l1_accesses", static_cast<double>(a.l1_load + a.l1_write),
           "count");
    metric("lsq.sb_forwards", static_cast<double>(a.sb_fwd), "count");
    metric("lsq.mb_forwards", static_cast<double>(a.mb_fwd), "count");
    metric("lsq.mbe_writes", static_cast<double>(a.mbe), "count");
    metric("tlb.utlb_searches", static_cast<double>(a.utlb), "count");
    metric("tlb.tlb_searches", static_cast<double>(a.tlb), "count");
    metric("energy.dynamic_pj_per_instr",
           ratio(a.dynamic_pj, static_cast<double>(a.instructions)),
           "pJ/instr");
    metric("energy.events", static_cast<double>(a.events), "count");
    metric("probe.overhead_pct", overhead_pct, "%");
    layer_agg_ = a;
  }

  Result finish() {
    spans_.close(root_);
    metric("failed_frac", ratio(res_.failed, res_.attempted), "frac");
    if (opt_.traced) {
      res_.chrome_trace = spans_.chromeTrace();
      res_.layer_table = layerTable();
    }
    return std::move(res_);
  }

 private:
  /// Plain per-layer self-time table of the traced pass.
  std::string layerTable() const {
    struct Row {
      std::string layer;
      double self_s;
      std::uint64_t calls;
    };
    const LayerAgg& a = layer_agg_;
    std::vector<Row> rows = {
        {"trace.gen", a.gen.source.seconds, a.gen.source.calls},
        {"trace.read", a.read.source.seconds, a.read.source.calls},
        {"trace.write", a.write.seconds, a.write.calls},
        {"core", a.ifc.seconds, a.ifc.calls},
        {"cpu", a.run_s - a.run_source_s - a.ifc.seconds, 0},
    };
    // Coarse spans outside CoreModel::run, summed by name prefix.
    const std::vector<Span> all = spans_.spans();
    for (const char* name : {"ckpt.save", "ckpt.load", "phase.plan",
                             "phase.cold", "phase.warm", "store.append",
                             "store.query"}) {
      Row r{name, 0.0, 0};
      for (const Span& s : all)
        if (s.name == name) {
          r.self_s += s.end - s.start;
          ++r.calls;
        }
      if (r.calls != 0) rows.push_back(r);
    }
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [](const Row& r) {
                                return r.calls == 0 && r.layer != "cpu";
                              }),
               rows.end());
    double total = 0.0;
    for (const Row& r : rows) total += r.self_s;
    std::string out = "layer          self_s      calls   share\n";
    char buf[128];
    for (const Row& r : rows) {
      std::snprintf(buf, sizeof buf, "%-12s %9.4f %10llu %6.1f%%\n",
                    r.layer.c_str(), r.self_s,
                    static_cast<unsigned long long>(r.calls),
                    100.0 * ratio(r.self_s, total));
      out += buf;
    }
    return out;
  }

  const Options& opt_;
  SpanRecorder spans_;
  std::uint64_t root_ = 0;
  Result res_;
  std::set<std::string> labels_;
  LayerAgg layer_agg_;
};

std::string workPath(const Options& opt, const std::string& name) {
  return (fs::path(opt.work_dir) / name).string();
}

double overheadPct(double traced_s, double untraced_s) {
  return 100.0 * (traced_s - untraced_s) / untraced_s;
}

// --- synth_malec ---------------------------------------------------------

void synthMalec(Run& run) {
  const Options& opt = run.opt();
  std::vector<sim::RunConfig> rcs;
  for (const char* name : {"gcc", "mcf", "djpeg"})
    rcs.push_back(runConfig(trace::workloadByName(name), sim::presetMalec(),
                            run.sizes().synth_instr, opt.seed));
  auto label = [](const sim::RunConfig& rc) {
    return "synth_malec/" + rc.workload.name + "/" + rc.interface_cfg.name;
  };

  if (!opt.traced) {
    const Setup setup = run.timeSetup([&] {
      for (sim::RunConfig rc : rcs) {
        rc.instructions = run.sizes().synth_warmup_instr;
        (void)sim::runOne(rc);
        run.ran();
      }
    });
    std::vector<std::uint64_t> first;
    const Rate rate = run.measure([&] {
      double instr = 0.0;
      std::vector<sim::RunOutput> outs;
      const auto t0 = Clock::now();
      for (const sim::RunConfig& rc : rcs) {
        outs.push_back(sim::runOne(rc));
        instr += static_cast<double>(outs.back().instructions);
      }
      const double seconds = since(t0);
      run.ran(rcs.size());
      std::vector<std::uint64_t> fps;
      for (std::size_t i = 0; i < rcs.size(); ++i)
        fps.push_back(run.fingerprintOf(label(rcs[i]), outs[i]));
      if (first.empty()) first = fps;
      for (std::size_t i = 0; i < fps.size(); ++i)
        run.check(fps[i] == first[i],
                  label(rcs[i]) + " repeats bit-identically");
      return std::make_pair(instr, seconds);
    });
    run.endToEnd(rate, setup);
    return;
  }

  // Traced: one untraced pass for reference outputs and wall time, then the
  // same runs through the decorated pipeline.
  std::vector<std::uint64_t> ref;
  auto t0 = Clock::now();
  for (const sim::RunConfig& rc : rcs) {
    ref.push_back(run.fingerprintOf(label(rc), sim::runOne(rc)));
    run.ran();
  }
  const double untraced_s = since(t0);
  LayerAgg agg;
  const std::uint64_t m = run.spans().open("measure", run.root());
  t0 = Clock::now();
  for (std::size_t i = 0; i < rcs.size(); ++i) {
    const ProbedRun pr = runProbed(rcs[i], run.spans(), m);
    run.ran();
    agg.addRun(pr, /*synthetic=*/true, 0.0);
    run.check(fingerprint(pr.out) == ref[i],
              label(rcs[i]) + ": traced pipeline == sim::runOne");
  }
  const double traced_s = since(t0);
  run.spans().close(m);
  run.layers(agg, overheadPct(traced_s, untraced_s));
}

// --- replay_base ---------------------------------------------------------

struct ReplaySetup {
  std::vector<std::string> paths;  ///< gcc, mcf captures
  std::vector<trace::WorkloadProfile> traces;
  std::vector<malec::core::InterfaceConfig> cfgs;
  std::uint64_t ckpt_every = 0;
};

void captureReplayTraces(Run& run, ReplaySetup& rs) {
  rs.paths.clear();
  rs.traces.clear();
  for (const char* name : {"gcc", "mcf"}) {
    const std::string path =
        workPath(run.opt(), std::string("replay_") + name + ".mtrace");
    (void)sim::captureTrace(
        runConfig(trace::workloadByName(name), sim::presetBase1ldst(),
                  run.sizes().replay_records, run.opt().seed),
        path);
    rs.paths.push_back(path);
    rs.traces.push_back(sim::traceWorkload(path));
  }
}

/// One measured repetition: every (capture x config) replay, the gcc /
/// Base2ld1st one writing a checkpoint mid-run, then a resume from that
/// checkpoint. Returns the simulated instructions; `fps` receives the
/// straight runs' fingerprints and `seconds` the simulations' time.
double replayRep(Run& run, const ReplaySetup& rs,
                 std::vector<std::uint64_t>& fps, double& seconds) {
  const std::string ckpt = workPath(run.opt(), "replay.mckpt");
  double instr = 0.0;
  seconds = 0.0;
  for (const trace::WorkloadProfile& wl : rs.traces)
    for (const auto& cfg : rs.cfgs) {
      sim::RunConfig rc = runConfig(wl, cfg, 0, run.opt().seed);
      const std::string label = "replay_base/" + wl.name + "/" + cfg.name;
      const bool saves = &wl == &rs.traces.front() && &cfg == &rs.cfgs.back();
      if (saves) {
        rc.ckpt_out = ckpt;
        rc.ckpt_every = rs.ckpt_every;
      }
      auto t0 = Clock::now();
      const sim::RunOutput out = sim::runOne(rc);
      seconds += since(t0);
      run.ran();
      instr += static_cast<double>(out.instructions);
      fps.push_back(run.fingerprintOf(label, out));
      if (!saves) continue;
      rc.ckpt_out.clear();
      rc.ckpt_every = 0;
      rc.start_ckpt = ckpt;
      t0 = Clock::now();
      const sim::RunOutput resumed = sim::runOne(rc);
      seconds += since(t0);
      run.ran();
      instr += static_cast<double>(out.instructions - rs.ckpt_every);
      run.check(fingerprint(resumed) == fps.back(),
                label + ": resumed run == straight-through run");
      fs::remove(ckpt);
    }
  return instr;
}

void replayBase(Run& run) {
  const Options& opt = run.opt();
  ReplaySetup rs;
  rs.cfgs = {sim::presetBase1ldst(), sim::presetBase2ld1st()};
  rs.ckpt_every = run.sizes().replay_records * 3 / 5;

  if (!opt.traced) {
    const Setup setup = run.timeSetup([&] { captureReplayTraces(run, rs); });
    std::vector<std::uint64_t> first;
    const Rate rate = run.measure([&] {
      std::vector<std::uint64_t> fps;
      double seconds = 0.0;
      const double instr = replayRep(run, rs, fps, seconds);
      if (first.empty()) first = fps;
      run.check(fps == first, "replay_base repeats bit-identically");
      return std::make_pair(instr, seconds);
    });
    run.endToEnd(rate, setup);
    return;
  }

  captureReplayTraces(run, rs);
  std::vector<std::uint64_t> ref;
  double untraced_s = 0.0;
  (void)replayRep(run, rs, ref, untraced_s);

  LayerAgg agg;
  const std::uint64_t setup = run.spans().open("setup", run.root());
  for (std::size_t i = 0; i < rs.paths.size(); ++i) {
    const std::string traced_path = workPath(opt, "replay_traced.mtrace");
    const std::uint64_t s = run.spans().open("trace.capture", setup);
    const CaptureTally ct = captureProbed(
        runConfig(trace::workloadByName(i == 0 ? "gcc" : "mcf"),
                  sim::presetBase1ldst(), run.sizes().replay_records,
                  opt.seed),
        traced_path);
    run.spans().close(s);
    agg.addCapture(ct);
    trace::TraceReader a(rs.paths[i]), b(traced_path);
    run.check(a.ok() && b.ok() && a.total() == b.total() &&
                  a.expectedChecksum() == b.expectedChecksum(),
              "traced capture == sim::captureTrace");
    fs::remove(traced_path);
  }
  run.spans().close(setup);

  const std::string ckpt = workPath(opt, "replay_traced.mckpt");
  const std::uint64_t m = run.spans().open("measure", run.root());
  ProbedRun saved, loaded;
  std::size_t k = 0;
  const auto t0 = Clock::now();
  for (std::size_t t = 0; t < rs.traces.size(); ++t)
    for (std::size_t c = 0; c < rs.cfgs.size(); ++c) {
      const sim::RunConfig rc =
          runConfig(rs.traces[t], rs.cfgs[c], 0, opt.seed);
      const double bpr = bytesPerRecord(rs.paths[t]);
      const bool saves = t == 0 && c + 1 == rs.cfgs.size();
      CkptRequest req;
      if (saves) {
        req.save_path = ckpt;
        req.save_every = rs.ckpt_every;
      }
      const ProbedRun pr = runProbed(rc, run.spans(), m, 0, req);
      run.ran();
      agg.addRun(pr, false, bpr);
      run.check(fingerprint(pr.out) == ref[k],
                rc.workload.name + "/" + rc.interface_cfg.name +
                    ": traced pipeline == sim::runOne");
      if (saves) {
        saved = pr;
        CkptRequest resume;
        resume.resume_path = ckpt;
        loaded = runProbed(rc, run.spans(), m, 0, resume);
        run.ran();
        agg.addRun(loaded, false, bpr, /*count_sim=*/false);
        run.check(fingerprint(loaded.out) == ref[k],
                  "traced resume == straight-through run");
        fs::remove(ckpt);
      }
      ++k;
    }
  const double traced_s = since(t0);
  run.spans().close(m);
  run.layers(agg, overheadPct(traced_s, untraced_s));
  run.metric("ckpt.save_s", saved.ckpt_save.seconds, "s");
  run.metric("ckpt.load_s", loaded.ckpt_load.seconds, "s");
  run.metric("ckpt.bytes", static_cast<double>(saved.ckpt_bytes), "bytes");
  run.metric("ckpt.save_mb_per_s",
             ratio(static_cast<double>(saved.ckpt_bytes) / 1e6,
                   saved.ckpt_save.seconds),
             "MB/s");
}

// --- sampled_malec -------------------------------------------------------

struct SampledSetup {
  std::string path;
  malec::phase::SamplePlan plan;
  sim::RunOutput full;
};

sim::RunConfig sampledFullConfig(const Run& run, const std::string& path) {
  return runConfig(sim::traceWorkload(path), sim::presetMalec(), 0,
                   run.opt().seed);
}

void sampledSetupOnce(Run& run, SampledSetup& ss) {
  ss.path = workPath(run.opt(), "sampled_gcc.mtrace");
  (void)sim::captureTrace(
      runConfig(trace::workloadByName("gcc"), sim::presetMalec(),
                run.sizes().sampled_records, run.opt().seed),
      ss.path);
  ss.plan = malec::phase::buildSamplePlan(ss.path, run.sizes().plan);
  std::string err;
  MALEC_CHECK_MSG(malec::phase::saveSamplePlan(
                      ss.plan, malec::phase::planSidecarPath(ss.path), err),
                  err.c_str());
  ss.full = sim::runOne(sampledFullConfig(run, ss.path));
  run.ran();
}

/// Cold then warm sampled pass; returns {cold, warm} outputs and times.
struct SampledPasses {
  sim::RunOutput cold, warm;
  double cold_s = 0.0, warm_s = 0.0;
};

SampledPasses sampledPasses(Run& run, const SampledSetup& ss,
                            SpanRecorder& spans, std::uint64_t parent) {
  sim::RunConfig rc = runConfig(sim::sampledWorkload(sim::traceWorkload(ss.path)),
                                sim::presetMalec(), 0, run.opt().seed);
  rc.warmup_ckpt = workPath(run.opt(), "sampled_warmup.mckpt");
  fs::remove(rc.warmup_ckpt);
  SampledPasses p;
  {
    ScopedSpan s(spans, "phase.cold", parent);
    const auto t0 = Clock::now();
    p.cold = sim::runOne(rc);
    p.cold_s = since(t0);
  }
  {
    ScopedSpan s(spans, "phase.warm", parent);
    const auto t0 = Clock::now();
    p.warm = sim::runOne(rc);
    p.warm_s = since(t0);
  }
  run.ran(2);
  run.check(fingerprint(p.warm) == fingerprint(p.cold),
            "sampled warm pass == cold pass");
  return p;
}

void sampledMalec(Run& run) {
  const Options& opt = run.opt();
  SampledSetup ss;
  const std::string cache = workPath(opt, "sampled_warmup.mckpt");

  if (!opt.traced) {
    std::vector<std::uint64_t> full_fps;
    const Setup setup = run.timeSetup([&] {
      sampledSetupOnce(run, ss);
      full_fps.push_back(run.fingerprintOf("sampled_malec/full", ss.full));
    });
    for (std::uint64_t fp : full_fps)
      run.check(fp == full_fps.front(), "full replay repeats bit-identically");
    std::uint64_t first = 0;
    SampledPasses last;
    const Rate rate = run.measure([&] {
      last = sampledPasses(run, ss, run.spans(), 0);
      const std::uint64_t fp =
          run.fingerprintOf("sampled_malec/sampled", last.cold);
      if (first == 0) first = fp;
      run.check(fp == first, "sampled pass repeats bit-identically");
      return std::make_pair(2.0 * static_cast<double>(ss.plan.trace_records),
                            last.cold_s + last.warm_s);
    });
    run.endToEnd(rate, setup);
    run.metric("sampled_ipc_err_pct",
               100.0 * std::fabs(last.cold.ipc - ss.full.ipc) / ss.full.ipc,
               "%");
    run.metric("sampled_energy_err_pct",
               100.0 * std::fabs(last.cold.total_pj - ss.full.total_pj) /
                   ss.full.total_pj,
               "%");
    fs::remove(cache);
    return;
  }

  // Untraced reference: set-up once, a timed full replay and one pass.
  sampledSetupOnce(run, ss);
  const std::uint64_t full_fp = run.fingerprintOf("sampled_malec/full", ss.full);
  auto t0 = Clock::now();
  (void)sim::runOne(sampledFullConfig(run, ss.path));
  run.ran();
  const double untraced_full_s = since(t0);
  SpanRecorder no_spans(false);
  const SampledPasses ref = sampledPasses(run, ss, no_spans, 0);
  const std::uint64_t sampled_fp =
      run.fingerprintOf("sampled_malec/sampled", ref.cold);

  LayerAgg agg;
  const std::uint64_t setup = run.spans().open("setup", run.root());
  {
    const std::string traced_path = workPath(opt, "sampled_traced.mtrace");
    const std::uint64_t s = run.spans().open("trace.capture", setup);
    const CaptureTally ct = captureProbed(
        runConfig(trace::workloadByName("gcc"), sim::presetMalec(),
                  run.sizes().sampled_records, opt.seed),
        traced_path);
    run.spans().close(s);
    agg.addCapture(ct);
    trace::TraceReader a(ss.path), b(traced_path);
    run.check(a.ok() && b.ok() && a.total() == b.total() &&
                  a.expectedChecksum() == b.expectedChecksum(),
              "traced capture == sim::captureTrace");
    fs::remove(traced_path);
  }
  double plan_s = 0.0;
  {
    ScopedSpan s(run.spans(), "phase.plan", setup);
    const auto tp = Clock::now();
    const malec::phase::SamplePlan plan =
        malec::phase::buildSamplePlan(ss.path, run.sizes().plan);
    plan_s = since(tp);
    bool same = plan.picks.size() == ss.plan.picks.size();
    for (std::size_t i = 0; same && i < plan.picks.size(); ++i)
      same = plan.picks[i].interval_index == ss.plan.picks[i].interval_index &&
             plan.picks[i].weight_instructions ==
                 ss.plan.picks[i].weight_instructions;
    run.check(same, "phase plan repeats bit-identically");
  }
  t0 = Clock::now();
  const ProbedRun pr =
      runProbed(sampledFullConfig(run, ss.path), run.spans(), setup);
  const double traced_full_s = since(t0);
  run.ran();
  agg.addRun(pr, false, bytesPerRecord(ss.path));
  run.check(fingerprint(pr.out) == full_fp,
            "full replay: traced pipeline == sim::runOne");
  run.spans().close(setup);

  const std::uint64_t m = run.spans().open("measure", run.root());
  const SampledPasses p = sampledPasses(run, ss, run.spans(), m);
  run.spans().close(m);
  run.check(fingerprint(p.cold) == sampled_fp,
            "sampled pass repeats bit-identically");

  run.layers(agg, overheadPct(traced_full_s, untraced_full_s));
  run.metric("ckpt.bytes", static_cast<double>(fs::file_size(cache)), "bytes");
  run.metric("phase.plan_s", plan_s, "s");
  run.metric("phase.cold_s", p.cold_s, "s");
  run.metric("phase.warm_s", p.warm_s, "s");
  run.metric("phase.simulated_frac",
             ratio(ss.plan.simulatedInstructions(), ss.plan.trace_records),
             "frac");
  fs::remove(cache);
}

// --- sweep_fig4 ----------------------------------------------------------

struct Grid {
  std::vector<trace::WorkloadProfile> wls;
  std::vector<malec::core::InterfaceConfig> cfgs;
  unsigned threads = 1;
};

std::string cellLabel(const Grid& g, std::size_t w, std::size_t c) {
  return "sweep_fig4/" + g.wls[w].name + "/" + g.cfgs[c].name;
}

/// Append `grid` to a fresh store at `path` and save it; returns bytes.
std::uint64_t storeAppend(const Grid& g,
                          const std::vector<std::vector<sim::RunOutput>>& grid,
                          std::uint64_t instr, std::uint64_t seed,
                          const std::string& path) {
  malec::store::StoreSegment meta;
  meta.suite = "perfbench_fig4";
  std::vector<std::string> wl_names, cfg_names;
  for (const auto& wl : g.wls) wl_names.push_back(wl.name);
  for (const auto& cfg : g.cfgs) cfg_names.push_back(cfg.name);
  meta.fingerprint =
      sim::gridFingerprintParts(meta.suite, instr, seed, wl_names, cfg_names);
  meta.instructions = instr;
  meta.seed = seed;
  meta.run_count = static_cast<std::uint32_t>(wl_names.size() * cfg_names.size());
  std::vector<malec::store::ResultStore::RunEntry> runs;
  for (std::size_t w = 0; w < g.wls.size(); ++w)
    for (std::size_t c = 0; c < g.cfgs.size(); ++c)
      runs.push_back({wl_names[w], cfg_names[c], &grid[w][c], {}});
  malec::store::ResultStore rs;
  rs.appendSegment(meta, runs);
  std::string err;
  MALEC_CHECK_MSG(rs.save(path, err), err.c_str());
  return fs::file_size(path);
}

/// Load the store back and run the per-config geomean query; returns the
/// loaded store.
malec::store::ResultStore storeQuery(const std::string& path,
                                     std::size_t& rows) {
  malec::store::ResultStore rs;
  std::string err;
  MALEC_CHECK_MSG(rs.load(path, err), err.c_str());
  malec::store::QueryOptions q;
  q.group_geomean = true;
  rows = malec::store::runQuery(rs, q).rows.size();
  return rs;
}

/// The store holds exactly `grid`, bit for bit, and the query saw one row
/// per configuration.
bool storeMatches(const malec::store::ResultStore& rs, std::size_t rows,
                  const Grid& g,
                  const std::vector<std::vector<sim::RunOutput>>& grid) {
  if (rows != g.cfgs.size()) return false;
  if (rs.runs().size() != g.wls.size() * g.cfgs.size()) return false;
  for (std::size_t i = 0; i < rs.runs().size(); ++i) {
    sim::RunOutput out;
    std::string err;
    if (!rs.decodeRun(i, out, err)) return false;
    if (fingerprint(out) !=
        fingerprint(grid[i / g.cfgs.size()][i % g.cfgs.size()]))
      return false;
  }
  return true;
}

void sweepFig4(Run& run) {
  const Options& opt = run.opt();
  Grid g;
  g.wls = trace::allWorkloads();
  g.cfgs = sim::fig4Configs();
  // At most 4 workers, and one CPU is left to the rest of the machine: with
  // every CPU busy, any other process turns one worker into a straggler.
  const unsigned cpus = std::max(2u, std::thread::hardware_concurrency());
  g.threads = std::min(4u, cpus - 1);
  const std::uint64_t instr = run.sizes().sweep_instr;
  const std::string store_path = workPath(opt, "sweep.mstore");
  const std::size_t cells = g.wls.size() * g.cfgs.size();

  if (!opt.traced) {
    const Setup setup = run.timeSetup([&] {
      (void)sim::runMatrixParallel(g.wls, g.cfgs, run.sizes().sweep_warmup_instr,
                                   opt.seed, g.threads);
      run.ran(cells);
    }, g.threads);
    std::vector<std::uint64_t> first;
    std::vector<std::vector<sim::RunOutput>> grid;
    const Rate rate = run.measure([&] {
      const auto t0 = Clock::now();
      grid = sim::runMatrixParallel(g.wls, g.cfgs, instr, opt.seed, g.threads);
      (void)storeAppend(g, grid, instr, opt.seed, store_path);
      std::size_t rows = 0;
      const malec::store::ResultStore rs = storeQuery(store_path, rows);
      const double elapsed = since(t0);
      run.ran(cells);
      double total = 0.0;
      std::vector<std::uint64_t> fps;
      for (std::size_t w = 0; w < g.wls.size(); ++w)
        for (std::size_t c = 0; c < g.cfgs.size(); ++c) {
          total += static_cast<double>(grid[w][c].instructions);
          fps.push_back(run.fingerprintOf(cellLabel(g, w, c), grid[w][c]));
        }
      if (first.empty()) first = fps;
      run.check(fps == first, "fig4 grid repeats bit-identically");
      run.check(storeMatches(rs, rows, g, grid),
                "store round trip returns the grid bit-identically");
      return std::make_pair(total, elapsed);
    }, g.threads);
    fs::remove(store_path);
    run.endToEnd(rate, setup);
    const Fidelity f = fig4Fidelity(grid);
    run.metric("fig4a_malec_err_pts", std::fabs(f.fig4a_malec - kPaperFig4aMalec),
               "pts");
    run.metric("fig4b_malec_err_pts", std::fabs(f.fig4b_malec - kPaperFig4bMalec),
               "pts");
    run.metric("wt_coverage_err_pts", std::fabs(f.wt_coverage - kPaperWtCoverage),
               "pts");
    return;
  }

  // Untraced reference grid and its parallel wall time.
  auto t0 = Clock::now();
  const std::vector<std::vector<sim::RunOutput>> grid =
      sim::runMatrixParallel(g.wls, g.cfgs, instr, opt.seed, g.threads);
  const double matrix_s = since(t0);
  run.ran(cells);
  std::vector<std::uint64_t> ref(cells);
  for (std::size_t i = 0; i < cells; ++i)
    ref[i] = run.fingerprintOf(cellLabel(g, i / g.cfgs.size(), i % g.cfgs.size()),
                               grid[i / g.cfgs.size()][i % g.cfgs.size()]);

  auto cellConfig = [&](std::size_t i) {
    return runConfig(g.wls[i / g.cfgs.size()], g.cfgs[i % g.cfgs.size()], instr,
                     opt.seed);
  };
  const std::uint64_t m = run.spans().open("measure", run.root());
  // Per-cell sim::runOne times, scheduled like runMatrixParallel.
  std::vector<double> cell_s(cells);
  std::vector<std::uint64_t> cell_fp(cells);
  t0 = Clock::now();
  parallelFor(cells, g.threads, [&](std::size_t i, unsigned tid) {
    ScopedSpan s(run.spans(), "sim.cell", m, 0, tid + 1);
    const auto tc = Clock::now();
    cell_fp[i] = fingerprint(sim::runOne(cellConfig(i)));
    cell_s[i] = since(tc);
  });
  const double pool_s = since(t0);
  run.ran(cells);
  for (std::size_t i = 0; i < cells; ++i)
    run.check(cell_fp[i] == ref[i],
              cellLabel(g, i / g.cfgs.size(), i % g.cfgs.size()) +
                  ": runMatrixParallel cell == sim::runOne");

  // The same cells through the decorated pipeline.
  std::vector<ProbedRun> probed(cells);
  t0 = Clock::now();
  parallelFor(cells, g.threads, [&](std::size_t i, unsigned tid) {
    probed[i] = runProbed(cellConfig(i), run.spans(), m, tid + 1);
  });
  const double probed_s = since(t0);
  run.ran(cells);
  LayerAgg agg;
  for (std::size_t i = 0; i < cells; ++i) {
    agg.addRun(probed[i], /*synthetic=*/true, 0.0);
    run.check(fingerprint(probed[i].out) == ref[i],
              cellLabel(g, i / g.cfgs.size(), i % g.cfgs.size()) +
                  ": traced pipeline == sim::runOne");
  }

  double append_s = 0.0, query_s = 0.0;
  std::uint64_t bytes = 0;
  std::size_t rows = 0;
  malec::store::ResultStore rs;
  {
    ScopedSpan s(run.spans(), "store.append", m);
    const auto ta = Clock::now();
    bytes = storeAppend(g, grid, instr, opt.seed, store_path);
    append_s = since(ta);
  }
  {
    ScopedSpan s(run.spans(), "store.query", m);
    const auto tq = Clock::now();
    rs = storeQuery(store_path, rows);
    query_s = since(tq);
  }
  run.check(storeMatches(rs, rows, g, grid),
            "store round trip returns the grid bit-identically");
  fs::remove(store_path);
  run.spans().close(m);

  run.layers(agg, overheadPct(probed_s, pool_s));
  double sum = 0.0;
  for (double s : cell_s) sum += s;
  run.metric("sim.threads", g.threads, "count");
  run.metric("sim.run_s_p50", percentile(cell_s, 50), "s");
  run.metric("sim.run_s_p90", percentile(cell_s, 90), "s");
  run.metric("sim.parallel_eff", sum / (g.threads * matrix_s), "frac");
  run.metric("sim.straggler_frac",
             *std::max_element(cell_s.begin(), cell_s.end()) / matrix_s, "frac");
  run.metric("store.append_s", append_s, "s");
  run.metric("store.query_s", query_s, "s");
  run.metric("store.bytes", static_cast<double>(bytes), "bytes");
}

}  // namespace

Result runWorkload(const Options& opt) {
  fs::create_directories(opt.work_dir);
  Run run(opt);
  if (opt.workload == "synth_malec")
    synthMalec(run);
  else if (opt.workload == "replay_base")
    replayBase(run);
  else if (opt.workload == "sampled_malec")
    sampledMalec(run);
  else if (opt.workload == "sweep_fig4")
    sweepFig4(run);
  else
    MALEC_CHECK_MSG(false, ("unknown workload '" + opt.workload + "'").c_str());
  return run.finish();
}

}  // namespace perfbench
