// Timing probes for the traced benchmark run: decorators that sit on the
// two boundaries CoreModel talks through (TraceSource and MemInterface),
// plus a coarse span recorder.
//
// High-frequency boundary calls (next, submit, endCycle, ...) only add to
// per-layer time and call counters — millions of calls per run could never
// be stored one span each. Coarse work (a whole simulation, a capture, a
// plan, a checkpoint save/load, a store append/query) is recorded as spans
// with a parent and a run id, kept in memory and written out when the run
// ends. The decorators forward every call unchanged, so a decorated
// pipeline produces bit-identical outputs to an undecorated one.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/mem_interface.h"
#include "trace/record.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Time + call count of one boundary.
struct Tally {
  double seconds = 0.0;
  std::uint64_t calls = 0;

  void add(const Tally& o) {
    seconds += o.seconds;
    calls += o.calls;
  }
};

/// Everything the decorators of one simulation measured.
struct BoundaryTotals {
  Tally source;           ///< TraceSource::next
  std::uint64_t records = 0;  ///< records the source served
  Tally ifc;              ///< the five timed MemInterface calls together
  std::uint64_t submits = 0;
  std::uint64_t submit_rejects = 0;  ///< submit() returned false
  std::uint64_t cycles = 0;          ///< endCycle() calls
  std::uint64_t quiet_cycles = 0;    ///< no submit/completion/store commit

  void add(const BoundaryTotals& o);
};

/// Times TraceSource::next of the wrapped source.
class TimedSource final : public malec::trace::TraceSource {
 public:
  TimedSource(malec::trace::TraceSource& inner, BoundaryTotals& totals)
      : inner_(inner), totals_(totals) {}

  bool next(malec::trace::InstrRecord& out) override;
  void reset() override { inner_.reset(); }

 private:
  malec::trace::TraceSource& inner_;
  BoundaryTotals& totals_;
};

/// Times beginCycle, submit, notifyStoreCommit, endCycle and
/// drainCompletions of the wrapped interface, and classifies each cycle as
/// quiet (no accepted submit, no completion, no store commit) or busy.
/// The remaining calls are forwarded untimed.
class TimedInterface final : public malec::core::MemInterface {
 public:
  TimedInterface(malec::core::MemInterface& inner, BoundaryTotals& totals)
      : inner_(inner), totals_(totals) {}

  void beginCycle(malec::Cycle now) override;
  [[nodiscard]] bool canAcceptLoad() const override {
    return inner_.canAcceptLoad();
  }
  [[nodiscard]] bool canAcceptStore() const override {
    return inner_.canAcceptStore();
  }
  bool submit(const malec::core::MemOp& op) override;
  void notifyStoreCommit(malec::SeqNum seq) override;
  void endCycle(malec::Cycle now) override;
  void drainCompletions(malec::Cycle now,
                        std::vector<malec::SeqNum>& out) override;
  [[nodiscard]] bool quiesced() const override { return inner_.quiesced(); }
  [[nodiscard]] const malec::core::InterfaceStats& stats() const override {
    return inner_.stats();
  }
  void saveState(malec::ckpt::StateWriter& w) const override {
    inner_.saveState(w);
  }
  void loadState(malec::ckpt::StateReader& r) override { inner_.loadState(r); }

 private:
  malec::core::MemInterface& inner_;
  BoundaryTotals& totals_;
  bool active_ = false;  ///< this cycle saw interface activity
};

/// One coarse span. Times are seconds since the process started.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t run = 0;     ///< simulation run id (0 = not a run)
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint32_t tid = 0;
  /// Extra numbers shown in the trace viewer (layer self times of a run).
  std::vector<std::pair<std::string, double>> args;
};

/// Thread-safe in-memory span store. Disabled recorders record nothing,
/// so an untraced run pays one branch per coarse operation.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span; returns its id (0 when disabled).
  std::uint64_t open(const std::string& name, std::uint64_t parent,
                     std::uint64_t run = 0, std::uint32_t tid = 0);
  void close(std::uint64_t id,
             std::vector<std::pair<std::string, double>> args = {});
  /// A fresh simulation run id.
  std::uint64_t nextRun();

  [[nodiscard]] std::vector<Span> spans() const;
  /// Chrome trace-event JSON (viewable in Perfetto / chrome://tracing).
  [[nodiscard]] std::string chromeTrace() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::uint64_t next_run_ = 0;
};

/// RAII span: closes on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, std::uint64_t parent,
             std::uint64_t run = 0, std::uint32_t tid = 0)
      : rec_(rec), id_(rec.open(name, parent, run, tid)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

}  // namespace perfbench
