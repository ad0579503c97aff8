#include "probe.h"

#include <cstdio>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double nowSeconds() { return since(kEpoch); }

}  // namespace

void BoundaryTotals::add(const BoundaryTotals& o) {
  source.add(o.source);
  records += o.records;
  ifc.add(o.ifc);
  submits += o.submits;
  submit_rejects += o.submit_rejects;
  cycles += o.cycles;
  quiet_cycles += o.quiet_cycles;
}

bool TimedSource::next(malec::trace::InstrRecord& out) {
  const auto t0 = Clock::now();
  const bool got = inner_.next(out);
  totals_.source.seconds += since(t0);
  ++totals_.source.calls;
  totals_.records += got ? 1 : 0;
  return got;
}

void TimedInterface::beginCycle(malec::Cycle now) {
  const auto t0 = Clock::now();
  inner_.beginCycle(now);
  totals_.ifc.seconds += since(t0);
  ++totals_.ifc.calls;
  active_ = false;
}

bool TimedInterface::submit(const malec::core::MemOp& op) {
  const auto t0 = Clock::now();
  const bool accepted = inner_.submit(op);
  totals_.ifc.seconds += since(t0);
  ++totals_.ifc.calls;
  ++totals_.submits;
  if (accepted)
    active_ = true;
  else
    ++totals_.submit_rejects;
  return accepted;
}

void TimedInterface::notifyStoreCommit(malec::SeqNum seq) {
  const auto t0 = Clock::now();
  inner_.notifyStoreCommit(seq);
  totals_.ifc.seconds += since(t0);
  ++totals_.ifc.calls;
  active_ = true;
}

void TimedInterface::endCycle(malec::Cycle now) {
  const auto t0 = Clock::now();
  inner_.endCycle(now);
  totals_.ifc.seconds += since(t0);
  ++totals_.ifc.calls;
  ++totals_.cycles;
  if (!active_) ++totals_.quiet_cycles;
}

void TimedInterface::drainCompletions(malec::Cycle now,
                                      std::vector<malec::SeqNum>& out) {
  const std::size_t before = out.size();
  const auto t0 = Clock::now();
  inner_.drainCompletions(now, out);
  totals_.ifc.seconds += since(t0);
  ++totals_.ifc.calls;
  if (out.size() != before) active_ = true;
}

std::uint64_t SpanRecorder::open(const std::string& name, std::uint64_t parent,
                                 std::uint64_t run, std::uint32_t tid) {
  if (!enabled_) return 0;
  Span s;
  s.parent = parent;
  s.run = run;
  s.name = name;
  s.tid = tid;
  s.start = nowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = spans_.size() + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::close(std::uint64_t id,
                         std::vector<std::pair<std::string, double>> args) {
  if (!enabled_ || id == 0) return;
  const double t = nowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[id - 1];
  s.end = t;
  for (auto& a : args) s.args.push_back(std::move(a));
}

std::uint64_t SpanRecorder::nextRun() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_run_;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::chromeTrace() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out += "{\"name\":\"" + s.name + "\",\"cat\":\"perfbench\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf,
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u"
                  ",\"args\":{\"id\":%llu,\"parent\":%llu,\"run\":%llu",
                  s.start * 1e6, (s.end - s.start) * 1e6, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.run));
    out += buf;
    for (const auto& [key, value] : s.args) {
      std::snprintf(buf, sizeof buf, ",\"%s\":%.9g", key.c_str(), value);
      out += buf;
    }
    out += i + 1 < all.size() ? "}},\n" : "}}\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
