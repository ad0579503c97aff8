#include "core/event_queue.h"

#include <cstdio>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::core {

EventQueue::EventQueue() : buckets_(kBuckets) {}

void EventQueue::saveState(ckpt::StateWriter& w) const {
  std::vector<Event> all;
  all.reserve(size_);
  for (const std::vector<Event>& b : buckets_)
    all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return a.cycle != b.cycle ? a.cycle < b.cycle : a.seq < b.seq;
  });
  w.u64(all.size());
  for (const Event& e : all) {
    w.u64(e.cycle);
    w.u64(e.seq);
  }
}

void EventQueue::loadState(ckpt::StateReader& r) {
  for (std::vector<Event>& b : buckets_) b.clear();
  // A forged count must fail here, naming the count: each event is two
  // u64s, so the section's bytes left bound it.
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / 16) {
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "event queue count %llu exceeds the %zu bytes left in its "
                  "section",
                  static_cast<unsigned long long>(n), r.remaining());
    MALEC_CHECK_MSG(false, msg);
  }
  size_ = static_cast<std::size_t>(n);
  next_ = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Cycle cycle = r.u64();
    const SeqNum seq = r.u64();
    if (i == 0 || cycle < next_) next_ = cycle;
    buckets_[cycle & (kBuckets - 1)].push_back(Event{cycle, seq});
  }
}

}  // namespace malec::core
