#include "mem/memory_hierarchy.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::mem {

MemoryHierarchy::MemoryHierarchy(L1Cache& l1, L2Cache& l2, const Params& p)
    : l1_(l1), l2_(l2), p_(p) {
  MALEC_CHECK(p.mshrs >= 1);
}

void MemoryHierarchy::dropExpired(Cycle now) {
  // lint:allow(udc-order: order-independent conditional erase, no output)
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.first <= now) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

bool MemoryHierarchy::mshrAvailable(Cycle now) const {
  std::uint32_t live = 0;
  // lint:allow(udc-order: order-independent count, no output)
  for (const auto& [line, entry] : pending_)
    if (entry.first > now) ++live;
  return live < p_.mshrs;
}

MemoryHierarchy::MissOutcome MemoryHierarchy::missAccess(Addr paddr,
                                                         Cycle now,
                                                         bool is_store) {
  dropExpired(now);
  const Addr line_base = l1_.layout().lineBase(paddr);

  // MSHR merge: a miss to an in-flight line completes with it and performs
  // no additional fill or L2 traffic.
  if (auto it = pending_.find(line_base); it != pending_.end()) {
    ++mshr_merges_;
    MissOutcome out;
    out.ready_cycle = it->second.first;
    out.merged_mshr = true;
    out.l1_way = it->second.second;
    if (is_store) l1_.markDirty(paddr, it->second.second);
    return out;
  }

  MissOutcome out;
  Cycle latency = p_.l2_latency;
  if (auto l2way = l2_.probe(paddr); l2way.has_value()) {
    out.l2_hit = true;
    ++l2_hits_;
    l2_.touch(paddr, *l2way);
  } else {
    ++l2_misses_;
    latency += p_.dram_latency;
    const auto l2fill = l2_.fill(paddr);
    (void)l2fill;  // L2 victim writeback to DRAM is outside the energy scope
  }

  // Eager tag-state fill (data arrives at ready_cycle; the simulator only
  // observes timing through the returned cycle).
  const auto fill = l1_.fill(paddr);
  if (fill.evicted) {
    if (fill.evicted_dirty) {
      ++l1_writebacks_;
      // Write the victim back into L2 (allocate on writeback miss).
      if (auto w = l2_.probe(fill.evicted_line_base); w.has_value()) {
        l2_.markDirty(fill.evicted_line_base, *w);
      } else {
        const auto wb = l2_.fill(fill.evicted_line_base);
        l2_.markDirty(fill.evicted_line_base, wb.way);
      }
    }
    if (on_evict_) on_evict_(fill.evicted_line_base);
  }
  if (is_store) l1_.markDirty(paddr, fill.way);
  if (on_fill_) on_fill_(line_base, fill.way);

  out.ready_cycle = now + latency;
  out.l1_way = fill.way;
  pending_[line_base] = {out.ready_cycle, fill.way};
  return out;
}


void MemoryHierarchy::saveState(ckpt::StateWriter& w) const {
  // pending_ is an unordered map — serialize sorted by line base so the
  // same state always produces the same checkpoint bytes.
  std::vector<std::pair<Addr, std::pair<Cycle, WayIdx>>> pend(
      // lint:allow(udc-order: sorted below before any byte is written)
      pending_.begin(), pending_.end());
  std::sort(pend.begin(), pend.end());
  w.u64(pend.size());
  for (const auto& [line, rdy] : pend) {
    w.u64(line);
    w.u64(rdy.first);
    w.u8(static_cast<std::uint8_t>(rdy.second));
  }
  w.u64(l2_hits_);
  w.u64(l2_misses_);
  w.u64(l1_writebacks_);
  w.u64(mshr_merges_);
}

void MemoryHierarchy::loadState(ckpt::StateReader& r) {
  pending_.clear();
  // A forged count must fail here, naming the count: each outstanding miss
  // is two u64s and a u8, so the section's bytes left bound it.
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / 17) {
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "outstanding-miss count %llu exceeds the %zu bytes left in "
                  "its section",
                  static_cast<unsigned long long>(n), r.remaining());
    MALEC_CHECK_MSG(false, msg);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const Addr line = r.u64();
    const Cycle ready = r.u64();
    const WayIdx way = static_cast<WayIdx>(r.u8());
    pending_[line] = {ready, way};
  }
  l2_hits_ = r.u64();
  l2_misses_ = r.u64();
  l1_writebacks_ = r.u64();
  mshr_merges_ = r.u64();
}

}  // namespace malec::mem
