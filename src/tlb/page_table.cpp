#include "tlb/page_table.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::tlb {

PageTable::PageTable(std::uint32_t phys_pages, std::uint64_t seed)
    : phys_pages_(phys_pages), seed_(seed) {
  MALEC_CHECK(phys_pages >= 1);
}

PageId PageTable::translate(PageId vpage) {
  auto it = map_.find(vpage);
  if (it != map_.end()) return it->second;
  ++walks_;
  // splitmix-style mix keyed by the seed picks the preferred frame...
  std::uint64_t x = (static_cast<std::uint64_t>(vpage) + seed_) *
                    0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  PageId ppage = static_cast<PageId>(x % phys_pages_);
  // ...and linear probing keeps the mapping collision-free while frames
  // remain: two virtual pages sharing a frame is NOT harmless — way-table
  // validity maintenance finds resident pages by physical ID and repairs
  // only the first match, so an aliased frame leaves the other page's way
  // entry stale (a wrong-way reduced access aborts the run). Only an
  // over-subscribed physical space (more mapped pages than frames — far
  // beyond any modelled working set) falls back to sharing.
  if (used_.size() < phys_pages_) {
    while (used_.count(ppage) != 0) {
      ++ppage;
      if (ppage == phys_pages_) ppage = 0;
    }
    used_.insert(ppage);
  }
  map_.emplace(vpage, ppage);
  return ppage;
}


void PageTable::saveState(ckpt::StateWriter& w) const {
  // map_ is an unordered map — serialize sorted by virtual page so the
  // same state always produces the same checkpoint bytes. used_ is NOT
  // stored: it is exactly the set of mapped frames and is rebuilt on load.
  // lint:allow(udc-order: sorted below before any byte is written)
  std::vector<std::pair<PageId, PageId>> entries(map_.begin(), map_.end());
  std::sort(entries.begin(), entries.end());
  w.u64(entries.size());
  for (const auto& [vpage, ppage] : entries) {
    w.u32(vpage);
    w.u32(ppage);
  }
  w.u64(walks_);
}

void PageTable::loadState(ckpt::StateReader& r) {
  map_.clear();
  used_.clear();
  // A forged count must fail here, naming the count: each mapping is two
  // u32s, so the section's bytes left bound it.
  const std::uint64_t n = r.u64();
  char msg[128];
  if (n > r.remaining() / 8) {
    std::snprintf(msg, sizeof msg,
                  "page-table mapping count %llu exceeds the %zu bytes left "
                  "in its section",
                  static_cast<unsigned long long>(n), r.remaining());
    MALEC_CHECK_MSG(false, msg);
  }
  // translate() hands out distinct frames until every frame is taken, so
  // a frame repeats only in a table holding more pages than frames.
  const bool shared_frames = n > phys_pages_;
  for (std::uint64_t i = 0; i < n; ++i) {
    const PageId vpage = r.u32();
    const PageId ppage = r.u32();
    if (ppage >= phys_pages_) {
      std::snprintf(msg, sizeof msg,
                    "page-table frame %u is outside the %u physical pages",
                    ppage, phys_pages_);
      MALEC_CHECK_MSG(false, msg);
    }
    if (!map_.emplace(vpage, ppage).second) {
      std::snprintf(msg, sizeof msg,
                    "page-table virtual page %u is mapped twice", vpage);
      MALEC_CHECK_MSG(false, msg);
    }
    if (!used_.insert(ppage).second && !shared_frames) {
      std::snprintf(msg, sizeof msg,
                    "page-table frame %u is mapped twice in a table of %llu "
                    "pages and %u frames",
                    ppage, static_cast<unsigned long long>(n), phys_pages_);
      MALEC_CHECK_MSG(false, msg);
    }
  }
  walks_ = r.u64();
}

}  // namespace malec::tlb
