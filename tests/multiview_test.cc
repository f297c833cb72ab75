// Unit tests for the MultiView substrate: minipage table, view sets,
// protection control, and the dynamic-layout allocator (with chunking and
// the page-based baseline).

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <csetjmp>
#include <csignal>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"

#include "src/multiview/allocator.h"
#include "src/multiview/fault_index.h"
#include "src/multiview/minipage.h"
#include "src/multiview/static_layout.h"
#include "src/multiview/view_set.h"
#include "src/os/fault_handler.h"
#include "src/os/page.h"

namespace millipage {
namespace {

TEST(MinipageTable, DefineAndLookup) {
  MinipageTable mpt;
  auto id = mpt.Define(0, 0, 100);
  ASSERT_TRUE(id.ok());
  auto id2 = mpt.Define(1, 100, 100);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(mpt.Lookup(0, 0)->id, *id);
  EXPECT_EQ(mpt.Lookup(0, 99)->id, *id);
  EXPECT_EQ(mpt.Lookup(0, 100), nullptr);
  EXPECT_EQ(mpt.Lookup(1, 150)->id, *id2);
  EXPECT_EQ(mpt.Lookup(2, 0), nullptr);
}

TEST(MinipageTable, RejectsOverlapInSameView) {
  MinipageTable mpt;
  ASSERT_TRUE(mpt.Define(0, 0, 100).ok());
  EXPECT_FALSE(mpt.Define(0, 50, 100).ok());
  EXPECT_FALSE(mpt.Define(0, 0, 10).ok());
  // Same range in a different view is the whole point of MultiView.
  EXPECT_TRUE(mpt.Define(1, 0, 100).ok());
}

TEST(MinipageTable, ExtendLastGrowsOnlyTail) {
  MinipageTable mpt;
  auto a = mpt.Define(0, 0, 100);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(mpt.ExtendLast(*a, 200).ok());
  EXPECT_EQ(mpt.Get(*a).length, 200u);
  EXPECT_FALSE(mpt.ExtendLast(*a, 100).ok());  // cannot shrink
  auto b = mpt.Define(0, 300, 50);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(mpt.ExtendLast(*a, 250).ok());  // no longer the tail
}

TEST(MinipageGeometry, VpageSpans) {
  Minipage mp;
  mp.offset = PageSize() - 16;
  mp.length = 32;
  EXPECT_EQ(mp.first_vpage(), 0u);
  EXPECT_EQ(mp.last_vpage(), 1u);
  EXPECT_EQ(mp.offset_in_vpage(), PageSize() - 16);
}

TEST(Allocator, RotatesViewsWithinPage) {
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, 1 << 20, 4);
  // Four 1 KB allocations fill one 4 KB page across four views (Figure 2).
  for (uint32_t i = 0; i < 4; ++i) {
    auto a = alloc.Allocate(1024);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->offset, i * 1024u);
    EXPECT_EQ(a->view, i);
  }
  // Fifth allocation starts the next page, back at view 0.
  auto a5 = alloc.Allocate(1024);
  ASSERT_TRUE(a5.ok());
  EXPECT_EQ(a5->offset, 4096u);
}

TEST(Allocator, SkipsToNextPageWhenViewsExhausted) {
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, 1 << 20, 2);  // only two views
  ASSERT_TRUE(alloc.Allocate(100).ok());
  ASSERT_TRUE(alloc.Allocate(100).ok());
  auto third = alloc.Allocate(100);
  ASSERT_TRUE(third.ok());
  // Page 0 is saturated (2 views); third allocation must move to page 1.
  EXPECT_EQ(third->offset, PageSize());
}

TEST(Allocator, LargeAllocationsArePageAligned) {
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, 1 << 20, 8);
  ASSERT_TRUE(alloc.Allocate(100).ok());
  auto big = alloc.Allocate(4096);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->offset % PageSize(), 0u);
  EXPECT_EQ(mpt.Get(big->minipages[0]).length, 4096u);
}

TEST(Allocator, ChunkingAggregatesAllocations) {
  MinipageTable mpt;
  AllocatorOptions opts;
  opts.chunking_level = 3;
  MinipageAllocator alloc(&mpt, 1 << 20, 8, opts);
  auto a = alloc.Allocate(100);
  auto b = alloc.Allocate(100);
  auto c = alloc.Allocate(100);
  auto d = alloc.Allocate(100);  // starts a new chunk
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_EQ(a->minipages[0], b->minipages[0]);
  EXPECT_EQ(b->minipages[0], c->minipages[0]);
  EXPECT_NE(c->minipages[0], d->minipages[0]);
  EXPECT_EQ(a->view, c->view);
  // The chunk minipage covers all three members.
  const Minipage& mp = mpt.Get(a->minipages[0]);
  EXPECT_EQ(mp.offset, a->offset);
  EXPECT_GE(mp.end(), c->offset + 100);
}

TEST(Allocator, ChunkExtensionAcrossPageBoundary) {
  MinipageTable mpt;
  AllocatorOptions opts;
  opts.chunking_level = 8;
  MinipageAllocator alloc(&mpt, 1 << 20, 8, opts);
  // 8 x 672-byte molecules = 5376 bytes: the chunk spans two vpages.
  MinipageId chunk = kInvalidMinipage;
  for (int i = 0; i < 8; ++i) {
    auto a = alloc.Allocate(672);
    ASSERT_TRUE(a.ok());
    if (chunk == kInvalidMinipage) {
      chunk = a->minipages[0];
    }
    EXPECT_EQ(a->minipages[0], chunk);
  }
  // Copy: the next Allocate's Define can reallocate the table's backing
  // store, which would dangle a reference.
  const Minipage mp = mpt.Get(chunk);
  EXPECT_GT(mp.last_vpage(), mp.first_vpage());
  // Next chunk must avoid the extended chunk's view on the shared vpage.
  auto next = alloc.Allocate(672);
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next->view, mp.view);
}

TEST(Allocator, ChunkExtensionSurvivesTableGrowth) {
  // Chunk extension reads the chunk's geometry around mpt_->ExtendLast while
  // the table keeps growing (each new chunk is a Define, and Define's
  // push_back can reallocate the backing store). Enough allocations to force
  // several reallocations must still yield disjoint, in-bounds extents with
  // exact chunk geometry.
  MinipageTable mpt;
  AllocatorOptions opts;
  opts.chunking_level = 4;
  MinipageAllocator alloc(&mpt, 1 << 20, 8, opts);
  constexpr int kAllocs = 256;  // 64 chunks -> multiple vector regrowths
  constexpr uint64_t kSize = 96;
  std::map<MinipageId, std::pair<uint64_t, uint64_t>> extent;  // id -> [min, max)
  uint64_t prev_end = 0;
  for (int i = 0; i < kAllocs; ++i) {
    auto a = alloc.Allocate(kSize);
    ASSERT_TRUE(a.ok()) << "allocation " << i << ": " << a.status().ToString();
    EXPECT_GE(a->offset, prev_end) << "allocation " << i << " overlaps its predecessor";
    prev_end = a->offset + a->size;
    ASSERT_EQ(a->minipages.size(), 1u);
    auto [it, fresh] = extent.emplace(a->minipages[0],
                                      std::make_pair(a->offset, a->offset + a->size));
    if (!fresh) {
      it->second.first = std::min(it->second.first, a->offset);
      it->second.second = std::max(it->second.second, a->offset + a->size);
    }
  }
  EXPECT_EQ(extent.size(), kAllocs / 4u);
  for (const auto& [id, span] : extent) {
    const Minipage& mp = mpt.Get(id);
    // The chunk minipage covers exactly its members' span.
    EXPECT_EQ(mp.offset, span.first) << "minipage " << id;
    EXPECT_EQ(mp.offset + mp.length, span.second) << "minipage " << id;
  }
}

TEST(Allocator, CloseChunkStartsNewMinipage) {
  MinipageTable mpt;
  AllocatorOptions opts;
  opts.chunking_level = 4;
  MinipageAllocator alloc(&mpt, 1 << 20, 8, opts);
  auto a = alloc.Allocate(64);
  alloc.CloseChunk();
  auto b = alloc.Allocate(64);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->minipages[0], b->minipages[0]);
}

TEST(Allocator, PageBasedModeSharesPages) {
  MinipageTable mpt;
  AllocatorOptions opts;
  opts.page_based = true;
  MinipageAllocator alloc(&mpt, 1 << 20, 8, opts);
  auto a = alloc.Allocate(100);
  auto b = alloc.Allocate(100);
  ASSERT_TRUE(a.ok() && b.ok());
  // Both live on the same full-page minipage in view 0: false sharing.
  EXPECT_EQ(a->minipages[0], b->minipages[0]);
  EXPECT_EQ(mpt.Get(a->minipages[0]).length, PageSize());
  EXPECT_EQ(a->view, 0u);
  // A page-spanning allocation touches two page minipages.
  auto big = alloc.Allocate(2 * PageSize());
  ASSERT_TRUE(big.ok());
  EXPECT_GE(big->minipages.size(), 2u);
}

TEST(Allocator, ExactPageFillIsPageAlignedSingleMinipage) {
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, 1 << 20, 4);
  ASSERT_TRUE(alloc.Allocate(100).ok());  // dirty the first page
  auto a = alloc.Allocate(PageSize());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->offset % PageSize(), 0u);
  ASSERT_EQ(a->minipages.size(), 1u);
  const Minipage& mp = mpt.Get(a->minipages[0]);
  EXPECT_EQ(mp.length, PageSize());
  EXPECT_EQ(mp.first_vpage(), mp.last_vpage());  // exactly one vpage
  // A page-exact minipage ends exactly on the boundary; the next sub-page
  // allocation lands on a fresh page and may reuse view 0.
  auto next = alloc.Allocate(64);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->offset, a->offset + PageSize());
  EXPECT_EQ(next->view, 0u);
}

TEST(Allocator, RequestExactlyFillingPageRemainder) {
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, 1 << 20, 4);
  auto head = alloc.Allocate(1024);
  ASSERT_TRUE(head.ok());
  // Exactly fills the rest of page 0: must stay on page 0 (no spill) in the
  // next free view, ending flush on the boundary.
  auto tail = alloc.Allocate(PageSize() - 1024);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->offset, 1024u);
  EXPECT_EQ(tail->view, 1u);
  const Minipage& mp = mpt.Get(tail->minipages[0]);
  EXPECT_EQ(mp.end(), PageSize());
  EXPECT_EQ(mp.first_vpage(), 0u);
  EXPECT_EQ(mp.last_vpage(), 0u);
}

TEST(Allocator, SubPageRequestThatWouldSpanMovesToNextPage) {
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, 1 << 20, 4);
  ASSERT_TRUE(alloc.Allocate(104).ok());
  // From offset 104 this would straddle the page boundary; sub-page
  // minipages keep their <offset,length> inside one vpage, so the allocator
  // must restart it on page 1.
  auto a = alloc.Allocate(PageSize() - 50);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->offset, PageSize());
  const Minipage& mp = mpt.Get(a->minipages[0]);
  EXPECT_EQ(mp.first_vpage(), mp.last_vpage());
}

TEST(Allocator, MultiPageSpanIsOneMinipageAcrossVpages) {
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, 1 << 20, 4);
  const uint64_t size = 2 * PageSize() + 512;
  auto big = alloc.Allocate(size);
  ASSERT_TRUE(big.ok());
  ASSERT_EQ(big->minipages.size(), 1u);
  // Copy, not a reference: the follow-up Allocate below can grow the table.
  const Minipage mp = mpt.Get(big->minipages[0]);
  EXPECT_EQ(mp.length, size);
  EXPECT_EQ(mp.last_vpage() - mp.first_vpage(), 2u);  // spans three vpages
  EXPECT_EQ(big->view, 0u);
  // The tail vpage is only partially used; a small follow-up allocation may
  // share it but must take a different view.
  auto small = alloc.Allocate(64);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->offset / PageSize(), mp.last_vpage());
  EXPECT_NE(small->view, big->view);
}

TEST(Allocator, PageBasedSpanningRequestListsEveryMinipage) {
  MinipageTable mpt;
  AllocatorOptions opts;
  opts.page_based = true;
  MinipageAllocator alloc(&mpt, 1 << 20, 4, opts);
  auto a = alloc.Allocate(3000);
  ASSERT_TRUE(a.ok());
  // Starts mid-page-0 and crosses into page 1: two page minipages, the first
  // shared with the earlier allocation (false sharing by construction).
  auto b = alloc.Allocate(3000);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b->minipages.size(), 2u);
  EXPECT_EQ(b->minipages[0], a->minipages[0]);
  EXPECT_EQ(mpt.Get(b->minipages[1]).offset, PageSize());
}

TEST(Allocator, DefaultAlignmentIsEightBytes) {
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, 1 << 20, 8);
  uint64_t prev_end = 0;
  for (uint64_t size : {3ull, 5ull, 7ull, 1ull, 9ull}) {
    auto a = alloc.Allocate(size);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->offset % 8, 0u) << "size " << size;
    EXPECT_GE(a->offset, prev_end);  // no overlap with the previous object
    prev_end = a->offset + size;
  }
}

TEST(Allocator, HonorsCustomAlignment) {
  MinipageTable mpt;
  AllocatorOptions opts;
  opts.alignment = 64;
  MinipageAllocator alloc(&mpt, 1 << 20, 8, opts);
  for (int i = 0; i < 4; ++i) {
    auto a = alloc.Allocate(10);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->offset % 64, 0u);
    EXPECT_EQ(a->offset, static_cast<uint64_t>(i) * 64);
  }
}

TEST(Allocator, ExhaustsObject) {
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, 8192, 4);
  ASSERT_TRUE(alloc.Allocate(8000).ok());
  EXPECT_FALSE(alloc.Allocate(8000).ok());
}

TEST(Allocator, NoTwoMinipagesShareVpageAndView) {
  MinipageTable mpt;
  MinipageAllocator alloc(&mpt, 1 << 20, 6);
  // Mixed sizes, many allocations; verify the core MultiView invariant.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(alloc.Allocate(100 + (i * 37) % 900).ok());
  }
  // For each (view, vpage) pair count occupants.
  std::map<std::pair<uint32_t, uint64_t>, int> occupancy;
  for (size_t id = 0; id < mpt.size(); ++id) {
    const Minipage& mp = mpt.Get(static_cast<MinipageId>(id));
    for (uint64_t vp = mp.first_vpage(); vp <= mp.last_vpage(); ++vp) {
      occupancy[{mp.view, vp}]++;
    }
  }
  for (const auto& [key, count] : occupancy) {
    EXPECT_EQ(count, 1) << "view " << key.first << " vpage " << key.second;
  }
}

TEST(StaticLayoutTest, GeometryAndPopulate) {
  auto layout = StaticLayout::Create(4 * PageSize(), 8);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->minipage_size(), PageSize() / 8);
  EXPECT_EQ(layout->total_minipages(), 32u);
  const Minipage mp = layout->MinipageOf(PageSize() + 3 * layout->minipage_size() + 5);
  EXPECT_EQ(mp.view, 3u);
  EXPECT_EQ(mp.offset % layout->minipage_size(), 0u);
  MinipageTable mpt;
  ASSERT_TRUE(layout->Populate(&mpt).ok());
  EXPECT_EQ(mpt.size(), 32u);

  EXPECT_FALSE(StaticLayout::Create(PageSize(), 3).ok());  // 3 doesn't divide 4096
}

TEST(ViewSetTest, IndependentProtectionPerView) {
  auto vs = ViewSet::Create(PageSize() * 4, 3);
  ASSERT_TRUE(vs.ok());
  Minipage mp0;
  mp0.view = 0;
  mp0.offset = 0;
  mp0.length = 64;
  Minipage mp1 = mp0;
  mp1.view = 1;
  ASSERT_TRUE((*vs)->SetProtection(mp0, Protection::kReadWrite).ok());
  ASSERT_TRUE((*vs)->SetProtection(mp1, Protection::kReadOnly).ok());
  EXPECT_EQ((*vs)->GetProtection(mp0), Protection::kReadWrite);
  EXPECT_EQ((*vs)->GetProtection(mp1), Protection::kReadOnly);
  // Writing via view 0 is allowed and visible through the privileged view.
  *reinterpret_cast<int*>((*vs)->AppAddr(0, 0)) = 1234;
  EXPECT_EQ(*reinterpret_cast<const int*>((*vs)->PrivAddr(0)), 1234);
  // And through view 1 (read-only) the same physical bytes appear.
  EXPECT_EQ(*reinterpret_cast<const int*>((*vs)->AppAddr(1, 0)), 1234);
}

TEST(ViewSetTest, ResolveFindsViewAndOffset) {
  auto vs = ViewSet::Create(PageSize() * 2, 4);
  ASSERT_TRUE(vs.ok());
  uint32_t view = 99;
  uint64_t offset = 99;
  EXPECT_TRUE((*vs)->Resolve((*vs)->AppAddr(2, 100), &view, &offset));
  EXPECT_EQ(view, 2u);
  EXPECT_EQ(offset, 100u);
  int local = 0;
  EXPECT_FALSE((*vs)->Resolve(&local, &view, &offset));
  // The privileged view is not an application view.
  EXPECT_FALSE((*vs)->Resolve((*vs)->PrivAddr(0), &view, &offset));
}

TEST(ViewSetDeathTest, AppAddrRejectsABadCanonicalAddress) {
  auto vs = ViewSet::Create(PageSize() * 2, 4);
  ASSERT_TRUE(vs.ok());
  EXPECT_DEATH((void)(*vs)->AppAddr(4, 0), "bad canonical address view=4 offset=0");
  EXPECT_DEATH((void)(*vs)->AppAddr(1, PageSize() * 2),
               "bad canonical address view=1 offset=" + std::to_string(PageSize() * 2));
}

// The fault-address index over three hosts' real views, with no cluster: the
// owner is a stand-in that only names its host.
struct FakeHost {
  uint16_t host;
  uint16_t id() const { return host; }
};

TEST(FaultIndex, ResolvesViewBytesAndLeavesEverythingElse) {
  constexpr size_t kObject = 4 * 4096;
  FakeHost hosts[3] = {{0}, {1}, {2}};
  std::vector<std::unique_ptr<ViewSet>> sets;
  std::vector<void*> spacers;  // unindexed mappings between the hosts' views
  FaultIndex<FakeHost> index;
  for (FakeHost& h : hosts) {
    auto vs = ViewSet::Create(kObject, 2);
    ASSERT_TRUE(vs.ok());
    index.Add(&h, **vs);
    sets.push_back(std::move(*vs));
    void* spacer = mmap(nullptr, 4 * kObject, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(spacer, MAP_FAILED);
    spacers.push_back(spacer);
  }
  const size_t object = sets[0]->object_size();

  FaultIndex<FakeHost>::Hit hit;
  for (int h = 0; h < 3; ++h) {
    for (uint32_t v = 0; v < 2; ++v) {
      const std::byte* base = sets[h]->app_base(v);
      ASSERT_TRUE(index.Find(base, &hit)) << "host " << h << " view " << v;
      EXPECT_EQ(hit.owner, &hosts[h]);
      EXPECT_EQ(hit.view, v);
      EXPECT_EQ(hit.offset, 0u);
      ASSERT_TRUE(index.Find(base + object - 1, &hit));
      EXPECT_EQ(hit.owner, &hosts[h]);
      EXPECT_EQ(hit.view, v);
      EXPECT_EQ(hit.offset, object - 1);
    }
  }

  // Every view in address order: below the lowest, one past the highest,
  // and a hole between two hosts' views are not ours.
  struct View {
    const std::byte* base;
    int host;
  };
  std::vector<View> views;
  for (int h = 0; h < 3; ++h) {
    for (uint32_t v = 0; v < 2; ++v) {
      views.push_back(View{sets[h]->app_base(v), h});
    }
  }
  std::sort(views.begin(), views.end(),
            [](const View& a, const View& b) { return a.base < b.base; });
  EXPECT_FALSE(index.Find(views.front().base - 1, &hit));
  EXPECT_FALSE(index.Find(views.back().base + object, &hit));
  const std::byte* gap = nullptr;
  for (size_t i = 0; i + 1 < views.size() && gap == nullptr; ++i) {
    if (views[i].host != views[i + 1].host && views[i].base + object < views[i + 1].base) {
      gap = views[i].base + object;
    }
  }
  ASSERT_NE(gap, nullptr) << "no hole between two hosts' views";
  EXPECT_FALSE(index.Find(gap, &hit));
  for (void* spacer : spacers) {
    munmap(spacer, 4 * kObject);
  }
}

// A grant round over N contiguous vpages must collapse into ONE ranged
// protection call — mv.prot_sets is the syscall counter, so the delta is the
// proof (N pages, 1 call instead of N).
TEST(ViewSetTest, ContiguousBatchCoalescesToOneRangedCall) {
  constexpr uint64_t kPages = 16;
  auto vs = ViewSet::Create(PageSize() * kPages, 1);
  ASSERT_TRUE(vs.ok());
  MetricsRegistry local;
  (*vs)->SetMetrics(&local);

  std::vector<Minipage> mps(kPages);
  for (uint64_t i = 0; i < kPages; ++i) {
    mps[i].view = 0;
    mps[i].offset = i * PageSize();
    mps[i].length = PageSize();
  }
  ASSERT_TRUE((*vs)->SetProtectionBatch(mps.data(), mps.size(), Protection::kReadWrite).ok());

  const MetricsSnapshot snap = local.Snapshot();
  EXPECT_EQ(snap.counters.at("mv.prot_sets"), 1u)
      << "a contiguous " << kPages << "-vpage round must cost one ranged call";
  EXPECT_EQ(snap.counters.at("mv.prot_set_pages"), kPages);
  for (const Minipage& mp : mps) {
    EXPECT_EQ((*vs)->GetProtection(mp), Protection::kReadWrite);
  }

  // Re-applying the same protection is a shadow-table no-op: no extra call.
  ASSERT_TRUE((*vs)->SetProtectionBatch(mps.data(), mps.size(), Protection::kReadWrite).ok());
  EXPECT_EQ(local.Snapshot().counters.at("mv.prot_sets"), 1u);

  // A gap splits the run: dropping every other vpage back to NoAccess must
  // cost one call per disjoint single-page run, not one giant call.
  std::vector<Minipage> odd;
  for (uint64_t i = 1; i < kPages; i += 2) {
    odd.push_back(mps[i]);
  }
  ASSERT_TRUE((*vs)->SetProtectionBatch(odd.data(), odd.size(), Protection::kNoAccess).ok());
  EXPECT_EQ(local.Snapshot().counters.at("mv.prot_sets"), 1u + odd.size());
  for (uint64_t i = 0; i < kPages; ++i) {
    EXPECT_EQ((*vs)->GetProtection(mps[i]),
              i % 2 == 1 ? Protection::kNoAccess : Protection::kReadWrite);
  }
}

// Under uffd, reclaim can unmap a pte that the shadow still grants. The next
// touch then faults, and the fault path must re-install the pte from the
// shadow without a protocol round — SetProtection's shadow fast-path would
// make the protocol's install a no-op and the access would fault forever.
// Checked for a read-only, then a read-write vpage, with the pte zapped
// behind the shadow's back.
TEST(ViewSetTest, ZappedPteIsReinstalledFromShadow) {
  FaultHandler& fh = FaultHandler::Instance();
  if (!fh.UffdSupported()) {
    GTEST_SKIP() << "kernel lacks the userfaultfd backend's features";
  }
  ASSERT_TRUE(fh.Install(FaultBackend::kUserfaultfd).ok());
  ASSERT_EQ(fh.active_backend(), FaultBackend::kUserfaultfd);
  auto vs = ViewSet::Create(PageSize() * 2, 1);
  ASSERT_TRUE(vs.ok());
  struct Ctx {
    ViewSet* vs;
    std::atomic<int> faults{0};
    std::atomic<int> protocol_rounds{0};  // faults the shadow did not cover
  } ctx{vs->get()};
  const int slot = fh.Register(
      +[](void* raw, void* addr, bool is_write) {
        auto* c = static_cast<Ctx*>(raw);
        uint32_t view;
        uint64_t offset;
        if (!c->vs->Resolve(addr, &view, &offset)) {
          return false;
        }
        // A fault that repeats means the re-install did not take: die loudly
        // instead of spinning on the same access.
        if (c->faults.fetch_add(1) >= 4) {
          return false;
        }
        if (c->vs->RestoreFromShadow(view, offset, is_write)) {
          return true;
        }
        c->protocol_rounds.fetch_add(1);
        return false;  // would be a protocol round: fail the test loudly
      },
      &ctx);
  ASSERT_GE(slot, 0);
  Minipage mp;
  mp.view = 0;
  mp.offset = PageSize() + 8;
  mp.length = 64;
  *reinterpret_cast<int*>((*vs)->PrivAddr(mp.offset)) = 77;
  volatile int* p = reinterpret_cast<volatile int*>((*vs)->AppAddr(mp.view, mp.offset));

  ASSERT_TRUE((*vs)->SetProtection(mp, Protection::kReadOnly).ok());
  EXPECT_EQ(*p, 77);  // installed by SetProtection: no fault
  EXPECT_EQ(ctx.faults.load(), 0);
  ASSERT_TRUE(fh.UffdZapRange((*vs)->AppAddr(mp.view, PageSize()), PageSize()).ok());
  EXPECT_EQ(*p, 77);  // faults once, re-installed read-only from the shadow
  EXPECT_EQ(ctx.faults.load(), 1);

  ASSERT_TRUE((*vs)->SetProtection(mp, Protection::kReadWrite).ok());
  ASSERT_TRUE(fh.UffdZapRange((*vs)->AppAddr(mp.view, PageSize()), PageSize()).ok());
  *p = 78;  // faults once, re-installed read-write from the shadow
  EXPECT_EQ(ctx.faults.load(), 2);
  EXPECT_EQ(*reinterpret_cast<const int*>((*vs)->PrivAddr(mp.offset)), 78);
  EXPECT_EQ(ctx.protocol_rounds.load(), 0);

  fh.Unregister(slot);
  ASSERT_TRUE(fh.Install(FaultBackend::kSigsegv).ok());
}

}  // namespace
}  // namespace millipage
