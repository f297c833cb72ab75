// FaultIndex: routes a faulting address to the host whose application view
// it lies in. An in-process deployment maps one ViewSet per host into one
// address space; the index keeps every application view of every host in one
// flat vector sorted by base address, and a fault resolves to (owner, view,
// offset) by one binary search — the multi-host form of the classic
// page-based DSM's address-to-page-number step. The views never overlap, so
// the region starting at or below the address is the only candidate.
//
// Register() installs the index as a FaultHandler callback that hands each
// fault in an indexed view to Owner::OnFault(view, offset, is_write); a
// fault elsewhere returns false, so it falls through to the next callback
// or the default disposition. The path is a template call, with no
// std::function or virtual call: it runs on every fault.

#ifndef SRC_MULTIVIEW_FAULT_INDEX_H_
#define SRC_MULTIVIEW_FAULT_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/common/status.h"
#include "src/multiview/view_set.h"
#include "src/os/fault_handler.h"

namespace millipage {

template <typename Owner>
class FaultIndex {
 public:
  struct Hit {
    Owner* owner = nullptr;
    uint32_t view = 0;
    uint64_t offset = 0;
  };

  FaultIndex() = default;
  ~FaultIndex() {
    if (slot_ >= 0) {
      FaultHandler::Instance().Unregister(slot_);
    }
  }

  // The registered callback holds `this`.
  FaultIndex(const FaultIndex&) = delete;
  FaultIndex& operator=(const FaultIndex&) = delete;

  // Indexes every application view of `views`, whose faults go to `owner`.
  // `views` must outlive the index and overlap no view already indexed.
  void Add(Owner* owner, const ViewSet& views) {
    const size_t old_size = regions_.size();
    for (uint32_t v = 0; v < views.num_app_views(); ++v) {
      regions_.push_back(Region{reinterpret_cast<uintptr_t>(views.app_base(v)),
                                views.object_size(), owner, v});
    }
    const auto by_base = [](const Region& a, const Region& b) { return a.base < b.base; };
    std::sort(regions_.begin() + old_size, regions_.end(), by_base);
    std::inplace_merge(regions_.begin(), regions_.begin() + old_size, regions_.end(), by_base);
  }

  // Resolves `addr` into *hit. False when no indexed view holds it — below
  // every view, or in the gap after one — after saying which on stderr.
  bool Find(const void* addr, Hit* hit) const {
    const auto a = reinterpret_cast<uintptr_t>(addr);
    size_t lo = 0;
    size_t hi = regions_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (regions_[mid].base <= a) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) {
      fprintf(stderr, "[millipage] fault %p below all %zu regions (first base %p)\n", addr,
              regions_.size(), reinterpret_cast<void*>(regions_.empty() ? 0 : regions_[0].base));
      return false;
    }
    const Region& r = regions_[lo - 1];
    if (a >= r.base + r.len) {
      fprintf(stderr,
              "[millipage] fault %p in gap after region base %p len %zx (host %u view %u)\n",
              addr, reinterpret_cast<void*>(r.base), r.len, r.owner->id(), r.view);
      return false;
    }
    *hit = Hit{r.owner, r.view, a - r.base};
    return true;
  }

  // Registers the index with FaultHandler (once); it unregisters on
  // destruction.
  Status Register() {
    slot_ = FaultHandler::Instance().Register(&Route, this);
    if (slot_ < 0) {
      return Status::Exhausted("no free fault-handler slots");
    }
    return Status::Ok();
  }

 private:
  struct Region {
    uintptr_t base = 0;
    size_t len = 0;
    Owner* owner = nullptr;
    uint32_t view = 0;
  };

  static bool Route(void* ctx, void* addr, bool is_write) {
    Hit hit;
    return static_cast<const FaultIndex*>(ctx)->Find(addr, &hit) &&
           hit.owner->OnFault(hit.view, hit.offset, is_write);
  }

  std::vector<Region> regions_;  // sorted by base
  int slot_ = -1;
};

}  // namespace millipage

#endif  // SRC_MULTIVIEW_FAULT_INDEX_H_
