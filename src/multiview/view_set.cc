#include "src/multiview/view_set.h"

#include <sys/mman.h>

#include <algorithm>

#include "src/common/failpoint.h"

namespace millipage {

Result<std::unique_ptr<ViewSet>> ViewSet::Create(size_t object_size, uint32_t num_app_views) {
  if (num_app_views == 0) {
    return Status::Invalid("ViewSet needs at least one application view");
  }
  auto vs = std::unique_ptr<ViewSet>(new ViewSet());
  MP_ASSIGN_OR_RETURN(vs->object_, MemoryObject::Create(object_size));
  const size_t len = vs->object_.size();
  FaultHandler& fh = FaultHandler::Instance();
  vs->uffd_ = fh.active_backend() == FaultBackend::kUserfaultfd;
  MP_ASSIGN_OR_RETURN(vs->priv_view_,
                      Mapping::MapObject(vs->object_, 0, len, Protection::kReadWrite));
  vs->app_views_.reserve(num_app_views);
  for (uint32_t v = 0; v < num_app_views; ++v) {
    // uffd mode keeps the VMA PROT_READ|PROT_WRITE forever; a fresh mapping
    // has no ptes, so it starts NoAccess with nothing to zap.
    MP_ASSIGN_OR_RETURN(
        Mapping m, Mapping::MapObject(vs->object_, 0, len,
                                      vs->uffd_ ? Protection::kReadWrite
                                                : Protection::kNoAccess));
    if (vs->uffd_) {
      MP_RETURN_IF_ERROR(fh.UffdRegisterRange(m.base(), len));
    }
    vs->app_views_.push_back(std::move(m));
  }
  const size_t vpages = len / PageSize();
  vs->shadow_.reserve(num_app_views);
  for (uint32_t v = 0; v < num_app_views; ++v) {
    auto arr = std::make_unique<std::atomic<uint8_t>[]>(vpages);
    for (size_t i = 0; i < vpages; ++i) {
      arr[i].store(static_cast<uint8_t>(Protection::kNoAccess), std::memory_order_relaxed);
    }
    vs->shadow_.push_back(std::move(arr));
  }
  vs->SetMetrics(&MetricsRegistry::Global());
  return vs;
}

bool ViewSet::Resolve(const void* addr, uint32_t* view, uint64_t* offset) const {
  const auto a = reinterpret_cast<uintptr_t>(addr);
  for (uint32_t v = 0; v < app_views_.size(); ++v) {
    const Mapping& m = app_views_[v];
    if (a >= m.base_addr() && a < m.base_addr() + m.length()) {
      *view = v;
      *offset = a - m.base_addr();
      return true;
    }
  }
  return false;
}

Status ViewSet::ApplyProtection(uint32_t view, uint64_t first_vpage, uint64_t last_vpage,
                                Protection prot) {
  const auto store_shadow = [&](uint64_t first, uint64_t last) {
    for (uint64_t vp = first; vp <= last; ++vp) {
      shadow_[view][vp].store(static_cast<uint8_t>(prot), std::memory_order_release);
    }
    prot_sets_->Inc();
    prot_set_pages_->Inc(last - first + 1);
  };
  if (!uffd_) {
    const size_t len = (last_vpage - first_vpage + 1) * PageSize();
    MP_RETURN_IF_ERROR(app_views_[view].Protect(first_vpage * PageSize(), len, prot));
    store_shadow(first_vpage, last_vpage);
    return Status::Ok();
  }
  for (uint64_t first = first_vpage; first <= last_vpage;) {
    const Protection from = GetVpageProtection(view, first);
    uint64_t last = first;
    while (last < last_vpage && GetVpageProtection(view, last + 1) == from) {
      ++last;
    }
    if (from != prot) {
      MP_RETURN_IF_ERROR(UffdTransition(view, first, last, from, prot));
      store_shadow(first, last);
    }
    first = last + 1;
  }
  return Status::Ok();
}

Status ViewSet::UffdTransition(uint32_t view, uint64_t first, uint64_t last, Protection from,
                               Protection to) {
  // Chaos-hook parity with Mapping::Protect: the injected-failure site fires
  // at the same points in the SetProtection call sequence in both modes.
  if (FailpointRegistry::Instance().Fire("os.mapping.protect")) {
    return Status::Exhausted("uffd protect: injected failure (os.mapping.protect)");
  }
  FaultHandler& fh = FaultHandler::Instance();
  std::byte* base = app_base(view) + first * PageSize();
  const size_t len = (last - first + 1) * PageSize();
  if (to == Protection::kNoAccess) {
    return fh.UffdZapRange(base, len);
  }
  if (from == Protection::kNoAccess) {
    return UffdInstall(view, first, last, /*write_protect=*/to == Protection::kReadOnly,
                       /*present_ok=*/false);
  }
  return fh.UffdWriteProtect(base, len, /*write_protect=*/to == Protection::kReadOnly);
}

Status ViewSet::UffdInstall(uint32_t view, uint64_t first, uint64_t last, bool write_protect,
                            bool present_ok) {
  FaultHandler& fh = FaultHandler::Instance();
  const uint64_t off = first * PageSize();
  const size_t len = (last - first + 1) * PageSize();
  size_t done = 0;
  for (;;) {
    size_t mapped = 0;
    const Status st = fh.UffdContinue(app_base(view) + off + done, len - done, write_protect,
                                      &mapped);
    done += mapped;
    if (st.ok() || (present_ok && st.code() == StatusCode::kAlreadyExists)) {
      return Status::Ok();
    }
    if (st.code() != StatusCode::kNotFound) {
      return st;
    }
    // A page-cache hole: the object fills lazily. Populate the rest of the
    // range through the privileged view (no data changes, so it cannot race
    // a server's store) and retry.
    if (madvise(PrivAddr(off + done), len - done, MADV_POPULATE_WRITE) != 0) {
      return Status::Errno("madvise(MADV_POPULATE_WRITE)");
    }
  }
}

bool ViewSet::RestoreFromShadow(uint32_t view, uint64_t offset, bool is_write) {
  const uint64_t vpage = offset / PageSize();
  const auto allows = [&] {
    const Protection have = GetVpageProtection(view, vpage);
    return is_write ? have == Protection::kReadWrite : have != Protection::kNoAccess;
  };
  if (!uffd_ || !allows()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!allows()) {
    return false;  // a downgrade landed meanwhile: the protocol must run
  }
  // The pte is absent (reclaim) or was installed by a racing fault.
  const bool read_only = GetVpageProtection(view, vpage) == Protection::kReadOnly;
  return UffdInstall(view, vpage, vpage, read_only, /*present_ok=*/true).ok();
}

bool ViewSet::RangeAlreadyAt(const Minipage& mp, Protection prot) const {
  for (uint64_t vp = mp.first_vpage(); vp <= mp.last_vpage(); ++vp) {
    if (GetVpageProtection(mp.view, vp) != prot) {
      return false;
    }
  }
  return true;
}

Status ViewSet::SetProtection(const Minipage& mp, Protection prot) {
  if (mp.view >= app_views_.size()) {
    return Status::Invalid("SetProtection: view out of range");
  }
  // Idempotence fast-path: the shadow is the source of truth for pte state
  // (every change funnels through ApplyProtection), so a same-protection
  // call — a racing double fault, or a record a batched ranged call already
  // applied — costs no syscall.
  const std::unique_lock<std::mutex> lock = PteLock();
  if (RangeAlreadyAt(mp, prot)) {
    return Status::Ok();
  }
  MP_RETURN_IF_ERROR(ApplyProtection(mp.view, mp.first_vpage(), mp.last_vpage(), prot));
  TraceProtSet(mp, prot);
  return Status::Ok();
}

Status ViewSet::SetProtectionBatch(const Minipage* mps, size_t count, Protection prot) {
  if (count == 0) {
    return Status::Ok();
  }
  if (count == 1) {
    return SetProtection(mps[0], prot);
  }
  // Collect the minipages whose protection actually changes, sorted by
  // (view, first vpage) so contiguous runs are adjacent.
  const std::unique_lock<std::mutex> lock = PteLock();
  std::vector<const Minipage*> todo;
  todo.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (mps[i].view >= app_views_.size()) {
      return Status::Invalid("SetProtectionBatch: view out of range");
    }
    if (!RangeAlreadyAt(mps[i], prot)) {
      todo.push_back(&mps[i]);
    }
  }
  if (todo.empty()) {
    return Status::Ok();
  }
  std::sort(todo.begin(), todo.end(), [](const Minipage* a, const Minipage* b) {
    if (a->view != b->view) {
      return a->view < b->view;
    }
    return a->first_vpage() < b->first_vpage();
  });
  // Merge touching/overlapping vpage ranges within a view and apply each
  // merged run with ONE ranged protection call (under uffd, one per run of
  // equal prior protection).
  uint32_t run_view = todo[0]->view;
  uint64_t run_first = todo[0]->first_vpage();
  uint64_t run_last = todo[0]->last_vpage();
  for (size_t i = 1; i < todo.size(); ++i) {
    const Minipage& mp = *todo[i];
    if (mp.view == run_view && mp.first_vpage() <= run_last + 1) {
      run_last = std::max(run_last, mp.last_vpage());
      continue;
    }
    MP_RETURN_IF_ERROR(ApplyProtection(run_view, run_first, run_last, prot));
    run_view = mp.view;
    run_first = mp.first_vpage();
    run_last = mp.last_vpage();
  }
  MP_RETURN_IF_ERROR(ApplyProtection(run_view, run_first, run_last, prot));
  // Per-minipage trace events are preserved — the checker reasons about
  // minipages, not syscalls — in the deterministic sorted order.
  for (const Minipage* mp : todo) {
    TraceProtSet(*mp, prot);
  }
  return Status::Ok();
}

Protection ViewSet::GetProtection(const Minipage& mp) const {
  return GetVpageProtection(mp.view, mp.first_vpage());
}

Status ViewSet::ProtectAllAppViews(Protection prot) {
  const std::unique_lock<std::mutex> lock = PteLock();
  for (uint32_t v = 0; v < app_views_.size(); ++v) {
    MP_RETURN_IF_ERROR(ApplyProtection(v, 0, vpages_per_view() - 1, prot));
  }
  return Status::Ok();
}

}  // namespace millipage
