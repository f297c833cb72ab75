#include "src/multiview/minipage.h"

namespace millipage {

Result<MinipageId> MinipageTable::Define(uint32_t view, uint64_t offset, uint64_t length) {
  if (length == 0) {
    return Status::Invalid("minipage length must be > 0");
  }
  if (view >= by_view_.size()) {
    by_view_.resize(view + 1);
  }
  auto& index = by_view_[view];
  // Overlap check against neighbors in this view.
  auto next = index.lower_bound(offset);
  if (next != index.end() && next->first < offset + length) {
    return Status::Precondition("minipage overlaps successor in view");
  }
  if (next != index.begin()) {
    auto prev = std::prev(next);
    if (pages_[prev->second].end() > offset) {
      return Status::Precondition("minipage overlaps predecessor in view");
    }
  }
  Minipage mp;
  mp.id = static_cast<MinipageId>(pages_.size());
  mp.view = view;
  mp.offset = offset;
  mp.length = length;
  pages_.push_back(mp);
  index.emplace(offset, mp.id);
  return mp.id;
}

Status MinipageTable::ExtendLast(MinipageId id, uint64_t new_length) {
  if (id >= pages_.size()) {
    return Status::Invalid("ExtendLast: bad minipage id");
  }
  Minipage& mp = pages_[id];
  if (new_length < mp.length) {
    return Status::Invalid("ExtendLast: cannot shrink");
  }
  // Safe only if this is the last minipage in its view's address order.
  const auto& index = by_view_[mp.view];
  if (index.rbegin()->second != id) {
    return Status::Precondition("ExtendLast: minipage is not the last in its view");
  }
  mp.length = new_length;
  return Status::Ok();
}

const Minipage* MinipageTable::Lookup(uint32_t view, uint64_t offset) const {
  lookup_count_++;
  if (view >= by_view_.size()) {
    return nullptr;
  }
  const auto& index = by_view_[view];
  auto it = index.upper_bound(offset);
  if (it == index.begin()) {
    return nullptr;
  }
  --it;
  const Minipage& mp = pages_[it->second];
  if (offset >= mp.offset && offset < mp.end()) {
    return &mp;
  }
  return nullptr;
}

}  // namespace millipage
