// Minipage descriptor and the minipage table (MPT).
//
// A minipage is the paper's unit of sharing: a sub-page (or multi-page)
// region of the shared memory object, *associated with* exactly one
// application view. Protection for the minipage is controlled by protecting
// the vpages it occupies in its associated view; because no two minipages
// that overlap the same physical vpage share a view, their protections are
// independent even though they share physical memory.

#ifndef SRC_MULTIVIEW_MINIPAGE_H_
#define SRC_MULTIVIEW_MINIPAGE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/os/page.h"

namespace millipage {

using MinipageId = uint32_t;
inline constexpr MinipageId kInvalidMinipage = ~0u;

struct Minipage {
  MinipageId id = kInvalidMinipage;
  uint32_t view = 0;       // associated application view
  uint64_t offset = 0;     // byte offset within the memory object
  uint64_t length = 0;     // bytes

  uint64_t end() const { return offset + length; }
  uint64_t first_vpage() const { return offset / PageSize(); }
  uint64_t last_vpage() const { return (end() - 1) / PageSize(); }
  // <offset, length> pair within the first vpage, as the paper identifies a
  // minipage (generalized when it spans several vpages).
  uint64_t offset_in_vpage() const { return offset % PageSize(); }
};

// The MPT: minipage geometry plus (view, offset) -> minipage lookup.
// The manager host owns the authoritative MPT; lookups there are the
// "minipage translation" the paper prices at 7 us in Table 1.
class MinipageTable {
 public:
  MinipageTable() = default;

  // Defines a new minipage. Fails if it overlaps an existing minipage in the
  // same view.
  Result<MinipageId> Define(uint32_t view, uint64_t offset, uint64_t length);

  // Grows the most recently defined minipage in `view` to `new_length`
  // (used by the chunking allocator while a chunk is open).
  Status ExtendLast(MinipageId id, uint64_t new_length);

  // Translates an (application view, object offset) pair to the minipage
  // containing it, or nullptr.
  const Minipage* Lookup(uint32_t view, uint64_t offset) const;

  const Minipage& Get(MinipageId id) const { return pages_[id]; }
  size_t size() const { return pages_.size(); }
  bool empty() const { return pages_.empty(); }

  uint64_t lookup_count() const { return lookup_count_; }

 private:
  std::vector<Minipage> pages_;
  // Per view: start offset -> minipage id, for binary-search translation.
  std::vector<std::map<uint64_t, MinipageId>> by_view_;
  mutable uint64_t lookup_count_ = 0;
};

}  // namespace millipage

#endif  // SRC_MULTIVIEW_MINIPAGE_H_
