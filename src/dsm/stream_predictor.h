// Stream read-ahead, keyed on the faulting instruction (DESIGN.md §15).
//
// A loop that walks consecutive minipages faults on each of them in turn,
// and each fault pays its protocol hops one after the other. When one
// instruction's faults climb minipage ids one at a time, the next ones are
// as good as certain: a fault that continues such a walk fetches the
// minipages after it in the same split transaction, so their hops overlap.
//
// The rule, per wait slot (one application thread of one host): a fault at
// pc P continues a stream when
//   * P's previous fault of the same kind (read or write request) was on
//     minipage m,
//   * the slot made no Barrier/Lock/Unlock call since then, and
//   * the faulting address lies in minipage m+1.
// The node then fetches m+1 and up to kDepth minipages after it as one group
// and records the group's last id as P's position, so the walk's next fault
// continues the stream again. pc 0 (not decoded on this platform, or a call
// from outside a fault handler) never streams.
//
// Only the slot's own thread touches its predictor, at signal depth: the
// table is one cache line of four entries, most recent first, with no
// allocation or lock. Decisions depend on pc equality only, never on pc
// values, so a same-seed simulator run decides the same way at any load
// address.

#ifndef SRC_DSM_STREAM_PREDICTOR_H_
#define SRC_DSM_STREAM_PREDICTOR_H_

#include <cstdint>

#include "src/multiview/minipage.h"

namespace millipage {

class alignas(64) StreamPredictor {
 public:
  static constexpr int kEntries = 4;     // streams tracked per slot
  static constexpr uint32_t kDepth = 8;  // minipages fetched after the faulting one

  // The minipage a fault at `pc` of this kind continues its stream into:
  // m+1 when the pc's previous fault of the kind was on m and `syncs` (the
  // slot's Barrier/Lock/Unlock count) has not moved since; kInvalidMinipage
  // otherwise.
  MinipageId Next(uintptr_t pc, bool write, uint32_t syncs) const {
    if (pc == 0) {
      return kInvalidMinipage;
    }
    const uint32_t tag = Tag(write, syncs);
    for (const Entry& e : entries_) {
      if (e.pc == pc && e.tag == tag) {
        return e.last + 1;
      }
    }
    return kInvalidMinipage;
  }

  // Records that the fault at `pc` of this kind ended on minipage `last`
  // (its group's last member when it read ahead).
  void Record(uintptr_t pc, bool write, MinipageId last, uint32_t syncs) {
    if (pc == 0 || last == kInvalidMinipage) {
      return;
    }
    // Move to front: the entry for (pc, kind), or the least recent one,
    // becomes entries_[0].
    int i = kEntries - 1;
    for (int j = 0; j < kEntries; ++j) {
      if (entries_[j].pc == pc && (entries_[j].tag & 1u) == (write ? 1u : 0u)) {
        i = j;
        break;
      }
    }
    for (; i > 0; --i) {
      entries_[i] = entries_[i - 1];
    }
    entries_[0] = Entry{pc, last, Tag(write, syncs)};
  }

 private:
  // The kind in the low bit, the sync count (mod 2^31) above it: one
  // comparison checks both.
  static uint32_t Tag(bool write, uint32_t syncs) { return (syncs << 1) | (write ? 1u : 0u); }

  struct Entry {
    uintptr_t pc = 0;  // 0 = free
    MinipageId last = kInvalidMinipage;
    uint32_t tag = 0;
  };
  Entry entries_[kEntries];
};

static_assert(sizeof(StreamPredictor) == 64, "one cache line per slot");

}  // namespace millipage

#endif  // SRC_DSM_STREAM_PREDICTOR_H_
