// Write-intent prediction for read-modify-writes, keyed on the faulting
// instruction (DESIGN.md §14).
//
// The single-writer protocol serves `x += y` on a minipage another host last
// wrote as two faults: a read fault, whose serve downgrades the writer to a
// read copy, then a write fault, whose invalidation round takes that copy
// away. A load that is usually followed by a store to the same minipage can
// ask for the write grant at once, and the pair costs one fault and one
// downgrade. Kaxiras and Goodman's instruction-based prediction for migratory
// data (HPCA '99) keys the same decision on the instruction.
//
// The rule, per wait slot (one application thread of one host):
//   * a pc is marked when a read fault at it is followed by a write fault on
//     the same (view, vpage), with no other fault of the slot and no
//     Barrier/Lock/Unlock in between;
//   * a read fault at a marked pc asks for the write grant, except every
//     kRecheckEvery-th one, which runs as a plain read and re-checks the
//     pattern: a miss (another fault or a sync call comes first) unmarks the
//     pc. That bounds the cost where read-only code and RMW code share a pc.
// pc 0 (not decoded on this platform) never predicts. A predicted fault is an
// ordinary write request: a write grant only adds permission, so the
// protocol's SWMR and sequential-consistency arguments are unchanged.
//
// Only the slot's own thread touches its predictor, at signal depth: the
// state is one cache line, with no allocation or lock. The sync calls never
// touch it: they bump a per-slot count the thread's wait-slot lookup keeps
// (node.cc), and a fault compares that count with the one its open read saw.
// Decisions depend on pc equality only, never on pc values, so a same-seed
// simulator run decides the same way at any load address.

#ifndef SRC_DSM_RMW_PREDICTOR_H_
#define SRC_DSM_RMW_PREDICTOR_H_

#include <cstdint>

namespace millipage {

class alignas(64) RmwPredictor {
 public:
  static constexpr int kEntries = 4;            // marked pcs kept per slot
  static constexpr uint32_t kRecheckEvery = 8;  // plain-read re-check period

  struct Decision {
    bool write = false;      // send a write request
    bool predicted = false;  // ... although the fault was a read
    bool demoted = false;    // a re-check missed: its pc was unmarked
  };

  // One protocol fault of the owning thread at `pc` on (view, vpage).
  // `syncs` counts the slot's Barrier/Lock/Unlock calls so far.
  Decision OnFault(uintptr_t pc, uint32_t view, uint64_t vpage, bool is_write, uint32_t syncs) {
    Decision d;
    d.write = is_write;
    if (pending_pc_ != 0) {
      const bool hit = is_write && pending_syncs_ == syncs && pending_view_ == view &&
                       pending_vpage_ == vpage;
      if (hit) {
        Mark(pending_pc_);
      } else if (pending_recheck_) {
        d.demoted = Unmark(pending_pc_);
      }
      pending_pc_ = 0;
    }
    if (is_write || pc == 0) {
      return d;
    }
    const int i = Find(pc);
    if (i >= 0 && ++reads_[i] % kRecheckEvery != 0) {
      d.write = d.predicted = true;
      return d;
    }
    pending_pc_ = pc;
    pending_vpage_ = vpage;
    pending_view_ = view;
    pending_syncs_ = syncs;
    pending_recheck_ = i >= 0;
    return d;
  }

 private:
  // The read counter wraps at 256, which keeps the re-check period.
  static_assert(256 % kRecheckEvery == 0);

  int Find(uintptr_t pc) const {
    for (int i = 0; i < kEntries; ++i) {
      if (pcs_[i] == pc) {
        return i;
      }
    }
    return -1;
  }
  void Mark(uintptr_t pc) {
    if (Find(pc) >= 0) {
      return;
    }
    int i = Find(0);
    if (i < 0) {
      i = next_victim_;
      next_victim_ = static_cast<uint8_t>((next_victim_ + 1) % kEntries);
    }
    pcs_[i] = pc;
    reads_[i] = 0;
  }
  bool Unmark(uintptr_t pc) {
    const int i = Find(pc);
    if (i < 0) {
      return false;
    }
    pcs_[i] = 0;
    return true;
  }

  uintptr_t pcs_[kEntries] = {};  // marked pcs, 0 = free
  // The last read fault, waiting to see whether a write to its vpage follows
  // before another fault or a sync call.
  uintptr_t pending_pc_ = 0;  // 0 = none
  uint64_t pending_vpage_ = 0;
  uint32_t pending_view_ = 0;
  uint32_t pending_syncs_ = 0;
  uint8_t reads_[kEntries] = {};  // read faults at each pc since it was marked
  uint8_t next_victim_ = 0;
  bool pending_recheck_ = false;  // its pc is marked: the read re-checks it
};

}  // namespace millipage

#endif  // SRC_DSM_RMW_PREDICTOR_H_
