// Home-based release consistency on MultiView minipages — the protocol the
// paper sketches in Section 5 ("Reduced-Consistency Protocols"): when
// minipages are chunked above the sharing grain, false sharing can be
// eliminated by relaxing the memory model instead of by shrinking the
// sharing unit, and "the overhead involved in the reduced consistency
// protocol itself is small compared to that measured in traditional
// page-based systems, due to the smaller page size".
//
// The design is home-based LRC in the style of Zhou/Iftode/Li (OSDI '96),
// simplified to synchronization-point granularity:
//   * every minipage has a static home host (id mod hosts); the home's
//     memory object holds the master copy;
//   * read faults fetch the master copy from the home (routed through the
//     manager for MPT translation, exactly like millipage requests);
//   * write faults additionally make a twin and mark the minipage dirty —
//     concurrent writers on one minipage are allowed (no invalidations);
//   * at a release (unlock, barrier entry) the host run-length-diffs every
//     dirty minipage against its twin and flushes the diffs to the homes,
//     which apply them to the master copy and acknowledge;
//   * at an acquire (lock grant, barrier exit) the host invalidates every
//     cached non-home minipage, so subsequent reads refetch fresh masters.
//
// Data-race-free programs observe release consistency; unlike millipage's
// SW/MR protocol this pays twin/diff costs (Section 4.2's 250 us/4 KB class
// of overhead) but tolerates false sharing inside large minipages.

#ifndef SRC_LRC_LRC_NODE_H_
#define SRC_LRC_LRC_NODE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "src/diff/diff.h"
#include "src/dsm/config.h"
#include "src/dsm/directory.h"
#include "src/dsm/wait_slots.h"
#include "src/multiview/allocator.h"
#include "src/multiview/minipage.h"
#include "src/multiview/view_set.h"
#include "src/net/transport.h"

namespace millipage {

// Statistics specific to the LRC protocol: a read-out of the node's
// registry (src/common/stats.h).
struct LrcCounters : CounterArithmetic<LrcCounters> {
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t fetches = 0;          // master copies pulled from homes
  uint64_t fetch_bytes = 0;
  uint64_t local_upgrades = 0;   // write faults served without any message
  uint64_t twins_created = 0;
  uint64_t diffs_flushed = 0;
  uint64_t diff_bytes = 0;
  uint64_t diffs_applied = 0;    // at this host acting as home
  uint64_t invalidation_sweeps = 0;
  uint64_t messages_sent = 0;
  uint64_t barriers = 0;
  uint64_t lock_acquires = 0;

  static const CounterField<LrcCounters> kFields[];
};

inline constexpr CounterField<LrcCounters> LrcCounters::kFields[] = {
    {"lrc.read_faults", &LrcCounters::read_faults},
    {"lrc.write_faults", &LrcCounters::write_faults},
    {"lrc.fetches", &LrcCounters::fetches},
    {"lrc.fetch_bytes", &LrcCounters::fetch_bytes},
    {"lrc.local_upgrades", &LrcCounters::local_upgrades},
    {"lrc.twins_created", &LrcCounters::twins_created},
    {"lrc.diffs_flushed", &LrcCounters::diffs_flushed},
    {"lrc.diff_bytes", &LrcCounters::diff_bytes},
    {"lrc.diffs_applied", &LrcCounters::diffs_applied},
    {"lrc.invalidation_sweeps", &LrcCounters::invalidation_sweeps},
    {"lrc.messages_sent", &LrcCounters::messages_sent},
    {"lrc.barriers", &LrcCounters::barriers},
    {"lrc.lock_acquires", &LrcCounters::lock_acquires},
};

class LrcNode final : private Directory::Seam {
 public:
  static Result<std::unique_ptr<LrcNode>> Create(const DsmConfig& config, HostId me,
                                                 Transport* transport);
  ~LrcNode() override;

  LrcNode(const LrcNode&) = delete;
  LrcNode& operator=(const LrcNode&) = delete;

  void Start();
  void Stop();

  HostId id() const { return me_; }
  uint16_t num_hosts() const { return config_.num_hosts; }
  bool is_manager() const { return me_ == kManagerHost; }
  ViewSet& views() { return *views_; }

  // ---- Application API ----------------------------------------------------

  Result<GlobalAddr> SharedMalloc(uint64_t size);

  std::byte* AppPtr(GlobalAddr a) const { return views_->AppAddr(a.view, a.offset); }

  // Barrier = release (flush diffs) + global rendezvous + acquire
  // (invalidate cached copies).
  void Barrier();
  // Lock = rendezvous + acquire; Unlock = release + hand-off.
  void Lock(uint32_t lock_id);
  void Unlock(uint32_t lock_id);

  // Home of a minipage: static placement.
  HostId HomeOf(MinipageId id) const { return static_cast<HostId>(id % config_.num_hosts); }

  // ---- Fault path -----------------------------------------------------------

  bool OnFault(uint32_t view, uint64_t offset, bool is_write);

  // ---- Introspection --------------------------------------------------------

  LrcCounters counters() const { return stats_.Read(); }
  MetricsSnapshot SnapshotMetrics() const { return metrics_.Snapshot(); }

 private:
  LrcNode(const DsmConfig& config, HostId me, Transport* transport);

  // A locally cached (non-home) minipage.
  struct CacheEntry {
    Minipage geometry;
    std::unique_ptr<Twin> twin;  // set while writable (dirty)
  };

  void ServerLoop();
  void HandleMessage(const MsgHeader& h);
  // Manager role: translation and allocation here; locks and the barrier are
  // the manager shard's service (Directory), over a membership that never
  // changes and with no history recorded. Its minipage service is unused.
  void MgrHandleFetch(const MsgHeader& h);
  void MgrHandleAlloc(const MsgHeader& h);
  void Send(HostId to, const MsgHeader& h) override { SendMsg(to, h); }
  void SendCoalesced(HostId to, const MsgHeader& h) override { SendMsg(to, h); }
  void BeginBurst() override {}
  void EndBurst() override {}
  void Forward(HostId, const MsgHeader&) override { MP_LOG(Fatal) << "LRC shard forwarded"; }
  void DeliverLost(const MsgHeader&) override { MP_LOG(Fatal) << "LRC shard lost a minipage"; }
  MsgHeader AnswerProbe(const MsgHeader& q) override {
    MP_LOG(Fatal) << "LRC shard polled survivors";
    return q;
  }
  void Trace(TraceEventKind, uint32_t, uint64_t, uint64_t, uint64_t) const override {}
  const HostSet& live_set() const override { return all_hosts_; }
  const HostSet& dead_set() const override { return no_hosts_; }
  // Home role.
  void ServeFetch(const MsgHeader& h);
  void ApplyIncomingDiff(const MsgHeader& h, std::vector<std::byte> payload);

  void HandleFetchReply(const MsgHeader& h);

  // Release: diff+flush all dirty minipages; blocks until homes ack.
  void FlushDirty();
  // Acquire: drop every cached non-home copy.
  void InvalidateCache();

  uint32_t ThreadSlot();
  void SendMsg(HostId to, const MsgHeader& h, const void* payload = nullptr, size_t len = 0);

  const DsmConfig config_;
  const HostId me_;
  Transport* const transport_;
  const HostSet all_hosts_ = HostSet::AllBelow(config_.num_hosts);
  const HostSet no_hosts_;
  // The only store of this host's counters (lrc.* and the shard's mgr.*),
  // declared before the directory that keeps pointers into it.
  MetricsRegistry metrics_;
  CounterBlock<LrcCounters> stats_{metrics_};
  std::unique_ptr<ViewSet> views_;
  WaitSlots slots_;

  // Local geometry knowledge, learned from fetch replies and served
  // fetches (guarded by mu_).
  std::unique_ptr<MinipageTable> local_mpt_;

  // MPT-host-only (allocation); sync tables live on host 0 when centralized
  // and on every host when the manager policy is sharded.
  std::unique_ptr<MinipageTable> mpt_;
  std::unique_ptr<MinipageAllocator> allocator_;
  std::unique_ptr<Directory> directory_;

  std::thread server_;
  std::atomic<bool> stop_{false};

  // Cache of non-home minipages and the set of home-owned minipages made
  // writable locally. Guarded by mu_ (fault path + app sync path; the
  // server thread only touches the privileged view).
  mutable std::mutex mu_;
  std::map<MinipageId, CacheEntry> cache_;
  std::vector<MinipageId> dirty_;
  // Diff-flush acknowledgement tracking.
  std::atomic<uint32_t> flush_acks_pending_{0};

  // Payload staging for incoming diffs (applied after header dispatch).
  std::vector<std::byte> diff_buffer_;
};

}  // namespace millipage

#endif  // SRC_LRC_LRC_NODE_H_
