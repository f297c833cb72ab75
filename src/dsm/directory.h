// Manager-side directory: per-minipage copyset/ownership, in-service
// serialization with request queueing (the source of the paper's "competing
// requests" statistic), pending-write invalidation rounds, plus the lock and
// barrier tables. One Directory instance is one manager *shard*: centralized
// deployments run a single shard on host 0; sharded deployments
// (ManagerPolicy::kSharded) run one per host, holding exactly the ids that
// hash to it. All state in a shard is touched exclusively by its host's
// server thread, so no locking is needed.

#ifndef SRC_DSM_DIRECTORY_H_
#define SRC_DSM_DIRECTORY_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/host_set.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/dsm/wait_slots.h"
#include "src/multiview/minipage.h"
#include "src/net/message.h"

namespace millipage {

// A survivor poll. After a failover, the shard that adopted an id asks every
// other live host what it holds of the dead shard's state: copies of a
// minipage (kCopysetQuery), a lock's grant (kLockProbe), or the barrier
// rounds completed (kBarrierProbe). Requests for the id queue while the poll
// is open; DsmNode::OpenPoll starts it and DsmNode::AnswerPoll takes each
// answer, or retires a host that died before answering.
struct SurvivorPoll {
  bool open = false;
  // Latched when the poll opens: an adopted lock or barrier is polled at most
  // once. (A rebuilt copyset never empties again: the id keeps a copy or is
  // declared lost.)
  bool done = false;
  HostSet pending;  // hosts yet to answer
};

// Directory entry for one minipage.
struct DirEntry {
  HostSet copyset;          // hosts holding a copy
  bool writable = false;    // single copyset member holds ReadWrite
  bool in_service = false;  // a request is being serviced (until ACK)
  HostId in_service_for = 0;      // requester of the in-service transaction
  // The in-service request itself, kept so repair can re-issue the
  // transaction against a surviving replica when its data source dies.
  // Closing the service instead would break the 1:1 pairing between open
  // services and the requester ACKs that retire them (ACKs carry no
  // generation, so a stale ACK would close the wrong transaction).
  MsgHeader in_service_req{};
  std::deque<MsgHeader> pending;  // competing requests, FIFO

  // Outstanding invalidation round for a write request. The outstanding set
  // is a host set (not a count) so copyset repair can retire the
  // invalidations a dead host will never answer.
  bool write_pending = false;
  MsgHeader pending_write{};
  HostId write_remaining = 0;  // host that will supply the data
  HostSet invalidates_pending;

  // Outstanding confirmations for an in-service push-update broadcast.
  uint32_t push_outstanding = 0;

  // The replica asked to supply data for the in-service transaction (read
  // fetch or write forward). The requester joins the copyset at grant time,
  // before its copy exists, so when the source dies mid-flight repair must
  // know whom the transaction was waiting on to retract that provisional
  // copy and close or restart the service.
  bool fetch_pending = false;
  HostId fetch_from = 0;

  // ---- Recovery state ------------------------------------------------------
  // An adopted id's copyset rebuild; requests queue in `pending` while it is
  // open.
  SurvivorPoll poll;
  // The minipage's sole copy died with its host: every copy is gone and the
  // id is permanently degraded. Requests are answered with a per-minipage
  // error (kFlagAbort data reply), never served — and never a cluster abort.
  bool lost = false;

  // Host ids come off the wire, so a corrupt id must fail loudly instead of
  // silently aliasing membership. HostSet fatals on ids ≥ kMaxHosts (the
  // wire format's 10-bit ceiling); node/cluster construction rejects
  // num_hosts outside [1, kMaxHosts].
  bool HasCopy(HostId h) const { return copyset.Contains(h); }
  void AddCopy(HostId h) { copyset.Add(h); }
  void RemoveCopy(HostId h) { copyset.Remove(h); }
  int CopyCount() const { return copyset.Count(); }
  // Any copyset member, preferring one different from `avoid`. `hint`
  // rotates the starting position: when read ACKs are elided the copyset can
  // transiently contain members whose copy is still inbound, and a rotating
  // choice guarantees a re-routed request eventually reaches the (always
  // existing) member with stable data.
  HostId PickReplica(HostId avoid, uint32_t hint = 0) const {
    // An empty copyset has no replica to pick: hint % 0 divides by zero, so
    // fail loudly instead of returning garbage.
    MP_CHECK(!copyset.Empty()) << "PickReplica on an empty copyset (minipage has no holder)";
    HostSet others = copyset;
    others.Remove(avoid);
    const HostSet& pool = others.Empty() ? copyset : others;
    const int n = pool.Count();
    const int skip = static_cast<int>(hint % static_cast<uint32_t>(n));
    return static_cast<HostId>(pool.SelectNth(skip));
  }
};

struct LockEntry {
  bool held = false;
  HostId holder = 0;
  // The holder's wait slot (WaitSlots::SeqSlot of its acquire): another
  // thread of the holding host queues like any other host, while a re-sent
  // acquire from the holding slot itself is re-granted.
  uint32_t holder_slot = 0;
  std::deque<MsgHeader> waiters;

  // Adopted-lock holder probe: before the first grant after a failover, the
  // new owning shard asks every live host whether it holds the lock (a grant
  // by the dead shard that is still live must be honored, not doubled).
  // Acquires queue in `waiters` while it is open.
  SurvivorPoll poll;

  // Collapses a re-sent acquire into its queued predecessor, keeping the
  // freshest header: a membership kick re-sends with a new generation in the
  // same slot, and a grant built from the stale queued header would be
  // discarded by the waiter as an abandoned attempt's reply — wedging the
  // lock. Returns false if (`h.from`, slot) was not queued (the caller pushes
  // the header instead). Queued waiters were stripped of their epoch tag at
  // receive time, so `from` is a pure host id.
  bool RefreshWaiter(const MsgHeader& h) {
    for (MsgHeader& w : waiters) {
      if (w.from == h.from && WaitSlots::SeqSlot(w.seq) == WaitSlots::SeqSlot(h.seq)) {
        w = h;
        return true;
      }
    }
    return false;
  }
};

struct BarrierState {
  uint32_t generation = 0;
  // Hosts with a queued entry: duplicate entries (post-failover re-sends)
  // collapse instead of double-counting, and the DSM barrier's release
  // re-evaluates against the live-host set when membership shrinks.
  HostSet arrived_set;
  std::vector<MsgHeader> waiters;
  // Adopted-barrier generation probe: live hosts' completed-round counts seed
  // `generation` after the original barrier shard died.
  SurvivorPoll poll;
};

class Directory {
 public:
  // Registers the shard's mgr.* counters in the owning node's registry.
  explicit Directory(MetricsRegistry& registry)
      : requests_served_(registry.GetCounter("mgr.requests_served")),
        invalidation_rounds_(registry.GetCounter("mgr.invalidation_rounds")),
        mpt_lookups_(registry.GetCounter("mgr.mpt_lookups")),
        remote_routed_(registry.GetCounter("mgr.remote_routed")) {}

  DirEntry& Entry(MinipageId id) {
    MP_CHECK(id != kInvalidMinipage) << "directory access with invalid minipage id";
    if (id >= entries_.size()) {
      entries_.resize(id + 1);
    }
    return entries_[id];
  }

  LockEntry& Lock(uint32_t lock_id) {
    if (lock_id >= locks_.size()) {
      locks_.resize(lock_id + 1);
    }
    return locks_[lock_id];
  }

  BarrierState& barrier() { return barrier_; }
  const BarrierState& barrier() const { return barrier_; }
  // Shard counters. Competing requests are counted per host instead
  // (host.competing_requests).
  Counter& requests_served() const { return *requests_served_; }
  Counter& invalidation_rounds() const { return *invalidation_rounds_; }
  Counter& mpt_lookups() const { return *mpt_lookups_; }
  // Translated requests handed off to another host's shard (only the MPT
  // host routes, so this is nonzero only on host 0, only when sharded).
  Counter& remote_routed() const { return *remote_routed_; }

  size_t num_entries() const { return entries_.size(); }
  // Lock ids with table slots so far (repair iterates [0, num_locks)).
  size_t num_locks() const { return locks_.size(); }

  // Minipages currently in service (their ACK or invalidation round is
  // outstanding). Read from liveness diagnostics off the manager thread, so
  // the count is a best-effort racy snapshot.
  size_t InServiceCount() const {
    size_t n = 0;
    for (const DirEntry& e : entries_) {
      n += e.in_service ? 1 : 0;
    }
    return n;
  }

 private:
  std::vector<DirEntry> entries_;
  std::vector<LockEntry> locks_;
  BarrierState barrier_;
  Counter* const requests_served_;
  Counter* const invalidation_rounds_;
  Counter* const mpt_lookups_;
  Counter* const remote_routed_;
};

}  // namespace millipage

#endif  // SRC_DSM_DIRECTORY_H_
