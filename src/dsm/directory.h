// Directory: one manager shard, the paper's Figure 3 manager role, with its
// state and its rules: per-minipage copyset/ownership, service serialized
// behind the requester's ACK (queued competing requests are the paper's
// "competing requests" statistic), invalidation rounds, the lock and barrier
// service, an adopted shard's survivor polls, and repair after a host dies.
// Centralized deployments run one shard on host 0; sharded ones
// (ManagerPolicy::kSharded) run one per host, holding the ids that hash to
// it. Translation (MPT, allocator) stays on host 0's DsmNode.
//
// A shard has no thread, lock or transport. It takes one decoded message at a
// time (Handle) and reaches its host through the Seam, called in place, so
// every send and trace happens where the rule makes it. DsmNode and LrcNode
// (locks and barrier only) drive one from their server thread; tests drive
// one directly. The three liveness gauges are relaxed atomics.

#ifndef SRC_DSM_DIRECTORY_H_
#define SRC_DSM_DIRECTORY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/host_set.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/dsm/config.h"
#include "src/dsm/wait_slots.h"
#include "src/multiview/minipage.h"
#include "src/net/message.h"

namespace millipage {

// A survivor poll. After a failover, the shard that adopted an id asks every
// other live host what it holds of the dead shard's state: copies of a
// minipage (kCopysetQuery), a lock's grant (kLockProbe), or the barrier
// rounds completed (kBarrierProbe). Requests for the id queue while the poll
// is open; Directory::OpenPoll starts it and Directory::AnswerPoll takes each
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
  bool in_service = false;  // a request is being serviced (until ACK); see SetInService
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
  // re-evaluates against the live-host set when membership shrinks. Changed
  // only through Directory::Arrive/Depart.
  HostSet arrived_set;
  std::vector<MsgHeader> waiters;
  // Adopted-barrier generation probe: live hosts' completed-round counts seed
  // `generation` after the original barrier shard died.
  SurvivorPoll poll;
};

class Directory {
 public:
  // The rest of the shard's host: what a rule does beyond the shard's own
  // state. Every call happens in place, on the thread driving the shard.
  class Seam {
   public:
    virtual ~Seam() = default;
    // Sends `h` to `to` now / through the host's coalescer. A fan-out of
    // coalesced sends is bracketed by BeginBurst/EndBurst.
    virtual void Send(HostId to, const MsgHeader& h) = 0;
    virtual void SendCoalesced(HostId to, const MsgHeader& h) = 0;
    virtual void BeginBurst() = 0;
    virtual void EndBurst() = 0;
    // Hands a forwarded request to the replica that serves it (in place when
    // the replica is this host).
    virtual void Forward(HostId replica, const MsgHeader& fwd) = 0;
    // Delivers the kFlagAbort verdict for one of this host's own requests.
    virtual void DeliverLost(const MsgHeader& verdict) = 0;
    // This host's answer to a survivor-poll query (kCopysetQuery, kLockProbe
    // or kBarrierProbe): the reply it sends other hosts' polls.
    virtual MsgHeader AnswerProbe(const MsgHeader& query) = 0;
    // History recorder hook (src/common/trace.h), stamped with this host.
    virtual void Trace(TraceEventKind kind, uint32_t minipage, uint64_t addr, uint64_t arg1 = 0,
                       uint64_t arg2 = 0) const = 0;
    // Current membership.
    virtual const HostSet& live_set() const = 0;
    virtual const HostSet& dead_set() const = 0;
  };

  // Registers the shard's mgr.* counters (and the host.*/dsm.* counters its
  // rules count) in the owning node's registry.
  Directory(const DsmConfig& config, HostId me, MetricsRegistry& registry, Seam& seam);

  // Serves one manager-bound message, epoch tag already stripped: a
  // translated request (routed here, or bounced back by its serving host), an
  // invalidate reply, an ACK, a lock or barrier message, or a survivor-poll
  // answer. Fatal when this shard does not own the message's id.
  void Handle(const MsgHeader& h);

  // Repairs the shard after `dead` left the membership (already published):
  // purges its queued requests, retires its copies and the answers it owed,
  // re-issues or closes the transactions it was serving, declares minipages
  // whose only copy it held lost, frees its locks and drops it from the
  // barrier.
  void RepairAfterDeath(HostId dead);

  // State, for inspection (tests, diagnostics) on the driving thread.
  DirEntry& Entry(MinipageId id) {
    MP_CHECK(id != kInvalidMinipage) << "directory access with invalid minipage id";
    if (id >= entries_.size()) {
      entries_.resize(id + 1);
      num_entries_.store(entries_.size(), std::memory_order_relaxed);
    }
    return entries_[id];
  }
  LockEntry& Lock(uint32_t lock_id) {
    if (lock_id >= locks_.size()) {
      locks_.resize(lock_id + 1);
    }
    return locks_[lock_id];
  }
  const BarrierState& barrier() const { return barrier_; }

  // Shard counters. Competing requests are counted per host instead
  // (host.competing_requests).
  Counter& requests_served() const { return *requests_served_; }
  Counter& invalidation_rounds() const { return *invalidation_rounds_; }
  Counter& mpt_lookups() const { return *mpt_lookups_; }
  // Translated requests handed off to another host's shard (only the MPT
  // host routes, so this is nonzero only on host 0, only when sharded).
  Counter& remote_routed() const { return *remote_routed_; }

  // The liveness gauges, safe to read on any thread: minipage ids with
  // entries so far, minipages in service (their ACK or invalidation round is
  // outstanding), and hosts arrived at the open barrier.
  size_t num_entries() const { return num_entries_.load(std::memory_order_relaxed); }
  size_t InServiceCount() const { return in_service_.load(std::memory_order_relaxed); }
  int ArrivedCount() const { return arrived_.load(std::memory_order_relaxed); }
  // Lock ids with table slots so far (repair iterates [0, num_locks)).
  size_t num_locks() const { return locks_.size(); }

 private:
  bool OwnsShard(uint32_t id) const {
    return config_.ManagerOfLive(id, seam_.live_set()) == me_;
  }

  // Flips `e.in_service`, keeping InServiceCount current.
  void SetInService(DirEntry& e, bool on) {
    if (e.in_service != on) {
      e.in_service = on;
      const size_t n = in_service_.load(std::memory_order_relaxed);
      in_service_.store(on ? n + 1 : n - 1, std::memory_order_relaxed);
    }
  }
  // Adds `h` to / removes it from the barrier's arrived set.
  void Arrive(HostId h) {
    barrier_.arrived_set.Add(h);
    arrived_.store(barrier_.arrived_set.Count(), std::memory_order_relaxed);
  }
  void Depart(HostId h) {
    barrier_.arrived_set.Remove(h);
    arrived_.store(barrier_.arrived_set.Count(), std::memory_order_relaxed);
  }

  // Minipage service (Figure 3, manager paths).
  void StartService(const MsgHeader& h);
  void Process(const MsgHeader& h);
  void ProcessRead(const MsgHeader& h, DirEntry& e);
  void ProcessWrite(const MsgHeader& h, DirEntry& e);
  void ProcessPush(const MsgHeader& h, DirEntry& e);
  // Asks `target` to serve `fwd`, recording it as the in-service
  // transaction's data source.
  void Forward(DirEntry& e, HostId target, const MsgHeader& fwd);
  void HandleBounced(const MsgHeader& h);
  void HandleInvalidateReply(const MsgHeader& h);
  // Completes an invalidation round: forwards (or upgrades) the pending
  // write once every outstanding invalidation has been accounted for.
  void FinishWriteRound(MinipageId id);
  void HandleAck(const MsgHeader& h);
  void FinishService(MinipageId id);
  // Answers a request for a lost minipage with a kFlagAbort data reply.
  void ReplyLost(const MsgHeader& h);
  // Marks `e` permanently lost and answers every queued request with
  // ReplyLost.
  void DeclareLost(DirEntry& e);

  // Lock and barrier service.
  void HandleBarrierEnter(const MsgHeader& h);
  void HandleLockAcquire(const MsgHeader& h);
  void HandleLockRelease(const MsgHeader& h);
  // Grants free lock `lock_id` to the sender of `acquire`: sets the holder,
  // traces kLockGrant and sends the grant. A lock the sender already holds
  // is only re-sent its grant (the first was dropped across an epoch bump):
  // no new hand-off, so nothing is traced.
  void GrantLock(uint32_t lock_id, LockEntry& l, MsgHeader acquire);
  // Passes a lock its holder let go of (released, or died) to the oldest
  // waiter; frees it when none waits or an open poll defers every grant.
  void PassLock(uint32_t lock_id, LockEntry& l);
  // Releases the waiter that sent `enter` from the round it entered (its
  // pgsize).
  void SendBarrierRelease(MsgHeader enter);
  // Releases every queued waiter that entered a round below `gen`; the rest
  // stay queued and arrived.
  void ReleaseBarrierBelow(uint32_t gen);
  // Releases the barrier's oldest round once every live host has arrived.
  void MaybeReleaseBarrier();

  // Survivor polls. AdoptedHere: `id`'s home shard is dead and this host is
  // its live successor, so the id was adopted here. OpenPoll sends `query`
  // as a `type` message to every other live host, then takes this host's
  // own answer (Seam::AnswerProbe, read before the sends) like theirs.
  bool AdoptedHere(uint32_t id) const;
  void OpenPoll(SurvivorPoll& poll, MsgType type, MsgHeader query);
  // Takes `from` off the poll: its answer arrived, or it died. kStale when
  // the poll is not open (the answer is ignored); kClosed when no live host
  // is left to answer, which closes it.
  enum class PollStep : uint8_t { kStale, kWaiting, kClosed };
  PollStep AnswerPoll(SurvivorPoll& poll, HostId from);
  // Records one answer (kCopysetReply, kLockProbeReply or
  // kBarrierProbeReply), this host's own included.
  void TakeAnswer(const MsgHeader& a);
  // The poll's three kinds: Start* opens the poll, Finish* acts on it once
  // closed. Copyset rebuild for an adopted id (geometry travels in `h`).
  void StartCopysetRebuild(const MsgHeader& h);
  void FinishCopysetRebuild(MinipageId id);
  // Adopted-lock holder probe.
  void StartLockProbe(uint32_t lock_id);
  void FinishLockProbe(uint32_t lock_id);
  // Adopted-barrier generation probe (see directory.cc).
  void StartBarrierProbe();
  void FinishBarrierProbe();

  const DsmConfig config_;
  const HostId me_;
  Seam& seam_;

  std::vector<DirEntry> entries_;
  std::vector<LockEntry> locks_;
  BarrierState barrier_;
  uint32_t replica_rotation_ = 0;
  // Written by the driving thread only.
  std::atomic<size_t> num_entries_{0};
  std::atomic<size_t> in_service_{0};
  std::atomic<int> arrived_{0};
  Counter* const requests_served_;
  Counter* const invalidation_rounds_;
  Counter* const mpt_lookups_;
  Counter* const remote_routed_;
  Counter* const competing_requests_;
  Counter* const dup_invalidate_replies_;
  Counter* const shards_adopted_;
  Counter* const copyset_repairs_;
  Counter* const minipages_lost_;
};

}  // namespace millipage

#endif  // SRC_DSM_DIRECTORY_H_
