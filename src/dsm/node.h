// DsmNode: one millipage host. It owns the host's memory object and views,
// the server thread, the transport and the coalescer, and plays four roles:
//   * requester: fault entry, wait slots, write-intent prediction, stream
//     read-ahead and the split-transaction fetch;
//   * translation (MPT + allocator): always on host 0 (kManagerHost), the only
//     host that can map a faulting address to a minipage id; it routes every
//     translated request to the owning manager shard;
//   * manager shard: the Directory (directory.h), on host 0 when
//     ManagerPolicy::kCentralized, on every host when kSharded. The node
//     hands it decoded messages and is its Seam;
//   * replica server and membership: serve, install and ACK; the epoch bump
//     and the kicks that follow a host death.
//
// The protocol is the paper's Figure 3, message for message:
//   * faults send a 32-byte request to the manager and block on an event;
//   * the manager translates (MPT lookup), updates the copyset, and forwards;
//   * serving hosts adjust their own vpage protection and send the minipage
//     contents directly from the privileged view (no buffering, no lookup);
//   * the requester's server thread receives the data straight into the
//     privileged view, raises protection, ACKs to the manager, which
//     serializes per-minipage service and makes non-manager queueing
//     unnecessary, and wakes the faulting thread.

#ifndef SRC_DSM_NODE_H_
#define SRC_DSM_NODE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/host_set.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/dsm/config.h"
#include "src/dsm/directory.h"
#include "src/dsm/rmw_predictor.h"
#include "src/dsm/stream_predictor.h"
#include "src/dsm/wait_slots.h"
#include "src/multiview/allocator.h"
#include "src/multiview/minipage.h"
#include "src/multiview/view_set.h"
#include "src/net/transport.h"

namespace millipage {

struct ThreadSlotEntry;  // node.cc: the calling thread's wait slot on a node

class DsmNode final : private Directory::Seam {
 public:
  // `transport` must outlive the node and already know all hosts.
  static Result<std::unique_ptr<DsmNode>> Create(const DsmConfig& config, HostId me,
                                                 Transport* transport);
  ~DsmNode() override;

  DsmNode(const DsmNode&) = delete;
  DsmNode& operator=(const DsmNode&) = delete;

  void Start();  // launches the DSM server thread
  void Stop();   // stops and joins it

  // ---- Deterministic-simulation surface ---------------------------------
  // An externally-driven alternative to Start(): the simulator delivers
  // exactly one pending message (non-blocking poll + dispatch) per call, so
  // a scheduler owns the complete delivery order. Never mix with Start().
  // Returns true if a message was handled.
  bool PumpOne();

  // True while the thread owning `slot` is parked inside WaitFor with no
  // reply available — i.e. it cannot make progress until a message is
  // delivered. The simulator's quiescence test.
  bool WaiterBlocked(uint32_t slot) const { return slots_.WaiterBlocked(slot); }

  // Fails every blocked waiter with `why` (deadlock diagnosis path).
  void AbortWaiters(const Status& why) { slots_.AbortAll(why); }

  HostId id() const { return me_; }
  uint16_t num_hosts() const { return config_.num_hosts; }
  // True for the MPT/allocator host (host 0), which also translates and
  // routes every untranslated request.
  bool is_manager() const { return me_ == kManagerHost; }
  // True when this host's shard serves directory/lock state for `id` under
  // the current membership (live-aware: adopted ids count after a failover).
  bool OwnsShard(uint32_t id) const {
    return config_.ManagerOfLive(id, live_set()) == me_;
  }
  const DsmConfig& config() const { return config_; }
  ViewSet& views() { return *views_; }

  // ---- Application API -------------------------------------------------

  // Allocates `size` bytes of shared memory at the MPT host (host 0). The
  // returned canonical address is valid on every host. A started host 0
  // allocates on the calling thread and sends no message; every other host
  // (and a simulator-pumped host 0) sends a request and waits for the reply,
  // polling first when the node runs a server loop.
  Result<GlobalAddr> SharedMalloc(uint64_t size);

  // Ends the open aggregation chunk (Section 4.4) so the next allocation
  // starts a new minipage. Inline on a started host 0, like SharedMalloc.
  void CloseChunk();

  // Local pointer for a canonical address on this host.
  std::byte* AppPtr(GlobalAddr a) const {
    MP_CHECK(a.view < views_->num_app_views() && a.offset < views_->object_size())
        << "bad canonical address view=" << a.view << " offset=" << a.offset;
    return views_->AppAddr(a.view, a.offset);
  }

  void Barrier();
  void Lock(uint32_t lock_id);
  void Unlock(uint32_t lock_id);

  // Liveness-aware variants: bounded by config().sync_timeout_ms, they
  // return a diagnostic Status (kDeadlineExceeded / kUnavailable) instead of
  // hanging when a reply is lost or a peer is down. The void wrappers above
  // fail fatally on the same conditions — loud, never wedged.
  Status TryBarrier();
  Status TryLock(uint32_t lock_id);

  // Cooperative teardown: once the application has passed its final barrier,
  // peers exiting (connection EOFs) is expected — suppress the peer-down
  // abort so normal shutdown is quiet.
  void BeginShutdown() { draining_.store(true, std::memory_order_release); }

  // Non-OK once a peer died or liveness gave up; all subsequent blocking
  // operations on this node fail fast with this status.
  Status health() const { return slots_.aborted() ? slots_.abort_status() : Status::Ok(); }

  // Asynchronous read prefetch of the minipage containing `a` (Section 4.3.1,
  // the LU prefetch calls). No-op if a copy is already present.
  void Prefetch(GlobalAddr a);

  // Composed-view coarse read (Section 5, "Composed-Views"): fetches read
  // copies of every minipage containing one of `addrs` as one batched,
  // split-transaction operation — all requests are issued before any reply
  // is awaited, so the fetch latencies pipeline instead of serializing as
  // they would through individual faults. Each reply is ACKed as it is
  // installed. After the call the group is readable at fine granularity;
  // writes still operate per minipage. Returns the number of distinct
  // minipages fetched: 0 when the ACK is disabled (`enable_ack` false), where
  // nothing would hold a member behind its minipage's service, as for
  // Prefetch.
  size_t FetchGroup(const GlobalAddr* addrs, size_t count);

  // Pushes readable copies of the minipage containing `a` to all hosts (the
  // TSP best-tour update). Fire-and-forget; serialized at the manager.
  void PushToAll(GlobalAddr a);

  // Deterministic compute proxy reported by applications (priced by the
  // cost model when reproducing Figure 6/7).
  void AddWorkUnits(uint64_t n);

  // ---- Fault path --------------------------------------------------------

  // Full fault service; called from the SIGSEGV/SIGBUS handler on the
  // faulting thread. A read at an instruction whose loads this thread follows
  // with a store to the same minipage asks for the write grant (RmwPredictor,
  // keyed on FaultHandler::FaultingPc(); a call from outside a fault handler
  // never predicts). Returns true when the access may be retried.
  bool OnFault(uint32_t view, uint64_t offset, bool is_write);

  // Status-returning core of OnFault. The deterministic simulator calls it
  // directly so a permanently lost minipage (sole copy died with its host)
  // surfaces as a per-access kNotFound error instead of a SIGSEGV. A fault
  // that continues its instruction's walk over consecutive minipages fetches
  // the next StreamPredictor::kDepth with it in one group (stream read-ahead,
  // DESIGN.md §15; off without the ACK, and for calls from outside a fault
  // handler, whose pc reads 0).
  Status FaultService(uint32_t view, uint64_t offset, bool is_write);

  // ---- Membership / recovery ---------------------------------------------

  // Monotonically increasing membership epoch. Every datagram is stamped
  // with it (high bits of the wire `from` field); pre-death traffic from a
  // host later declared dead is discarded like a stale generation.
  uint32_t member_epoch() const { return membership().epoch; }
  // Hosts this node has declared dead (cumulative) / their complement. The
  // returned references point into an immutable membership snapshot retained
  // for the node's lifetime, so they stay valid across concurrent bumps
  // (readers may just observe a superseded snapshot).
  const HostSet& dead_set() const override { return membership().dead; }
  const HostSet& live_set() const override { return membership().live; }
  // True when a peer death is answered with epoch-bump recovery instead of
  // the sticky whole-cluster abort: the directory is sharded. A dead host 0
  // is always unrecoverable (it owns the MPT and allocator).
  bool RecoveryEnabled() const { return config_.manager_policy == ManagerPolicy::kSharded; }
  // Marks `peer` for recovery processing (the simulator's injection point;
  // the threaded path arrives through the transport's peer-down callback).
  void InjectPeerDeath(HostId peer) {
    std::lock_guard<std::mutex> lock(pending_death_mu_);
    pending_deaths_.Add(peer);
    has_pending_deaths_.store(true, std::memory_order_release);
  }
  // Executes any pending host-death recovery: bumps the membership epoch,
  // broadcasts it, repairs the directory shard (copyset repair, shard
  // adoption, lock/barrier cleanup), and kicks parked waiters so they re-send
  // against the new membership. Runs on the server thread each loop
  // iteration; the simulator calls it directly between steps so recovery is
  // deterministic. Returns true if a death was processed.
  bool ProcessPendingDeaths();

  // Retry pacing for idempotent fetches. Each attempt's window doubles up to
  // a cap, and the seeded jitter keeps a cluster of hosts that timed out
  // together from re-firing in lockstep against the same recovering shard.
  static constexpr double kRetryBackoffBase = 2.0;
  static constexpr uint64_t kRetryBackoffMaxMs = 30000;
  static constexpr uint32_t kRetryJitterPct = 20;
  // Per-attempt reply deadline for idempotent-fetch attempt `attempt`
  // (0-based): request_timeout_ms * kRetryBackoffBase^attempt, capped at
  // kRetryBackoffMaxMs, with ±kRetryJitterPct% jitter (none on attempt 0)
  // drawn from a fixed seed ^ host id. Pure function of (cfg, host, attempt)
  // so a run's retry schedule is reproducible; exposed for tests.
  static uint64_t RetryTimeoutMs(const DsmConfig& cfg, HostId host, uint32_t attempt);

  // Recovery counters (dsm.* in the registry).
  uint64_t epoch_bumps() const { return epoch_bumps_->value(); }
  uint64_t shards_adopted() const { return shards_adopted_->value(); }
  uint64_t copyset_repairs() const { return copyset_repairs_->value(); }
  uint64_t minipages_lost() const { return minipages_lost_->value(); }
  // True once this host has learned minipage `id` is permanently lost.
  bool IsLost(uint32_t id) const {
    std::lock_guard<std::mutex> lock(lost_mu_);
    return lost_minipages_.count(id) != 0;
  }

  // Registers the calling thread (assigns its wait slot). Implicit on first
  // use; exposed for tests.
  uint32_t ThreadSlot();

  // ---- Introspection -----------------------------------------------------

  // Typed read-out of this host's host.* counters from the registry.
  HostCounters counters() const { return host_.Read(); }
  std::vector<EpochRecord> epochs() const;
  HistogramSnapshot read_fault_latency() const { return read_fault_ns_->Snapshot(); }
  HistogramSnapshot write_fault_latency() const { return write_fault_ns_->Snapshot(); }
  uint64_t bounced_requests() const { return bounced_->value(); }
  uint64_t fault_retries() const { return fault_retries_->value(); }
  // Idempotent requests re-sent after a reply deadline expired.
  uint64_t timeout_retries() const { return timeout_retries_->value(); }
  // Late replies to abandoned attempts, discarded by generation check.
  uint64_t stale_replies() const { return stale_replies_->value(); }
  // Peers this node has observed down.
  HostSet peers_down_set() const {
    std::lock_guard<std::mutex> lock(peer_down_mu_);
    return peer_down_;
  }

  // One-line snapshot of liveness state (peers down, retry counts, manager
  // directory/barrier occupancy). Best-effort racy read, for diagnostics.
  std::string LivenessReport() const;

  // This node's metric registry: every counter of this host (host.*, dsm.*,
  // and the shard's mgr.*), the fault/sync latency histograms, and whatever
  // the node's ViewSet records (mv.*). Register bench- or app-specific
  // metrics here for per-host attribution.
  MetricsRegistry& metrics() { return metrics_; }

  // Everything observable about this host under flat names: the registry's
  // snapshot. Merge snapshots across nodes (or feed DumpJson) for
  // cluster-wide views.
  MetricsSnapshot SnapshotMetrics() const { return metrics_.Snapshot(); }

  // This host's manager shard (null on non-manager hosts when centralized);
  // mpt/allocator are null everywhere but host 0, and are read unlocked, so
  // only while nothing allocates or translates (e.g. after a run).
  Directory* directory() { return directory_.get(); }
  const MinipageTable* mpt() const { return mpt_.get(); }
  const MinipageAllocator* allocator() const { return allocator_.get(); }

 private:
  DsmNode(const DsmConfig& config, HostId me, Transport* transport);

  // The calling thread's wait-slot cache entry for this node, acquiring a
  // slot on first use.
  ThreadSlotEntry& ThreadEntry();
  // ThreadSlot() for a Barrier, Lock or Unlock: also counts the call, which
  // ends any read-then-write pattern the write-intent prediction watches.
  uint32_t SyncSlot();
  // The acquire loop of TryBarrier and TryLock: sends `h`, stamped with
  // `slot` and a fresh generation, to the live shard of h.minipage and waits
  // for its grant (polling first when `poll`). A failed send waits for a
  // membership change and re-sends; a membership kick re-sends; any other
  // failure is a liveness failure of `op`.
  Result<MsgHeader> Acquire(uint32_t slot, MsgHeader h, bool poll, const char* op);

  // Fault path. FetchForFault is FetchSplit with the fault's one request,
  // re-sent on a membership change or a timeout. ReadAhead serves a fault the
  // slot's StreamPredictor says continues a stream into minipage `next`: when
  // the address does lie in `next`, it fetches `next` and the members after
  // it whose translations this host has learned, sets *last to the group's
  // last id and returns the fault's own reply; otherwise, or when the group
  // fails before that reply arrives, it is FetchForFault.
  Result<MsgHeader> FetchForFault(uint32_t slot, uint64_t addr, bool is_write);
  Result<MsgHeader> ReadAhead(uint32_t slot, uint32_t view, uint64_t offset, bool is_write,
                              MinipageId next, MinipageId* last);
  // One split transaction on `slot`, the send-and-collect path of every
  // fetch: sends reqs[0..n) with one generation through SendGroup, then
  // collects the replies in any order, waiting up to `timeout_ms` for each.
  // The server thread installs and ACKs every reply (HandleReply), so
  // nothing here holds a minipage in service. Returns the reply to reqs[0],
  // known by its addr and abort-flagged when it is lost; every other
  // installed reply adds its minipage id to *members and its bytes to
  // host.prefetch_bytes. A failed send, or a failed wait before reqs[0]'s
  // reply, ends the group with that error; a member reply still missing
  // once reqs[0]'s is in is left to arrive on its own.
  Result<MsgHeader> FetchSplit(uint32_t slot, MsgHeader* reqs, size_t n, uint64_t timeout_ms,
                               const char* what, std::vector<MinipageId>* members);
  // Sends `n` same-type requests to the MPT host: up to kMaxBatchRecords a
  // frame with batching on, one message each with it off. Stops at the first
  // failed send.
  Status SendGroup(const MsgHeader* reqs, size_t n);
  // The ACK for data reply or push `reply`, bound for
  // LiveManagerOf(reply.minipage); kFlagAbort renounces the grant.
  MsgHeader AckFor(const MsgHeader& reply, uint8_t flags = 0) const;
  // Records that minipage `id` is permanently lost (HandleReply does, for
  // every abort verdict it delivers); FaultLost returns the faulting
  // access's kNotFound error for one.
  void NoteLost(MinipageId id);
  Status FaultLost(const char* what, MinipageId id);
  // Stores the translation a reply carries: (view, offset, length) of its
  // minipage id, which never changes once assigned.
  void LearnTranslation(const MsgHeader& reply);

  // Server thread.
  void ServerLoop();
  PayloadSink MakeServerSink();
  void HandleMessage(const MsgHeader& h);
  // Post-epoch-gate dispatch: DispatchOne runs the per-type switch on a
  // single logical message; DispatchBatch unpacks a kFlagBatched frame from
  // batch_rx_ and dispatches its records in order.
  void DispatchOne(const MsgHeader& h);
  void DispatchBatch(const MsgHeader& h);

  // ---- Coherence-traffic coalescer (server thread only) ------------------
  // Queues `h` for `to` in a per-(destination, type) batch instead of sending
  // immediately; falls back to SendMsg when batching is disabled. Batches
  // drain via FlushCoalesced() — called whenever the server runs out of
  // immediately-deliverable messages, so coalescing never delays traffic
  // behind idle waiting.
  void SendCoalesced(HostId to, const MsgHeader& h) override;
  void FlushCoalesced();

  // ---- The manager shard's seam (Directory::Seam) ------------------------
  void Send(HostId to, const MsgHeader& h) override { SendMsg(to, h); }
  void BeginBurst() override { transport_->BeginBurst(); }
  void EndBurst() override { transport_->EndBurst(); }
  // Sends a forwarded request to the serving replica. When this host is
  // itself the replica (either policy), serves inline from the privileged
  // view instead of bouncing the header through the transport.
  void Forward(HostId replica, const MsgHeader& fwd) override;
  // A lost verdict for this host's own request waits until its handler has
  // sent everything else, so the worker it wakes never races those sends:
  // WakeLost, at the end of HandleMessage and before a membership change
  // kicks waiters, hands each to HandleReply's abort branch.
  void DeliverLost(const MsgHeader& verdict) override { lost_verdicts_.push_back(verdict); }
  void WakeLost();
  // This host's answer to a survivor-poll query, for another host's poll
  // (sent back by DispatchOne) or for its own shard's.
  MsgHeader AnswerProbe(const MsgHeader& query) override;

  // This host's manager shard; fatal at a host that runs none (a manager
  // message misrouted to a non-zero host of a centralized cluster).
  Directory& Shard() const {
    MP_CHECK(directory_ != nullptr) << "host " << me_ << " runs no manager shard";
    return *directory_;
  }

  // Translation (host 0).
  bool MgrTranslate(MsgHeader* h);
  // Host 0 only: translate an untranslated request and either serve it (own
  // shard) or hand the translated header to the owning shard.
  void MgrTranslateAndRoute(const MsgHeader& h);
  // Allocation at the MPT host. MgrAllocate allocates h.pgsize (> 0) bytes,
  // opens ReadWrite over every allocated minipage no request has been
  // translated for yet, and returns the kAllocReply for h — all under
  // alloc_mu_, so a translation never sees a grown chunk before its grant.
  // It runs on the server thread (MgrHandleAlloc, for requests) and on a
  // started host 0's own threads (SharedMalloc). MgrCloseChunk ends the open
  // chunk under the same mutex.
  MsgHeader MgrAllocate(const MsgHeader& h);
  void MgrCloseChunk();
  // True on a started host 0: SharedMalloc and CloseChunk run the allocator
  // on the calling thread instead of a round trip through the server thread.
  // A simulator-pumped host 0 keeps the message, so same-seed histories do
  // not depend on this path.
  bool AllocatesInline() const {
    return is_manager() && reply_poll_us_.load(std::memory_order_relaxed) != 0;
  }
  void MgrHandleAlloc(const MsgHeader& h);

  // Serving side (any host).
  void ServeReadRequest(const MsgHeader& h);
  void ServeWriteRequest(const MsgHeader& h);
  void HandleInvalidateRequest(const MsgHeader& h);
  void HandleReply(const MsgHeader& h);
  void ApplyPush(const MsgHeader& h);
  void PusherBroadcast(const MsgHeader& h);
  // Returns the request to the manager when this host cannot serve it
  // (reachable only with the ACK disabled — the race the ACK prevents).
  void Bounce(MsgHeader h);

  Minipage MinipageFromHeader(const MsgHeader& h) const;
  // Server-side send: failures are logged and, for unreachable peers, turned
  // into a peer-down event; the server keeps serving the rest of the mesh.
  void SendMsg(HostId to, const MsgHeader& h, const void* payload = nullptr, size_t len = 0);
  // Application-side send: same handling, but the Status is propagated so
  // the blocking operation can fail instead of waiting for a reply that was
  // never sent.
  Status TrySendMsg(HostId to, const MsgHeader& h, const void* payload = nullptr,
                    size_t len = 0);
  // Sends `n` (1..kMaxBatchRecords) same-type headers to `to`: one plain
  // header when n == 1, otherwise one kFlagBatched frame whose records are
  // the headers' per-minipage fields and whose type/flags/from/seq are
  // items[0]'s. The one place batched frames are built and counted.
  Status TrySendRecords(HostId to, const MsgHeader* items, size_t n);
  // SendMsg's failure handling for a send whose Status the caller holds.
  void LogSendFailure(HostId to, const MsgHeader& h, const Status& st);

  // ---- Liveness machinery ------------------------------------------------

  // Starts a fresh attempt on `slot`: bumps the slot's generation so replies
  // to earlier attempts are recognizably stale.
  uint32_t NextGen(uint32_t slot) {
    return (slot_gen_[slot].fetch_add(1, std::memory_order_relaxed) + 1) & 0xffffffu;
  }

  // Waits for the reply tagged (slot, gen), discarding stale replies from
  // abandoned attempts. timeout_ms = 0 waits forever. `poll` marks a wait
  // a few hops from its reply (fault data, lock grant, allocation): it polls
  // for reply_poll_us_ before parking. Barrier waits park at once.
  Result<MsgHeader> AwaitReply(uint32_t slot, uint32_t gen, uint64_t timeout_ms,
                               const char* what, bool poll = false);

  // Posts `reply` to the waiter on its seq's slot. Inside a simulator step
  // it also marks the step: the woken worker runs at once, so TrySendMsg
  // fails the run on any later send of the step.
  void Wake(const MsgHeader& reply);

  // Peer-down event (from the transport or a send failure): schedules
  // recovery when the death is recoverable, otherwise aborts every
  // outstanding wait — unless the node is already draining at teardown.
  void OnPeerDown(HostId peer);

  // ---- Membership / recovery machinery (server thread unless noted) ------

  // Owning shard for `id` under the current live set.
  HostId LiveManagerOf(uint32_t id) const {
    return config_.ManagerOfLive(id, live_set());
  }
  // Merges (epoch, dead set) into local membership; on change, repairs the
  // directory for each newly dead host, kicks waiters, and drains deferred
  // messages. `broadcast` additionally announces the new membership to every
  // live peer (the detector path).
  void ApplyMembership(uint32_t epoch, const HostSet& dead, bool broadcast);
  void DrainDeferred();
  // App-thread side of recovery: blocks (bounded by sync_timeout_ms) until
  // the membership epoch advances past `epoch_before`, so an operation whose
  // send failed against a dying peer can retry under the new membership.
  bool AwaitMembershipChange(uint32_t epoch_before);
  // Logs the liveness report and returns `cause` annotated with `op`.
  Status LivenessFailure(const char* op, const Status& cause);

  // History recorder hook; no-op when config_.trace is null.
  void Trace(TraceEventKind kind, uint32_t minipage, uint64_t addr, uint64_t arg1 = 0,
             uint64_t arg2 = 0) const override {
    if (config_.trace != nullptr) {
      config_.trace->Emit(kind, me_, minipage, addr, arg1, arg2);
    }
  }

  const DsmConfig config_;
  const HostId me_;
  // Process-unique id keying per-thread wait-slot caches (never reused, so
  // a node allocated at a dead node's address cannot inherit its slots).
  const uint64_t uid_;
  Transport* const transport_;

  // Per-node metric registry, the only store of this host's counters. Each
  // counter and histogram is registered once, here or in the constructor,
  // and updated lock-free on the hot paths. Declared before every member
  // that keeps a pointer into it (views_, slots_, directory_).
  MetricsRegistry metrics_;
  CounterBlock<HostCounters> host_{metrics_};
  Counter* const fault_retries_ = metrics_.GetCounter("dsm.fault_retries");
  Counter* const timeout_retries_ = metrics_.GetCounter("dsm.timeout_retries");
  Counter* const stale_replies_ = metrics_.GetCounter("dsm.stale_replies");
  Counter* const bounced_ = metrics_.GetCounter("dsm.bounced_requests");
  Counter* const epoch_bumps_ = metrics_.GetCounter("dsm.epoch_bumps");
  Counter* const shards_adopted_ = metrics_.GetCounter("dsm.shards_adopted");
  Counter* const copyset_repairs_ = metrics_.GetCounter("dsm.copyset_repairs");
  Counter* const minipages_lost_ = metrics_.GetCounter("dsm.minipages_lost");
  // Read faults sent as write requests / marked pcs a re-check unmarked.
  Counter* const rmw_predicted_ = metrics_.GetCounter("dsm.rmw_predicted");
  Counter* const rmw_demoted_ = metrics_.GetCounter("dsm.rmw_demoted");
  // Faults that read ahead / minipages their groups installed beyond the
  // faulting one.
  Counter* const readahead_groups_ = metrics_.GetCounter("dsm.readahead_groups");
  Counter* const readahead_fetched_ = metrics_.GetCounter("dsm.readahead_fetched");
  // Full fault service, entry to retry.
  Histogram* const read_fault_ns_ = metrics_.GetHistogram("dsm.read_fault_ns");
  Histogram* const write_fault_ns_ = metrics_.GetHistogram("dsm.write_fault_ns");
  Histogram* const barrier_ns_ = metrics_.GetHistogram("dsm.barrier_ns");  // entry to release
  Histogram* const lock_ns_ = metrics_.GetHistogram("dsm.lock_ns");        // request to grant
  // Host-death recovery, detect to done.
  Histogram* const recovery_ns_ = metrics_.GetHistogram("dsm.recovery_ns");

  std::unique_ptr<ViewSet> views_;
  WaitSlots slots_;

  // mpt_/allocator_ exist only on host 0, guarded by alloc_mu_: the server
  // thread translates and closes chunks, and a started host 0's application
  // threads allocate inline. directory_ is this host's manager shard (host 0
  // only when centralized, every host when sharded), server thread only.
  std::mutex alloc_mu_;
  std::unique_ptr<MinipageTable> mpt_;
  std::unique_ptr<MinipageAllocator> allocator_;
  std::unique_ptr<Directory> directory_;

  // Host 0, guarded by alloc_mu_: minipage ids whose first request has been
  // translated (= routed into service somewhere). A page-based allocation
  // can re-present an already-shared page's id, and allocation never reads
  // the directory, so this bit keeps MgrAllocate from re-opening local RW
  // protection over shared data.
  std::vector<bool> mp_routed_;

  std::thread server_;
  std::atomic<bool> stop_{false};
  // The poll window of a polling reply wait: kPollWindowUs once Start() runs
  // a server loop, 0 on a simulator-pumped node, whose waits park at once so
  // same-seed histories do not depend on it.
  std::atomic<uint64_t> reply_poll_us_{0};
  // Set when the current simulator step woke a waiter (Wake); read only by
  // the thread running a step of this node.
  bool woke_in_step_ = false;

  // In-flight fetch tracking, used only when read ACKs are elided: a fetch
  // whose minipage is invalidated mid-flight is poisoned and retried instead
  // of installing stale data. Indexed by wait slot.
  struct InflightFetch {
    std::atomic<uint64_t> addr{~0ULL};  // packed GlobalAddr, ~0 = none
    std::atomic<bool> poisoned{false};
  };
  InflightFetch inflight_[WaitSlots::kMaxSlots];

  // Liveness state. slot_gen_ is written by the slot-owning app thread and
  // read elsewhere only for diagnostics.
  std::atomic<uint32_t> slot_gen_[WaitSlots::kMaxSlots] = {};
  std::atomic<bool> draining_{false};
  mutable std::mutex peer_down_mu_;
  HostSet peer_down_;  // peers observed down (guarded by peer_down_mu_)

  // Membership: (epoch, dead set, live set) published as an immutable
  // snapshot behind one atomic pointer, so app threads routing by membership
  // never see a torn epoch/mask pair and never take a lock. All mutation
  // happens on the server thread (or the sim driver); superseded snapshots
  // are retained until node destruction — membership changes at most
  // num_hosts times, so the history is tiny.
  struct Membership {
    uint32_t epoch = 0;
    HostSet dead;
    HostSet live;
  };
  const Membership& membership() const {
    return *membership_.load(std::memory_order_acquire);
  }
  void PublishMembership(std::unique_ptr<Membership> next);

  std::atomic<const Membership*> membership_{nullptr};
  std::vector<std::unique_ptr<Membership>> membership_history_;  // server thread only
  std::mutex pending_death_mu_;
  HostSet pending_deaths_;  // guarded by pending_death_mu_
  std::atomic<bool> has_pending_deaths_{false};
  // Server thread only: messages from a newer epoch, held until the bump
  // lands. A deferred batched frame keeps a copy of its record payload —
  // batch_rx_ is shared scratch and will be overwritten before the replay.
  struct DeferredMsg {
    MsgHeader raw;
    std::vector<std::byte> payload;
  };
  std::deque<DeferredMsg> deferred_;
  std::vector<MsgHeader> lost_verdicts_;  // server thread only (DeliverLost)

  // ---- Coalescer state (server thread only) ------------------------------
  struct PendingBatch {
    HostId to = 0;
    MsgType type = MsgType::kAck;
    std::vector<MsgHeader> items;
  };
  void SendBatch(PendingBatch& b);
  bool HasOpenBatch() const;
  std::vector<PendingBatch> coalesce_;
  // Receive scratch for a batched frame's record payload.
  std::vector<std::byte> batch_rx_;
  // Externally-pumped (sim) nodes have no poll loop to notice an open batch,
  // so the first enqueue sends a self-addressed kFlushHint through the fabric
  // — it keeps the network non-quiescent and triggers the flush on delivery.
  bool flush_hint_inflight_ = false;
  mutable std::mutex member_mu_;
  std::condition_variable member_cv_;
  mutable std::mutex held_mu_;
  // Locks this host currently holds -> the holding thread's wait slot
  // (probe answers).
  std::map<uint32_t, uint32_t> held_locks_;
  mutable std::mutex lost_mu_;
  std::set<uint32_t> lost_minipages_;  // ids learned permanently lost

  // Epoch bookkeeping closed at barriers: deltas of counters() read-outs.
  mutable std::mutex epoch_mu_;
  HostCounters epoch_snapshot_;
  std::vector<EpochRecord> epochs_;
  uint32_t epoch_ = 0;

  // Write-intent prediction and stream read-ahead, one table each per wait
  // slot; only the slot's own thread touches them, in OnFault and
  // FaultService.
  RmwPredictor rmw_[WaitSlots::kMaxSlots];
  StreamPredictor stream_[WaitSlots::kMaxSlots];

  // Minipage translations learned from replies, indexed by id; length 0 =
  // not learned. Written by the server thread, read by faulting threads.
  struct Translation {
    uint64_t offset = 0;
    uint32_t view = 0;
    uint32_t length = 0;
  };
  std::mutex xlate_mu_;
  std::vector<Translation> xlate_;  // guarded by xlate_mu_
};

}  // namespace millipage

#endif  // SRC_DSM_NODE_H_
