#include "src/dsm/node.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/poll_window.h"
#include "src/common/rng.h"
#include "src/common/time_util.h"
#include "src/os/page.h"

namespace millipage {

// One cache entry. `syncs` counts the thread's Barrier/Lock/Unlock calls on
// the node, for the write-intent prediction; it shares a cache line with the
// uid every lookup reads, so a sync call touches no other predictor state.
struct ThreadSlotEntry {
  uint64_t uid = 0;
  uint32_t slot = 0;
  uint32_t syncs = 0;
};

namespace {

// Per-thread (node -> wait slot) cache. A thread may talk to several nodes
// in one process (the in-process cluster), so the cache is a tiny map.
// Entries are keyed by a process-unique node id, not the pointer: a node at
// a recycled address must not inherit a dead node's slot. A long-lived
// thread (a test's main thread running RunOnManager on every cluster it
// creates) can touch more nodes than fit, so a full cache recycles entries
// round-robin instead of failing; returning to an evicted node just acquires
// a fresh slot there.
struct ThreadSlotCache {
  static constexpr int kMax = 16;
  ThreadSlotEntry e[kMax] = {};
  int n = 0;
  int next_evict = 0;
};
thread_local ThreadSlotCache tls_slots;

// The simulator-pumped node whose step runs on this thread, if any.
thread_local const DsmNode* tls_sim_step = nullptr;

// One simulator step of `node` (a delivery in PumpOne, or
// ProcessPendingDeaths on a node without a server loop): the calling thread
// is the node's server side until it returns, and has woken no waiter yet.
class SimStep {
 public:
  SimStep(const DsmNode* node, bool* woke) : outer_(std::exchange(tls_sim_step, node)) {
    *woke = false;
  }
  ~SimStep() { tls_sim_step = outer_; }

 private:
  const DsmNode* const outer_;
};

}  // namespace

Result<std::unique_ptr<DsmNode>> DsmNode::Create(const DsmConfig& config, HostId me,
                                                 Transport* transport) {
  if (config.num_hosts == 0 || config.num_hosts > kMaxHosts) {
    return Status::Invalid("DsmNode: num_hosts must be in [1, " + std::to_string(kMaxHosts) +
                           "] (wire host ids are 10 bits)");
  }
  if (me >= config.num_hosts) {
    return Status::Invalid("DsmNode: host id out of range");
  }
  auto node = std::unique_ptr<DsmNode>(new DsmNode(config, me, transport));
  MP_ASSIGN_OR_RETURN(node->views_, ViewSet::Create(config.object_size, config.num_views));
  node->views_->SetTrace(config.trace, me);
  node->views_->SetMetrics(&node->metrics_);  // per-host mv.* attribution
  if (me == kManagerHost) {
    node->mpt_ = std::make_unique<MinipageTable>();
    node->allocator_ = std::make_unique<MinipageAllocator>(
        node->mpt_.get(), node->views_->object_size(), config.num_views,
        config.MakeAllocatorOptions());
  }
  // Directory shard: host 0 holds the single shard when centralized; every
  // host holds one when the manager role is sharded.
  if (me == kManagerHost || config.manager_policy == ManagerPolicy::kSharded) {
    node->directory_ = std::make_unique<Directory>(config, me, node->metrics_,
                                                   static_cast<Directory::Seam&>(*node));
  }
  return node;
}

DsmNode::DsmNode(const DsmConfig& config, HostId me, Transport* transport)
    : config_(config),
      me_(me),
      uid_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      transport_(transport) {
  auto init = std::make_unique<Membership>();
  init->live = HostSet::AllBelow(config.num_hosts);
  PublishMembership(std::move(init));
  slots_.set_handoff_histogram(metrics_.GetHistogram("dsm.reply_handoff_ns"));
}

DsmNode::~DsmNode() { Stop(); }

void DsmNode::Start() {
  MP_CHECK(!server_.joinable()) << "server already started";
  stop_.store(false, std::memory_order_release);
  transport_->SetPeerDownHandler([this](HostId peer) { OnPeerDown(peer); });
  reply_poll_us_.store(kPollWindowUs, std::memory_order_relaxed);
  server_ = std::thread([this] { ServerLoop(); });
}

void DsmNode::Stop() {
  if (!server_.joinable()) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  server_.join();
  transport_->SetPeerDownHandler(nullptr);
}

ThreadSlotEntry& DsmNode::ThreadEntry() {
  ThreadSlotCache& c = tls_slots;
  for (int i = 0; i < c.n; ++i) {
    if (c.e[i].uid == uid_) {
      return c.e[i];
    }
  }
  int i;
  if (c.n < ThreadSlotCache::kMax) {
    i = c.n++;
  } else {
    i = c.next_evict;
    c.next_evict = (c.next_evict + 1) % ThreadSlotCache::kMax;
  }
  c.e[i] = ThreadSlotEntry{uid_, slots_.Acquire(), 0};
  return c.e[i];
}

uint32_t DsmNode::ThreadSlot() { return ThreadEntry().slot; }

uint32_t DsmNode::SyncSlot() {
  ThreadSlotEntry& self = ThreadEntry();
  self.syncs++;
  return self.slot;
}

void DsmNode::AddWorkUnits(uint64_t n) { host_[&HostCounters::work_units].Inc(n); }

std::vector<EpochRecord> DsmNode::epochs() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epochs_;
}

Status DsmNode::TrySendMsg(HostId to, const MsgHeader& h, const void* payload, size_t len) {
  // A waiter this simulator step woke is running: a send here would race its
  // sends into the fabric, and same-seed histories would stop repeating.
  MP_CHECK(tls_sim_step != this || !woke_in_step_)
      << "host " << me_ << ": " << MsgTypeName(h.msg_type())
      << " sent after a local wake in the same simulator step";
  host_[&HostCounters::messages_sent].Inc();
  host_[&HostCounters::bytes_sent].Inc(sizeof(MsgHeader) + len);
  // Stamp the wire copy with the sender's membership epoch (high bits of
  // `from`); HandleMessage strips it on receive, so all internal logic sees
  // pure host ids. At epoch 0 the stamped field is bit-identical to the id.
  MsgHeader wire = h;
  wire.from = WireCodec::Pack(WireCodec::Host(h.from), member_epoch());
  Status st = transport_->Send(to, wire, payload, len);
  if (!st.ok() && st.code() == StatusCode::kUnavailable) {
    OnPeerDown(to);
  }
  return st;
}

Status DsmNode::TrySendRecords(HostId to, const MsgHeader* items, size_t n) {
  MP_CHECK(n >= 1 && n <= kMaxBatchRecords) << "cannot frame " << n << " records";
  if (n == 1) {
    return TrySendMsg(to, items[0]);  // plain header, as in an unbatched run
  }
  BatchRecord recs[kMaxBatchRecords];
  for (size_t i = 0; i < n; ++i) {
    recs[i] = BatchRecord::From(items[i]);
  }
  MsgHeader frame = items[0];
  frame.flags |= kFlagBatched;
  host_[&HostCounters::batch_frames_sent].Inc();
  host_[&HostCounters::batch_records_sent].Inc(n);
  return TrySendMsg(to, frame, recs, n * sizeof(BatchRecord));
}

void DsmNode::SendMsg(HostId to, const MsgHeader& h, const void* payload, size_t len) {
  LogSendFailure(to, h, TrySendMsg(to, h, payload, len));
}

void DsmNode::LogSendFailure(HostId to, const MsgHeader& h, const Status& st) {
  if (!st.ok() && !draining_.load(std::memory_order_acquire)) {
    MP_LOG(Error) << "host " << me_ << ": send " << MsgTypeName(h.msg_type()) << " to host "
                  << to << " failed: " << st.ToString();
  }
}

Minipage DsmNode::MinipageFromHeader(const MsgHeader& h) const {
  // Non-manager hosts never consult an MPT (the "thin layer" property):
  // everything needed to adjust protection travels in the header.
  Minipage mp;
  mp.id = h.minipage;
  mp.view = h.global_addr().view;
  mp.offset = h.privbase;
  mp.length = h.pgsize;
  return mp;
}

// ---- Application API -----------------------------------------------------

Result<GlobalAddr> DsmNode::SharedMalloc(uint64_t size) {
  if (size == 0 || size > ~0u) {
    return Status::Invalid("SharedMalloc: size must be in (0, 4GiB)");
  }
  MsgHeader h;
  h.set_type(MsgType::kAllocRequest);
  h.from = me_;
  h.pgsize = static_cast<uint32_t>(size);
  MsgHeader reply;
  if (AllocatesInline()) {
    reply = MgrAllocate(h);
  } else {
    const uint32_t slot = ThreadSlot();
    const uint32_t gen = NextGen(slot);
    h.seq = WaitSlots::MakeSeq(slot, gen);
    if (Status st = TrySendMsg(kManagerHost, h); !st.ok()) {
      return LivenessFailure("SharedMalloc", st);
    }
    // Allocation mutates manager state per request, so it is not idempotent:
    // bounded by the sync deadline, never re-sent. A membership kick
    // (kFailedPrecondition) is the one interruption that does not invalidate
    // the attempt: the allocator is host 0, whose death is fatal, so after a
    // third host's death the original request/reply pair is still in flight
    // on an intact path — keep waiting on the same generation instead of
    // re-sending (which would allocate twice).
    Result<MsgHeader> r =
        AwaitReply(slot, gen, config_.sync_timeout_ms, "SharedMalloc", /*poll=*/true);
    while (!r.ok() && r.status().code() == StatusCode::kFailedPrecondition) {
      r = AwaitReply(slot, gen, config_.sync_timeout_ms, "SharedMalloc", /*poll=*/true);
    }
    if (!r.ok()) {
      return LivenessFailure("SharedMalloc", r.status());
    }
    reply = *r;
  }
  if (reply.msg_type() != MsgType::kAllocReply) {
    return Status::Internal("SharedMalloc: unexpected reply");
  }
  if ((reply.flags & kFlagAbort) != 0) {
    return Status::Exhausted("SharedMalloc: shared memory exhausted");
  }
  return reply.global_addr();
}

void DsmNode::CloseChunk() {
  if (AllocatesInline()) {
    MgrCloseChunk();
    return;
  }
  MsgHeader h;
  h.set_type(MsgType::kAllocRequest);
  h.from = me_;
  h.seq = kNoWaitSlot;
  h.pgsize = 0;  // size 0 means "close the open chunk"
  SendMsg(kManagerHost, h);
}

void DsmNode::Barrier() {
  const Status st = TryBarrier();
  MP_CHECK(st.ok()) << "Barrier: " << st.ToString();
}

Status DsmNode::TryBarrier() {
  ScopedTimer timer(barrier_ns_);
  const uint32_t slot = SyncSlot();
  // The barrier generation this host expects to be released from (= barriers
  // completed locally). It travels in pgsize so a failed-over barrier shard
  // can release each waiter with its *own* generation, keeping per-host
  // release sequences gap-free across the hand-off.
  uint32_t expected_gen;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    expected_gen = epoch_;
  }
  Trace(TraceEventKind::kBarrierEnter, ~0u, 0);
  MsgHeader h;
  h.set_type(MsgType::kBarrierEnter);
  h.from = me_;
  h.minipage = kBarrierShardId;
  h.pgsize = expected_gen;
  // Arrival is tracked as a host mask, so a re-sent entry collapses instead
  // of double-counting. Barrier waits park at once.
  const Result<MsgHeader> reply = Acquire(slot, h, /*poll=*/false, "Barrier");
  if (!reply.ok()) {
    return reply.status();
  }
  // The manager stamps the generation being released into the minipage field.
  Trace(TraceEventKind::kBarrierRelease, ~0u, 0, reply->minipage);
  host_[&HostCounters::barriers].Inc();
  std::lock_guard<std::mutex> lock(epoch_mu_);
  const HostCounters now = counters();
  EpochRecord rec;
  rec.epoch = epoch_++;
  rec.host = me_;
  rec.delta = now - epoch_snapshot_;
  epoch_snapshot_ = now;
  epochs_.push_back(rec);
  return Status::Ok();
}

void DsmNode::Lock(uint32_t lock_id) {
  const Status st = TryLock(lock_id);
  MP_CHECK(st.ok()) << "Lock(" << lock_id << "): " << st.ToString();
}

Status DsmNode::TryLock(uint32_t lock_id) {
  ScopedTimer timer(lock_ns_);
  const uint32_t slot = SyncSlot();
  MsgHeader h;
  h.set_type(MsgType::kLockAcquire);
  h.from = me_;
  h.minipage = lock_id;
  // The shard dedupes re-sent acquires (duplicate waiters collapse, the
  // current holder is re-granted). A held lock legitimately blocks for as
  // long as its holder computes; the generous sync deadline reflects that.
  if (const Result<MsgHeader> r = Acquire(slot, h, /*poll=*/true, "Lock"); !r.ok()) {
    return r.status();
  }
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    held_locks_[lock_id] = slot;
  }
  host_[&HostCounters::lock_acquires].Inc();
  return Status::Ok();
}

Result<MsgHeader> DsmNode::Acquire(uint32_t slot, MsgHeader h, bool poll, const char* op) {
  for (;;) {
    const uint32_t gen = NextGen(slot);
    h.seq = WaitSlots::MakeSeq(slot, gen);
    const uint32_t epoch_before = member_epoch();
    if (Status st = TrySendMsg(LiveManagerOf(h.minipage), h); !st.ok()) {
      if (AwaitMembershipChange(epoch_before)) {
        continue;  // the shard moved: re-send to its successor
      }
      return LivenessFailure(op, st);
    }
    Result<MsgHeader> r = AwaitReply(slot, gen, config_.sync_timeout_ms, op, poll);
    if (r.ok()) {
      return r;
    }
    if (r.status().code() != StatusCode::kFailedPrecondition) {
      return LivenessFailure(op, r.status());
    }
    // A membership kick: re-send against the new membership.
  }
}

void DsmNode::Unlock(uint32_t lock_id) {
  (void)SyncSlot();
  // Drop the local held record *before* the release leaves, so a failover
  // probe racing this release never resurrects a lock its holder has already
  // let go of.
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    held_locks_.erase(lock_id);
  }
  MsgHeader h;
  h.set_type(MsgType::kLockRelease);
  h.from = me_;
  h.seq = kNoWaitSlot;
  h.minipage = lock_id;
  SendMsg(LiveManagerOf(lock_id), h);
}

void DsmNode::Prefetch(GlobalAddr a) {
  if (!config_.enable_ack) {
    return;  // without read serialization a prefetched copy could be stale
  }
  const uint64_t vpage = a.offset / PageSize();
  if (views_->GetVpageProtection(a.view, vpage) != Protection::kNoAccess) {
    return;  // copy already present (or being installed)
  }
  MsgHeader h;
  h.set_type(MsgType::kReadRequest);
  h.flags = kFlagPrefetch;
  h.from = me_;
  h.seq = kNoWaitSlot;
  h.addr = a.Pack();
  host_[&HostCounters::prefetches].Inc();
  SendMsg(kManagerHost, h);
}

size_t DsmNode::FetchGroup(const GlobalAddr* addrs, size_t count) {
  if (!config_.enable_ack) {
    return 0;  // without read serialization a group member's copy could be stale
  }
  // Build the request list first, deduped by (view, vpage): protection only
  // flips on reply, so the presence check alone cannot filter duplicates
  // within one group. A view holds at most one minipage per page, so the
  // vpage key collapses same-minipage duplicates; a minipage that spans pages
  // is requested once per page, and its second request is served after the
  // first reply's ACK, so it is counted once by id.
  std::vector<MsgHeader> reqs;
  std::set<std::pair<uint32_t, uint64_t>> requested;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t vpage = addrs[i].offset / PageSize();
    if (views_->GetVpageProtection(addrs[i].view, vpage) != Protection::kNoAccess) {
      continue;  // already readable
    }
    if (!requested.insert({addrs[i].view, vpage}).second) {
      continue;  // duplicate within this group
    }
    MsgHeader h;
    h.set_type(MsgType::kReadRequest);
    h.from = me_;
    h.addr = addrs[i].Pack();
    reqs.push_back(h);
  }
  if (reqs.empty()) {
    return 0;
  }
  host_[&HostCounters::prefetches].Inc(reqs.size());
  std::vector<MinipageId> ids;
  const Result<MsgHeader> r = FetchSplit(ThreadSlot(), reqs.data(), reqs.size(),
                                         RetryTimeoutMs(config_, me_, 0), "FetchGroup", &ids);
  if (!r.ok()) {
    (void)LivenessFailure("FetchGroup", r.status());
  } else if ((r->flags & kFlagAbort) == 0) {
    ids.push_back(r->minipage);
    host_[&HostCounters::prefetch_bytes].Inc(r->has_payload() ? r->pgsize : 0);
  }
  std::sort(ids.begin(), ids.end());
  return static_cast<size_t>(std::unique(ids.begin(), ids.end()) - ids.begin());
}

void DsmNode::PushToAll(GlobalAddr a) {
  if (config_.num_hosts == 1) {
    return;
  }
  MsgHeader h;
  h.set_type(MsgType::kPushUpdate);
  h.from = me_;
  h.seq = kNoWaitSlot;
  h.addr = a.Pack();
  SendMsg(kManagerHost, h);
}

// ---- Fault path ------------------------------------------------------------

bool DsmNode::OnFault(uint32_t view, uint64_t offset, bool is_write) {
  if (views_->RestoreFromShadow(view, offset, is_write)) {
    return true;  // already granted here: retry the access, no protocol round
  }
  const ThreadSlotEntry& self = ThreadEntry();
  const RmwPredictor::Decision d = rmw_[self.slot].OnFault(
      FaultHandler::FaultingPc(), view, offset / PageSize(), is_write, self.syncs);
  if (d.predicted) {
    rmw_predicted_->Inc();
  }
  if (d.demoted) {
    rmw_demoted_->Inc();
  }
  return FaultService(view, offset, d.write).ok();
}

Status DsmNode::FaultService(uint32_t view, uint64_t offset, bool is_write) {
  const bool timed = MetricsEnabled();
  const uint64_t t0 = timed ? MonotonicNowNs() : 0;
  if (is_write) {
    host_[&HostCounters::write_faults].Inc();
  } else {
    host_[&HostCounters::read_faults].Inc();
  }
  const ThreadSlotEntry& self = ThreadEntry();
  const uint64_t addr = GlobalAddr{view, offset}.Pack();
  Trace(TraceEventKind::kFaultStart, ~0u, addr, is_write ? 1 : 0);
  // Stream read-ahead (DESIGN.md §15) needs the ACK, as Prefetch does: each
  // group member is held behind its minipage's ACK like a fault.
  const uintptr_t pc = FaultHandler::FaultingPc();
  StreamPredictor& stream = stream_[self.slot];
  const MinipageId next =
      config_.enable_ack ? stream.Next(pc, is_write, self.syncs) : kInvalidMinipage;
  MinipageId last = kInvalidMinipage;
  const Result<MsgHeader> reply =
      next != kInvalidMinipage ? ReadAhead(self.slot, view, offset, is_write, next, &last)
                               : FetchForFault(self.slot, addr, is_write);
  if (!reply.ok()) {
    return reply.status();
  }
  stream.Record(pc, is_write, last != kInvalidMinipage ? last : reply->minipage, self.syncs);

  const uint64_t data_bytes = reply->has_payload() ? reply->pgsize : 0;
  if (is_write) {
    host_[&HostCounters::write_fault_bytes].Inc(data_bytes);
  } else {
    host_[&HostCounters::read_fault_bytes].Inc(data_bytes);
  }
  if (timed) {
    (is_write ? write_fault_ns_ : read_fault_ns_)->RecordAlways(MonotonicNowNs() - t0);
  }
  Trace(TraceEventKind::kFaultEnd, reply->minipage, addr, is_write ? 1 : 0);
  return Status::Ok();
}

Result<MsgHeader> DsmNode::FetchForFault(uint32_t slot, uint64_t addr, bool is_write) {
  const char* const what = is_write ? "write fault" : "read fault";
  // Fault service is idempotent — the manager re-routes every (re)send
  // against current directory state, and a late reply to an abandoned
  // attempt is discarded by its stale generation — so a lost message is
  // retried up to max_request_retries before the fault fails. Retries pace
  // out with seeded exponential backoff (RetryTimeoutMs); a membership kick
  // re-sends immediately without consuming an attempt.
  MsgHeader h;
  h.set_type(is_write ? MsgType::kWriteRequest : MsgType::kReadRequest);
  h.from = me_;
  h.addr = addr;
  std::vector<MinipageId> no_members;
  uint32_t timeouts = 0;
  for (;;) {
    const uint64_t attempt_timeout_ms = RetryTimeoutMs(config_, me_, timeouts);
    Result<MsgHeader> r = FetchSplit(slot, &h, 1, attempt_timeout_ms, what, &no_members);
    if (r.ok()) {
      if ((r->flags & kFlagAbort) != 0) {
        return FaultLost(what, r->minipage);
      }
      return r;
    }
    if (r.status().code() == StatusCode::kFailedPrecondition) {
      continue;  // membership changed: re-route against the new live set
    }
    if (r.status().code() != StatusCode::kDeadlineExceeded ||
        timeouts >= config_.max_request_retries) {
      return LivenessFailure(what, r.status());
    }
    timeouts++;
    timeout_retries_->Inc();
    MP_LOG(Error) << "host " << me_ << ": " << what << " timed out after "
                  << attempt_timeout_ms << " ms (attempt " << timeouts << "/"
                  << config_.max_request_retries + 1 << "); re-sending";
  }
}

Result<MsgHeader> DsmNode::ReadAhead(uint32_t slot, uint32_t view, uint64_t offset,
                                     bool is_write, MinipageId next, MinipageId* last) {
  constexpr uint32_t kGroup = 1 + StreamPredictor::kDepth;
  const uint64_t addr = GlobalAddr{view, offset}.Pack();
  // The learned translations of `next` and the ids after it, up to the first
  // one this host has not learned.
  Translation span[kGroup];
  uint32_t known = 0;
  {
    std::lock_guard<std::mutex> lock(xlate_mu_);
    while (known < kGroup && next + known < xlate_.size() && xlate_[next + known].length != 0) {
      span[known] = xlate_[next + known];
      known++;
    }
  }
  if (known == 0 || span[0].view != view || offset < span[0].offset ||
      offset - span[0].offset >= span[0].length) {
    return FetchForFault(slot, addr, is_write);  // not in `next`: no stream
  }
  *last = next + known - 1;
  // The fault's own request first, then every member that lacks the access.
  MsgHeader reqs[kGroup];
  size_t n = 0;
  for (uint32_t i = 0; i < known; ++i) {
    if (i > 0) {
      const Protection have =
          views_->GetVpageProtection(span[i].view, span[i].offset / PageSize());
      if (have == Protection::kReadWrite || (!is_write && have == Protection::kReadOnly)) {
        continue;
      }
    }
    MsgHeader& h = reqs[n++];
    h.set_type(is_write ? MsgType::kWriteRequest : MsgType::kReadRequest);
    h.from = me_;
    h.addr = i == 0 ? addr : GlobalAddr{span[i].view, span[i].offset}.Pack();
  }
  if (n == 1) {
    return FetchForFault(slot, addr, is_write);  // every member is present
  }
  const char* const what = is_write ? "write fault" : "read fault";
  readahead_groups_->Inc();
  host_[&HostCounters::prefetches].Inc(n - 1);
  std::vector<MinipageId> members;
  const Result<MsgHeader> own =
      FetchSplit(slot, reqs, n, RetryTimeoutMs(config_, me_, 0), what, &members);
  readahead_fetched_->Inc(members.size());
  if (!own.ok()) {
    // Not sent, or timed out or re-routed before the fault's own reply: serve
    // the fault alone, with the plain path's retries.
    return FetchForFault(slot, addr, is_write);
  }
  if ((own->flags & kFlagAbort) != 0) {
    return FaultLost(what, next);
  }
  return own;
}

Result<MsgHeader> DsmNode::FetchSplit(uint32_t slot, MsgHeader* reqs, size_t n,
                                      uint64_t timeout_ms, const char* what,
                                      std::vector<MinipageId>* members) {
  const uint32_t gen = NextGen(slot);  // one generation covers the whole group
  for (size_t i = 0; i < n; ++i) {
    reqs[i].seq = WaitSlots::MakeSeq(slot, gen);
  }
  if (!config_.enable_ack) {
    // Only a lone fault fetches without the ACK: an invalidation that
    // crosses its reply poisons it (HandleInvalidateRequest).
    inflight_[slot].poisoned.store(false, std::memory_order_relaxed);
    inflight_[slot].addr.store(reqs[0].addr, std::memory_order_release);
  }
  MP_RETURN_IF_ERROR(SendGroup(reqs, n));
  // The replies arrive in any order, each installed and ACKed by the server
  // thread (HandleReply); a reply keeps its request's addr.
  MsgHeader own;
  bool have_own = false;
  for (size_t i = 0; i < n; ++i) {
    Result<MsgHeader> r = AwaitReply(slot, gen, timeout_ms, what, /*poll=*/true);
    if (!r.ok()) {
      if (have_own) {
        break;  // a member's late reply is installed and ACKed all the same
      }
      return r.status();
    }
    if (r->addr == reqs[0].addr) {
      own = *r;
      have_own = true;
    } else if ((r->flags & kFlagAbort) == 0) {
      members->push_back(r->minipage);
      host_[&HostCounters::prefetch_bytes].Inc(r->has_payload() ? r->pgsize : 0);
    }
  }
  MP_CHECK(have_own) << what << ": group ended without its first request's reply";
  return own;
}

Status DsmNode::SendGroup(const MsgHeader* reqs, size_t n) {
  for (size_t sent = 0; sent < n;) {
    const size_t k = config_.batch_coherence ? std::min<size_t>(n - sent, kMaxBatchRecords) : 1;
    MP_RETURN_IF_ERROR(TrySendRecords(kManagerHost, reqs + sent, k));
    sent += k;
  }
  return Status::Ok();
}

MsgHeader DsmNode::AckFor(const MsgHeader& reply, uint8_t flags) const {
  MsgHeader ack;
  ack.set_type(MsgType::kAck);
  ack.flags = flags;
  ack.from = me_;
  ack.seq = kNoWaitSlot;
  ack.addr = reply.addr;
  ack.minipage = reply.minipage;
  return ack;
}

void DsmNode::NoteLost(MinipageId id) {
  std::lock_guard<std::mutex> lock(lost_mu_);
  lost_minipages_.insert(id);
}

Status DsmNode::FaultLost(const char* what, MinipageId id) {
  // The owning shard degraded this minipage: its sole copy died with its
  // host. Per-minipage error — the rest of the cluster keeps going.
  return LivenessFailure(what, Status::NotFound("minipage " + std::to_string(id) +
                                                " lost: its only copy died with its host"));
}

void DsmNode::LearnTranslation(const MsgHeader& reply) {
  std::lock_guard<std::mutex> lock(xlate_mu_);
  if (reply.minipage >= xlate_.size()) {
    xlate_.resize(reply.minipage + 1);
  }
  xlate_[reply.minipage] = Translation{reply.privbase, reply.global_addr().view, reply.pgsize};
}

uint64_t DsmNode::RetryTimeoutMs(const DsmConfig& cfg, HostId host, uint32_t attempt) {
  const uint64_t base = cfg.request_timeout_ms;
  if (base == 0) {
    return 0;  // no deadline configured: wait forever, no pacing
  }
  double scaled = static_cast<double>(base);
  const double cap = static_cast<double>(kRetryBackoffMaxMs);
  for (uint32_t k = 0; k < attempt && scaled < cap; ++k) {
    scaled *= kRetryBackoffBase;
  }
  if (scaled > cap) {
    scaled = cap;
  }
  uint64_t ms = static_cast<uint64_t>(scaled);
  if (attempt == 0) {
    // The first wait is the configured timeout exactly: jitter exists to
    // decorrelate *retries*, and a deterministic base keeps the common
    // no-retry path at its configured latency budget.
    return ms < 1 ? 1 : ms;
  }
  // A fresh, deterministically seeded stream per (host, attempt): the
  // schedule is reproducible yet decorrelated across hosts, so a cluster
  // that timed out together does not re-fire in lockstep.
  constexpr uint64_t kJitterSeed = 0x9e3779b97f4a7c15ULL;
  Rng rng(kJitterSeed ^ (static_cast<uint64_t>(host) << 32) ^ attempt);
  const uint64_t span = ms * kRetryJitterPct / 100;
  if (span > 0) {
    ms = ms - span + rng.Below(2 * span + 1);
  }
  return ms < 1 ? 1 : ms;
}

// ---- Server thread ---------------------------------------------------------

namespace {
// A frame whose payload is BatchRecords rather than minipage data.
bool IsBatchedFrame(const MsgHeader& h) { return (h.flags & kFlagBatched) != 0; }
}  // namespace

PayloadSink DsmNode::MakeServerSink() {
  return [this](const MsgHeader& h) -> std::byte* {
    if (IsBatchedFrame(h)) {
      // Record payload, not minipage data: land it in the batch scratch
      // buffer instead of the privileged view.
      batch_rx_.resize(h.pgsize);
      return batch_rx_.data();
    }
    if (h.privbase + h.pgsize > views_->object_size()) {
      return nullptr;
    }
    return views_->PrivAddr(h.privbase);
  };
}

bool DsmNode::PumpOne() {
  MP_CHECK(!server_.joinable()) << "PumpOne on a node with a live server thread";
  ProcessPendingDeaths();
  MsgHeader h;
  Result<bool> got = transport_->Poll(me_, &h, MakeServerSink(), /*timeout_us=*/0);
  MP_CHECK_OK(got.status());
  if (!*got) {
    return false;
  }
  const SimStep step(this, &woke_in_step_);
  HandleMessage(h);
  return true;
}

void DsmNode::ServerLoop() {
  const PayloadSink sink = MakeServerSink();
  uint32_t poll_errors = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    // Host-death recovery runs here — directory state belongs to this
    // thread, so the detector (any thread) only posts a pending mask.
    ProcessPendingDeaths();
    MsgHeader h;
    // kPeriodic never blocks (it sleeps below). Neither does an open batch:
    // the mailbox is drained without blocking, so the batch is sent the
    // moment the server runs out of deliverable messages. This must test for
    // queued records, not coalesce_.empty(): flushed batches keep their
    // (to, type) slot in the vector for reuse, and polling with no timeout on
    // an *idle* node would turn the server into a busy-spinner and starve
    // every other thread on the box.
    const uint64_t timeout_us =
        config_.service_mode == ServiceMode::kBlocking && !HasOpenBatch() ? 2000 : 0;
    Result<bool> got = transport_->Poll(me_, &h, sink, timeout_us);
    if (!got.ok()) {
      // A transient receive error (e.g. a reset from a dying peer) must not
      // take the server thread down with it — the thread is what delivers
      // the peer-down abort to the waiting application threads. Log, back
      // off, and keep serving; give up only if the transport errors forever.
      poll_errors++;
      if (poll_errors <= 3 || poll_errors % 100 == 0) {
        MP_LOG(Error) << "host " << me_ << ": transport poll error ("
                      << got.status().ToString() << "), count=" << poll_errors;
      }
      MP_CHECK(poll_errors < 1000) << "host " << me_ << ": transport broken: "
                                   << got.status().ToString();
      ::usleep(1000);
      continue;
    }
    poll_errors = 0;
    if (*got) {
      HandleMessage(h);
      continue;
    }
    // Mailbox drained: send every open batch. Coalescing only ever folds
    // records that were already queued behind each other, so it never delays
    // traffic behind idle waiting.
    FlushCoalesced();
    if (config_.service_mode == ServiceMode::kPeriodic) {
      ::usleep(static_cast<useconds_t>(config_.service_period_us));
    }
  }
  FlushCoalesced();  // don't strand fire-and-forget ACKs at teardown
}

namespace {
// Protocol tracing: set MP_TRACE=<n> in the environment to dump the first n
// messages each server thread handles (type, sender, translation fields) to
// stderr — invaluable when diagnosing protocol interleavings.
std::atomic<int> g_trace_budget{-1};
bool TraceOn() {
  int b = g_trace_budget.load(std::memory_order_relaxed);
  if (b == -1) {
    b = getenv("MP_TRACE") != nullptr ? atoi(getenv("MP_TRACE")) : 0;
    g_trace_budget.store(b);
  }
  return b > 0 && g_trace_budget.fetch_sub(1) > 0;
}
}  // namespace

void DsmNode::HandleMessage(const MsgHeader& raw) {
  // Strip the membership-epoch tag off the wire `from` field, then gate on
  // it (the tag is the epoch mod 64, compared circularly):
  //   * anything from a host now known dead is pre-death traffic — discarded
  //     like a stale generation, so no obsolete grant or arrival from the
  //     dead host can corrupt post-recovery state;
  //   * a message tagged with a *newer* epoch than ours is deferred until
  //     the in-flight kEpochBump lands (per-pair FIFO guarantees it is
  //     coming), so dispatch only ever sees messages that agree with local
  //     membership — older tags from live senders are ordinary in-flight
  //     traffic and are served normally, their replies staled by generation;
  //   * kEpochBump itself is always processed: it is how epochs advance.
  MsgHeader h = raw;
  h.from = WireCodec::Host(raw.from);
  if (h.msg_type() != MsgType::kEpochBump) {
    if (dead_set().Contains(h.from)) {
      stale_replies_->Inc();
      return;
    }
    const uint32_t tag = WireCodec::EpochTag(raw.from);
    const uint32_t my_tag = member_epoch() & WireCodec::kEpochMask;
    if (tag != my_tag && !WireCodec::TagStale(tag, my_tag)) {
      // A deferred batched frame keeps a private copy of its records:
      // batch_rx_ is shared scratch and the next poll overwrites it.
      DeferredMsg d;
      d.raw = raw;
      if (IsBatchedFrame(h)) {
        d.payload.assign(batch_rx_.begin(), batch_rx_.end());
      }
      deferred_.push_back(std::move(d));
      return;
    }
  }
  if (TraceOn()) {
    fprintf(stderr, "[h%u] %s from=%u seq=%x mp=%u flags=%x priv=%lu len=%u\n", me_,
            MsgTypeName(h.msg_type()), h.from, h.seq, h.minipage, h.flags,
            (unsigned long)h.privbase, h.pgsize);
  }
  if (IsBatchedFrame(h)) {
    DispatchBatch(h);
  } else {
    DispatchOne(h);
  }
  WakeLost();
}

void DsmNode::WakeLost() {
  for (const MsgHeader& verdict : lost_verdicts_) {
    HandleReply(verdict);
  }
  lost_verdicts_.clear();
}

void DsmNode::DispatchBatch(const MsgHeader& h) {
  // Copy the records out of the shared scratch first: dispatching a record
  // can re-enter the protocol arbitrarily deep (inline serves, coalesced
  // sends), and a defensive copy keeps the loop immune to anything that
  // might touch batch_rx_ along the way.
  MP_CHECK(h.pgsize % sizeof(BatchRecord) == 0 && h.pgsize >= 2 * sizeof(BatchRecord) &&
           h.pgsize / sizeof(BatchRecord) <= kMaxBatchRecords && batch_rx_.size() >= h.pgsize)
      << "malformed batched " << MsgTypeName(h.msg_type()) << " frame: payload " << h.pgsize
      << " bytes";
  const size_t n = h.pgsize / sizeof(BatchRecord);
  std::vector<BatchRecord> recs(n);
  std::memcpy(recs.data(), batch_rx_.data(), n * sizeof(BatchRecord));
  MsgHeader one = h;
  one.flags &= static_cast<uint8_t>(~(kFlagBatched | kFlagHasPayload));
  if (h.msg_type() == MsgType::kInvalidateRequest) {
    // Apply the whole frame's protection drops as ONE ranged call before
    // dispatching the records: invalidations covering contiguous vpages
    // collapse into a single mprotect (or uffd ioctl) instead of one per
    // minipage. Revoking earlier than the per-record handler would is
    // strictly safe under SWMR — access is only ever removed — and the
    // checker replays per-minipage kProtSet events, which the batch emits
    // in full. Each record's own SetProtection then hits the shadow-table
    // fast-path and costs no syscall.
    std::vector<Minipage> drops;
    drops.reserve(n);
    MsgHeader probe = one;
    for (const BatchRecord& r : recs) {
      r.ApplyTo(&probe);
      drops.push_back(MinipageFromHeader(probe));
    }
    MP_CHECK_OK(views_->SetProtectionBatch(drops.data(), drops.size(),
                                           Protection::kNoAccess));
  }
  // In-order dispatch: each record runs the full per-message handler, so the
  // trace events it emits land in record order and the offline checker sees
  // the same per-record event sequence an unbatched run would have produced.
  for (const BatchRecord& r : recs) {
    r.ApplyTo(&one);
    DispatchOne(one);
  }
}

void DsmNode::DispatchOne(const MsgHeader& h) {
  switch (h.msg_type()) {
    case MsgType::kReadRequest:
    case MsgType::kWriteRequest:
    case MsgType::kPushUpdate:
      // Forwarded: this host serves it. Untranslated: host 0 translates and
      // routes it. Otherwise it is for this host's shard: routed here, or
      // bounced back (a bounced request still carries the forwarded flag).
      if (h.has_payload()) {
        ApplyPush(h);  // a pushed copy
      } else if ((h.flags & (kFlagForwarded | kFlagBounced)) == kFlagForwarded) {
        if (h.msg_type() == MsgType::kReadRequest) {
          ServeReadRequest(h);
        } else if (h.msg_type() == MsgType::kWriteRequest) {
          ServeWriteRequest(h);
        } else {
          PusherBroadcast(h);
        }
      } else if (!h.translated()) {
        MgrTranslateAndRoute(h);
      } else {
        Shard().Handle(h);
      }
      break;
    case MsgType::kReadReply:
    case MsgType::kWriteReply:
      HandleReply(h);
      break;
    case MsgType::kInvalidateRequest:
      HandleInvalidateRequest(h);
      break;
    case MsgType::kAllocRequest:
      MP_CHECK(is_manager());
      MgrHandleAlloc(h);
      break;
    case MsgType::kAllocReply:
    case MsgType::kBarrierRelease:
    case MsgType::kLockGrant:
      if (h.seq != kNoWaitSlot) {
        Wake(h);
      }
      break;
    case MsgType::kBarrierEnter:
    case MsgType::kLockAcquire:
      if (is_manager()) {
        MgrCloseChunk();
      }
      [[fallthrough]];
    case MsgType::kInvalidateReply:
    case MsgType::kAck:
    case MsgType::kLockRelease:
    case MsgType::kCopysetReply:
    case MsgType::kLockProbeReply:
    case MsgType::kBarrierProbeReply:
      Shard().Handle(h);
      break;
    case MsgType::kShutdown:
      break;
    case MsgType::kEpochBump:
      // minipage = new epoch; privbase = one dead host id per datagram.
      ApplyMembership(h.minipage, HostSet::Single(static_cast<uint32_t>(h.privbase)),
                      /*broadcast=*/false);
      break;
    case MsgType::kCopysetQuery:
    case MsgType::kLockProbe:
    case MsgType::kBarrierProbe:
      SendMsg(h.from, AnswerProbe(h));
      break;
    case MsgType::kFlushHint:
      // Self-addressed wakeup from SendCoalesced: drain the open batches.
      MP_CHECK(h.from == me_) << "flush hint from another host";
      flush_hint_inflight_ = false;
      FlushCoalesced();
      break;
    case MsgType::kDiffUpdate:
    case MsgType::kDiffAck:
      MP_CHECK(false) << "LRC-only " << MsgTypeName(h.msg_type()) << " reached a DsmNode";
      break;
  }
}

// ---- Coherence-traffic coalescer -------------------------------------------

void DsmNode::SendCoalesced(HostId to, const MsgHeader& h) {
  host_[&HostCounters::coalesced_records].Inc();
  if (!config_.batch_coherence) {
    host_[&HostCounters::coalesced_msgs_sent].Inc();
    SendMsg(to, h);
    return;
  }
  PendingBatch* batch = nullptr;
  bool any_open = false;
  for (PendingBatch& b : coalesce_) {
    any_open = any_open || !b.items.empty();
    if (b.to == to && b.type == h.msg_type()) {
      batch = &b;
    }
  }
  if (batch == nullptr) {
    coalesce_.push_back(PendingBatch{to, h.msg_type(), {}});
    batch = &coalesce_.back();
  }
  if (batch->items.size() >= kMaxBatchRecords) {
    SendBatch(*batch);
  }
  batch->items.push_back(h);
  // Externally-pumped node (no server loop): make sure a flush is coming.
  // The hint rides the fabric to ourselves, so the simulator's pending-
  // message count stays nonzero while a batch is open — no false deadlock —
  // and its delivery is the deterministic flush point.
  if (!any_open && !flush_hint_inflight_ && !server_.joinable()) {
    MsgHeader hint;
    hint.set_type(MsgType::kFlushHint);
    hint.from = me_;
    hint.seq = kNoWaitSlot;
    SendMsg(me_, hint);
    flush_hint_inflight_ = true;
  }
}

bool DsmNode::HasOpenBatch() const {
  for (const PendingBatch& b : coalesce_) {
    if (!b.items.empty()) {
      return true;
    }
  }
  return false;
}

void DsmNode::FlushCoalesced() {
  // Burst window: a flush that emits frames for several destinations hands
  // them to the kernel in one submission on transports that batch (io_uring);
  // a no-op elsewhere.
  transport_->BeginBurst();
  for (PendingBatch& b : coalesce_) {
    SendBatch(b);
  }
  transport_->EndBurst();
}

void DsmNode::SendBatch(PendingBatch& b) {
  if (b.items.empty()) {
    return;
  }
  if (!live_set().Contains(b.to)) {
    // Destination died while the batch was open. Drop it: repair has already
    // retired (or will retire) everything these messages would have done.
    b.items.clear();
    return;
  }
  host_[&HostCounters::coalesced_msgs_sent].Inc();
  LogSendFailure(b.to, b.items[0], TrySendRecords(b.to, b.items.data(), b.items.size()));
  b.items.clear();
}

// ---- Manager role ----------------------------------------------------------

bool DsmNode::MgrTranslate(MsgHeader* h) {
  const GlobalAddr a = h->global_addr();
  const Minipage* mp = mpt_->Lookup(a.view, a.offset);
  directory_->mpt_lookups().Inc();
  if (mp == nullptr) {
    MP_LOG(Fatal) << "fault at unmapped shared address view=" << a.view
                  << " offset=" << a.offset << " (wild pointer into a layout gap?)";
    return false;
  }
  h->minipage = mp->id;
  h->pgsize = static_cast<uint32_t>(mp->length);
  h->privbase = mp->offset;
  if (mp->id >= mp_routed_.size()) {
    mp_routed_.resize(mp->id + 1, false);
  }
  mp_routed_[mp->id] = true;
  return true;
}

void DsmNode::MgrTranslateAndRoute(const MsgHeader& h) {
  MP_CHECK(is_manager()) << "untranslated request received by non-MPT host";
  MsgHeader copy = h;
  {
    // Any protocol traffic means sharing has begun: stop aggregating
    // allocations so open chunks can no longer grow (see MgrAllocate).
    std::lock_guard<std::mutex> lock(alloc_mu_);
    allocator_->CloseChunk();
    if (!MgrTranslate(&copy)) {
      return;
    }
  }
  const HostId owner = LiveManagerOf(copy.minipage);
  if (owner == me_) {
    directory_->Handle(copy);
    return;
  }
  // Hand the translated (but still unforwarded) header to the owning shard;
  // service, ACKs, and replies then bypass this host entirely.
  directory_->remote_routed().Inc();
  SendMsg(owner, copy);
}

void DsmNode::Forward(HostId target, const MsgHeader& fwd) {
  if (target == me_) {
    // The owning shard holds the serving replica itself. Serve inline from
    // the privileged view instead of a self round trip through the
    // transport — the zero-copy send stays zero-copy and saves two local
    // messages.
    if (fwd.msg_type() == MsgType::kReadRequest) {
      ServeReadRequest(fwd);
      return;
    }
    if (fwd.msg_type() == MsgType::kWriteRequest) {
      ServeWriteRequest(fwd);
      return;
    }
  }
  SendMsg(target, fwd);
}

MsgHeader DsmNode::MgrAllocate(const MsgHeader& h) {
  MsgHeader reply = h;
  reply.set_type(MsgType::kAllocReply);
  std::lock_guard<std::mutex> lock(alloc_mu_);
  Result<Allocation> alloc = allocator_->Allocate(h.pgsize);
  if (!alloc.ok()) {
    MP_LOG(Error) << "SharedMalloc failed: " << alloc.status().ToString();
    reply.flags = kFlagAbort;
    return reply;
  }
  // Open ReadWrite over every allocated id no request has been translated
  // for: such an id is still manager-held, including the new vpages of a
  // growing chunk. A translated id is shared, and its shard (which bootstraps
  // its directory entry lazily in Directory::StartService) owns its protection. The
  // grant stays under alloc_mu_: a translation that closes a growing chunk
  // must not run between the chunk's extension and its grant.
  std::vector<Minipage> grants;
  grants.reserve(alloc->minipages.size());
  for (MinipageId id : alloc->minipages) {
    if (id >= mp_routed_.size() || !mp_routed_[id]) {
      grants.push_back(mpt_->Get(id));
    }
  }
  // One ranged protection call opens the whole round: an allocation's
  // minipages pack vpage-contiguously, so an N-minipage grant costs one
  // mprotect (or uffd ioctl) instead of N.
  MP_CHECK_OK(
      views_->SetProtectionBatch(grants.data(), grants.size(), Protection::kReadWrite));
  reply.addr = GlobalAddr{alloc->view, alloc->offset}.Pack();
  reply.pgsize = static_cast<uint32_t>(alloc->size);
  reply.privbase = alloc->offset;
  return reply;
}

void DsmNode::MgrCloseChunk() {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  allocator_->CloseChunk();
}

void DsmNode::MgrHandleAlloc(const MsgHeader& h) {
  if (h.pgsize == 0) {
    MgrCloseChunk();
    return;
  }
  SendMsg(h.from, MgrAllocate(h));
}

MsgHeader DsmNode::AnswerProbe(const MsgHeader& query) {
  MsgHeader reply = query;
  reply.from = me_;
  switch (query.msg_type()) {
    case MsgType::kCopysetQuery:
      reply.set_type(MsgType::kCopysetReply);
      reply.pgsize = static_cast<uint32_t>(views_->GetProtection(MinipageFromHeader(query)));
      break;
    case MsgType::kLockProbe: {
      reply.set_type(MsgType::kLockProbeReply);
      reply.flags = 0;
      std::lock_guard<std::mutex> lock(held_mu_);
      if (auto it = held_locks_.find(query.minipage); it != held_locks_.end()) {
        reply.flags = kFlagUpgrade;
        reply.pgsize = it->second;  // the holding thread's wait slot
      }
      break;
    }
    case MsgType::kBarrierProbe: {
      reply.set_type(MsgType::kBarrierProbeReply);
      std::lock_guard<std::mutex> lock(epoch_mu_);
      reply.pgsize = epoch_;  // barriers completed here
      break;
    }
    default:
      MP_LOG(Fatal) << "AnswerProbe: " << MsgTypeName(query.msg_type()) << " is not a probe";
  }
  return reply;
}

// ---- Serving side ------------------------------------------------------------

void DsmNode::ServeReadRequest(const MsgHeader& h) {
  const Minipage mp = MinipageFromHeader(h);
  const Protection have = views_->GetProtection(mp);
  if (have == Protection::kNoAccess) {
    Bounce(h);
    return;
  }
  if (have == Protection::kReadWrite) {
    if (Status st = views_->SetProtection(mp, Protection::kReadOnly); !st.ok()) {
      // Self-downgrade failed: serving anyway could let a local writer tear
      // the outbound copy. Bounce for re-routing (the shard re-dispatches an
      // in-service bounce, so this never wedges the minipage) instead of
      // taking the cluster down over one failed protection change.
      MP_LOG(Error) << "host " << me_ << ": read-serve downgrade of minipage "
                    << h.minipage << " failed: " << st.ToString() << "; bouncing";
      Bounce(h);
      return;
    }
  }
  MsgHeader reply = h;
  reply.set_type(MsgType::kReadReply);
  reply.flags = static_cast<uint8_t>(h.flags & kFlagPrefetch);
  SendMsg(h.from, reply, views_->PrivAddr(mp.offset), mp.length);
}

void DsmNode::ServeWriteRequest(const MsgHeader& h) {
  const Minipage mp = MinipageFromHeader(h);
  if (views_->GetProtection(mp) == Protection::kNoAccess) {
    Bounce(h);
    return;
  }
  if (Status st = views_->SetProtection(mp, Protection::kNoAccess); !st.ok()) {
    // Relinquish failed: sending the copy while it is still locally writable
    // would break SWMR. Bounce — the shard re-forwards a bounced write to
    // this same host, so a transient failure resolves on the retry.
    MP_LOG(Error) << "host " << me_ << ": write-serve relinquish of minipage "
                  << h.minipage << " failed: " << st.ToString() << "; bouncing";
    Bounce(h);
    return;
  }
  MsgHeader reply = h;
  reply.set_type(MsgType::kWriteReply);
  reply.flags = 0;
  SendMsg(h.from, reply, views_->PrivAddr(mp.offset), mp.length);
}

void DsmNode::HandleInvalidateRequest(const MsgHeader& h) {
  const Minipage mp = MinipageFromHeader(h);
  MP_CHECK_OK(views_->SetProtection(mp, Protection::kNoAccess));
  if (!config_.enable_ack) {
    // Any fetch of this minipage still in flight will deliver pre-write
    // data: poison it so the reply is retried instead of installed.
    const GlobalAddr ga = h.global_addr();
    for (auto& f : inflight_) {
      const uint64_t packed = f.addr.load(std::memory_order_acquire);
      if (packed == ~0ULL) {
        continue;
      }
      const GlobalAddr in = GlobalAddr::Unpack(packed);
      if (in.view == ga.view && in.offset >= h.privbase &&
          in.offset < h.privbase + h.pgsize) {
        f.poisoned.store(true, std::memory_order_release);
      }
    }
  }
  host_[&HostCounters::invalidations_received].Inc();
  MsgHeader reply = h;
  reply.set_type(MsgType::kInvalidateReply);
  // The manager retires invalidations by *replier* bit, so the reply must
  // carry this host's id, not the writer's that the request was stamped with.
  reply.from = me_;
  reply.flags = 0;
  // A batched invalidate request dispatches N of these back-to-back; the
  // coalescer folds the replies for one shard into one batched frame.
  SendCoalesced(LiveManagerOf(h.minipage), reply);
}

void DsmNode::HandleReply(const MsgHeader& h) {
  if ((h.flags & kFlagAbort) != 0) {
    // Lost-minipage error reply: no data, no protection change, no ACK —
    // just deliver the verdict to the waiting thread (if any).
    NoteLost(h.minipage);
    if (h.seq != kNoWaitSlot) {
      Wake(h);
    }
    return;
  }
  if (!config_.enable_ack && h.seq != kNoWaitSlot) {
    const uint32_t slot = WaitSlots::SeqSlot(h.seq);
    // Only a reply to the slot's *current* attempt owns the in-flight entry;
    // a stale-generation reply (abandoned attempt) must not clear or retry
    // the tracking the newer attempt installed.
    if (WaitSlots::SeqGen(h.seq) ==
        (slot_gen_[slot].load(std::memory_order_acquire) & 0xffffffu)) {
      InflightFetch& f = inflight_[slot];
      if (f.poisoned.exchange(false, std::memory_order_acq_rel)) {
        // The fetched copy was invalidated in flight; leave the vpage
        // inaccessible and re-issue the request for fresh data.
        fault_retries_->Inc();
        MsgHeader retry;
        retry.set_type(h.msg_type() == MsgType::kReadReply ? MsgType::kReadRequest
                                                           : MsgType::kWriteRequest);
        retry.from = me_;
        retry.seq = h.seq;
        retry.addr = f.addr.load(std::memory_order_acquire);
        SendMsg(kManagerHost, retry);
        return;
      }
      f.addr.store(~0ULL, std::memory_order_release);
    }
  }
  const Minipage mp = MinipageFromHeader(h);
  const Protection prot = h.msg_type() == MsgType::kReadReply ? Protection::kReadOnly
                                                              : Protection::kReadWrite;
  if (Status st = views_->SetProtection(mp, prot); !st.ok()) {
    // The grant arrived but raising local protection failed (ENOMEM from a
    // VMA split, an injected fault-path failure). A protection change on the
    // fault path is a per-access problem, not a cluster-fatal one: renounce
    // the grant with an abort-flagged ACK so the owning shard drops this
    // host from the copyset (and degrades the id to lost when ours would
    // have been the only copy — the same policy as sole-copy host death),
    // then deliver an abort verdict so the waiting access fails kNotFound
    // while every other minipage keeps working.
    MP_LOG(Error) << "host " << me_ << ": installing minipage " << h.minipage
                  << " grant failed: " << st.ToString() << "; degrading this access";
    SendMsg(LiveManagerOf(h.minipage), AckFor(h, kFlagAbort));
    if (h.seq != kNoWaitSlot) {
      NoteLost(h.minipage);
      MsgHeader verdict = h;
      verdict.flags |= kFlagAbort;
      Wake(verdict);
    }
    return;
  }
  if (config_.enable_ack) {
    LearnTranslation(h);  // for stream read-ahead, which runs only with the ACK
  }
  // The installer ACKs: the copy is in place whether or not a thread still
  // waits for it, so the shard can serve the minipage's next request. A read
  // is ACKed only with the ACK on; a write always is. It is sent at once,
  // not coalesced, since the minipage is in service until it lands, and
  // before the waiter wakes, so nothing the server thread sends for a reply
  // races the waiter's own next sends (same-seed simulator histories).
  if (config_.enable_ack || h.msg_type() == MsgType::kWriteReply) {
    SendMsg(LiveManagerOf(h.minipage), AckFor(h));
  }
  if (h.seq == kNoWaitSlot) {
    host_[&HostCounters::prefetch_bytes].Inc(h.has_payload() ? h.pgsize : 0);
  } else {
    Wake(h);
  }
}

void DsmNode::ApplyPush(const MsgHeader& h) {
  const Minipage mp = MinipageFromHeader(h);
  MP_CHECK_OK(views_->SetProtection(mp, Protection::kReadOnly));
  SendCoalesced(LiveManagerOf(h.minipage), AckFor(h));
}

void DsmNode::PusherBroadcast(const MsgHeader& h) {
  const Minipage mp = MinipageFromHeader(h);
  if (views_->GetProtection(mp) != Protection::kReadWrite) {
    // Lost the writable copy since the push was issued; abort.
    SendMsg(LiveManagerOf(h.minipage), AckFor(h, kFlagAbort));
    return;
  }
  // Downgrade first so no local writer can tear the broadcast contents.
  MP_CHECK_OK(views_->SetProtection(mp, Protection::kReadOnly));
  MsgHeader push = h;
  push.set_type(MsgType::kPushUpdate);
  push.flags = kFlagForwarded;
  live_set().ForEach([&](uint32_t host) {
    if (host != me_) {
      SendMsg(static_cast<HostId>(host), push, views_->PrivAddr(mp.offset), mp.length);
    }
  });
  SendMsg(LiveManagerOf(h.minipage), AckFor(h));
}

void DsmNode::Bounce(MsgHeader h) {
  // This host cannot serve the forwarded request (its copy is gone or has
  // not arrived) — a window that only opens when read ACKs are elided.
  // Return it to the owning shard for re-routing against current directory
  // state.
  bounced_->Inc();
  h.flags |= kFlagBounced;
  SendMsg(LiveManagerOf(h.minipage), h);
}

// ---- Liveness --------------------------------------------------------------

Result<MsgHeader> DsmNode::AwaitReply(uint32_t slot, uint32_t gen, uint64_t timeout_ms,
                                      const char* what, bool poll) {
  const uint64_t poll_us = poll ? reply_poll_us_.load(std::memory_order_relaxed) : 0;
  const uint64_t deadline_ns =
      timeout_ms > 0 ? MonotonicNowNs() + timeout_ms * 1000000ull : 0;
  for (;;) {
    uint64_t remaining_ms = 0;
    if (timeout_ms > 0) {
      const uint64_t now = MonotonicNowNs();
      if (now >= deadline_ns) {
        return Status::DeadlineExceeded(std::string(what) + ": no reply within " +
                                        std::to_string(timeout_ms) + " ms");
      }
      remaining_ms = (deadline_ns - now + 999999) / 1000000;
    }
    Result<MsgHeader> r = slots_.WaitFor(slot, remaining_ms, poll_us);
    if (!r.ok()) {
      if (r.status().code() == StatusCode::kDeadlineExceeded) {
        return Status::DeadlineExceeded(std::string(what) + ": no reply within " +
                                        std::to_string(timeout_ms) + " ms");
      }
      return r.status();
    }
    if (WaitSlots::SeqGen(r->seq) == (gen & 0xffffffu)) {
      return *r;
    }
    // Late reply to an abandoned attempt: discard it. A data reply was
    // already installed and ACKed by the server thread (HandleReply).
    stale_replies_->Inc();
  }
}

void DsmNode::Wake(const MsgHeader& reply) {
  slots_.Post(WaitSlots::SeqSlot(reply.seq), reply);
  if (tls_sim_step == this) {
    woke_in_step_ = true;
  }
}

void DsmNode::OnPeerDown(HostId peer) {
  if (draining_.load(std::memory_order_acquire) ||
      stop_.load(std::memory_order_acquire)) {
    return;  // teardown: peers exiting is expected
  }
  {
    std::lock_guard<std::mutex> lock(peer_down_mu_);
    if (peer_down_.Contains(peer)) {
      return;  // already known
    }
    peer_down_.Add(peer);
  }
  if (RecoveryEnabled() && peer != kManagerHost) {
    // Recoverable death: schedule membership recovery on the server thread
    // (the directory is server-thread state). App threads keep their waits —
    // recovery kicks them once the new membership is in place.
    MP_LOG(Error) << "host " << me_ << ": peer host " << peer
                  << " is down; scheduling membership recovery. " << LivenessReport();
    InjectPeerDeath(peer);
    return;
  }
  MP_LOG(Error) << "host " << me_ << ": peer host " << peer
                << " is down; aborting outstanding waits. " << LivenessReport();
  slots_.AbortAll(Status::Unavailable("peer host " + std::to_string(peer) + " is down"));
  // Wake any thread parked in AwaitMembershipChange: no epoch is coming.
  {
    std::lock_guard<std::mutex> lock(member_mu_);
  }
  member_cv_.notify_all();
}

// ---- Membership / recovery -------------------------------------------------

bool DsmNode::ProcessPendingDeaths() {
  if (!has_pending_deaths_.load(std::memory_order_acquire)) {
    return false;
  }
  // Start() sets the poll window before the server thread exists, so a node
  // without one is driven by the simulator (or a test) on this thread.
  const SimStep step(reply_poll_us_.load(std::memory_order_relaxed) == 0 ? this : nullptr,
                     &woke_in_step_);
  HostSet pend;
  {
    std::lock_guard<std::mutex> lock(pending_death_mu_);
    pend = pending_deaths_;
    pending_deaths_.Clear();
    has_pending_deaths_.store(false, std::memory_order_release);
  }
  const Membership& m = membership();
  pend.SubtractAll(m.dead);
  pend.IntersectWith(m.live);
  if (pend.Empty()) {
    return false;
  }
  ScopedTimer timer(recovery_ns_);
  HostSet dead = m.dead;
  dead.UnionWith(pend);
  ApplyMembership(m.epoch + 1, dead, /*broadcast=*/true);
  return true;
}

void DsmNode::PublishMembership(std::unique_ptr<Membership> next) {
  membership_.store(next.get(), std::memory_order_release);
  membership_history_.push_back(std::move(next));
}

void DsmNode::ApplyMembership(uint32_t epoch, const HostSet& dead, bool broadcast) {
  const Membership& cur = membership();
  const uint32_t new_epoch = std::max(cur.epoch, epoch);
  HostSet new_dead = cur.dead;
  new_dead.UnionWith(dead);
  if (new_epoch == cur.epoch && new_dead == cur.dead) {
    return;  // idempotent merge: nothing new
  }
  // Drain open batches before publishing the new membership: a queued frame
  // was routed (and its shard chosen) under the old live set, so it must
  // leave stamped with the old epoch and behave exactly like traffic that
  // was already in flight when the bump landed.
  FlushCoalesced();
  HostSet newly_dead = new_dead;
  newly_dead.SubtractAll(cur.dead);
  // Publish first so every message sent below (bump broadcast, rebuild
  // queries, probes) carries the new epoch and routes by the new live set.
  auto next = std::make_unique<Membership>();
  next->epoch = new_epoch;
  next->dead = new_dead;
  next->live = HostSet::AllBelow(config_.num_hosts);
  next->live.SubtractAll(new_dead);
  PublishMembership(std::move(next));
  epoch_bumps_->Inc();
  // Trace contract: one kEpochBump event per newly-dead host, arg2 = the
  // dead host id + 1 (0 means the epoch advanced with no new deaths — a
  // merge of already-known membership). The checker reconstructs each
  // observer's cumulative dead set from these, at any cluster size.
  if (newly_dead.Empty()) {
    Trace(TraceEventKind::kEpochBump, ~0u, 0, new_epoch, 0);
  } else {
    newly_dead.ForEach([&](uint32_t d) {
      Trace(TraceEventKind::kEpochBump, ~0u, 0, new_epoch, static_cast<uint64_t>(d) + 1);
    });
  }
  MP_LOG(Error) << "host " << me_ << ": membership epoch " << new_epoch << ", "
                << new_dead.Count() << " dead (low mask 0x" << std::hex
                << new_dead.LowWord() << std::dec << ")";
  if (broadcast) {
    // Tell every live peer before repairing, so per-pair FIFO delivers the
    // bump ahead of any repair traffic (queries, probes) we send them. One
    // bump per dead host, cumulative, so a receiver that missed an earlier
    // epoch still converges on the full dead set.
    MsgHeader bump;
    bump.set_type(MsgType::kEpochBump);
    bump.from = me_;
    bump.seq = kNoWaitSlot;
    bump.minipage = new_epoch;
    live_set().ForEach([&](uint32_t host) {
      if (host == me_) {
        return;
      }
      new_dead.ForEach([&](uint32_t d) {
        bump.privbase = d;
        SendMsg(static_cast<HostId>(host), bump);
      });
    });
  }
  if (directory_ != nullptr) {
    newly_dead.ForEach(
        [&](uint32_t d) { directory_->RepairAfterDeath(static_cast<HostId>(d)); });
  }
  WakeLost();  // before the kick, so a waiter with a verdict takes it
  // Wake app threads: parked waiters re-send against the new membership
  // (their operations are all failover-idempotent), senders blocked in
  // AwaitMembershipChange re-route.
  {
    std::lock_guard<std::mutex> lock(member_mu_);
  }
  member_cv_.notify_all();
  slots_.KickAll(Status::Precondition("membership changed (epoch " +
                                      std::to_string(new_epoch) + ")"));
  DrainDeferred();
}

void DsmNode::DrainDeferred() {
  if (deferred_.empty()) {
    return;
  }
  std::deque<DeferredMsg> q;
  q.swap(deferred_);
  for (const DeferredMsg& d : q) {
    // A batched frame's records were stashed alongside the header; restore
    // the receive buffer HandleMessage reads them from before replaying.
    if (!d.payload.empty()) {
      batch_rx_.assign(d.payload.begin(), d.payload.end());
    }
    HandleMessage(d.raw);  // re-gates: still-newer messages re-defer
  }
}

bool DsmNode::AwaitMembershipChange(uint32_t epoch_before) {
  if (!RecoveryEnabled()) {
    return false;
  }
  std::unique_lock<std::mutex> lock(member_mu_);
  const auto changed = [&] {
    return member_epoch() > epoch_before || slots_.aborted();
  };
  if (config_.sync_timeout_ms == 0) {
    member_cv_.wait(lock, changed);
  } else {
    member_cv_.wait_for(lock, std::chrono::milliseconds(config_.sync_timeout_ms), changed);
  }
  return member_epoch() > epoch_before;
}

Status DsmNode::LivenessFailure(const char* op, const Status& cause) {
  if (!draining_.load(std::memory_order_acquire)) {
    MP_LOG(Error) << "host " << me_ << ": " << op << " failed: " << cause.ToString()
                  << ". " << LivenessReport();
  }
  return Status(cause.code(), std::string(op) + ": " + cause.message());
}

std::string DsmNode::LivenessReport() const {
  // Every down peer by id — a low-word mask would hide hosts >= 64.
  const HostSet down = peers_down_set();
  std::string s = "liveness{host=" + std::to_string(me_) +
                  " peers_down{count=" + std::to_string(down.Count()) + " ids=";
  const char* sep = "";
  down.ForEach([&](uint32_t h) {
    s += sep;
    s += std::to_string(h);
    sep = ",";
  });
  char buf[256];
  snprintf(buf, sizeof(buf), "} timeout_retries=%llu stale_replies=%llu fault_retries=%llu",
           (unsigned long long)timeout_retries_->value(),
           (unsigned long long)stale_replies_->value(),
           (unsigned long long)fault_retries_->value());
  s += buf;
  if (directory_ != nullptr) {
    // Manager-side view: how much protocol state is wedged mid-transaction,
    // from the gauges the server thread publishes.
    snprintf(buf, sizeof(buf), " dir{minipages=%zu in_service=%zu barrier_arrived=%d}",
             directory_->num_entries(), directory_->InServiceCount(),
             directory_->ArrivedCount());
    s += buf;
  }
  s += "}";
  return s;
}

}  // namespace millipage
