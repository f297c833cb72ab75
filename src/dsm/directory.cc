#include "src/dsm/directory.h"

#include <algorithm>
#include <iterator>

#include "src/common/failpoint.h"
#include "src/os/protection.h"

namespace millipage {

Directory::Directory(const DsmConfig& config, HostId me, MetricsRegistry& registry, Seam& seam)
    : config_(config),
      me_(me),
      seam_(seam),
      requests_served_(registry.GetCounter("mgr.requests_served")),
      invalidation_rounds_(registry.GetCounter("mgr.invalidation_rounds")),
      mpt_lookups_(registry.GetCounter("mgr.mpt_lookups")),
      remote_routed_(registry.GetCounter("mgr.remote_routed")),
      competing_requests_(registry.GetCounter("host.competing_requests")),
      dup_invalidate_replies_(registry.GetCounter("host.dup_invalidate_replies")),
      shards_adopted_(registry.GetCounter("dsm.shards_adopted")),
      copyset_repairs_(registry.GetCounter("dsm.copyset_repairs")),
      minipages_lost_(registry.GetCounter("dsm.minipages_lost")) {}

void Directory::Handle(const MsgHeader& h) {
  const MsgType type = h.msg_type();
  const uint32_t id = type == MsgType::kBarrierEnter || type == MsgType::kBarrierProbeReply
                          ? kBarrierShardId
                          : h.minipage;
  MP_CHECK(OwnsShard(id)) << MsgTypeName(type) << " for id " << id << " at non-owning shard "
                          << me_;
  switch (type) {
    case MsgType::kReadRequest:
    case MsgType::kWriteRequest:
    case MsgType::kPushUpdate:
      if ((h.flags & kFlagBounced) != 0) {
        // A serving host returned the request unserved; re-route it. Bounced
        // requests still carry the forwarded flag: strip both.
        MsgHeader copy = h;
        copy.flags &= static_cast<uint8_t>(~(kFlagForwarded | kFlagBounced));
        HandleBounced(copy);
      } else {
        StartService(h);
      }
      break;
    case MsgType::kInvalidateReply:
      HandleInvalidateReply(h);
      break;
    case MsgType::kAck:
      HandleAck(h);
      break;
    case MsgType::kBarrierEnter:
      HandleBarrierEnter(h);
      break;
    case MsgType::kLockAcquire:
      HandleLockAcquire(h);
      break;
    case MsgType::kLockRelease:
      HandleLockRelease(h);
      break;
    case MsgType::kCopysetReply:
    case MsgType::kLockProbeReply:
    case MsgType::kBarrierProbeReply:
      TakeAnswer(h);
      break;
    default:
      MP_LOG(Fatal) << "Directory: " << MsgTypeName(type) << " is not a manager message";
  }
}

// ---- Minipage service ---------------------------------------------------------

void Directory::StartService(const MsgHeader& h) {
  DirEntry& e = Entry(h.minipage);
  if (e.lost) {
    ReplyLost(h);
    return;
  }
  if (e.poll.open) {
    e.pending.push_back(h);  // adopted id, copyset still being reassembled
    return;
  }
  if (e.copyset.Empty()) {
    // First request this shard sees for the id. If the id's original home
    // shard is dead, this shard adopted it and cannot know whether the id
    // was ever serviced: rebuild the copyset by querying every live host
    // (the request waits in `pending` meanwhile). Otherwise the initial
    // holder is always host 0: allocation opened the minipage ReadWrite
    // there, and every first-touch request passes host 0's translation
    // before arriving here (closing the growth chunk), so "never serviced"
    // ⇒ "still manager-held". Both policies bootstrap here; only sharded
    // shards can adopt (centralized ones never rehash).
    if (AdoptedHere(h.minipage)) {
      e.pending.push_back(h);
      StartCopysetRebuild(h);
      return;
    }
    e.copyset = HostSet::Single(kManagerHost);
    e.writable = true;
  }
  requests_served_->Inc();
  if (e.in_service) {
    // A request queued behind another HOST's transaction is contention (the
    // paper's "competing requests"). Queued behind the same host's own
    // in-flight prefetch it is just a pipelined duplicate, and a queued
    // PREFETCH blocks nobody (its issuer is not waiting) — neither is
    // priced as contention.
    if (h.from != e.in_service_for && (h.flags & kFlagPrefetch) == 0) {
      competing_requests_->Inc();
    }
    e.pending.push_back(h);
    return;
  }
  SetInService(e, true);
  e.in_service_for = h.from;
  e.in_service_req = h;
  seam_.Trace(TraceEventKind::kMgrSvcStart, h.minipage, h.addr, h.from, e.copyset.LowWord());
  Process(h);
}

void Directory::Process(const MsgHeader& h) {
  DirEntry& e = Entry(h.minipage);
  if (h.msg_type() == MsgType::kReadRequest) {
    ProcessRead(h, e);
  } else if (h.msg_type() == MsgType::kWriteRequest) {
    ProcessWrite(h, e);
  } else {
    ProcessPush(h, e);  // Handle admits no other type into service
  }
}

void Directory::ProcessRead(const MsgHeader& h, DirEntry& e) {
  MP_CHECK(!e.copyset.Empty()) << "minipage with empty copyset";
  if (e.CopyCount() == 1 && e.HasCopy(h.from)) {
    // Requester already holds the only copy (prefetch/fault race): grant
    // access without data.
    seam_.Trace(TraceEventKind::kMgrReadGrant, h.minipage, h.addr, h.from, e.copyset.LowWord());
    MsgHeader reply = h;
    reply.set_type(MsgType::kReadReply);
    reply.flags = static_cast<uint8_t>((h.flags & kFlagPrefetch) | kFlagUpgrade);
    seam_.Send(h.from, reply);
    if (!config_.enable_ack) {
      FinishService(h.minipage);
    }
    return;
  }
  const HostId replica = e.PickReplica(h.from, replica_rotation_++);
  e.AddCopy(h.from);
  e.writable = false;  // the serving host downgrades itself to ReadOnly
  seam_.Trace(TraceEventKind::kMgrReadGrant, h.minipage, h.addr, h.from, e.copyset.LowWord());
  MsgHeader fwd = h;
  fwd.flags |= kFlagForwarded;
  Forward(e, replica, fwd);
  if (!config_.enable_ack) {
    FinishService(h.minipage);
  }
}

void Directory::ProcessWrite(const MsgHeader& h, DirEntry& e) {
  MP_CHECK(!e.copyset.Empty()) << "minipage with empty copyset";
  if (e.CopyCount() == 1 && e.HasCopy(h.from)) {
    // Sole holder asks for exclusivity: upgrade in place.
    e.writable = true;
    seam_.Trace(TraceEventKind::kMgrWriteGrant, h.minipage, h.addr, h.from,
                static_cast<uint64_t>(h.from) + 1);
    MsgHeader reply = h;
    reply.set_type(MsgType::kWriteReply);
    reply.flags = kFlagUpgrade;
    seam_.Send(h.from, reply);
    if (!config_.enable_ack) {
      FinishService(h.minipage);
    }
    return;
  }
  const HostId remaining =
      e.HasCopy(h.from) ? h.from : e.PickReplica(h.from, replica_rotation_++);
  HostSet others = e.copyset;
  others.Remove(remaining);
  others.Remove(h.from);
  e.copyset = HostSet::Single(h.from);
  e.writable = true;
  if (others.Empty()) {
    MP_CHECK(remaining != h.from);
    seam_.Trace(TraceEventKind::kMgrWriteGrant, h.minipage, h.addr, h.from,
                static_cast<uint64_t>(remaining) + 1);
    MsgHeader fwd = h;
    fwd.flags |= kFlagForwarded;
    Forward(e, remaining, fwd);
    if (!config_.enable_ack) {
      FinishService(h.minipage);
    }
    return;
  }
  // Invalidate every other replica; the write is forwarded (or upgraded)
  // once all invalidation replies are in (Figure 3, Manager paths). The
  // outstanding set is a host set so copyset repair can retire the
  // invalidations a host that dies mid-round will never answer.
  e.write_pending = true;
  e.pending_write = h;
  e.write_remaining = remaining;
  e.invalidates_pending.Clear();
  invalidation_rounds_->Inc();
  const HostSet& live = seam_.live_set();
  // Burst window: with coalescing off (or single-record batches) this
  // fan-out is one datagram per copyset member; a batching transport submits
  // them to the kernel in one go.
  seam_.BeginBurst();
  others.ForEach([&](uint32_t host) {
    if (!live.Contains(host)) {
      return;
    }
    // Protocol-bug injection for the simulator: silently skip one
    // invalidation, leaving a stale readable replica behind — exactly the
    // class of bug the offline SWMR checker exists to catch.
    if (FailpointRegistry::Instance().Fire("dsm.mgr.skip_invalidate").has_value()) {
      return;
    }
    e.invalidates_pending.Add(host);
    seam_.Trace(TraceEventKind::kMgrInvalidate, h.minipage, h.addr, host);
    MsgHeader inv = h;
    inv.set_type(MsgType::kInvalidateRequest);
    inv.flags = kFlagForwarded;
    seam_.SendCoalesced(static_cast<HostId>(host), inv);
  });
  seam_.EndBurst();
  if (e.invalidates_pending.Empty()) {
    FinishWriteRound(h.minipage);
  }
}

void Directory::ProcessPush(const MsgHeader& h, DirEntry& e) {
  // The pusher must still hold the writable copy; it broadcasts and every
  // live host (pusher included) confirms with an ACK before the minipage
  // leaves service and the copyset becomes all-live-hosts.
  e.push_outstanding = static_cast<uint32_t>(seam_.live_set().Count());
  MsgHeader fwd = h;
  fwd.flags |= kFlagForwarded;
  seam_.Send(h.from, fwd);
}

void Directory::Forward(DirEntry& e, HostId target, const MsgHeader& fwd) {
  e.fetch_pending = true;
  e.fetch_from = target;
  seam_.Forward(target, fwd);
}

void Directory::HandleInvalidateReply(const MsgHeader& h) {
  DirEntry& e = Entry(h.minipage);
  // A reply for a round that already closed (no write pending) or a second
  // reply from the same host is a duplicate delivery — a retransmitting
  // transport, or a reply that raced with copyset repair retiring the round.
  // Invalidation is idempotent at the replica, so the extra reply carries no
  // information; drop it instead of taking the whole cluster down.
  if (!e.write_pending || !e.invalidates_pending.Contains(h.from)) {
    dup_invalidate_replies_->Inc();
    return;
  }
  e.invalidates_pending.Remove(h.from);
  if (!e.invalidates_pending.Empty()) {
    return;
  }
  FinishWriteRound(h.minipage);
}

void Directory::FinishWriteRound(MinipageId id) {
  DirEntry& e = Entry(id);
  e.write_pending = false;
  const MsgHeader& w = e.pending_write;
  seam_.Trace(TraceEventKind::kMgrWriteGrant, id, w.addr, w.from,
              static_cast<uint64_t>(e.write_remaining) + 1);
  if (e.write_remaining == w.from) {
    MsgHeader reply = w;
    reply.set_type(MsgType::kWriteReply);
    reply.flags = kFlagUpgrade;
    seam_.Send(w.from, reply);
  } else {
    MsgHeader fwd = w;
    fwd.flags |= kFlagForwarded;
    Forward(e, e.write_remaining, fwd);
  }
  if (!config_.enable_ack) {
    FinishService(id);
  }
}

void Directory::HandleAck(const MsgHeader& h) {
  DirEntry& e = Entry(h.minipage);
  if ((h.flags & kFlagAbort) != 0 && e.push_outstanding == 0) {
    // Renounced grant: the grantee's protection install failed, so the copy
    // the directory just granted does not exist. Drop the grantee from the
    // copyset; when that empties it, the data now lives nowhere reachable —
    // degrade the id with the same lost-minipage machinery as sole-copy
    // host death (per-access kNotFound for future requesters) instead of
    // wedging or aborting the cluster.
    e.copyset.Remove(h.from);
    if (e.copyset.Empty() && !e.lost) {
      e.writable = false;
      MP_LOG(Error) << "host " << me_ << ": minipage " << h.minipage
                    << " lost: host " << h.from << " renounced the only copy";
      DeclareLost(e);
    }
    if (e.in_service) {
      FinishService(h.minipage);
    }
    return;
  }
  if (!e.in_service) {
    // Repair already closed this transaction (its data source died and the
    // service was restarted or the id declared lost): the ACK answers a
    // grant that no longer exists.
    return;
  }
  if (e.push_outstanding > 0) {
    if ((h.flags & kFlagAbort) != 0) {
      e.push_outstanding = 0;  // pusher lost the copy; leave copyset alone
      FinishService(h.minipage);
      return;
    }
    if (--e.push_outstanding > 0) {
      return;
    }
    e.copyset = seam_.live_set();
    e.writable = false;
    FinishService(h.minipage);
    return;
  }
  FinishService(h.minipage);
}

void Directory::HandleBounced(const MsgHeader& h) {
  DirEntry& e = Entry(h.minipage);
  if (h.msg_type() == MsgType::kWriteRequest) {
    // Writes are still ACK-serialized, so the transaction that chose the
    // bounced target is the one in service; retry the same target — its
    // inbound copy is on the wire.
    MsgHeader fwd = h;
    fwd.flags |= kFlagForwarded;
    Forward(e, e.write_remaining, fwd);
    return;
  }
  // Reads: re-route from the current copyset. When the bounce came from a
  // serve-side protection failure the transaction is still in service (its
  // ACK is pending) — re-dispatch it directly; funneling it through
  // StartService would queue the request behind itself and wedge the
  // minipage forever.
  if (e.in_service && e.in_service_for == h.from) {
    Process(h);
    return;
  }
  StartService(h);
}

void Directory::FinishService(MinipageId id) {
  DirEntry& e = Entry(id);
  SetInService(e, false);
  e.fetch_pending = false;
  seam_.Trace(TraceEventKind::kMgrSvcEnd, id, 0, 0, e.copyset.LowWord());
  if (e.pending.empty()) {
    return;
  }
  MsgHeader next = e.pending.front();
  e.pending.pop_front();
  SetInService(e, true);
  e.in_service_for = next.from;
  e.in_service_req = next;
  seam_.Trace(TraceEventKind::kMgrSvcStart, next.minipage, next.addr, next.from,
              e.copyset.LowWord());
  Process(next);
}

void Directory::ReplyLost(const MsgHeader& h) {
  if (h.msg_type() == MsgType::kInvalidateRequest) {
    return;  // nothing useful to answer
  }
  MsgHeader reply = h;
  reply.set_type(h.msg_type() == MsgType::kWriteRequest ? MsgType::kWriteReply
                                                        : MsgType::kReadReply);
  reply.flags = kFlagAbort;
  if (h.from == me_) {
    seam_.DeliverLost(reply);  // our own queued request: deliver locally
    return;
  }
  seam_.Send(h.from, reply);
}

void Directory::DeclareLost(DirEntry& e) {
  e.lost = true;
  minipages_lost_->Inc();
  while (!e.pending.empty()) {
    ReplyLost(e.pending.front());
    e.pending.pop_front();
  }
}

// ---- Lock and barrier service ---------------------------------------------------

void Directory::HandleBarrierEnter(const MsgHeader& h) {
  BarrierState& b = barrier_;
  if (!b.poll.done && AdoptedHere(kBarrierShardId)) {
    StartBarrierProbe();
  }
  if (h.pgsize < b.generation) {
    // Entry for a round this shard already released: the host's original
    // release crossed a membership kick and was staled, so it re-sent. The
    // round's quorum was met once — re-releasing it is idempotent, and
    // queueing the entry instead would strand the host waiting on peers that
    // have already moved past the round.
    SendBarrierRelease(h);
    return;
  }
  if (!b.arrived_set.Contains(h.from)) {
    Arrive(h.from);
    b.waiters.push_back(h);
  } else {
    // Post-failover re-send from an already-arrived host: collapse the
    // duplicate, but keep the freshest header so the release answers the
    // newest attempt's (slot, generation).
    for (MsgHeader& w : b.waiters) {
      if (w.from == h.from) {
        w = h;
        break;
      }
    }
  }
  MaybeReleaseBarrier();
}

void Directory::SendBarrierRelease(MsgHeader enter) {
  enter.set_type(MsgType::kBarrierRelease);
  enter.minipage = enter.pgsize;
  seam_.Send(enter.from, enter);
}

void Directory::ReleaseBarrierBelow(uint32_t gen) {
  BarrierState& b = barrier_;
  size_t kept = 0;
  for (size_t i = 0; i < b.waiters.size(); ++i) {
    const MsgHeader w = b.waiters[i];
    if (w.pgsize < gen) {
      Depart(w.from);
      SendBarrierRelease(w);
    } else {
      b.waiters[kept++] = w;
    }
  }
  b.waiters.resize(kept);
}

void Directory::MaybeReleaseBarrier() {
  BarrierState& b = barrier_;
  if (b.waiters.empty()) {
    return;
  }
  if (!b.arrived_set.ContainsAll(seam_.live_set())) {
    return;  // a live host is still computing (dead hosts no longer count)
  }
  // Release the *oldest* round only, and each waiter with its own expected
  // generation (carried in pgsize). Across a failover the new shard can see
  // mixed generations — a host the dead shard released mid-round is already
  // at round k+1 while a straggler re-sends round k; the straggler's arrival
  // at k implies everyone reached k, but the k+1 entrant must stay queued.
  uint32_t min_gen = ~0u;
  for (const MsgHeader& w : b.waiters) {
    min_gen = std::min(min_gen, w.pgsize);
  }
  ReleaseBarrierBelow(min_gen + 1);
  b.generation = min_gen + 1;
}

void Directory::HandleLockAcquire(const MsgHeader& h) {
  LockEntry& l = Lock(h.minipage);
  if (!l.poll.done && AdoptedHere(h.minipage)) {
    StartLockProbe(h.minipage);
  }
  const bool holder = l.held && l.holder == h.from &&
                      l.holder_slot == WaitSlots::SeqSlot(h.seq);
  if (l.poll.open || (l.held && !holder)) {
    // Queue behind the holder — another thread of the holding host too —
    // or, while an adoption poll is open, until every live host has answered
    // it (a grant issued by the dead shard must be honored, not doubled).
    if (!l.RefreshWaiter(h)) {
      l.waiters.push_back(h);
    }
    return;
  }
  GrantLock(h.minipage, l, h);
}

void Directory::HandleLockRelease(const MsgHeader& h) {
  LockEntry& l = Lock(h.minipage);
  if (!l.held || l.holder != h.from) {
    if (!seam_.dead_set().Empty()) {
      // Post-failover: the release raced the adoption (duplicate release, or
      // the holder's release reached the dead shard first and repair already
      // freed the lock). Stale — ignore, don't crash the shard.
      return;
    }
    MP_CHECK(l.held && l.holder == h.from) << "unlock by non-holder";
  }
  seam_.Trace(TraceEventKind::kLockRelease, h.minipage, 0, h.from);
  PassLock(h.minipage, l);
}

void Directory::GrantLock(uint32_t lock_id, LockEntry& l, MsgHeader acquire) {
  if (!l.held) {
    l.held = true;
    l.holder = acquire.from;
    l.holder_slot = WaitSlots::SeqSlot(acquire.seq);
    seam_.Trace(TraceEventKind::kLockGrant, lock_id, 0, acquire.from);
  }
  acquire.set_type(MsgType::kLockGrant);
  seam_.Send(acquire.from, acquire);
}

void Directory::PassLock(uint32_t lock_id, LockEntry& l) {
  l.held = false;
  if (l.waiters.empty() || l.poll.open) {
    return;
  }
  const MsgHeader next = l.waiters.front();
  l.waiters.pop_front();
  GrantLock(lock_id, l, next);
}

// ---- Survivor polls ---------------------------------------------------------------
//
// A shard that adopts a dead shard's id cannot know what the dead shard
// granted, so before serving the id it asks every other live host: copyset
// rebuild (kCopysetQuery), lock-holder probe (kLockProbe) and barrier-
// generation probe (kBarrierProbe) are three kinds of one poll. Each kind
// keeps only what an answer means and what closing the poll does.

bool Directory::AdoptedHere(uint32_t id) const {
  const HostId home = config_.ManagerOf(id);
  return home != me_ && seam_.dead_set().Contains(home) && OwnsShard(id);
}

void Directory::OpenPoll(SurvivorPoll& poll, MsgType type, MsgHeader query) {
  query.set_type(type);
  query.from = me_;
  query.seq = kNoWaitSlot;
  const MsgHeader mine = seam_.AnswerProbe(query);
  poll.open = true;
  poll.done = true;
  poll.pending = seam_.live_set();
  poll.pending.ForEach([&](uint32_t host) {
    if (host != me_) {
      seam_.Send(static_cast<HostId>(host), query);
    }
  });
  TakeAnswer(mine);
}

Directory::PollStep Directory::AnswerPoll(SurvivorPoll& poll, HostId from) {
  if (!poll.open) {
    return PollStep::kStale;  // the poll already closed
  }
  poll.pending.Remove(from);
  if (poll.pending.Intersects(seam_.live_set())) {
    return PollStep::kWaiting;
  }
  poll.open = false;
  poll.pending.Clear();
  return PollStep::kClosed;
}

void Directory::TakeAnswer(const MsgHeader& a) {
  const MsgType type = a.msg_type();
  SurvivorPoll& poll = type == MsgType::kCopysetReply     ? Entry(a.minipage).poll
                       : type == MsgType::kLockProbeReply ? Lock(a.minipage).poll
                                                          : barrier_.poll;
  const PollStep step = AnswerPoll(poll, a.from);
  if (step == PollStep::kStale) {
    return;
  }
  if (type == MsgType::kCopysetReply) {
    DirEntry& e = Entry(a.minipage);
    const auto prot = static_cast<Protection>(a.pgsize);
    if (prot != Protection::kNoAccess) {
      e.AddCopy(a.from);
      e.writable = e.writable || prot == Protection::kReadWrite;
    }
  } else if (type == MsgType::kLockProbeReply) {
    LockEntry& l = Lock(a.minipage);
    if ((a.flags & kFlagUpgrade) != 0) {
      MP_CHECK(!l.held || l.holder == a.from)
          << "two hosts claim lock " << a.minipage << " during adoption probe";
      l.held = true;
      l.holder = a.from;
      l.holder_slot = a.pgsize;  // the holding thread's wait slot
    }
  } else {
    barrier_.generation = std::max(barrier_.generation, a.pgsize);
  }
  if (step != PollStep::kClosed) {
    return;
  }
  if (type == MsgType::kCopysetReply) {
    FinishCopysetRebuild(a.minipage);
  } else if (type == MsgType::kLockProbeReply) {
    FinishLockProbe(a.minipage);
  } else {
    FinishBarrierProbe();
  }
}

void Directory::StartCopysetRebuild(const MsgHeader& h) {
  // Ask every live host whether it holds a copy; the translated geometry
  // travels in the header exactly like a forward, so responders can check
  // their own view protection without an MPT.
  MsgHeader query = h;
  query.flags = 0;
  OpenPoll(Entry(h.minipage).poll, MsgType::kCopysetQuery, query);
}

void Directory::FinishCopysetRebuild(MinipageId id) {
  DirEntry& e = Entry(id);
  if (e.copyset.Empty()) {
    // No live host holds a copy: the id died with its owner.
    seam_.Trace(TraceEventKind::kMinipageLost, id, 0, 0);
    DeclareLost(e);
    return;
  }
  MP_LOG(Error) << "host " << me_ << ": adopted minipage " << id
                << ", rebuilt copyset of " << e.copyset.Count()
                << " (low mask 0x" << std::hex << e.copyset.LowWord() << std::dec << ")";
  if (!e.pending.empty() && !e.in_service) {
    MsgHeader next = e.pending.front();
    e.pending.pop_front();
    StartService(next);
  }
}

void Directory::StartLockProbe(uint32_t lock_id) {
  MsgHeader probe;
  probe.minipage = lock_id;
  OpenPoll(Lock(lock_id).poll, MsgType::kLockProbe, probe);
}

void Directory::FinishLockProbe(uint32_t lock_id) {
  // A surviving holder keeps the lock, and the waiters queue behind it.
  LockEntry& l = Lock(lock_id);
  if (!l.held) {
    PassLock(lock_id, l);
  }
}

// When the barrier shard dies mid-release — some hosts of round k released,
// others' releases lost with the shard — the released hosts may be past their
// final barrier and will never enter again, so the adopting shard's
// wait-for-all-live release rule deadlocks the stragglers. The probe asks
// every live host for its completed-round count: any host past round k proves
// round k's quorum was met at the dead shard, and the stragglers re-sending
// round k can be released without a fresh quorum.

void Directory::StartBarrierProbe() {
  MsgHeader probe;
  probe.minipage = kBarrierShardId;
  OpenPoll(barrier_.poll, MsgType::kBarrierProbe, probe);
}

void Directory::FinishBarrierProbe() {
  // Rounds below the probed generation met quorum at the dead shard: release
  // their stragglers now — the hosts released back then may never re-enter.
  ReleaseBarrierBelow(barrier_.generation);
  MaybeReleaseBarrier();
}

// ---- Repair after a host death ------------------------------------------------------

void Directory::RepairAfterDeath(HostId dead) {
  // Shard adoption accounting: the dead host's directory slots rehash to the
  // first live host after it in probe order.
  if (config_.manager_policy == ManagerPolicy::kSharded) {
    const HostSet& live = seam_.live_set();
    for (uint32_t probe = 1; probe < config_.num_hosts; ++probe) {
      const HostId c = static_cast<HostId>((dead + probe) % config_.num_hosts);
      if (live.Contains(c)) {
        if (c == me_) {
          shards_adopted_->Inc();
        }
        break;
      }
    }
  }
  for (MinipageId id = 0; id < num_entries(); ++id) {
    DirEntry& e = Entry(id);
    if (e.lost) {
      continue;
    }
    // Requests the dead host queued will never be consumed: purge them.
    for (auto it = e.pending.begin(); it != e.pending.end();) {
      it = (it->from == dead) ? e.pending.erase(it) : std::next(it);
    }
    const bool had_copy = e.HasCopy(dead);
    if (had_copy) {
      e.RemoveCopy(dead);
      copyset_repairs_->Inc();
    }
    if (const PollStep step = AnswerPoll(e.poll, dead); step != PollStep::kStale) {
      if (step == PollStep::kClosed) {
        FinishCopysetRebuild(id);
      }
      continue;
    }
    // A data forward the dead host will never serve. The requester joined
    // the copyset at grant time, but that copy is provisional — the bytes
    // never left the dead source.
    if (e.in_service && !e.write_pending && e.fetch_pending && e.fetch_from == dead) {
      e.fetch_pending = false;
      HostSet stable = e.copyset;
      stable.Remove(e.in_service_for);
      if (stable.Empty()) {
        // No surviving stable copy: the contents are gone. The requester's
        // retry (fresh generation after its membership kick or timeout)
        // finds e.lost and gets the per-minipage error reply.
        e.RemoveCopy(e.in_service_for);
        e.lost = true;
      } else if (e.in_service_for == dead) {
        FinishService(id);  // requester died with the source: serve the queue
      } else {
        // Re-issue the same transaction against a surviving replica instead
        // of closing the service: the requester ACKs the reply when it
        // installs it, whether or not a membership kick already
        // re-generationed the fault, so it still pairs 1:1 with this open
        // service.
        MsgHeader fwd = e.in_service_req;
        fwd.flags |= kFlagForwarded;
        Forward(e, e.PickReplica(e.in_service_for, replica_rotation_++), fwd);
      }
    }
    // A write round whose data source died loses the minipage contents: the
    // requester held no copy (else it would have been the source) and every
    // other replica was ordered invalid.
    if (e.write_pending && e.write_remaining == dead) {
      e.lost = true;
    }
    if (had_copy && e.copyset.Empty()) {
      // The dead host held the only copy: permanently degraded.
      e.lost = true;
    }
    if (e.lost) {
      seam_.Trace(TraceEventKind::kMinipageLost, id, 0, dead);
      if (e.write_pending) {
        ReplyLost(e.pending_write);
        e.write_pending = false;
        e.invalidates_pending.Clear();
      }
      SetInService(e, false);
      e.push_outstanding = 0;
      DeclareLost(e);
      continue;
    }
    // Retire the invalidation the dead host will never answer.
    if (e.write_pending && e.invalidates_pending.Contains(dead)) {
      e.invalidates_pending.Remove(dead);
      if (e.invalidates_pending.Empty()) {
        FinishWriteRound(id);
      }
    }
    // A push ACK the dead host will never send (best-effort: at most one
    // outstanding per round).
    if (e.push_outstanding > 0) {
      if (--e.push_outstanding == 0) {
        e.copyset = seam_.live_set();
        e.writable = false;
        FinishService(id);
        continue;
      }
    }
    // A transaction in service for the dead host will never be ACKed: close
    // it so queued competitors proceed.
    if (e.in_service && e.in_service_for == dead && !e.write_pending) {
      FinishService(id);
    }
  }
  // Locks: free anything the dead host held or queued for.
  for (uint32_t lock_id = 0; lock_id < num_locks(); ++lock_id) {
    LockEntry& l = Lock(lock_id);
    for (auto it = l.waiters.begin(); it != l.waiters.end();) {
      it = (it->from == dead) ? l.waiters.erase(it) : std::next(it);
    }
    if (AnswerPoll(l.poll, dead) == PollStep::kClosed) {
      FinishLockProbe(lock_id);
    }
    if (l.held && l.holder == dead) {
      seam_.Trace(TraceEventKind::kLockRelease, lock_id, 0, dead);
      PassLock(lock_id, l);
    }
  }
  // Barrier: the dead host no longer counts toward (or blocks) release.
  BarrierState& b = barrier_;
  if (AnswerPoll(b.poll, dead) == PollStep::kClosed) {
    FinishBarrierProbe();
  }
  if (b.arrived_set.Contains(dead)) {
    Depart(dead);
    for (auto it = b.waiters.begin(); it != b.waiters.end();) {
      it = (it->from == dead) ? b.waiters.erase(it) : std::next(it);
    }
  }
  MaybeReleaseBarrier();
}

}  // namespace millipage
