#include "src/lrc/lrc_node.h"

#include <cstring>
#include <string>

#include "src/common/logging.h"
#include "src/os/page.h"

namespace millipage {

namespace {
thread_local int tls_lrc_slot = -1;

// A fetch's kind travels as its message type: a write fetch is a
// kWriteRequest, answered with a kWriteReply.
MsgType FetchReplyType(const MsgHeader& request) {
  return request.msg_type() == MsgType::kWriteRequest ? MsgType::kWriteReply
                                                      : MsgType::kReadReply;
}
}  // namespace

Result<std::unique_ptr<LrcNode>> LrcNode::Create(const DsmConfig& config, HostId me,
                                                 Transport* transport) {
  if (config.num_hosts == 0 || config.num_hosts > kMaxHosts) {
    return Status::Invalid("LrcNode: num_hosts must be in [1, " + std::to_string(kMaxHosts) +
                           "] (wire host ids are 10 bits)");
  }
  if (me >= config.num_hosts) {
    return Status::Invalid("LrcNode: host id out of range");
  }
  auto node = std::unique_ptr<LrcNode>(new LrcNode(config, me, transport));
  MP_ASSIGN_OR_RETURN(node->views_, ViewSet::Create(config.object_size, config.num_views));
  node->local_mpt_ = std::make_unique<MinipageTable>();
  if (me == kManagerHost) {
    node->mpt_ = std::make_unique<MinipageTable>();
    node->allocator_ = std::make_unique<MinipageAllocator>(
        node->mpt_.get(), node->views_->object_size(), config.num_views,
        config.MakeAllocatorOptions());
  }
  // Sync tables (locks, barrier): one shard on host 0 when centralized,
  // one per host when sharded — lock ids hash across hosts like minipages.
  if (me == kManagerHost || config.manager_policy == ManagerPolicy::kSharded) {
    node->directory_ = std::make_unique<Directory>(config, me, node->metrics_,
                                                   static_cast<Directory::Seam&>(*node));
  }
  return node;
}

LrcNode::LrcNode(const DsmConfig& config, HostId me, Transport* transport)
    : config_(config), me_(me), transport_(transport) {}

LrcNode::~LrcNode() { Stop(); }

void LrcNode::Start() {
  MP_CHECK(!server_.joinable());
  stop_.store(false, std::memory_order_release);
  server_ = std::thread([this] { ServerLoop(); });
}

void LrcNode::Stop() {
  if (!server_.joinable()) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  server_.join();
}

uint32_t LrcNode::ThreadSlot() {
  if (tls_lrc_slot < 0) {
    tls_lrc_slot = static_cast<int>(slots_.Acquire());
  }
  return static_cast<uint32_t>(tls_lrc_slot);
}

void LrcNode::SendMsg(HostId to, const MsgHeader& h, const void* payload, size_t len) {
  stats_[&LrcCounters::messages_sent].Inc();
  MP_CHECK_OK(transport_->Send(to, h, payload, len));
}

Minipage LrcNode::MinipageFromHeader(const MsgHeader& h) const {
  Minipage mp;
  mp.id = h.minipage;
  mp.view = h.global_addr().view;
  mp.offset = h.privbase;
  mp.length = h.pgsize;
  return mp;
}

// ---- Application API ---------------------------------------------------------

Result<GlobalAddr> LrcNode::SharedMalloc(uint64_t size) {
  if (size == 0 || size > ~0u) {
    return Status::Invalid("SharedMalloc: size must be in (0, 4GiB)");
  }
  MsgHeader h;
  h.set_type(MsgType::kAllocRequest);
  h.from = me_;
  h.seq = ThreadSlot();
  h.pgsize = static_cast<uint32_t>(size);
  SendMsg(kManagerHost, h);
  const MsgHeader reply = slots_.Wait(h.seq);
  if ((reply.flags & kFlagAbort) != 0) {
    return Status::Exhausted("SharedMalloc: shared memory exhausted");
  }
  return reply.global_addr();
}

void LrcNode::Barrier() {
  FlushDirty();  // release
  MsgHeader h;
  h.set_type(MsgType::kBarrierEnter);
  h.from = me_;
  h.seq = ThreadSlot();
  // The round this host enters (barriers it has completed), which the shard
  // releases it from.
  h.pgsize = static_cast<uint32_t>(stats_[&LrcCounters::barriers].value());
  SendMsg(config_.BarrierManager(), h);
  (void)slots_.Wait(h.seq);
  InvalidateCache();  // acquire
  stats_[&LrcCounters::barriers].Inc();
}

void LrcNode::Lock(uint32_t lock_id) {
  MsgHeader h;
  h.set_type(MsgType::kLockAcquire);
  h.from = me_;
  h.seq = ThreadSlot();
  h.minipage = lock_id;
  SendMsg(config_.ManagerOf(lock_id), h);
  (void)slots_.Wait(h.seq);
  InvalidateCache();  // acquire
  stats_[&LrcCounters::lock_acquires].Inc();
}

void LrcNode::Unlock(uint32_t lock_id) {
  FlushDirty();  // release
  MsgHeader h;
  h.set_type(MsgType::kLockRelease);
  h.from = me_;
  h.seq = kNoWaitSlot;
  h.minipage = lock_id;
  SendMsg(config_.ManagerOf(lock_id), h);
}

// ---- Fault path ----------------------------------------------------------------

bool LrcNode::OnFault(uint32_t view, uint64_t offset, bool is_write) {
  if (views_->RestoreFromShadow(view, offset, is_write)) {
    return true;  // already granted here: retry the access
  }
  stats_[is_write ? &LrcCounters::write_faults : &LrcCounters::read_faults].Inc();
  // Known minipage? (geometry cached from an earlier fetch/serve)
  Minipage geometry;
  bool known = false;
  bool cached_readable = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Minipage* mp = local_mpt_->Lookup(view, offset);
    if (mp != nullptr) {
      geometry = *mp;
      known = true;
      auto it = cache_.find(mp->id);
      cached_readable =
          it != cache_.end() && views_->GetProtection(*mp) == Protection::kReadOnly;
    }
  }

  if (known && is_write && cached_readable) {
    // Pure local upgrade: twin the current copy, open it for writing. No
    // message, no invalidations — the LRC payoff on false-shared minipages.
    std::lock_guard<std::mutex> lock(mu_);
    CacheEntry& e = cache_[geometry.id];
    if (e.twin == nullptr) {
      e.twin = std::make_unique<Twin>(views_->PrivAddr(geometry.offset), geometry.length);
      dirty_.push_back(geometry.id);
    }
    MP_CHECK_OK(views_->SetProtection(geometry, Protection::kReadWrite));
    stats_[&LrcCounters::local_upgrades].Inc();
    stats_[&LrcCounters::twins_created].Inc();
    return true;
  }

  // Need the master copy. With known geometry go straight to the home;
  // otherwise route through the manager for MPT translation.
  MsgHeader h;
  h.set_type(is_write ? MsgType::kWriteRequest : MsgType::kReadRequest);
  h.from = me_;
  h.seq = ThreadSlot();
  h.addr = GlobalAddr{view, offset}.Pack();
  if (known) {
    h.flags |= kFlagForwarded;
    h.minipage = geometry.id;
    h.pgsize = static_cast<uint32_t>(geometry.length);
    h.privbase = geometry.offset;
    const HostId home = HomeOf(geometry.id);
    if (home == me_) {
      // Home faulting on its own master copy: open it directly.
      MP_CHECK_OK(views_->SetProtection(geometry, Protection::kReadWrite));
      return true;
    }
    SendMsg(home, h);
  } else {
    SendMsg(kManagerHost, h);
  }
  (void)slots_.Wait(h.seq);
  return true;
}

// ---- Release / acquire -----------------------------------------------------------

void LrcNode::FlushDirty() {
  std::vector<std::pair<Minipage, Diff>> outgoing;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (MinipageId id : dirty_) {
      auto it = cache_.find(id);
      if (it == cache_.end() || it->second.twin == nullptr) {
        continue;
      }
      CacheEntry& e = it->second;
      const Minipage& mp = e.geometry;
      Diff diff = CreateDiff(*e.twin, views_->PrivAddr(mp.offset), mp.length);
      // Downgrade to ReadOnly: subsequent writes re-twin from current bytes.
      MP_CHECK_OK(views_->SetProtection(mp, Protection::kReadOnly));
      e.twin.reset();
      if (!diff.empty()) {
        outgoing.emplace_back(mp, std::move(diff));
      }
    }
    dirty_.clear();
  }
  if (outgoing.empty()) {
    return;
  }
  flush_acks_pending_.store(static_cast<uint32_t>(outgoing.size()), std::memory_order_release);
  stats_[&LrcCounters::diffs_flushed].Inc(outgoing.size());
  for (auto& [mp, diff] : outgoing) {
    MsgHeader h;
    h.set_type(MsgType::kDiffUpdate);
    h.from = me_;
    h.seq = ThreadSlot();
    h.addr = GlobalAddr{mp.view, mp.offset}.Pack();
    h.minipage = mp.id;
    h.privbase = mp.offset;
    stats_[&LrcCounters::diff_bytes].Inc(diff.encoded.size());
    SendMsg(HomeOf(mp.id), h, diff.encoded.data(), diff.encoded.size());
  }
  (void)slots_.Wait(ThreadSlot());  // posted when the last kDiffAck arrives
}

void LrcNode::InvalidateCache() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, e] : cache_) {
    MP_CHECK(e.twin == nullptr) << "acquire with unflushed dirty minipage";
    MP_CHECK_OK(views_->SetProtection(e.geometry, Protection::kNoAccess));
  }
  cache_.clear();
  stats_[&LrcCounters::invalidation_sweeps].Inc();
}

// ---- Server thread -----------------------------------------------------------------

void LrcNode::ServerLoop() {
  const PayloadSink sink = [this](const MsgHeader& h) -> std::byte* {
    if (h.msg_type() == MsgType::kDiffUpdate) {
      diff_buffer_.resize(h.pgsize);
      return diff_buffer_.data();
    }
    if (h.privbase + h.pgsize > views_->object_size()) {
      return nullptr;
    }
    return views_->PrivAddr(h.privbase);
  };
  while (!stop_.load(std::memory_order_acquire)) {
    MsgHeader h;
    Result<bool> got = transport_->Poll(me_, &h, sink, 2000);
    MP_CHECK(got.ok()) << got.status().ToString();
    if (*got) {
      HandleMessage(h);
    }
  }
}

void LrcNode::HandleMessage(const MsgHeader& h) {
  switch (h.msg_type()) {
    case MsgType::kReadRequest:
    case MsgType::kWriteRequest:
      if ((h.flags & kFlagForwarded) != 0) {
        ServeFetch(h);
      } else {
        MP_CHECK(is_manager());
        allocator_->CloseChunk();
        MgrHandleFetch(h);
      }
      break;
    case MsgType::kReadReply:
    case MsgType::kWriteReply:
      HandleFetchReply(h);
      break;
    case MsgType::kDiffUpdate:
      ApplyIncomingDiff(h, std::move(diff_buffer_));
      break;
    case MsgType::kDiffAck:
      if (flush_acks_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        slots_.Post(h.seq, h);
      }
      break;
    case MsgType::kAllocRequest:
      MP_CHECK(is_manager());
      MgrHandleAlloc(h);
      break;
    case MsgType::kAllocReply:
    case MsgType::kBarrierRelease:
    case MsgType::kLockGrant:
      slots_.Post(h.seq, h);
      break;
    case MsgType::kBarrierEnter:
    case MsgType::kLockAcquire:
      if (allocator_ != nullptr) {
        allocator_->CloseChunk();
      }
      [[fallthrough]];
    case MsgType::kLockRelease:
      directory_->Handle(h);
      break;
    default:
      MP_LOG(Fatal) << "LrcNode: unexpected message " << MsgTypeName(h.msg_type());
  }
}

// ---- Manager role --------------------------------------------------------------------

void LrcNode::MgrHandleFetch(const MsgHeader& h) {
  const GlobalAddr a = h.global_addr();
  const Minipage* mp = mpt_->Lookup(a.view, a.offset);
  MP_CHECK(mp != nullptr) << "LRC fault at unmapped shared address";
  MsgHeader fwd = h;
  fwd.minipage = mp->id;
  fwd.pgsize = static_cast<uint32_t>(mp->length);
  fwd.privbase = mp->offset;
  fwd.flags |= kFlagForwarded;
  const HostId home = HomeOf(mp->id);
  if (home == h.from) {
    // Requester is the home: grant direct access to its master copy.
    MsgHeader reply = fwd;
    reply.set_type(FetchReplyType(h));
    reply.flags = kFlagHomeGrant;
    SendMsg(h.from, reply);
    return;
  }
  SendMsg(home, fwd);
}

void LrcNode::MgrHandleAlloc(const MsgHeader& h) {
  if (h.pgsize == 0) {
    allocator_->CloseChunk();
    return;
  }
  Result<Allocation> alloc = allocator_->Allocate(h.pgsize);
  MsgHeader reply = h;
  reply.set_type(MsgType::kAllocReply);
  if (!alloc.ok()) {
    reply.flags = kFlagAbort;
    SendMsg(h.from, reply);
    return;
  }
  reply.addr = GlobalAddr{alloc->view, alloc->offset}.Pack();
  reply.pgsize = static_cast<uint32_t>(alloc->size);
  reply.privbase = alloc->offset;
  SendMsg(h.from, reply);
}

// ---- Home role -----------------------------------------------------------------------

void LrcNode::ServeFetch(const MsgHeader& h) {
  const Minipage mp = MinipageFromHeader(h);
  {
    // Remember the geometry so incoming diffs can be bounds-checked and the
    // home's own later faults resolve locally.
    std::lock_guard<std::mutex> lock(mu_);
    if (local_mpt_->Lookup(mp.view, mp.offset) == nullptr) {
      (void)local_mpt_->Define(mp.view, mp.offset, mp.length);
    }
  }
  MsgHeader reply = h;
  reply.set_type(FetchReplyType(h));
  reply.flags = 0;
  SendMsg(h.from, reply, views_->PrivAddr(mp.offset), mp.length);
  stats_[&LrcCounters::fetches].Inc();
  stats_[&LrcCounters::fetch_bytes].Inc(mp.length);
}

void LrcNode::ApplyIncomingDiff(const MsgHeader& h, std::vector<std::byte> payload) {
  const GlobalAddr a = h.global_addr();
  uint64_t length = views_->object_size() - h.privbase;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Minipage* mp = local_mpt_->Lookup(a.view, a.offset);
    if (mp != nullptr) {
      length = mp->length;
    }
  }
  Diff diff;
  diff.encoded = std::move(payload);
  MP_CHECK_OK(ApplyDiff(diff, views_->PrivAddr(h.privbase), length));
  stats_[&LrcCounters::diffs_applied].Inc();
  MsgHeader ack = h;
  ack.set_type(MsgType::kDiffAck);
  ack.flags = 0;
  SendMsg(h.from, ack);
}

void LrcNode::HandleFetchReply(const MsgHeader& h) {
  const Minipage mp = MinipageFromHeader(h);
  const bool write_fetch = h.msg_type() == MsgType::kWriteReply;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (local_mpt_->Lookup(mp.view, mp.offset) == nullptr) {
      (void)local_mpt_->Define(mp.view, mp.offset, mp.length);
    }
    if ((h.flags & kFlagHomeGrant) != 0) {
      // This host is the home: its object holds the master copy already.
      MP_CHECK_OK(views_->SetProtection(mp, Protection::kReadWrite));
    } else {
      CacheEntry& e = cache_[mp.id];
      e.geometry = mp;
      if (write_fetch) {
        e.twin = std::make_unique<Twin>(views_->PrivAddr(mp.offset), mp.length);
        dirty_.push_back(mp.id);
        MP_CHECK_OK(views_->SetProtection(mp, Protection::kReadWrite));
        stats_[&LrcCounters::twins_created].Inc();
      } else {
        MP_CHECK_OK(views_->SetProtection(mp, Protection::kReadOnly));
      }
    }
  }
  slots_.Post(h.seq, h);
}

}  // namespace millipage
