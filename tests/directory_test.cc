// Tests for the manager shard on its own: a Directory driven with decoded
// headers through a seam that records what the shard sends. No transport, no
// thread, no DsmNode — each case feeds the messages a cluster would deliver
// and checks the rule it names.

#include "src/dsm/directory.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/os/protection.h"

namespace millipage {
namespace {

struct Sent {
  HostId to;
  MsgHeader h;
};

// Records every send and forward; answers this host's own probes with
// `own_copy`, no held lock and no completed barrier.
class RecordingSeam : public Directory::Seam {
 public:
  explicit RecordingSeam(uint16_t hosts) : live(HostSet::AllBelow(hosts)) {}

  void Send(HostId to, const MsgHeader& h) override { sent.push_back({to, h}); }
  void SendCoalesced(HostId to, const MsgHeader& h) override { sent.push_back({to, h}); }
  void BeginBurst() override {}
  void EndBurst() override {}
  void Forward(HostId replica, const MsgHeader& fwd) override {
    forwarded.push_back({replica, fwd});
  }
  void DeliverLost(const MsgHeader& verdict) override { lost.push_back(verdict); }
  MsgHeader AnswerProbe(const MsgHeader& query) override {
    MsgHeader reply = query;
    switch (query.msg_type()) {
      case MsgType::kCopysetQuery:
        reply.set_type(MsgType::kCopysetReply);
        reply.pgsize = static_cast<uint32_t>(own_copy);
        break;
      case MsgType::kLockProbe:
        reply.set_type(MsgType::kLockProbeReply);
        break;
      default:
        reply.set_type(MsgType::kBarrierProbeReply);
        reply.pgsize = 0;
        break;
    }
    return reply;
  }
  void Trace(TraceEventKind, uint32_t, uint64_t, uint64_t, uint64_t) const override {}
  const HostSet& live_set() const override { return live; }
  const HostSet& dead_set() const override { return dead; }

  // The sends of `type`, in order.
  std::vector<Sent> SentOf(MsgType type) const {
    std::vector<Sent> out;
    for (const Sent& s : sent) {
      if (s.h.msg_type() == type) {
        out.push_back(s);
      }
    }
    return out;
  }

  // Moves `h` from the live set to the dead set.
  void Kill(HostId h) {
    live.Remove(h);
    dead.Add(h);
  }

  HostSet live;
  HostSet dead;
  Protection own_copy = Protection::kNoAccess;
  std::vector<Sent> sent;
  std::vector<Sent> forwarded;
  std::vector<MsgHeader> lost;
};

DsmConfig Cfg(uint16_t hosts, ManagerPolicy policy = ManagerPolicy::kCentralized) {
  DsmConfig cfg;
  cfg.num_hosts = hosts;
  cfg.manager_policy = policy;
  return cfg;
}

// A translated request for minipage `id` from `from`'s wait slot `slot`.
MsgHeader Request(MsgType type, HostId from, MinipageId id, uint32_t slot = 0,
                  uint8_t flags = 0) {
  MsgHeader h;
  h.set_type(type);
  h.flags = flags;
  h.from = from;
  h.seq = WaitSlots::MakeSeq(slot, 1);
  h.addr = GlobalAddr{0, uint64_t{id} * 64}.Pack();
  h.minipage = id;
  h.pgsize = 64;
  h.privbase = uint64_t{id} * 64;
  return h;
}

MsgHeader From(MsgType type, HostId from, uint32_t id, uint32_t seq = kNoWaitSlot,
               uint32_t pgsize = 0) {
  MsgHeader h;
  h.set_type(type);
  h.from = from;
  h.seq = seq;
  h.minipage = id;
  h.pgsize = pgsize;
  return h;
}

TEST(Directory, OnlyAnotherHostsWaitingRequestCompetes) {
  RecordingSeam seam(3);
  MetricsRegistry reg;
  Directory dir(Cfg(3), kManagerHost, reg, seam);
  const Counter* competing = reg.GetCounter("host.competing_requests");
  dir.Handle(Request(MsgType::kWriteRequest, 1, 5));  // opens host 1's transaction
  ASSERT_TRUE(dir.Entry(5).in_service);
  dir.Handle(Request(MsgType::kReadRequest, 1, 5));  // host 1's own pipelined request
  EXPECT_EQ(competing->value(), 0u);
  dir.Handle(Request(MsgType::kReadRequest, 2, 5, 0, kFlagPrefetch));  // nobody waits on it
  EXPECT_EQ(competing->value(), 0u);
  dir.Handle(Request(MsgType::kReadRequest, 2, 5));  // host 2 waits behind host 1
  EXPECT_EQ(competing->value(), 1u);
  EXPECT_EQ(dir.Entry(5).pending.size(), 3u);
}

TEST(Directory, InvalidationRoundClosesOnTheLastLiveCopy) {
  RecordingSeam seam(4);
  MetricsRegistry reg;
  Directory dir(Cfg(4), kManagerHost, reg, seam);
  // Hosts 1 and 2 read, so hosts 0, 1 and 2 hold copies.
  for (HostId reader : {1, 2}) {
    dir.Handle(Request(MsgType::kReadRequest, reader, 7));
    dir.Handle(From(MsgType::kAck, reader, 7));
  }
  ASSERT_EQ(dir.Entry(7).CopyCount(), 3);
  seam.forwarded.clear();
  dir.Handle(Request(MsgType::kWriteRequest, 3, 7));
  const std::vector<Sent> invs = seam.SentOf(MsgType::kInvalidateRequest);
  ASSERT_EQ(invs.size(), 2u);  // every copy but the one that supplies the data
  EXPECT_TRUE(seam.forwarded.empty());
  dir.Handle(From(MsgType::kInvalidateReply, invs[0].to, 7));
  EXPECT_TRUE(seam.forwarded.empty()) << "round closed with a copy still live";
  dir.Handle(From(MsgType::kInvalidateReply, invs[0].to, 7));  // a duplicate
  EXPECT_EQ(reg.GetCounter("host.dup_invalidate_replies")->value(), 1u);
  EXPECT_TRUE(seam.forwarded.empty());
  dir.Handle(From(MsgType::kInvalidateReply, invs[1].to, 7));
  ASSERT_EQ(seam.forwarded.size(), 1u);
  EXPECT_EQ(seam.forwarded[0].h.msg_type(), MsgType::kWriteRequest);
  EXPECT_EQ(seam.forwarded[0].h.from, 3);
}

TEST(Directory, ResentAcquireFromTheHoldingSlotIsRegranted) {
  RecordingSeam seam(2);
  MetricsRegistry reg;
  Directory dir(Cfg(2), kManagerHost, reg, seam);
  dir.Handle(From(MsgType::kLockAcquire, 1, 9, WaitSlots::MakeSeq(3, 1)));
  dir.Handle(From(MsgType::kLockAcquire, 1, 9, WaitSlots::MakeSeq(3, 2)));  // re-sent
  const std::vector<Sent> grants = seam.SentOf(MsgType::kLockGrant);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[1].h.seq, WaitSlots::MakeSeq(3, 2))
      << "the grant answers the newest attempt";
  dir.Handle(From(MsgType::kLockAcquire, 1, 9, WaitSlots::MakeSeq(4, 1)));  // another thread
  EXPECT_EQ(seam.SentOf(MsgType::kLockGrant).size(), 2u) << "a second slot entered the lock";
  EXPECT_EQ(dir.Lock(9).waiters.size(), 1u);
  dir.Handle(From(MsgType::kLockRelease, 1, 9));
  ASSERT_EQ(seam.SentOf(MsgType::kLockGrant).size(), 3u);
  EXPECT_EQ(WaitSlots::SeqSlot(seam.SentOf(MsgType::kLockGrant)[2].h.seq), 4u);
}

TEST(Directory, MixedGenerationBarrierReleasesOnlyItsOldestRound) {
  RecordingSeam seam(3);
  MetricsRegistry reg;
  Directory dir(Cfg(3), kManagerHost, reg, seam);
  dir.Handle(From(MsgType::kBarrierEnter, 0, kBarrierShardId, 0, /*round=*/1));
  dir.Handle(From(MsgType::kBarrierEnter, 1, kBarrierShardId, 0, /*round=*/0));
  EXPECT_TRUE(seam.SentOf(MsgType::kBarrierRelease).empty()) << "released before all arrived";
  dir.Handle(From(MsgType::kBarrierEnter, 2, kBarrierShardId, 0, /*round=*/0));
  const std::vector<Sent> released = seam.SentOf(MsgType::kBarrierRelease);
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].to, 1);
  EXPECT_EQ(released[1].to, 2);
  EXPECT_EQ(released[0].h.minipage, 0u);  // the round released
  EXPECT_EQ(dir.barrier().generation, 1u);
  EXPECT_EQ(dir.ArrivedCount(), 1) << "the round-1 entrant stays queued";
  EXPECT_EQ(dir.barrier().waiters.size(), 1u);
}

TEST(Directory, SurvivorPollClosesWhenItsLastPendingHostDies) {
  // Host 1 adopts minipage 3 from dead host 0 and polls host 2 for copies;
  // host 2 dies before answering.
  RecordingSeam seam(3);
  MetricsRegistry reg;
  Directory dir(Cfg(3, ManagerPolicy::kSharded), 1, reg, seam);
  seam.Kill(0);
  dir.RepairAfterDeath(0);
  seam.own_copy = Protection::kReadOnly;
  dir.Handle(Request(MsgType::kReadRequest, 1, 3));
  ASSERT_EQ(seam.SentOf(MsgType::kCopysetQuery).size(), 1u);
  ASSERT_TRUE(dir.Entry(3).poll.open);
  seam.Kill(2);
  dir.RepairAfterDeath(2);
  EXPECT_FALSE(dir.Entry(3).poll.open);
  EXPECT_TRUE(dir.Entry(3).HasCopy(1));
  // The queued request is served from the rebuilt copyset: host 1 holds the
  // only copy, so it is granted without data.
  const std::vector<Sent> replies = seam.SentOf(MsgType::kReadReply);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].to, 1);
  EXPECT_NE(replies[0].h.flags & kFlagUpgrade, 0);
}

}  // namespace
}  // namespace millipage
