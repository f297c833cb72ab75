// Wire format of the millipage protocol.
//
// Every message starts with a fixed 32-byte header (the paper notes all
// manager traffic fits in 32 bytes). Data-bearing messages (minipage
// contents) send the payload as a second stage; the receiver reads the
// header, derives the destination address in its privileged view from the
// translation fields the manager filled in, and receives the payload
// directly there — no DSM-layer buffering.

#ifndef SRC_NET_MESSAGE_H_
#define SRC_NET_MESSAGE_H_

#include <cstdint>
#include <cstring>

#include "src/common/logging.h"

namespace millipage {

using HostId = uint16_t;
// Host 0 owns the MPT and the allocator: every *untranslated* request goes
// here first for minipage translation. Directory/lock/barrier shards may
// live elsewhere (DsmConfig::ManagerOf) once the header is translated.
inline constexpr HostId kManagerHost = 0;
// seq value meaning "no thread is waiting for the reply" (prefetch).
inline constexpr uint32_t kNoWaitSlot = 0xffffffffu;
// minipage value meaning "not yet translated by the MPT host". Requests are
// born with it; MgrTranslate replaces it with the real minipage id, and from
// then on every hop (forward, reply, ACK, invalidate, bounce) can be routed
// to the id's owning manager shard. Same value as kInvalidMinipage.
inline constexpr uint32_t kNoMinipage = 0xffffffffu;

enum class MsgType : uint8_t {
  kReadRequest = 1,
  kWriteRequest,
  kReadReply,
  kWriteReply,
  kInvalidateRequest,
  kInvalidateReply,
  kAck,
  kAllocRequest,
  kAllocReply,
  kBarrierEnter,
  kBarrierRelease,
  kLockAcquire,
  kLockGrant,
  kLockRelease,
  kPushUpdate,     // unsolicited read-copy push (TSP best-tour broadcast)
  kDiffUpdate,     // LRC: run-length diff flushed to a minipage's home
  kDiffAck,        // LRC: home applied the diff
  kShutdown,
  // Membership / recovery protocol (host-death survival).
  kEpochBump,       // membership epoch advanced: minipage = new epoch;
                    // privbase = one dead host id. A bump sends one datagram
                    // per cumulative dead host, so a receiver that missed an
                    // earlier epoch still converges on the full dead set.
  kCopysetQuery,    // adopting shard asks "do you hold a copy?" (translated
                    // geometry travels in the header, like a forward)
  kCopysetReply,    // answer: pgsize = local Protection value for the id
  kLockProbe,       // adopting shard asks "do you hold lock <minipage>?"
  kLockProbeReply,  // answer: kFlagUpgrade set when the lock is held locally
  kFlushHint,       // self-addressed marker: "drain the coalescer now". Never
                    // crosses hosts; exists so single-stepped (sim) nodes get
                    // a poll wakeup while a batch is pending.
  kBarrierProbe,       // adopting barrier shard asks "how many rounds have
                       // you completed?"
  kBarrierProbeReply,  // answer: pgsize = locally completed barrier rounds
};

const char* MsgTypeName(MsgType t);

// Header flags: one meaning per bit, all eight bits taken.
inline constexpr uint8_t kFlagHasPayload = 0x1;
inline constexpr uint8_t kFlagPrefetch = 0x2;
inline constexpr uint8_t kFlagUpgrade = 0x4;    // access grant without data
inline constexpr uint8_t kFlagForwarded = 0x8;  // already translated by manager
inline constexpr uint8_t kFlagBounced = 0x10;   // returned unserved to manager
inline constexpr uint8_t kFlagAbort = 0x20;     // push aborted by the pusher
// Batched frame: the payload is N BatchRecords, each one minipage the header
// operation applies to (see BatchRecord below).
inline constexpr uint8_t kFlagBatched = 0x40;
inline constexpr uint8_t kFlagHomeGrant = 0x80;  // LRC: requester is the home

static_assert(
    [] {
      constexpr uint8_t kFlags[] = {kFlagHasPayload, kFlagPrefetch, kFlagUpgrade,
                                    kFlagForwarded,  kFlagBounced,  kFlagAbort,
                                    kFlagBatched,    kFlagHomeGrant};
      unsigned seen = 0;
      for (const uint8_t f : kFlags) {
        if (f == 0 || (f & (f - 1)) != 0 || (seen & f) != 0) {
          return false;
        }
        seen |= f;
      }
      return true;
    }(),
    "header flags must be pairwise disjoint single bits");

// Membership-epoch tag, packed into the high bits of MsgHeader::from: the
// low 10 bits carry the sender's host id (up to kMaxHosts = 1024), the high
// 6 bits its membership epoch mod 64. The tag is stamped on the wire copy at
// send time and stripped before dispatch, so protocol logic only ever sees
// pure host ids — and the header stays at 32 bytes. At epoch 0 the field is
// the bare host id. Mod-64 epochs are ample: an epoch bump consumes a host
// death, so wraparound needs 64 deaths with a 32-epoch-stale datagram still
// in flight.
struct WireCodec {
  static constexpr uint16_t kHostMask = 0x3ff;
  static constexpr uint32_t kEpochShift = 10;
  static constexpr uint32_t kEpochMask = 0x3f;

  static constexpr uint16_t Pack(HostId from, uint32_t epoch) {
    return static_cast<uint16_t>((from & kHostMask) | ((epoch & kEpochMask) << kEpochShift));
  }
  static constexpr HostId Host(uint16_t from) { return from & kHostMask; }
  static constexpr uint32_t EpochTag(uint16_t from) { return from >> kEpochShift; }

  // True when tag `t` is older than tag `now` under modular wraparound: the
  // signed circular distance (now - t) lands in (0, 32). Equal tags and tags
  // ahead of `now` (a peer that bumped first) are not stale.
  static constexpr bool TagStale(uint32_t t, uint32_t now) {
    const uint32_t d = (now - t) & kEpochMask;
    return d != 0 && d < (kEpochMask + 1) / 2;
  }
};

// Canonical shared address: (application view, offset within the memory
// object). Identical on every host, so no pointer translation is needed
// between hosts in either deployment mode.
struct GlobalAddr {
  uint32_t view = 0;
  uint64_t offset = 0;

  // 16 bits of view id, 48 bits of offset. A view id that doesn't fit would
  // silently alias another view's addresses on the wire, so it is fatal here
  // at the pack site rather than a corruption three hops later.
  uint64_t Pack() const {
    MP_CHECK(view < (1u << 16)) << "view id " << view << " overflows the 16-bit wire field";
    MP_CHECK(offset < (1ULL << 48)) << "offset overflows the 48-bit wire field";
    return (static_cast<uint64_t>(view) << 48) | offset;
  }
  static GlobalAddr Unpack(uint64_t packed) {
    return GlobalAddr{static_cast<uint32_t>(packed >> 48), packed & ((1ULL << 48) - 1)};
  }
  bool operator==(const GlobalAddr&) const = default;
};

struct MsgHeader {
  uint8_t type = 0;
  uint8_t flags = 0;
  HostId from = 0;       // original requester
  uint32_t seq = 0;      // requester's wait-slot (the paper's event handle)
  uint64_t addr = 0;     // packed GlobalAddr of the faulting access
  // Translation info, filled by the MPT host (MgrTranslate). kNoMinipage
  // until then — all 8 flag bits are taken, so "has this request been
  // translated" is discriminated by this field, not a flag.
  uint32_t minipage = kNoMinipage;  // minipage id (doubles as lock/barrier id)
  uint32_t pgsize = 0;    // minipage length; also payload length when
                          // kFlagHasPayload is set
  uint64_t privbase = 0;  // object offset of the minipage base (addr2priv)

  MsgType msg_type() const { return static_cast<MsgType>(type); }
  void set_type(MsgType t) { type = static_cast<uint8_t>(t); }
  GlobalAddr global_addr() const { return GlobalAddr::Unpack(addr); }
  bool has_payload() const { return (flags & kFlagHasPayload) != 0; }
  bool translated() const { return minipage != kNoMinipage; }
};

static_assert(sizeof(MsgHeader) == 32, "header must stay at 32 bytes, as in the paper");

// Batched second-stage format. A frame whose header carries kFlagBatched is
// an ordinary 32-byte MsgHeader whose payload is N BatchRecords instead of
// minipage data: one record per minipage the operation applies to, in send
// order. Every record (including the first) lives in the payload — the
// header's per-minipage fields are not load-bearing on a batched frame, since
// transports overwrite pgsize with the payload length at send time. A
// 1-record batch is never emitted: it goes out as a plain header,
// bit-identical to an unbatched run. type/flags/from/seq are shared by every
// record; the types that batch either ignore from/seq on receive
// (kInvalidateRequest) or carry a uniform value per destination
// (kInvalidateReply's from, kAck's kNoWaitSlot seq, a group fetch's
// slot/gen).
struct BatchRecord {
  uint64_t addr = 0;      // packed GlobalAddr
  uint64_t privbase = 0;  // object offset of the minipage base
  uint32_t minipage = kNoMinipage;
  uint32_t pgsize = 0;

  static BatchRecord From(const MsgHeader& h) {
    return BatchRecord{h.addr, h.privbase, h.minipage, h.pgsize};
  }
  // Overwrites the per-minipage fields, leaving type/flags/from/seq alone.
  void ApplyTo(MsgHeader* h) const {
    h->addr = addr;
    h->privbase = privbase;
    h->minipage = minipage;
    h->pgsize = pgsize;
  }
  bool operator==(const BatchRecord&) const = default;
};

static_assert(sizeof(BatchRecord) == 24, "batch records are a fixed 24-byte wire format");

// Cap on records per frame: 64 records = 1536 payload bytes, comfortably one
// datagram on every transport. A round needing more flushes mid-batch.
inline constexpr uint32_t kMaxBatchRecords = 64;

}  // namespace millipage

#endif  // SRC_NET_MESSAGE_H_
