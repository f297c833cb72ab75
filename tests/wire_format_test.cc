// Wire-format regression tests. The header is a fixed 32-byte struct whose
// `from` field multiplexes host id and membership-epoch tag; how the 16 bits
// split is versioned by cluster size (WireCodec). These tests pin:
//
//   * golden bytes — a ≤64-host cluster's datagrams are bit-identical to the
//     pre-HostSet encoding (v0: 6-bit host, 10-bit epoch), so mixed-version
//     small clusters stay wire-compatible;
//   * v1 round-trips — >64-host clusters carry 10-bit host ids and 6-bit
//     epoch tags without aliasing, across the whole id range;
//   * epoch-tag staleness under modular wraparound for both codecs.

#include <gtest/gtest.h>

#include <cstring>

#include "src/net/message.h"

namespace millipage {
namespace {

// Serializes a header exactly as every transport does: memcpy of the POD.
void Serialize(const MsgHeader& h, uint8_t out[32]) { std::memcpy(out, &h, sizeof(h)); }

TEST(WireFormat, HeaderIs32Bytes) {
  static_assert(sizeof(MsgHeader) == 32);
  EXPECT_EQ(sizeof(MsgHeader), 32u);
}

// Hand-computed golden bytes for a fully-populated v0 (≤64-host) datagram.
// If this test breaks, the change is not wire-compatible with deployed
// small clusters — stop and version the frame instead.
TEST(WireFormat, GoldenBytesSmallClusterEncoding) {
  const WireCodec codec = WireCodec::For(3);
  struct Case {
    HostId host;
    uint32_t epoch;
    uint16_t expect_from;  // (host & 0x3f) | ((epoch & 0x3ff) << 6)
  };
  const Case cases[] = {
      {3, 0, 0x0003},
      {3, 1, 0x0043},
      {3, 5, 0x0143},
      {63, 1023, 0xffff},
      {0, 1023, 0xffc0},
  };
  for (const Case& c : cases) {
    MsgHeader h;
    h.set_type(MsgType::kWriteRequest);  // = 2
    h.flags = kFlagForwarded;            // = 0x08
    h.from = codec.Pack(c.host, c.epoch);
    h.seq = 0x11223344u;
    h.addr = (GlobalAddr{7, 0x0000000000abcdefULL}).Pack();
    h.minipage = 0x0a0b0c0du;
    h.pgsize = 0x00001000u;
    h.privbase = 0x0102030405060708ULL;

    uint8_t got[32];
    Serialize(h, got);
    const uint8_t expect[32] = {
        // type, flags
        0x02, 0x08,
        // from, little-endian
        static_cast<uint8_t>(c.expect_from & 0xff),
        static_cast<uint8_t>(c.expect_from >> 8),
        // seq
        0x44, 0x33, 0x22, 0x11,
        // addr = view 7 << 48 | offset 0xabcdef
        0xef, 0xcd, 0xab, 0x00, 0x00, 0x00, 0x07, 0x00,
        // minipage
        0x0d, 0x0c, 0x0b, 0x0a,
        // pgsize
        0x00, 0x10, 0x00, 0x00,
        // privbase
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
    };
    EXPECT_EQ(std::memcmp(got, expect, 32), 0)
        << "host " << c.host << " epoch " << c.epoch
        << ": v0 wire bytes changed (small-cluster compatibility broken)";
  }
}

// Host ids round-trip with their epoch tag for every host id a cluster can
// produce: v0 (64 hosts, 10-bit tag) and v1 (>64 hosts, 10-bit host ids,
// 6-bit tag).
TEST(WireFormat, WideClusterRoundTrip) {
  for (const uint32_t hosts : {64u, 65u, 100u, 1023u, 1024u}) {
    const WireCodec codec = WireCodec::For(hosts);
    for (uint32_t host = 0; host < hosts; host += 13) {
      for (uint32_t epoch : {0u, 1u, 5u, 63u, 64u, 200u}) {
        const uint16_t packed = codec.Pack(static_cast<HostId>(host), epoch);
        EXPECT_EQ(codec.Host(packed), host) << "hosts " << hosts;
        EXPECT_EQ(codec.EpochTag(packed), epoch & codec.epoch_mask);
      }
    }
    // The largest host id with a max tag uses every bit of the field.
    EXPECT_EQ(codec.Pack(codec.host_mask, codec.epoch_mask), 0xffffu);
  }
}

// Both cluster sizes agree on which codec they use, at the boundary.
TEST(WireFormat, CodecVersionBoundary) {
  EXPECT_EQ(WireCodec::For(64).host_mask, 0x3f);
  EXPECT_EQ(WireCodec::For(65).host_mask, 0x3ff);
  EXPECT_EQ(WireCodec::For(1).host_mask, 0x3f);
  EXPECT_EQ(WireCodec::For(1024).host_mask, 0x3ff);
}

// Staleness is a circular comparison: tags strictly behind `now` (within
// half the modulus) are stale; equal or ahead-of-now tags are not.
TEST(WireFormat, TagStaleCircularity) {
  for (const uint32_t hosts : {2u, 100u}) {
    const WireCodec c = WireCodec::For(hosts);
    const uint32_t mod = c.epoch_mask + 1;
    EXPECT_FALSE(c.TagStale(5 % mod, 5 % mod));  // equal: fresh
    EXPECT_TRUE(c.TagStale(4 % mod, 5 % mod));   // behind: stale
    EXPECT_FALSE(c.TagStale(6 % mod, 5 % mod));  // ahead (peer bumped first)
    // Wraparound: now = 1, tag = mod - 1 is two behind, stale.
    EXPECT_TRUE(c.TagStale(mod - 1, 1));
    // A tag half the modulus away is treated as ahead, not stale.
    EXPECT_FALSE(c.TagStale((5 + mod / 2) % mod, 5));
  }
}

// The packed-address format has a 16-bit view field: a view id of 65535
// round-trips, 65536 would silently alias view 0 and must die at the pack
// site instead.
TEST(WireFormat, GlobalAddrViewBoundary) {
  const GlobalAddr max{65535, 0x123456789abcULL};
  EXPECT_EQ(GlobalAddr::Unpack(max.Pack()), max);
  EXPECT_DEATH((GlobalAddr{65536, 0}).Pack(), "view id 65536 overflows");
  EXPECT_DEATH((GlobalAddr{0, 1ULL << 48}).Pack(), "offset overflows");
}

// Batched frames: fixed 24-byte records, shared-bit flag discipline, and a
// lossless header round-trip through From/ApplyTo.
TEST(WireFormat, BatchRecordLayoutAndRoundTrip) {
  static_assert(sizeof(BatchRecord) == 24);
  EXPECT_EQ(kMaxBatchRecords * sizeof(BatchRecord), 1536u);  // one datagram

  MsgHeader h;
  h.set_type(MsgType::kInvalidateRequest);
  h.flags = kFlagForwarded;
  h.from = 7;
  h.seq = 42;
  h.addr = (GlobalAddr{3, 0x1000}).Pack();
  h.minipage = 17;
  h.pgsize = 256;
  h.privbase = 0x2000;

  const BatchRecord r = BatchRecord::From(h);
  MsgHeader out;
  out.set_type(MsgType::kInvalidateRequest);
  out.flags = kFlagForwarded;
  out.from = 7;
  out.seq = 42;
  r.ApplyTo(&out);
  EXPECT_EQ(0, std::memcmp(&h, &out, sizeof(MsgHeader)));

  // kFlagBatched shares 0x40 with the LRC-only kFlagWriteFetch; the batching
  // layer must stay off LRC types, so the constant itself must not move.
  EXPECT_EQ(kFlagBatched, kFlagWriteFetch);
}

}  // namespace
}  // namespace millipage
