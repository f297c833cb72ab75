// Wire-format regression tests. The header is a fixed 32-byte struct whose
// `from` field multiplexes a 10-bit host id and a 6-bit membership-epoch tag
// (WireCodec). These tests pin:
//
//   * golden bytes — a fully-populated datagram, byte for byte, including the
//     largest host id at the largest tag;
//   * round-trips — every host id a cluster can hold carries its epoch tag
//     without aliasing;
//   * epoch-tag staleness under modular wraparound.

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

// Hand-computed golden bytes for a fully-populated datagram. If this test
// breaks, the change alters the wire format.
TEST(WireFormat, GoldenBytes) {
  struct Case {
    HostId host;
    uint32_t epoch;
    uint16_t expect_from;  // host | ((epoch & 0x3f) << 10)
  };
  const Case cases[] = {
      {3, 0, 0x0003},
      {3, 1, 0x0403},
      {3, 5, 0x1403},
      {3, 64, 0x0003},  // the tag is the epoch mod 64
      {1023, 63, 0xffff},
      {0, 63, 0xfc00},
  };
  for (const Case& c : cases) {
    MsgHeader h;
    h.set_type(MsgType::kWriteRequest);  // = 2
    h.flags = kFlagForwarded;            // = 0x08
    h.from = WireCodec::Pack(c.host, c.epoch);
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
        << "host " << c.host << " epoch " << c.epoch << ": wire bytes changed";
  }
}

// Every host id up to kMaxHosts - 1 round-trips with every epoch tag.
TEST(WireFormat, HostAndTagRoundTrip) {
  for (uint32_t host = 0; host < 1024; ++host) {
    for (const uint32_t epoch : {0u, 1u, 5u, 31u, 63u, 64u, 200u}) {
      const uint16_t packed = WireCodec::Pack(static_cast<HostId>(host), epoch);
      ASSERT_EQ(WireCodec::Host(packed), host) << "epoch " << epoch;
      ASSERT_EQ(WireCodec::EpochTag(packed), epoch % 64) << "host " << host;
    }
  }
}

// Staleness is a circular comparison mod 64: tags strictly behind `now`
// (within half the modulus) are stale; equal or ahead-of-now tags are not.
TEST(WireFormat, TagStaleCircularity) {
  EXPECT_FALSE(WireCodec::TagStale(5, 5));  // equal: fresh
  EXPECT_TRUE(WireCodec::TagStale(4, 5));   // behind: stale
  EXPECT_FALSE(WireCodec::TagStale(6, 5));  // ahead (peer bumped first)
  // Wraparound: now = 1, tag = 63 is two behind, stale.
  EXPECT_TRUE(WireCodec::TagStale(63, 1));
  // 31 behind is still stale; 32 away is treated as ahead, not stale.
  EXPECT_TRUE(WireCodec::TagStale(38, 5));
  EXPECT_FALSE(WireCodec::TagStale(37, 5));
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

// Batched frames: fixed 24-byte records and a lossless header round-trip
// through From/ApplyTo.
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
}

}  // namespace
}  // namespace millipage
