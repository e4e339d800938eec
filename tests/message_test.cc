// Tests for the replication message wire format and verify-protocol
// packing helpers.
#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/endian.h"
#include "common/rng.h"
#include "net/transport.h"
#include "prins/message.h"
#include "prins/verify.h"

namespace prins {
namespace {

ReplicationMessage sample_message() {
  ReplicationMessage msg;
  msg.kind = MessageKind::kWrite;
  msg.policy = ReplicationPolicy::kPrins;
  msg.cluster_epoch = 7;
  msg.block_size = 8192;
  msg.lba = 0x123456789ull;
  msg.sequence = 42;
  msg.timestamp_us = 1000001;
  msg.payload = {9, 8, 7, 6, 5};
  return msg;
}

// Records each frame handed to send_vec() as one contiguous message.
class CapturingTransport final : public Transport {
 public:
  Status send(ByteSpan message) override {
    frames.push_back(to_bytes(message));
    return Status::ok();
  }
  Status send_vec(std::span<const ByteSpan> parts) override {
    Bytes frame;
    for (const ByteSpan& part : parts) append(frame, part);
    frames.push_back(std::move(frame));
    return Status::ok();
  }
  Result<Bytes> recv() override { return unavailable("send-only"); }
  void close() override {}
  std::string describe() const override { return "capture"; }

  std::vector<Bytes> frames;
};

TEST(ReplicationMessageTest, RoundTrip) {
  const ReplicationMessage msg = sample_message();
  // The scatter-gather framer, with the payload split into 0, 1 or 2
  // parts, writes exactly encode()'s bytes.
  for (std::size_t nparts = 0; nparts <= 2; ++nparts) {
    ReplicationMessage framed = msg;
    if (nparts == 0) framed.payload.clear();
    const ByteSpan payload = framed.payload;
    std::vector<ByteSpan> parts;
    if (nparts == 1) parts = {payload};
    if (nparts == 2) parts = {payload.first(2), payload.subspan(2)};
    CapturingTransport capture;
    ASSERT_TRUE(send_framed(capture, framed, parts).is_ok());
    ASSERT_EQ(capture.frames.size(), 1u);
    EXPECT_EQ(capture.frames[0], framed.encode()) << nparts << " parts";
  }
  auto back = ReplicationMessage::decode(msg.encode());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->kind, msg.kind);
  EXPECT_EQ(back->policy, msg.policy);
  EXPECT_EQ(back->cluster_epoch, msg.cluster_epoch);
  EXPECT_EQ(back->block_size, msg.block_size);
  EXPECT_EQ(back->lba, msg.lba);
  EXPECT_EQ(back->sequence, msg.sequence);
  EXPECT_EQ(back->timestamp_us, msg.timestamp_us);
  EXPECT_EQ(back->payload, msg.payload);
}

TEST(ReplicationMessageTest, AllKindsAndPoliciesRoundTrip) {
  for (auto kind : {MessageKind::kWrite, MessageKind::kSyncBlock,
                    MessageKind::kAck, MessageKind::kVerifyRequest,
                    MessageKind::kVerifyReply, MessageKind::kRepairBlock,
                    MessageKind::kBarrier}) {
    for (auto policy : {ReplicationPolicy::kTraditional,
                        ReplicationPolicy::kTraditionalCompressed,
                        ReplicationPolicy::kPrins,
                        ReplicationPolicy::kPrinsRle}) {
      ReplicationMessage msg = sample_message();
      msg.kind = kind;
      msg.policy = policy;
      auto back = ReplicationMessage::decode(msg.encode());
      ASSERT_TRUE(back.is_ok());
      EXPECT_EQ(back->kind, kind);
      EXPECT_EQ(back->policy, policy);
    }
  }
}

TEST(ReplicationMessageTest, EmptyPayloadAllowed) {
  ReplicationMessage msg = sample_message();
  msg.payload.clear();
  auto back = ReplicationMessage::decode(msg.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back->payload.empty());
}

TEST(ReplicationMessageTest, CrcCatchesEveryByteFlip) {
  const Bytes wire = sample_message().encode();
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    Bytes bad = wire;
    bad[rng.next_below(bad.size())] ^= static_cast<Byte>(rng.next_in(1, 255));
    EXPECT_FALSE(ReplicationMessage::decode(bad).is_ok());
  }
}

TEST(ReplicationMessageTest, RejectsTruncation) {
  const Bytes wire = sample_message().encode();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(
        ReplicationMessage::decode(ByteSpan(wire).first(cut)).is_ok());
  }
}

TEST(ReplicationMessageTest, RejectsBadKindAndPolicy) {
  // Kind byte is at offset 4; policy at 5.  Re-encode CRC to isolate the
  // field validation from the checksum.
  ReplicationMessage msg = sample_message();
  Bytes wire = msg.encode();
  wire[4] = 99;
  // Fix up the CRC so only the kind is wrong.
  const std::uint32_t crc = crc32c(ByteSpan(wire).first(wire.size() - 4));
  store_le32(MutByteSpan(wire).subspan(wire.size() - 4), crc);
  auto bad_kind = ReplicationMessage::decode(wire);
  ASSERT_FALSE(bad_kind.is_ok());
  EXPECT_NE(bad_kind.status().message().find("kind"), std::string::npos);
}

// ---- verify packing -------------------------------------------------------------

TEST(VerifyPackingTest, ChecksumsRoundTrip) {
  std::vector<BlockChecksum> sums;
  for (std::uint64_t i = 0; i < 100; ++i) {
    sums.push_back(BlockChecksum{i * 7, static_cast<std::uint32_t>(i * 31)});
  }
  auto back = unpack_checksums(pack_checksums(sums));
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back->size(), sums.size());
  for (std::size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ((*back)[i].lba, sums[i].lba);
    EXPECT_EQ((*back)[i].crc, sums[i].crc);
  }
}

TEST(VerifyPackingTest, LbasRoundTrip) {
  const std::vector<std::uint64_t> lbas{0, 1, 0xFFFFFFFFFFFFull};
  auto back = unpack_lbas(pack_lbas(lbas));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, lbas);
}

TEST(VerifyPackingTest, EmptyListsRoundTrip) {
  auto sums = unpack_checksums(pack_checksums({}));
  ASSERT_TRUE(sums.is_ok());
  EXPECT_TRUE(sums->empty());
  auto lbas = unpack_lbas(pack_lbas({}));
  ASSERT_TRUE(lbas.is_ok());
  EXPECT_TRUE(lbas->empty());
}

TEST(VerifyPackingTest, LengthMismatchRejected) {
  Bytes packed = pack_checksums({BlockChecksum{1, 2}});
  packed.pop_back();
  EXPECT_FALSE(unpack_checksums(packed).is_ok());
  Bytes lbas = pack_lbas({1, 2});
  lbas.push_back(0);
  EXPECT_FALSE(unpack_lbas(lbas).is_ok());
  EXPECT_FALSE(unpack_lbas({}).is_ok());
}

// ---- kAckBatch range packing ----------------------------------------------

TEST(AckRangeTest, PackUnpackRoundTrip) {
  const std::vector<AckRange> ranges{{1, 3}, {10, 1}, {0xFFFFFFFF00ull, 7}};
  const Bytes packed = pack_ack_ranges(ranges);
  EXPECT_EQ(packed.size(), 4 + ranges.size() * 12);
  auto back = unpack_ack_ranges(packed);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  ASSERT_EQ(back->size(), ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ((*back)[i].first_sequence, ranges[i].first_sequence);
    EXPECT_EQ((*back)[i].count, ranges[i].count);
  }
}

TEST(AckRangeTest, MalformedPayloadsRejected) {
  EXPECT_FALSE(unpack_ack_ranges({}).is_ok());
  Bytes truncated = pack_ack_ranges({{5, 2}});
  truncated.pop_back();
  EXPECT_FALSE(unpack_ack_ranges(truncated).is_ok());
  // A zero-length run never describes an applied write.
  EXPECT_FALSE(unpack_ack_ranges(pack_ack_ranges({{5, 0}})).is_ok());
}

TEST(AckRangeTest, CoalesceMergesRunsAndDuplicates) {
  std::vector<std::uint64_t> acked{7, 5, 6, 6, 9, 12, 13, 5};
  const std::vector<AckRange> ranges = coalesce_ack_ranges(acked);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].first_sequence, 5u);
  EXPECT_EQ(ranges[0].count, 3u);  // 5,6,7 with duplicates folded in
  EXPECT_EQ(ranges[1].first_sequence, 9u);
  EXPECT_EQ(ranges[1].count, 1u);
  EXPECT_EQ(ranges[2].first_sequence, 12u);
  EXPECT_EQ(ranges[2].count, 2u);
  std::vector<std::uint64_t> empty;
  EXPECT_TRUE(coalesce_ack_ranges(empty).empty());
}

TEST(AckRangeTest, CoversIsHalfOpenOnTheRun) {
  const AckRange range{100, 4};
  EXPECT_FALSE(range.covers(99));
  EXPECT_TRUE(range.covers(100));
  EXPECT_TRUE(range.covers(103));
  EXPECT_FALSE(range.covers(104));
  // No underflow when the probe is far below the run start.
  EXPECT_FALSE(range.covers(0));
}

}  // namespace
}  // namespace prins
