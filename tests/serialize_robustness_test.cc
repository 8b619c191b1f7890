// Hostile-input behavior of Deserialize (ISSUE 4 satellite): truncated,
// bit-flipped, wrong-magic, wrong-version, and count-inflated payloads must
// come back as InvalidArgument / PreconditionFailed — never a crash, hang,
// or unbounded allocation (decoded allocations are capped by the bytes the
// blob actually contains; see io::Decoder::ReadCount). The CI ASan+UBSan
// job runs this suite, so any out-of-bounds read or UB on these paths
// fails loudly.
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_summary.h"
#include "src/io/decoder.h"
#include "src/io/encoder.h"
#include "src/io/format.h"
#include "src/sketch/ams_f2.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TestRng;

SummaryOptions SmallOptions() {
  // Deliberately coarse: the suite decodes thousands of tampered variants
  // of each blob, so blobs must stay small for the suite to stay fast.
  SummaryOptions opts;
  opts.eps = 0.5;
  opts.delta = 0.25;
  opts.y_max = 1023;
  opts.f_max_hint = 1e3;
  opts.x_domain = 1023;
  opts.phi_eps = 0.25;
  opts.max_candidates = 8;
  return opts;
}

std::string BuildBlob(const std::string& kind) {
  auto made = MakeSummary(kind, SmallOptions(), /*seed=*/31);
  EXPECT_TRUE(made.ok());
  AnySummary summary = std::move(made).value();
  Xoshiro256 rng = TestRng(5);
  std::vector<Tuple> stream;
  for (int i = 0; i < 1500; ++i) {
    stream.push_back(Tuple{rng.NextBounded(400), rng.NextBounded(1024)});
  }
  summary.InsertBatch(stream);
  std::string blob;
  EXPECT_TRUE(summary.Serialize(&blob).ok());
  return blob;
}

// A tampered blob must either decode (the flip hit semantically-neutral or
// still-valid data) or fail with the documented error codes. It must never
// crash — that part is enforced by simply running, and by ASan/UBSan in CI.
void ExpectSafeOutcome(const std::string& blob, const char* what) {
  auto result = AnySummary::Deserialize(io::BytesOf(blob));
  if (result.ok()) return;
  const Status::Code code = result.status().code();
  EXPECT_TRUE(code == Status::Code::kInvalidArgument ||
              code == Status::Code::kPreconditionFailed)
      << what << ": unexpected error " << result.status().ToString();
}

// Every registered kind gets the full hostile treatment: a kind that ships
// in the registry but dodges this suite would ship an unfuzzed decoder.
std::vector<std::string> RegistryKindNames() {
  std::vector<std::string> names;
  for (const auto& entry : SummaryRegistry::Entries()) {
    names.emplace_back(entry.name);
  }
  return names;
}

TEST(SerializeRobustnessTest, EveryTruncationIsRejectedCleanly) {
  for (const std::string& kind : RegistryKindNames()) {
    const std::string blob = BuildBlob(kind);
    ASSERT_GT(blob.size(), 64u);
    std::vector<size_t> lengths;
    for (size_t n = 0; n < 64 && n < blob.size(); ++n) lengths.push_back(n);
    for (size_t n = 64; n < blob.size(); n += 509) lengths.push_back(n);
    lengths.push_back(blob.size() - 1);
    for (size_t n : lengths) {
      auto result = AnySummary::Deserialize(
          io::BytesOf(std::string(blob.data(), n)));
      ASSERT_FALSE(result.ok()) << kind << " truncated to " << n;
      EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument)
          << kind << " truncated to " << n << ": "
          << result.status().ToString();
    }
  }
}

TEST(SerializeRobustnessTest, TrailingGarbageIsRejected) {
  for (const std::string& kind : RegistryKindNames()) {
    std::string blob = BuildBlob(kind);
    blob.push_back('\0');
    auto result = AnySummary::Deserialize(io::BytesOf(blob));
    ASSERT_FALSE(result.ok()) << kind;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << kind;
  }
}

TEST(SerializeRobustnessTest, BitFlipsNeverCrashOrMisclassify) {
  for (const std::string& kind : RegistryKindNames()) {
    const std::string blob = BuildBlob(kind);
    // Every bit of the header and early body, then strided samples across
    // the rest (sketch payloads are large and mostly counter cells; flipping
    // every bit of every blob would dominate the suite's runtime — Debug and
    // sanitizer builds run this too — without adding coverage).
    std::vector<size_t> positions;
    for (size_t i = 0; i < 256 && i < blob.size(); ++i) positions.push_back(i);
    for (size_t i = 256; i < blob.size(); i += 997) positions.push_back(i);
    for (size_t pos : positions) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string tampered = blob;
        tampered[pos] = static_cast<char>(tampered[pos] ^ (1 << bit));
        ExpectSafeOutcome(tampered,
                          (kind + " flip byte " +
                           std::to_string(pos))
                              .c_str());
      }
    }
  }
}

TEST(SerializeRobustnessTest, WrongMagicAndVersionAreInvalidArgument) {
  for (const std::string& kind : RegistryKindNames()) {
    std::string blob = BuildBlob(kind);
    {
      std::string bad = blob;
      bad[0] = 'X';
      auto result = AnySummary::Deserialize(io::BytesOf(bad));
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
    }
    {
      // Version lives at bytes [8, 12) of the envelope.
      std::string bad = blob;
      bad[8] = 99;
      auto result = AnySummary::Deserialize(io::BytesOf(bad));
      ASSERT_FALSE(result.ok()) << kind;
      EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument)
          << kind << ": " << result.status().ToString();
    }
    {
      // An unregistered kind tag at bytes [4, 8).
      std::string bad = blob;
      bad[4] = 0x7f;
      auto result = AnySummary::Deserialize(io::BytesOf(bad));
      ASSERT_FALSE(result.ok()) << kind;
      EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument)
          << kind;
    }
  }
}

TEST(SerializeRobustnessTest, InflatedCountsCannotDriveAllocations) {
  // Saturate every 32-bit word of the body in turn: wherever a count field
  // sits, a 0xFFFFFFFF claim must be rejected by the remaining-bytes cap,
  // not trusted by a reserve call. (Words that are not counts become
  // ordinary corruption, which must also be safe.)
  for (const std::string& kind : RegistryKindNames()) {
    const std::string blob = BuildBlob(kind);
    const size_t body_start = 20;  // after magic/kind/version/length
    std::vector<size_t> offsets;
    for (size_t off = body_start; off + 4 <= blob.size() && off < 512;
         off += 4) {
      offsets.push_back(off);
    }
    for (size_t off = 512; off + 4 <= blob.size(); off += 1021) {
      offsets.push_back(off);
    }
    for (size_t off : offsets) {
      std::string tampered = blob;
      tampered[off] = '\xff';
      tampered[off + 1] = '\xff';
      tampered[off + 2] = '\xff';
      tampered[off + 3] = '\xff';
      ExpectSafeOutcome(tampered, (kind + " saturate word at " +
                                   std::to_string(off))
                                      .c_str());
    }
  }
}

TEST(SerializeRobustnessTest, ReadCountZeroMinBytesStillCapsByRemaining) {
  // Regression: min_bytes_each == 0 must degrade to the weakest cap (1 byte
  // per element), never to "no cap" — a division by zero there would be UB,
  // and skipping the check would let a hostile 4-byte count drive a
  // multi-gigabyte reserve. Payload: count = 2^32-1 with 4 bytes behind it.
  std::string payload;
  payload.append("\xff\xff\xff\xff", 4);  // declared count
  payload.append("abcd", 4);              // only 4 bytes actually remain
  io::Decoder decoder(io::BytesOf(payload));
  uint32_t count = 0;
  Status status = decoder.ReadCount(&count, /*min_bytes_each=*/0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
}

TEST(SerializeRobustnessTest, ReadCountBoundaryAcceptsExactFit) {
  // count * min_bytes_each == remaining is the largest claim a blob can
  // back; it must be accepted, and one element more must be rejected.
  {
    std::string payload;
    payload.append("\x03\x00\x00\x00", 4);  // count = 3
    payload.append(12, 'x');                // 3 elements * 4 bytes each
    io::Decoder decoder(io::BytesOf(payload));
    uint32_t count = 0;
    ASSERT_TRUE(decoder.ReadCount(&count, /*min_bytes_each=*/4).ok());
    EXPECT_EQ(count, 3u);
  }
  {
    std::string payload;
    payload.append("\x04\x00\x00\x00", 4);  // count = 4, one too many
    payload.append(12, 'x');
    io::Decoder decoder(io::BytesOf(payload));
    uint32_t count = 0;
    Status status = decoder.ReadCount(&count, /*min_bytes_each=*/4);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  }
}

TEST(SerializeRobustnessTest, ReadCountZeroElementsAlwaysFits) {
  // A zero count is valid even with nothing behind it (empty collections
  // serialize to just the count word).
  std::string payload("\x00\x00\x00\x00", 4);
  io::Decoder decoder(io::BytesOf(payload));
  uint32_t count = 99;
  ASSERT_TRUE(decoder.ReadCount(&count, /*min_bytes_each=*/0).ok());
  EXPECT_EQ(count, 0u);
  EXPECT_TRUE(decoder.Done());
}

TEST(SerializeRobustnessTest, PutI64SpanEmitsLittleEndianTwosComplement) {
  // The wire bytes are fixed by hand here, not by PutI64, so a bulk copy
  // that disagreed with the documented format on any host would fail.
  const int64_t values[] = {0,
                            -1,
                            1,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max(),
                            int64_t{0x0102030405060708}};
  const unsigned char expected[] = {
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 0
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // -1
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 1
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // INT64_MIN
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,  // INT64_MAX
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // 0x0102030405060708
  };
  std::string out = "p";  // appends after existing bytes
  io::Encoder enc(&out);
  enc.PutI64Span(values);
  ASSERT_EQ(out.size(), 1 + sizeof(expected));
  EXPECT_EQ(out[0], 'p');
  for (size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(out[1 + i]), expected[i]) << i;
  }

  io::Decoder dec(io::BytesOf(out));
  uint8_t prefix = 0;
  ASSERT_TRUE(dec.ReadU8(&prefix).ok());
  int64_t decoded[6] = {};
  ASSERT_TRUE(dec.ReadI64Span(decoded).ok());
  EXPECT_TRUE(dec.Done());
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(decoded[i], values[i]) << i;
}

TEST(SerializeRobustnessTest, ReadI64SpanOneByteShortConsumesNothing) {
  std::string payload(3 * 8 - 1, '\x11');
  io::Decoder dec(io::BytesOf(payload));
  int64_t cells[3] = {7, 7, 7};
  const Status status = dec.ReadI64Span(cells);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(dec.remaining(), payload.size());
  for (int64_t c : cells) EXPECT_EQ(c, 7);

  // The exact fit still reads, and an empty span always does.
  payload.push_back('\x11');
  io::Decoder fits(io::BytesOf(payload));
  ASSERT_TRUE(fits.ReadI64Span(std::span<int64_t>{}).ok());
  ASSERT_TRUE(fits.ReadI64Span(cells).ok());
  EXPECT_TRUE(fits.Done());
  for (int64_t c : cells) EXPECT_EQ(c, int64_t{0x1111111111111111});
}

TEST(SerializeRobustnessTest, HandBuiltDenseSketchReencodesByteIdentical) {
  // A dense sketch blob written field by field with the scalar writers:
  // net count, mode byte 1, depth, width, then the row-major cells. The
  // block decode and block encode must reproduce it exactly.
  const AmsF2SketchFactory family(SketchDims{3, 5}, /*seed=*/77);
  std::string blob;
  io::Encoder enc(&blob);
  enc.PutI64(-42);  // net count
  enc.PutU8(1);     // dense
  enc.PutU32(family.depth());
  enc.PutU32(family.width());
  Xoshiro256 rng = TestRng(9);
  for (uint32_t cell = 0; cell < family.depth() * family.width(); ++cell) {
    int64_t v = static_cast<int64_t>(rng.Next());
    if (cell == 0) v = std::numeric_limits<int64_t>::min();
    if (cell == 1) v = -1;
    enc.PutI64(v);
  }

  io::Decoder dec(io::BytesOf(blob));
  auto sketch = family.DecodeSketch(dec);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(sketch.value().NetCount(), -42);
  std::string again;
  io::Encoder reenc(&again);
  family.EncodeSketch(reenc, sketch.value());
  EXPECT_EQ(again, blob);

  // Any truncation of the cell block is refused.
  for (size_t cut = 1; cut <= 8 * family.depth() * family.width(); cut += 7) {
    const std::string truncated_blob = blob.substr(0, blob.size() - cut);
    io::Decoder shortdec(io::BytesOf(truncated_blob));
    auto truncated = family.DecodeSketch(shortdec);
    ASSERT_FALSE(truncated.ok()) << cut;
    EXPECT_EQ(truncated.status().code(), Status::Code::kInvalidArgument);
  }
}

std::string ChhEnvelope(SummaryKind kind, const std::string& body) {
  std::string out;
  io::Encoder enc(&out);
  const uint32_t version = kind == SummaryKind::kCorrelatedNestedMisraGries
                               ? io::kCorrelatedNestedMisraGriesVersion
                               : io::kCorrelatedFastChhVersion;
  const size_t patch = io::BeginEnvelope(enc, kind, version);
  enc.PutBytes(io::BytesOf(body));
  io::EndEnvelope(enc, patch);
  return out;
}

void ExpectInvalidArgument(const std::string& blob, const char* what) {
  auto result = AnySummary::Deserialize(io::BytesOf(blob));
  ASSERT_FALSE(result.ok()) << what;
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << what;
}

TEST(SerializeRobustnessTest, ChhSaturatedTableCountsAreRejected) {
  // Hand-built chh_mg / chh_fast bodies whose count words lie: a saturated
  // primary-entry count, a saturated nested-table count inside an otherwise
  // valid entry, and a nested count that fits the remaining bytes but
  // exceeds the declared capacity. All must fail the ReadCount remaining-
  // bytes cap or the capacity check — never drive an allocation.
  {
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);            // k1
    enc.PutU32(40);           // k2
    enc.PutU64(1000);         // total weight
    enc.PutU64(0);            // primary decrements
    enc.PutU32(0xffffffffu);  // primary entry count: 2^32-1 claimed
    for (int i = 0; i < 8; ++i) enc.PutU64(1);  // 64 bytes actually behind it
    ExpectInvalidArgument(
        ChhEnvelope(SummaryKind::kCorrelatedNestedMisraGries, body),
        "chh_mg saturated primary count");
  }
  {
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);
    enc.PutU32(40);
    enc.PutU64(1000);
    enc.PutU64(0);
    enc.PutU32(1);            // one primary entry...
    enc.PutU64(7);            // x
    enc.PutU64(5);            // count
    enc.PutU64(0);            // nested loss
    enc.PutU32(0xffffffffu);  // ...whose nested table claims 2^32-1 rows
    enc.PutU64(1);
    enc.PutU64(1);
    ExpectInvalidArgument(
        ChhEnvelope(SummaryKind::kCorrelatedNestedMisraGries, body),
        "chh_mg saturated nested count");
  }
  {
    // 41 nested rows with the bytes to back them, against k2 = 40: the
    // remaining-bytes cap passes, so only the capacity check can save us.
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);
    enc.PutU32(40);
    enc.PutU64(1000);
    enc.PutU64(0);
    enc.PutU32(1);
    enc.PutU64(7);    // x
    enc.PutU64(100);  // count
    enc.PutU64(0);    // nested loss
    enc.PutU32(41);
    for (uint64_t y = 0; y < 41; ++y) {
      enc.PutU64(y);
      enc.PutU64(1);
    }
    ExpectInvalidArgument(
        ChhEnvelope(SummaryKind::kCorrelatedNestedMisraGries, body),
        "chh_mg nested count above capacity");
  }
  {
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);            // k1
    enc.PutU32(40);           // k2
    enc.PutU64(1000);         // total weight
    enc.PutU64(0);            // primary decrements
    enc.PutU32(0xffffffffu);  // primary entry count: 2^32-1 claimed
    for (int i = 0; i < 8; ++i) enc.PutU64(1);
    ExpectInvalidArgument(ChhEnvelope(SummaryKind::kCorrelatedFastChh, body),
                          "chh_fast saturated primary count");
  }
  {
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);
    enc.PutU32(40);
    enc.PutU64(1000);
    enc.PutU64(0);
    enc.PutU32(1);
    enc.PutU64(7);            // x
    enc.PutU64(5);            // count
    enc.PutU32(0xffffffffu);  // slot count: 2^32-1 claimed
    enc.PutU64(1);
    enc.PutU64(1);
    enc.PutU64(0);
    ExpectInvalidArgument(ChhEnvelope(SummaryKind::kCorrelatedFastChh, body),
                          "chh_fast saturated slot count");
  }
  {
    // A live fast-CHH entry always retains at least one Space-Saving slot;
    // a zero-slot entry is corruption even though every count word fits.
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);
    enc.PutU32(40);
    enc.PutU64(1000);
    enc.PutU64(0);
    enc.PutU32(1);
    enc.PutU64(7);  // x
    enc.PutU64(5);  // count
    enc.PutU32(0);  // slot count: zero
    ExpectInvalidArgument(ChhEnvelope(SummaryKind::kCorrelatedFastChh, body),
                          "chh_fast zero-slot entry");
  }
}

TEST(SerializeRobustnessTest, HostileCountersDecodeMergeAndQueryWithoutUb) {
  // A fresh f2 blob whose tail sketch is swapped for a dense one holding a
  // single counter of 2^40. Its square, 2^80, overflows int64: every
  // counter and sum-of-squares update must wrap instead of being undefined
  // behaviour, on the reducer's path (decode, then the family probe's
  // MergeFrom) and at query time. The ASan+UBSan build makes UB fatal.
  auto made = MakeSummary("f2", SmallOptions(), /*seed=*/31);
  ASSERT_TRUE(made.ok());
  std::string fresh;
  ASSERT_TRUE(made.value().Serialize(&fresh).ok());

  // Walk the body up to the tail sketch (CorrelatedSketch::EncodeBody).
  io::Decoder dec(io::BytesOf(fresh));
  ASSERT_TRUE(io::ReadEnvelope(dec, AmsF2SketchFactory::kSummaryKind,
                               AmsF2SketchFactory::kFormatVersion)
                  .ok());
  const size_t body_begin = fresh.size() - dec.remaining();
  auto family = AmsF2SketchFactory::DecodeFamily(dec);
  ASSERT_TRUE(family.ok());
  uint64_t u64 = 0;
  uint32_t u32 = 0;
  ASSERT_TRUE(dec.ReadU64(&u64).ok());  // y_max
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(dec.ReadU32(&u32).ok());
  ASSERT_TRUE(dec.ReadU64(&u64).ok());  // tuples inserted
  ASSERT_TRUE(dec.ReadU64(&u64).ok());  // level-0 threshold
  ASSERT_TRUE(dec.ReadU32(&u32).ok());  // singleton count
  ASSERT_EQ(u32, 0u);
  ASSERT_TRUE(dec.ReadU32(&u32).ok());  // first virtual level
  ASSERT_TRUE(dec.ReadU32(&u32).ok());  // tail checks
  const size_t tail_begin = fresh.size() - dec.remaining();
  ASSERT_TRUE(family.value().DecodeSketch(dec).ok());
  const size_t tail_end = fresh.size() - dec.remaining();

  const int64_t big = int64_t{1} << 40;
  std::string hostile;
  io::Encoder enc(&hostile);
  const size_t patch = io::BeginEnvelope(enc, AmsF2SketchFactory::kSummaryKind,
                                         AmsF2SketchFactory::kFormatVersion);
  enc.PutBytes(io::BytesOf(fresh.substr(body_begin, tail_begin - body_begin)));
  enc.PutI64(big);  // net count
  enc.PutU8(1);     // dense
  enc.PutU32(family.value().depth());
  enc.PutU32(family.value().width());
  for (uint32_t cell = 0; cell < family.value().depth() * family.value().width();
       ++cell) {
    enc.PutI64(cell == 0 ? big : 0);
  }
  enc.PutBytes(io::BytesOf(fresh.substr(tail_end)));
  io::EndEnvelope(enc, patch);

  auto decoded = AnySummary::Deserialize(io::BytesOf(hostile));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (int round = 0; round < 2; ++round) {
    auto target = MakeSummary("f2", SmallOptions(), /*seed=*/31);
    ASSERT_TRUE(target.ok());
    AnySummary merged = std::move(target).value();
    ASSERT_TRUE(merged.MergeFrom(decoded.value()).ok());
    if (round == 1) {
      ASSERT_TRUE(merged.MergeFrom(decoded.value()).ok());
    }
    merged.Insert(7, 3);
    for (uint64_t c : {uint64_t{0}, uint64_t{511}, uint64_t{1023}}) {
      EXPECT_TRUE(merged.Query(c).ok()) << c;
      EXPECT_TRUE(decoded.value().Query(c).ok()) << c;
    }
  }
}

TEST(SerializeRobustnessTest, EmptyAndTinySpans) {
  auto empty = AnySummary::Deserialize(std::span<const std::byte>{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), Status::Code::kInvalidArgument);
  for (size_t n = 1; n <= 20; ++n) {
    std::string junk(n, '\x5a');
    auto result = AnySummary::Deserialize(io::BytesOf(junk));
    ASSERT_FALSE(result.ok()) << n;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << n;
  }
}

}  // namespace
}  // namespace castream
