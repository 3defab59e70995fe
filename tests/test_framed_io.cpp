// util::framed — the byte-level frame layer under the binary partial
// codec and the result store. The tests here pin the wire format
// (little-endian scalars, u32 magic, u16 version, per-section FNV-1a
// checksums) and the rejection discipline: truncation at any byte,
// trailing bytes, wrong magic/version/section name, unread payload and
// corrupt checksums are all named errors, never silent tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/framed_io.hpp"

namespace {

using roleshare::util::framed::Error;
using roleshare::util::framed::fnv1a_64;
using roleshare::util::framed::magic4;
using roleshare::util::framed::Reader;
using roleshare::util::framed::Writer;

constexpr std::uint32_t kMagic = magic4('T', 'E', 'S', 'T');
constexpr std::uint16_t kVersion = 1;

std::string sample_frame() {
  Writer w(kMagic, kVersion);
  w.begin_section("head");
  w.put_u8(7);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_f64(0.1);
  w.put_string(std::string("hello \0 world", 13));  // embedded NUL
  w.end_section();
  w.begin_section("cols");
  w.put_f64_column({1.5, -0.0, std::numeric_limits<double>::infinity(),
                    std::nan("")});
  w.end_section();
  return w.finish();
}

TEST(FramedIo, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a_64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a_64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a_64("foobar"), 0x85944171f73967e8ULL);
}

TEST(FramedIo, Magic4IsLittleEndianAscii) {
  const std::string bytes = sample_frame();
  ASSERT_GE(bytes.size(), 6u);
  // First four bytes on disk read "TEST"; then the version u16 LE.
  EXPECT_EQ(bytes.substr(0, 4), "TEST");
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), kVersion);
  EXPECT_EQ(static_cast<unsigned char>(bytes[5]), 0);
}

TEST(FramedIo, TypedScalarsRoundTrip) {
  const std::string bytes = sample_frame();  // Reader views, not copies
  Reader r(bytes, kMagic, kVersion, "unit test");
  EXPECT_EQ(r.version(), kVersion);
  r.begin_section("head");
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_f64(), 0.1);
  EXPECT_EQ(r.get_string(), std::string("hello \0 world", 13));
  r.end_section();
  r.begin_section("cols");
  const std::vector<double> col = r.get_f64_column();
  ASSERT_EQ(col.size(), 4u);
  EXPECT_EQ(col[0], 1.5);
  EXPECT_EQ(col[1], 0.0);
  EXPECT_TRUE(std::signbit(col[1]));  // -0.0 bit pattern preserved
  EXPECT_TRUE(std::isinf(col[2]));
  EXPECT_TRUE(std::isnan(col[3]));
  r.end_section();
  r.finish();
}

TEST(FramedIo, HasSectionSeesRemainingSections) {
  const std::string bytes = sample_frame();
  Reader r(bytes, kMagic, kVersion, "unit test");
  EXPECT_TRUE(r.has_section());
  r.begin_section("head");
  r.get_u8();
  r.get_u16();
  r.get_u32();
  r.get_u64();
  r.get_i64();
  r.get_f64();
  r.get_string();
  r.end_section();
  EXPECT_TRUE(r.has_section());
  r.begin_section("cols");
  r.get_f64_column();
  r.end_section();
  EXPECT_FALSE(r.has_section());
}

TEST(FramedIo, WrongMagicNamesOriginAndExpectation) {
  const std::string bytes = sample_frame();
  try {
    Reader r(bytes, magic4('R', 'S', 'B', 'P'), kVersion,
             "frame-under-test");
    FAIL() << "wrong magic accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frame-under-test"), std::string::npos) << what;
    EXPECT_NE(what.find("magic"), std::string::npos) << what;
  }
}

TEST(FramedIo, WrongVersionRejected) {
  const std::string bytes = sample_frame();
  EXPECT_THROW(Reader(bytes, kMagic, 2, "unit test"), Error);
}

TEST(FramedIo, WrongSectionNameNamesBothSides) {
  const std::string bytes = sample_frame();
  Reader r(bytes, kMagic, kVersion, "unit test");
  try {
    r.begin_section("cols");  // actual first section is "head"
    FAIL() << "wrong section name accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cols"), std::string::npos) << what;
    EXPECT_NE(what.find("head"), std::string::npos) << what;
  }
}

TEST(FramedIo, EveryTruncatedPrefixIsRejected) {
  const std::string bytes = sample_frame();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::string prefix = bytes.substr(0, len);
    EXPECT_THROW(
        {
          Reader r(prefix, kMagic, kVersion, "truncated");
          r.begin_section("head");
          r.get_u8();
          r.get_u16();
          r.get_u32();
          r.get_u64();
          r.get_i64();
          r.get_f64();
          r.get_string();
          r.end_section();
          r.begin_section("cols");
          r.get_f64_column();
          r.end_section();
          r.finish();
        },
        Error)
        << "prefix of length " << len << " was accepted";
  }
}

TEST(FramedIo, TrailingBytesRejectedByFinish) {
  const std::string bytes = sample_frame() + "x";
  Reader r(bytes, kMagic, kVersion, "trailing");
  r.begin_section("head");
  r.get_u8();
  r.get_u16();
  r.get_u32();
  r.get_u64();
  r.get_i64();
  r.get_f64();
  r.get_string();
  r.end_section();
  r.begin_section("cols");
  r.get_f64_column();
  r.end_section();
  EXPECT_THROW(r.finish(), Error);
}

TEST(FramedIo, SingleByteCorruptionAnywhereIsCaught) {
  const std::string bytes = sample_frame();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    bool rejected = false;
    try {
      Reader r(bad, kMagic, kVersion, "flipped");
      r.begin_section("head");
      r.get_u8();
      r.get_u16();
      r.get_u32();
      r.get_u64();
      r.get_i64();
      r.get_f64();
      r.get_string();
      r.end_section();
      r.begin_section("cols");
      r.get_f64_column();
      r.end_section();
      r.finish();
    } catch (const Error&) {
      rejected = true;
    }
    // A flip inside a payload changes decoded VALUES without breaking
    // the frame only if it dodges the checksum — FNV-1a of the payload
    // makes that impossible for one-byte flips. Everything structural
    // (header, lengths, names, checksums themselves) must also reject.
    EXPECT_TRUE(rejected) << "flip at byte " << i << " was accepted";
  }
}

TEST(FramedIo, UnreadPayloadBytesAreAnError) {
  const std::string bytes = sample_frame();
  Reader r(bytes, kMagic, kVersion, "unit test");
  r.begin_section("head");
  r.get_u8();  // leave the rest of the payload unread
  EXPECT_THROW(r.end_section(), Error);
}

TEST(FramedIo, ReadingPastSectionEndIsAnError) {
  Writer w(kMagic, kVersion);
  w.begin_section("tiny");
  w.put_u8(1);
  w.end_section();
  const std::string bytes = w.finish();
  Reader r(bytes, kMagic, kVersion, "unit test");
  r.begin_section("tiny");
  EXPECT_EQ(r.get_u8(), 1);
  EXPECT_THROW(r.get_u8(), Error);  // would cross into the checksum
}

TEST(FramedIo, EmptyFrameAndEmptySectionAreValid) {
  Writer w(kMagic, kVersion);
  const std::string empty = w.finish();
  Reader r(empty, kMagic, kVersion, "empty");
  EXPECT_FALSE(r.has_section());
  r.finish();

  Writer w2(kMagic, kVersion);
  w2.begin_section("void");
  w2.end_section();
  const std::string one_section = w2.finish();
  Reader r2(one_section, kMagic, kVersion, "empty section");
  r2.begin_section("void");
  r2.end_section();
  r2.finish();
}

TEST(FramedIo, WriterMisuseIsLogicError) {
  Writer w(kMagic, kVersion);
  EXPECT_THROW(w.put_u8(1), std::logic_error);  // outside any section
  w.begin_section("a");
  EXPECT_THROW(w.begin_section("b"), std::logic_error);  // no nesting
  w.end_section();
  EXPECT_THROW(w.end_section(), std::logic_error);
  w.finish();
  EXPECT_THROW(w.finish(), std::logic_error);  // spent
}

TEST(FramedIo, ColumnCountBeyondPayloadRejectedBeforeAllocation) {
  // A corrupt frame claiming 2^61 column entries must fail the bounds
  // check, not attempt a 16-exabyte allocation. Build a valid frame,
  // then rewrite the column count inside the payload — and its checksum
  // — so only the count lies.
  Writer w(kMagic, kVersion);
  w.begin_section("cols");
  w.put_f64_column({1.0});
  w.end_section();
  std::string bytes = w.finish();
  // Layout: 4 magic + 2 version + 2 name_len + 4 name + 8 payload_len,
  // then the payload (u64 count + 8 bytes) then the checksum.
  const std::size_t payload_at = 4 + 2 + 2 + 4 + 8;
  for (std::size_t i = 0; i < 8; ++i)
    bytes[payload_at + i] = static_cast<char>(0xff);
  const std::uint64_t sum = roleshare::util::framed::fnv1a_64(
      std::string_view(bytes).substr(payload_at, 16));
  for (std::size_t i = 0; i < 8; ++i)
    bytes[payload_at + 16 + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
  Reader r(bytes, kMagic, kVersion, "hostile count");
  r.begin_section("cols");
  EXPECT_THROW(r.get_f64_column(), Error);
}

}  // namespace
