#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/sha256_backends.hpp"
#include "util/hex.hpp"
#include "util/proptest.hpp"

namespace roleshare::crypto {
namespace {

std::string hex_of(const Digest& d) { return util::to_hex(d); }

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(hex_of(ctx.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 ctx;
  ctx.update("hello ");
  ctx.update("wor");
  ctx.update("ld");
  EXPECT_EQ(ctx.finalize(), sha256("hello world"));
}

TEST(Sha256, BlockBoundaryLengths) {
  // Lengths around the 64-byte block and 56-byte padding boundary.
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 incremental;
    for (const char c : msg)
      incremental.update(std::string_view(&c, 1));
    EXPECT_EQ(incremental.finalize(), sha256(msg)) << "len=" << len;
  }
}

TEST(Sha256, UpdateU64IsLittleEndian) {
  Sha256 a;
  a.update_u64(0x0102030405060708ULL);
  const std::uint8_t bytes[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  Sha256 b;
  b.update(std::span<const std::uint8_t>(bytes, 8));
  EXPECT_EQ(a.finalize(), b.finalize());
}

TEST(Sha256, ReuseAfterFinalizeThrows) {
  Sha256 ctx;
  ctx.update("x");
  (void)ctx.finalize();
  EXPECT_THROW(ctx.update("y"), std::invalid_argument);
  EXPECT_THROW(ctx.finalize(), std::invalid_argument);
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256("a"), sha256("b"));
  EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

TEST(Sha256Fixed, MatchesStreamingAtEveryLength) {
  // Every legal message length, covering the one-block/two-block padding
  // boundary (55/56 bytes) and the 119-byte maximum.
  for (std::size_t len = 0; len <= 119; ++len) {
    Sha256Fixed fixed(len);
    std::vector<std::uint8_t> message(len);
    for (std::size_t i = 0; i < len; ++i)
      message[i] = static_cast<std::uint8_t>(0x40 + i);
    fixed.write(0, message.data(), message.size());
    EXPECT_EQ(fixed.digest(), sha256(message)) << "len=" << len;
  }
}

TEST(Sha256Fixed, RewritingSlotBytesRehashesCorrectly) {
  Sha256Fixed fixed(64);
  std::vector<std::uint8_t> message(64, 0xaa);
  fixed.write(0, message.data(), message.size());
  EXPECT_EQ(fixed.digest(), sha256(message));
  // Overwrite a middle window and re-digest: the template is reusable.
  for (std::size_t i = 16; i < 48; ++i) message[i] = 0x55;
  fixed.write(16, message.data() + 16, 32);
  EXPECT_EQ(fixed.digest(), sha256(message));
}

TEST(Sha256Fixed, RejectsOversizedMessageAndOutOfBoundsWrite) {
  EXPECT_THROW(Sha256Fixed(120), std::invalid_argument);
  Sha256Fixed fixed(16);
  const std::uint8_t byte = 0;
  EXPECT_THROW(fixed.write(16, &byte, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Compression backends. sha256_compress runs one backend per process;
// these tests drive each backend explicitly, so the scalar oracle is
// covered on every host and SHA-NI wherever the CPU has it.

Digest digest_of_state(const std::array<std::uint32_t, 8>& state) {
  Digest digest;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t b = 0; b < 4; ++b)
      digest[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  return digest;
}

/// SHA-256 of `message` with every block folded by `compress`; the
/// padding is written out here, independent of Sha256 and Sha256Fixed.
Digest digest_with(detail::CompressFn compress, std::string_view message) {
  std::vector<std::uint8_t> padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bit_len = std::uint64_t{message.size()} * 8;
  for (int shift = 56; shift >= 0; shift -= 8)
    padded.push_back(static_cast<std::uint8_t>(bit_len >> shift));
  std::array<std::uint32_t, 8> state = sha256_initial_state();
  for (std::size_t offset = 0; offset < padded.size(); offset += 64)
    compress(state, padded.data() + offset);
  return digest_of_state(state);
}

class Sha256Backend : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "scalar") {
      compress_ = &detail::sha256_compress_scalar;
    } else {
      compress_ = detail::sha256_compress_sha_ni();
      if (compress_ == nullptr)
        GTEST_SKIP() << "this CPU or build has no SHA-NI; scalar only";
    }
  }

  detail::CompressFn compress_ = nullptr;
};

TEST_P(Sha256Backend, FipsVectors) {
  EXPECT_EQ(hex_of(digest_with(compress_, "")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_of(digest_with(compress_, "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_of(digest_with(
                compress_,
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256Backend, MillionAs) {
  EXPECT_EQ(hex_of(digest_with(compress_, std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Backend, FixedTemplateAtEveryLength) {
  // The Sha256Fixed template's own padded blocks, folded by this backend,
  // give the digest of the message (and the dispatched digest()).
  for (std::size_t len = 0; len <= 119; ++len) {
    Sha256Fixed fixed(len);
    std::string message(len, '\0');
    for (std::size_t i = 0; i < len; ++i)
      message[i] = static_cast<char>(0x40 + i);
    std::memcpy(fixed.data(), message.data(), len);
    std::array<std::uint32_t, 8> state = sha256_initial_state();
    compress_(state, fixed.data());
    if (len + 9 > 64) compress_(state, fixed.data() + 64);
    EXPECT_EQ(digest_of_state(state), digest_with(compress_, message))
        << "len=" << len;
    EXPECT_EQ(digest_of_state(state), fixed.digest()) << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, Sha256Backend,
                         ::testing::Values("scalar", "sha_ni"),
                         [](const auto& info) { return info.param; });

TEST(Sha256Dispatch, NameMatchesTheCpu) {
  const bool has_sha_ni = detail::sha256_compress_sha_ni() != nullptr;
  EXPECT_STREQ(sha256_backend_name(), has_sha_ni ? "sha_ni" : "scalar");
}

// Any chaining state and any block: SHA-NI folds to the scalar state.
// The 96 bytes are the state (32) followed by the block (64).
PROP_TEST_WITH_PARAMS(Sha256Dispatch, ShaNiMatchesScalarOnRandomBlocks, 2000) {
  const detail::CompressFn sha_ni = detail::sha256_compress_sha_ni();
  if (sha_ni == nullptr)
    GTEST_SKIP() << "this CPU or build has no SHA-NI; scalar only";
  using util::proptest::gen::int_range;
  using util::proptest::gen::vector_of;
  const auto bytes = vector_of(int_range(0, 255), 96, 96)
                         .map([](const std::vector<std::int64_t>& v) {
                           std::vector<std::uint8_t> out(v.size());
                           for (std::size_t i = 0; i < v.size(); ++i)
                             out[i] = static_cast<std::uint8_t>(v[i]);
                           return out;
                         });
  prop.check(
      bytes,
      [sha_ni](const std::vector<std::uint8_t>& in) {
        std::array<std::uint32_t, 8> scalar{};
        std::memcpy(scalar.data(), in.data(), 32);
        std::array<std::uint32_t, 8> hardware = scalar;
        detail::sha256_compress_scalar(scalar, in.data() + 32);
        sha_ni(hardware, in.data() + 32);
        return scalar == hardware;
      },
      [](const std::vector<std::uint8_t>& in) { return util::to_hex(in); });
}

}  // namespace
}  // namespace roleshare::crypto
