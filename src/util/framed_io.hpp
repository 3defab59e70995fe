// Framed binary serialization primitives (DESIGN.md §9) — the byte-level
// layer under the binary shard-partial codec (sim/partial_codec.hpp) and
// the content-addressed result store (sim/result_store.hpp).
//
// A frame is a magic + format-version header followed by named,
// length-prefixed, individually checksummed sections:
//
//   frame    := magic(u32) version(u16) section*
//   section  := name_len(u16) name(bytes) payload_len(u64)
//               payload(bytes) checksum(u64)     -- FNV-1a 64 of payload
//
// All scalars are little-endian; doubles travel as their IEEE-754
// binary64 bit pattern (u64), so every finite and non-finite value
// round-trips bit for bit. Inside a section the Writer/Reader pair
// provides typed scalar, string and f64-column accessors; the column
// form (count + raw values) is what makes the partial codec columnar —
// a 10k-sample array is 8 bytes per sample instead of ~20 bytes of
// decimal text.
//
// The discipline is NAR-shaped (NixOS/nix libutil serialise.hh): the
// reader never trusts a length it has not bounds-checked, every
// structural violation throws framed::Error naming the section, the
// offset and what was expected there, and a frame is only accepted when
// it is consumed EXACTLY — truncation at any byte and trailing bytes
// after the last section are both hard errors, never silent tolerance.
// Checksums make single-byte corruption anywhere in a payload a named
// error too (the result store treats that as a cache miss).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace roleshare::util::framed {

/// FNV-1a 64-bit over a byte string — the section checksum, and the
/// digest the spec-hash / store-key derivations share (sim/partial.cpp).
std::uint64_t fnv1a_64(std::string_view bytes);

/// Every malformed-frame condition throws this, with a message naming
/// the frame's origin (when the caller provided one), the section and
/// the violated expectation.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Builds a frame in memory. Sections must be properly bracketed:
/// begin_section / typed puts / end_section, then finish() once.
class Writer {
 public:
  Writer(std::uint32_t magic, std::uint16_t version);

  void begin_section(std::string_view name);
  void end_section();

  /// Typed appends, current section only.
  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);
  /// u32 length prefix + raw bytes.
  void put_string(std::string_view s);
  /// u64 count prefix + raw binary64 values — the columnar primitive.
  void put_f64_column(const std::vector<double>& column);
  /// Raw bytes, no prefix (the caller's own framing).
  void put_bytes(std::string_view bytes);

  /// Seals the frame and returns the bytes. The Writer is spent.
  std::string finish();

 private:
  std::string out_;
  std::size_t section_payload_start_ = 0;  // offset of current payload
  bool in_section_ = false;
  bool finished_ = false;
};

/// Consumes a frame. The header is validated on construction; sections
/// are pulled in file order with begin_section (which verifies the name,
/// the length bound and the checksum before any payload accessor runs).
/// finish() must be called after the last section — it is the
/// trailing-byte rejection.
class Reader {
 public:
  /// `origin` names the frame in every error (a file path, "store entry
  /// …"); pass what the operator should see.
  Reader(std::string_view data, std::uint32_t magic,
         std::uint16_t expected_version, std::string origin);

  std::uint16_t version() const { return version_; }

  /// Opens the next section, which must be named `expected_name`.
  void begin_section(std::string_view expected_name);
  /// The next section's name WITHOUT opening it — the dispatch primitive
  /// for frames whose section name encodes a message type (the orch wire
  /// protocol). Validates only the name header; the payload is still
  /// checked by the begin_section that follows. Errors like truncation
  /// mid-name throw exactly as begin_section would.
  std::string peek_section_name() const;
  /// True iff at least one more section header starts here.
  bool has_section() const;
  /// Closes the current section; unread payload bytes are an error.
  void end_section();
  /// After the last section: any remaining byte is an error.
  void finish() const;

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_f64();
  std::string get_string();
  std::vector<double> get_f64_column();
  /// Raw bytes of known length.
  std::string get_bytes(std::size_t n);

  /// Throws Error naming the origin, section and byte offset — for the
  /// checks a format layers on top of the frame grammar.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  std::string_view take(std::size_t n, const char* what);

  std::string_view data_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  std::string section_name_;
  bool in_section_ = false;
  std::uint16_t version_ = 0;
  std::string origin_;
};

/// Builds a u32 magic from four ASCII bytes, first byte lowest —
/// magic4('R','S','B','P') writes "RSBP" on disk.
constexpr std::uint32_t magic4(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

}  // namespace roleshare::util::framed
