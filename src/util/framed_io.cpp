#include "util/framed_io.hpp"

#include <bit>
#include <cstring>

#include "util/require.hpp"

namespace roleshare::util::framed {

std::uint64_t fnv1a_64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

void append_le(std::string& out, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t read_le(std::string_view bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------
// Writer

Writer::Writer(std::uint32_t magic, std::uint16_t version) {
  append_le(out_, magic, 4);
  append_le(out_, version, 2);
}

void Writer::begin_section(std::string_view name) {
  RS_REQUIRE(!finished_, "framed::Writer: begin_section after finish");
  RS_REQUIRE(!in_section_, "framed::Writer: nested section \"" +
                               std::string(name) + "\"");
  RS_REQUIRE(!name.empty() && name.size() <= 0xffff,
             "framed::Writer: section name must be 1..65535 bytes");
  append_le(out_, name.size(), 2);
  out_.append(name);
  // Length placeholder, patched by end_section once the payload is known.
  append_le(out_, 0, 8);
  section_payload_start_ = out_.size();
  in_section_ = true;
}

void Writer::end_section() {
  RS_REQUIRE(in_section_, "framed::Writer: end_section without a section");
  const std::size_t payload_len = out_.size() - section_payload_start_;
  const std::string_view payload(out_.data() + section_payload_start_,
                                 payload_len);
  const std::uint64_t checksum = fnv1a_64(payload);
  // Patch the length placeholder in place.
  std::uint64_t len = payload_len;
  for (std::size_t i = 0; i < 8; ++i) {
    out_[section_payload_start_ - 8 + i] =
        static_cast<char>((len >> (8 * i)) & 0xff);
  }
  append_le(out_, checksum, 8);
  in_section_ = false;
}

void Writer::put_u8(std::uint8_t v) {
  RS_REQUIRE(in_section_, "framed::Writer: put outside a section");
  append_le(out_, v, 1);
}
void Writer::put_u16(std::uint16_t v) {
  RS_REQUIRE(in_section_, "framed::Writer: put outside a section");
  append_le(out_, v, 2);
}
void Writer::put_u32(std::uint32_t v) {
  RS_REQUIRE(in_section_, "framed::Writer: put outside a section");
  append_le(out_, v, 4);
}
void Writer::put_u64(std::uint64_t v) {
  RS_REQUIRE(in_section_, "framed::Writer: put outside a section");
  append_le(out_, v, 8);
}
void Writer::put_i64(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}
void Writer::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}
void Writer::put_string(std::string_view s) {
  RS_REQUIRE(s.size() <= 0xffffffffULL,
             "framed::Writer: string longer than u32 length prefix");
  put_u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}
void Writer::put_f64_column(const std::vector<double>& column) {
  put_u64(column.size());
  for (const double v : column) put_f64(v);
}
void Writer::put_bytes(std::string_view bytes) {
  RS_REQUIRE(in_section_, "framed::Writer: put outside a section");
  out_.append(bytes);
}

std::string Writer::finish() {
  RS_REQUIRE(!in_section_, "framed::Writer: finish inside section");
  RS_REQUIRE(!finished_, "framed::Writer: finish called twice");
  finished_ = true;
  return std::move(out_);
}

// ---------------------------------------------------------------------
// Reader

Reader::Reader(std::string_view data, std::uint32_t magic,
               std::uint16_t expected_version, std::string origin)
    : data_(data), origin_(std::move(origin)) {
  if (data_.size() < 6) {
    fail("frame header needs 6 bytes (magic + version), only " +
         std::to_string(data_.size()) + " present");
  }
  const auto got_magic = static_cast<std::uint32_t>(read_le(data_.substr(0, 4)));
  if (got_magic != magic) {
    char want[5] = {static_cast<char>(magic & 0xff),
                    static_cast<char>((magic >> 8) & 0xff),
                    static_cast<char>((magic >> 16) & 0xff),
                    static_cast<char>((magic >> 24) & 0xff), '\0'};
    fail("bad magic: expected \"" + std::string(want) + "\"");
  }
  version_ = static_cast<std::uint16_t>(read_le(data_.substr(4, 2)));
  if (version_ != expected_version) {
    fail("format version " + std::to_string(version_) +
         " is not supported by this build (expected version " +
         std::to_string(expected_version) + ")");
  }
  pos_ = 6;
}

void Reader::fail(const std::string& what) const {
  std::string msg = origin_.empty() ? "framed frame" : origin_;
  if (in_section_) msg += ", section \"" + section_name_ + "\"";
  msg += ", byte " + std::to_string(pos_) + ": " + what;
  throw Error(msg);
}

std::string_view Reader::take(std::size_t n, const char* what) {
  const std::size_t limit = in_section_ ? section_end_ : data_.size();
  if (n > limit - pos_) {
    fail(std::string("truncated: need ") + std::to_string(n) +
         " bytes for " + what + ", only " + std::to_string(limit - pos_) +
         (in_section_ ? " left in section" : " left in frame"));
  }
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

bool Reader::has_section() const { return pos_ < data_.size(); }

std::string Reader::peek_section_name() const {
  RS_REQUIRE(!in_section_, "framed::Reader: peek_section_name inside a "
                           "section");
  if (!has_section()) fail("truncated: expected a section, frame ends here");
  if (data_.size() - pos_ < 2)
    fail("truncated: need 2 bytes for section name length, only " +
         std::to_string(data_.size() - pos_) + " left in frame");
  const std::size_t name_len =
      static_cast<std::size_t>(read_le(data_.substr(pos_, 2)));
  if (name_len > data_.size() - pos_ - 2)
    fail("truncated: section name declares " + std::to_string(name_len) +
         " bytes, only " + std::to_string(data_.size() - pos_ - 2) +
         " left in frame");
  return std::string(data_.substr(pos_ + 2, name_len));
}

void Reader::begin_section(std::string_view expected_name) {
  RS_REQUIRE(!in_section_, "framed::Reader: nested begin_section");
  if (!has_section()) {
    fail("truncated: expected section \"" + std::string(expected_name) +
         "\" but the frame ends here");
  }
  const std::size_t name_len =
      static_cast<std::size_t>(read_le(take(2, "section name length")));
  const std::string_view name = take(name_len, "section name");
  if (name != expected_name) {
    fail("expected section \"" + std::string(expected_name) +
         "\", found \"" + std::string(name) + "\"");
  }
  const std::uint64_t payload_len = read_le(take(8, "section length"));
  // +8 for the trailing checksum; bounds-check before trusting the length.
  if (payload_len > data_.size() - pos_ ||
      data_.size() - pos_ - static_cast<std::size_t>(payload_len) < 8) {
    fail("truncated: section \"" + std::string(expected_name) +
         "\" declares " + std::to_string(payload_len) +
         " payload bytes (+8 checksum), only " +
         std::to_string(data_.size() - pos_) + " left in frame");
  }
  const std::string_view payload =
      data_.substr(pos_, static_cast<std::size_t>(payload_len));
  const std::uint64_t stored = read_le(
      data_.substr(pos_ + static_cast<std::size_t>(payload_len), 8));
  const std::uint64_t computed = fnv1a_64(payload);
  if (stored != computed) {
    // Set section context so the error names it.
    section_name_ = std::string(expected_name);
    in_section_ = true;
    fail("checksum mismatch: section payload hashes to " +
         std::to_string(computed) + ", frame claims " +
         std::to_string(stored) + " — the frame is corrupt");
  }
  section_name_ = std::string(expected_name);
  section_end_ = pos_ + static_cast<std::size_t>(payload_len);
  in_section_ = true;
}

void Reader::end_section() {
  RS_REQUIRE(in_section_, "framed::Reader: end_section without a section");
  if (pos_ != section_end_) {
    fail("section has " + std::to_string(section_end_ - pos_) +
         " unread trailing bytes — the frame does not match this "
         "build's schema");
  }
  in_section_ = false;
  pos_ += 8;  // skip the (already verified) checksum
}

void Reader::finish() const {
  RS_REQUIRE(!in_section_, "framed::Reader: finish inside a section");
  if (pos_ != data_.size()) {
    std::string msg = origin_.empty() ? "framed frame" : origin_;
    throw Error(msg + ": " + std::to_string(data_.size() - pos_) +
                " trailing bytes after the last section — refusing the "
                "frame");
  }
}

std::uint8_t Reader::get_u8() {
  return static_cast<std::uint8_t>(read_le(take(1, "u8")));
}
std::uint16_t Reader::get_u16() {
  return static_cast<std::uint16_t>(read_le(take(2, "u16")));
}
std::uint32_t Reader::get_u32() {
  return static_cast<std::uint32_t>(read_le(take(4, "u32")));
}
std::uint64_t Reader::get_u64() { return read_le(take(8, "u64")); }
std::int64_t Reader::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}
double Reader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string Reader::get_string() {
  const std::size_t n = get_u32();
  return std::string(take(n, "string payload"));
}

std::vector<double> Reader::get_f64_column() {
  const std::uint64_t n = get_u64();
  const std::size_t limit = in_section_ ? section_end_ : data_.size();
  if (n > (limit - pos_) / 8) {
    fail("truncated: f64 column declares " + std::to_string(n) +
         " values (" + std::to_string(n * 8) + " bytes), only " +
         std::to_string(limit - pos_) + " left in section");
  }
  std::vector<double> column;
  column.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) column.push_back(get_f64());
  return column;
}

std::string Reader::get_bytes(std::size_t n) {
  return std::string(take(n, "raw bytes"));
}

}  // namespace roleshare::util::framed
