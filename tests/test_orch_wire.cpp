// orch::wire — the framed message grammar the shard orchestration
// coordinator and its worker agents speak (DESIGN.md §11). These tests
// pin the on-wire form of every message type and the rejection
// discipline the socket layer depends on: truncation at ANY byte and a
// flip of ANY byte of a frame must throw a named error — a coordinator
// that folds a corrupted partial path, or a worker that runs a mangled
// window, silently corrupts the experiment.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "orch/wire.hpp"
#include "util/framed_io.hpp"

namespace {

using roleshare::orch::decode_frame;
using roleshare::orch::encode;
using roleshare::orch::kMaxMessageBytes;
using roleshare::orch::Message;
using roleshare::orch::MessageBuffer;
using roleshare::orch::MsgType;
using roleshare::util::framed::Error;

// One representative message per type, every sent field non-default so a
// round-trip that drops or reorders a field cannot pass by accident.
std::vector<Message> sample_messages() {
  return {
      roleshare::orch::hello(7, "{\"bench\":\"fig6\",\"nodes\":3000}"),
      roleshare::orch::assign(3, 2, 12, 18, "sp/w3.a2.partial",
                              "sp/w3.a1.partial", 800),
      roleshare::orch::progress(3, 2, 15),
      roleshare::orch::done(3, 2, true, 4096, "sp/w3.a2.partial"),
      roleshare::orch::fail(3, 2, "precondition failed: S_K > 0"),
      roleshare::orch::shutdown("job complete"),
  };
}

// The frame bytes of a message: the encoded form minus the u32 length
// prefix (decode_frame's input — the buffer layer strips the prefix).
std::string frame_of(const Message& m) {
  const std::string wire = encode(m);
  EXPECT_GE(wire.size(), 4u);
  std::uint32_t len = 0;
  std::memcpy(&len, wire.data(), 4);
  EXPECT_EQ(len, wire.size() - 4);
  return wire.substr(4);
}

void expect_equal(const Message& a, const Message& b) {
  ASSERT_EQ(a.type, b.type);
  switch (a.type) {
    case MsgType::Hello:
      EXPECT_EQ(a.worker_id, b.worker_id);
      EXPECT_EQ(a.config_echo, b.config_echo);
      break;
    case MsgType::Assign:
      EXPECT_EQ(a.window_index, b.window_index);
      EXPECT_EQ(a.attempt, b.attempt);
      EXPECT_EQ(a.run_begin, b.run_begin);
      EXPECT_EQ(a.run_end, b.run_end);
      EXPECT_EQ(a.spool_path, b.spool_path);
      EXPECT_EQ(a.resume_path, b.resume_path);
      EXPECT_EQ(a.lease_ms, b.lease_ms);
      break;
    case MsgType::Progress:
      EXPECT_EQ(a.window_index, b.window_index);
      EXPECT_EQ(a.attempt, b.attempt);
      EXPECT_EQ(a.cursor, b.cursor);
      break;
    case MsgType::Done:
      EXPECT_EQ(a.window_index, b.window_index);
      EXPECT_EQ(a.attempt, b.attempt);
      EXPECT_EQ(a.store_hit, b.store_hit);
      EXPECT_EQ(a.partial_bytes, b.partial_bytes);
      EXPECT_EQ(a.spool_path, b.spool_path);
      break;
    case MsgType::Fail:
      EXPECT_EQ(a.window_index, b.window_index);
      EXPECT_EQ(a.attempt, b.attempt);
      EXPECT_EQ(a.error, b.error);
      break;
    case MsgType::Shutdown:
      EXPECT_EQ(a.reason, b.reason);
      break;
  }
}

TEST(OrchWire, EveryMessageTypeRoundTrips) {
  for (const Message& m : sample_messages()) {
    SCOPED_TRACE(roleshare::orch::to_string(m.type));
    const Message back = decode_frame(frame_of(m), "unit test");
    expect_equal(m, back);
  }
}

TEST(OrchWire, SectionNameIsTheMessageType) {
  // The frame grammar promises exactly one section whose NAME is the
  // type string — that is what decode_frame dispatches on, and what a
  // human sees hexdumping a spooled stream.
  for (const Message& m : sample_messages()) {
    const std::string frame = frame_of(m);  // Reader keeps only a view
    roleshare::util::framed::Reader r(frame, roleshare::orch::kWireMagic,
                                      roleshare::orch::kWireVersion,
                                      "unit test");
    EXPECT_EQ(r.peek_section_name(), roleshare::orch::to_string(m.type));
  }
}

TEST(OrchWire, EveryTruncatedPrefixIsRejected) {
  for (const Message& m : sample_messages()) {
    const std::string frame = frame_of(m);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      EXPECT_THROW(decode_frame(frame.substr(0, len), "truncated"), Error)
          << roleshare::orch::to_string(m.type) << " prefix of " << len
          << " bytes was accepted";
    }
  }
}

TEST(OrchWire, EveryByteFlipIsRejected) {
  // A flip in a payload byte trips the per-section FNV-1a checksum; a
  // flip in the header, a length, the section name or the checksum
  // itself breaks the structure. Either way decode must throw — there
  // is no byte whose corruption is survivable.
  for (const Message& m : sample_messages()) {
    const std::string frame = frame_of(m);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::string bad = frame;
      bad[i] = static_cast<char>(bad[i] ^ 0x40);
      EXPECT_THROW(decode_frame(bad, "flipped"), Error)
          << roleshare::orch::to_string(m.type) << " flip at byte " << i
          << " was accepted";
    }
  }
}

TEST(OrchWire, TrailingBytesAreRejected) {
  for (const Message& m : sample_messages()) {
    EXPECT_THROW(decode_frame(frame_of(m) + "x", "trailing"), Error);
  }
}

TEST(OrchWire, UnknownSectionNameIsRejected) {
  roleshare::util::framed::Writer w(roleshare::orch::kWireMagic,
                                    roleshare::orch::kWireVersion);
  w.begin_section("BOGUS");
  w.put_u32(1);
  w.end_section();
  EXPECT_THROW(decode_frame(w.finish(), "unit test"), Error);
}

TEST(OrchWire, BufferReassemblesOneByteAtATime) {
  // Sockets deliver arbitrary chunks; the buffer must pop nothing until
  // the final byte of a message arrives, then pop exactly that message.
  for (const Message& m : sample_messages()) {
    const std::string wire = encode(m);
    MessageBuffer buf("unit test");
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
      buf.feed(std::string_view(wire).substr(i, 1));
      EXPECT_FALSE(buf.next().has_value()) << "popped early at byte " << i;
    }
    buf.feed(std::string_view(wire).substr(wire.size() - 1, 1));
    const std::optional<Message> back = buf.next();
    ASSERT_TRUE(back.has_value());
    expect_equal(m, *back);
    EXPECT_EQ(buf.pending_bytes(), 0u);
    EXPECT_FALSE(buf.next().has_value());
  }
}

TEST(OrchWire, BufferPopsConcatenatedMessagesInOrder) {
  const std::vector<Message> messages = sample_messages();
  std::string stream;
  for (const Message& m : messages) stream += encode(m);
  MessageBuffer buf("unit test");
  buf.feed(stream);
  for (const Message& m : messages) {
    const std::optional<Message> back = buf.next();
    ASSERT_TRUE(back.has_value());
    expect_equal(m, *back);
  }
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_EQ(buf.pending_bytes(), 0u);
}

TEST(OrchWire, BufferTracksPendingBytesMidMessage) {
  const std::string wire = encode(roleshare::orch::progress(1, 1, 5));
  MessageBuffer buf("unit test");
  buf.feed(std::string_view(wire).substr(0, wire.size() / 2));
  EXPECT_FALSE(buf.next().has_value());
  // A nonzero pending count at EOF is how the coordinator detects a
  // worker that died mid-message.
  EXPECT_EQ(buf.pending_bytes(), wire.size() / 2);
}

TEST(OrchWire, ZeroLengthPrefixIsStreamCorruption) {
  MessageBuffer buf("unit test");
  buf.feed(std::string(4, '\0'));
  EXPECT_THROW(buf.next(), Error);
}

TEST(OrchWire, OversizedLengthPrefixIsRejectedBeforeBuffering) {
  // The declared length is bounds-checked BEFORE any waiting/allocation:
  // a corrupt prefix must not make the coordinator buffer 4 GiB.
  const std::uint32_t huge = kMaxMessageBytes + 1;
  std::string prefix(4, '\0');
  std::memcpy(prefix.data(), &huge, 4);
  MessageBuffer buf("unit test");
  buf.feed(prefix);
  EXPECT_THROW(buf.next(), Error);
}

TEST(OrchWire, OversizedMessageRefusesToEncode) {
  EXPECT_THROW(
      encode(roleshare::orch::shutdown(std::string(kMaxMessageBytes, 'x'))),
      std::exception);
}

TEST(OrchWire, SendToDeadPeerThrowsInsteadOfRaisingSigpipe) {
  // The coordinator routinely writes to a worker that just died (it
  // reaps the pid before reading the socket EOF, then assigns). That
  // write must come back as a catchable exception — under the default
  // SIGPIPE disposition it would kill the whole process instead,
  // orphaning the fleet. This test dies by signal if send_message ever
  // regresses to a bare write().
  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ::close(pair[1]);  // the "worker" is gone
  // First send may land in the (dead) socket's buffer; a second send is
  // guaranteed EPIPE on AF_UNIX once the peer is closed.
  try {
    roleshare::orch::send_message(pair[0], roleshare::orch::progress(0, 1, 0));
    roleshare::orch::send_message(pair[0], roleshare::orch::progress(0, 1, 1));
    FAIL() << "send_message to a closed peer did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("PROGRESS"), std::string::npos)
        << e.what();
  }
  ::close(pair[0]);
}

}  // namespace
