// Wire protocol of the shard orchestration service (DESIGN.md §11): the
// framed message grammar the coordinator and its worker agents speak
// over a Unix stream socket.
//
//   stream  := message*
//   message := total_len(u32 LE) frame
//   frame   := util::framed frame (magic "RSOW", version 1) holding
//              EXACTLY ONE section, whose NAME is the message type
//
// Message types and their section payloads (all scalars little-endian,
// strings u32-length-prefixed, exactly as framed_io defines them):
//
//   HELLO     worker -> coordinator, once per connection.
//             u32 worker_id, string config_echo
//             config_echo is the dump of the bench's shard-document
//             header as the WORKER computed it from its own argv — the
//             coordinator refuses a worker whose echo differs from its
//             own header byte for byte (config drift means the worker
//             would compute a different experiment).
//   ASSIGN    coordinator -> worker: run window [run_begin, run_end).
//             u32 window_index, u32 attempt, u64 run_begin, u64 run_end,
//             string spool_path, string resume_path, u32 lease_ms
//             spool_path is THIS attempt's private checkpoint/result
//             file (w<index>.a<attempt>.partial — two attempts never
//             share a file, which is what makes straggler retries safe);
//             resume_path is a previous attempt's checkpoint to resume
//             from, empty for a fresh start. lease_ms is the lease
//             this attempt holds (0 = none); the worker heartbeats
//             several times per lease while the window runs.
//   PROGRESS  worker -> coordinator: a checkpoint exists on disk, or the
//             attempt is still running.
//             u32 window_index, u32 attempt, u64 cursor
//             cursor = first run NOT yet executed. Renews the lease and
//             tells the coordinator the attempt's spool file is worth
//             passing as resume_path if this worker dies. A heartbeat
//             sends cursor 0: it renews the lease and names no
//             checkpoint (a checkpoint always follows at least one run).
//   DONE      worker -> coordinator: the window's finished partial
//             document is at spool_path.
//             u32 window_index, u32 attempt, u8 store_hit,
//             u64 partial_bytes, string spool_path
//   FAIL      worker -> coordinator: the attempt errored but the worker
//             survives (it stays connected for the next ASSIGN).
//             u32 window_index, u32 attempt, string error
//   SHUTDOWN  coordinator -> worker: no more work; exit cleanly.
//             string reason
//
// decode() dispatches on the section name via Reader::peek_section_name
// and inherits every framed_io guarantee: truncation at any byte,
// trailing bytes, bad magic/version and single-byte payload corruption
// are all named errors (tests/test_orch_wire.cpp walks every prefix and
// flips every byte of every message type). MessageBuffer reassembles
// messages from an arbitrary byte-chunk stream (partial reads are the
// norm on a socket) and bounds the declared length BEFORE buffering, so
// a corrupt length prefix cannot balloon memory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/framed_io.hpp"

namespace roleshare::orch {

inline constexpr std::uint32_t kWireMagic =
    util::framed::magic4('R', 'S', 'O', 'W');
inline constexpr std::uint16_t kWireVersion = 2;
/// Hard ceiling on one message's frame bytes. HELLO carries a config
/// echo and FAIL an error string; neither approaches this. A length
/// prefix above it is treated as stream corruption, not a request to
/// allocate.
inline constexpr std::uint32_t kMaxMessageBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  Hello,
  Assign,
  Progress,
  Done,
  Fail,
  Shutdown,
};

const char* to_string(MsgType type);

/// One protocol message: a tagged flat struct (only the fields of the
/// active type are meaningful; encode() writes exactly those and
/// decode() fills exactly those).
struct Message {
  MsgType type = MsgType::Hello;
  // HELLO
  std::uint32_t worker_id = 0;
  std::string config_echo;
  // ASSIGN / PROGRESS / DONE / FAIL
  std::uint32_t window_index = 0;
  std::uint32_t attempt = 0;
  // ASSIGN
  std::uint64_t run_begin = 0;
  std::uint64_t run_end = 0;
  std::string spool_path;   // also echoed by DONE
  std::string resume_path;  // empty = fresh start
  std::uint32_t lease_ms = 0;  // 0 = no lease
  // PROGRESS
  std::uint64_t cursor = 0;
  // DONE
  bool store_hit = false;
  std::uint64_t partial_bytes = 0;
  // FAIL
  std::string error;
  // SHUTDOWN
  std::string reason;
};

/// Convenience constructors (the fields each type actually sends).
Message hello(std::uint32_t worker_id, std::string config_echo);
Message assign(std::uint32_t window_index, std::uint32_t attempt,
               std::uint64_t run_begin, std::uint64_t run_end,
               std::string spool_path, std::string resume_path,
               std::uint32_t lease_ms = 0);
Message progress(std::uint32_t window_index, std::uint32_t attempt,
                 std::uint64_t cursor);
Message done(std::uint32_t window_index, std::uint32_t attempt,
             bool store_hit, std::uint64_t partial_bytes,
             std::string spool_path);
Message fail(std::uint32_t window_index, std::uint32_t attempt,
             std::string error);
Message shutdown(std::string reason);

/// Serializes to the on-wire form INCLUDING the u32 length prefix.
std::string encode(const Message& message);

/// Decodes one frame (NO length prefix — the buffer layer strips it).
/// Throws util::framed::Error on any malformation; `origin` names the
/// peer in the error ("worker 2", "coordinator").
Message decode_frame(std::string_view frame, const std::string& origin);

/// Reassembles messages from arbitrary byte chunks. feed() appends;
/// next() pops the earliest complete message or nullopt when more bytes
/// are needed. A length prefix of 0 or > kMaxMessageBytes throws — the
/// stream is corrupt and cannot be resynchronized.
class MessageBuffer {
 public:
  explicit MessageBuffer(std::string origin) : origin_(std::move(origin)) {}

  void feed(std::string_view bytes) { buffer_.append(bytes); }
  std::optional<Message> next();
  /// Bytes buffered but not yet consumed (a nonzero value at EOF means
  /// the peer died mid-message).
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::string origin_;
};

/// Blocking send of one message over a fd; throws std::runtime_error on
/// any short/failed write (EINTR retried).
void send_message(int fd, const Message& message);

}  // namespace roleshare::orch
