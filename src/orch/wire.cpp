#include "orch/wire.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

namespace roleshare::orch {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::Hello: return "HELLO";
    case MsgType::Assign: return "ASSIGN";
    case MsgType::Progress: return "PROGRESS";
    case MsgType::Done: return "DONE";
    case MsgType::Fail: return "FAIL";
    case MsgType::Shutdown: return "SHUTDOWN";
  }
  throw std::invalid_argument("unknown MsgType value " +
                              std::to_string(static_cast<int>(type)));
}

Message hello(std::uint32_t worker_id, std::string config_echo) {
  Message m;
  m.type = MsgType::Hello;
  m.worker_id = worker_id;
  m.config_echo = std::move(config_echo);
  return m;
}

Message assign(std::uint32_t window_index, std::uint32_t attempt,
               std::uint64_t run_begin, std::uint64_t run_end,
               std::string spool_path, std::string resume_path,
               std::uint32_t lease_ms) {
  Message m;
  m.type = MsgType::Assign;
  m.window_index = window_index;
  m.attempt = attempt;
  m.run_begin = run_begin;
  m.run_end = run_end;
  m.spool_path = std::move(spool_path);
  m.resume_path = std::move(resume_path);
  m.lease_ms = lease_ms;
  return m;
}

Message progress(std::uint32_t window_index, std::uint32_t attempt,
                 std::uint64_t cursor) {
  Message m;
  m.type = MsgType::Progress;
  m.window_index = window_index;
  m.attempt = attempt;
  m.cursor = cursor;
  return m;
}

Message done(std::uint32_t window_index, std::uint32_t attempt,
             bool store_hit, std::uint64_t partial_bytes,
             std::string spool_path) {
  Message m;
  m.type = MsgType::Done;
  m.window_index = window_index;
  m.attempt = attempt;
  m.store_hit = store_hit;
  m.partial_bytes = partial_bytes;
  m.spool_path = std::move(spool_path);
  return m;
}

Message fail(std::uint32_t window_index, std::uint32_t attempt,
             std::string error) {
  Message m;
  m.type = MsgType::Fail;
  m.window_index = window_index;
  m.attempt = attempt;
  m.error = std::move(error);
  return m;
}

Message shutdown(std::string reason) {
  Message m;
  m.type = MsgType::Shutdown;
  m.reason = std::move(reason);
  return m;
}

std::string encode(const Message& message) {
  util::framed::Writer w(kWireMagic, kWireVersion);
  w.begin_section(to_string(message.type));
  switch (message.type) {
    case MsgType::Hello:
      w.put_u32(message.worker_id);
      w.put_string(message.config_echo);
      break;
    case MsgType::Assign:
      w.put_u32(message.window_index);
      w.put_u32(message.attempt);
      w.put_u64(message.run_begin);
      w.put_u64(message.run_end);
      w.put_string(message.spool_path);
      w.put_string(message.resume_path);
      w.put_u32(message.lease_ms);
      break;
    case MsgType::Progress:
      w.put_u32(message.window_index);
      w.put_u32(message.attempt);
      w.put_u64(message.cursor);
      break;
    case MsgType::Done:
      w.put_u32(message.window_index);
      w.put_u32(message.attempt);
      w.put_u8(message.store_hit ? 1 : 0);
      w.put_u64(message.partial_bytes);
      w.put_string(message.spool_path);
      break;
    case MsgType::Fail:
      w.put_u32(message.window_index);
      w.put_u32(message.attempt);
      w.put_string(message.error);
      break;
    case MsgType::Shutdown:
      w.put_string(message.reason);
      break;
  }
  w.end_section();
  const std::string frame = w.finish();
  if (frame.size() > kMaxMessageBytes)
    throw std::invalid_argument("orch wire message exceeds " +
                                std::to_string(kMaxMessageBytes) + " bytes");
  std::string out;
  out.reserve(4 + frame.size());
  const auto len = static_cast<std::uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  out.append(frame);
  return out;
}

Message decode_frame(std::string_view frame, const std::string& origin) {
  util::framed::Reader r(frame, kWireMagic, kWireVersion, origin);
  const std::string name = r.peek_section_name();
  Message m;
  if (name == "HELLO") {
    m.type = MsgType::Hello;
    r.begin_section(name);
    m.worker_id = r.get_u32();
    m.config_echo = r.get_string();
  } else if (name == "ASSIGN") {
    m.type = MsgType::Assign;
    r.begin_section(name);
    m.window_index = r.get_u32();
    m.attempt = r.get_u32();
    m.run_begin = r.get_u64();
    m.run_end = r.get_u64();
    m.spool_path = r.get_string();
    m.resume_path = r.get_string();
    m.lease_ms = r.get_u32();
  } else if (name == "PROGRESS") {
    m.type = MsgType::Progress;
    r.begin_section(name);
    m.window_index = r.get_u32();
    m.attempt = r.get_u32();
    m.cursor = r.get_u64();
  } else if (name == "DONE") {
    m.type = MsgType::Done;
    r.begin_section(name);
    m.window_index = r.get_u32();
    m.attempt = r.get_u32();
    m.store_hit = r.get_u8() != 0;
    m.partial_bytes = r.get_u64();
    m.spool_path = r.get_string();
  } else if (name == "FAIL") {
    m.type = MsgType::Fail;
    r.begin_section(name);
    m.window_index = r.get_u32();
    m.attempt = r.get_u32();
    m.error = r.get_string();
  } else if (name == "SHUTDOWN") {
    m.type = MsgType::Shutdown;
    r.begin_section(name);
    m.reason = r.get_string();
  } else {
    throw util::framed::Error(origin + ": unknown message type \"" + name +
                              "\" — not a protocol message of version " +
                              std::to_string(kWireVersion));
  }
  r.end_section();
  r.finish();
  return m;
}

std::optional<Message> MessageBuffer::next() {
  if (buffer_.size() < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(buffer_[static_cast<size_t>(i)]))
           << (8 * i);
  // A frame is at least magic+version+minimal section header; 0 or a
  // giant length means the stream is desynchronized — there is no way
  // to find the next boundary, so fail loudly.
  if (len == 0 || len > kMaxMessageBytes)
    throw util::framed::Error(
        origin_ + ": message length prefix " + std::to_string(len) +
        " is outside (0, " + std::to_string(kMaxMessageBytes) +
        "] — byte stream corrupt");
  if (buffer_.size() < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  const Message m = decode_frame(
      std::string_view(buffer_).substr(4, len), origin_);
  buffer_.erase(0, 4 + static_cast<std::size_t>(len));
  return m;
}

void send_message(int fd, const Message& message) {
  const std::string bytes = encode(message);
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a peer that already exited must surface as an EPIPE
    // exception the caller can requeue on — the default SIGPIPE
    // disposition would kill the whole process instead.
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("orch: write failed sending ") +
                               to_string(message.type) + ": " +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace roleshare::orch
