// The partial codec — the one on-disk encoding of a shard partial
// (DESIGN.md §9).
//
// Everything the sharded figures persist — the PartialEnvelope, the
// ScalarBanks, all three experiment payloads (defection / reward /
// strategic) and the bench-level shard documents that wrap them — is
// built on the deterministic util::json value tree (insertion-ordered
// members, %.17g doubles). A partial file is that document as an RSBP
// frame (util/framed_io): magic "RSBP" + version, a "columns" section
// holding every all-finite numeric array as a raw f64 column, and a
// "tree" section with the tagged structure referencing the columns by
// index — ~8 bytes per sample. `dump_partial FILE...` prints a partial
// as JSON text; series snapshots and config echoes stay JSON.
//
// The codec contract, enforced by tests/prop/prop_partial_codec.cpp:
// for every document D, decode(encode(D)) dumps byte-identically to
// parse(D.dump()) — every consumer (finalize, merge, byte-diff CI) sees
// the canonical JSON document. Malformed input — JSON text or any other
// bytes that do not open an RSBP frame, truncation at any byte,
// trailing bytes, corrupt sections, unknown tags, out-of-range column
// references — throws util::framed::Error naming the origin and offset;
// it never yields a wrong document silently.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace roleshare::sim {

/// Serializes one shard-partial document as an RSBP frame.
std::string encode_partial_document(const util::json::Value& doc);

/// Inverts encode_partial_document — the read path of --partial-in, the
/// merge_partials shard arguments, result-store payloads and
/// dump_partial. `origin` names the byte source (a file path) in every
/// error.
util::json::Value decode_partial_document(std::string_view bytes,
                                          std::string_view origin);

// Kept only because the benchmark harness (perfbench/) names them;
// nothing else may use them. Remove at the next benchmark change
// (ROADMAP item 4).
enum class PartialFormat : std::uint8_t { Binary };

class PartialCodec {
 public:
  std::string encode(const util::json::Value& doc) const {
    return encode_partial_document(doc);
  }
};

inline const PartialCodec& partial_codec(PartialFormat) {
  static const PartialCodec codec;
  return codec;
}

}  // namespace roleshare::sim
