// Property suite: the RSBP partial codec is indistinguishable from the
// JSON path over randomized document trees (the partial codec contract,
// DESIGN.md §9), and malformed binary input never decodes
// silently — every truncated prefix and every appended trailing byte is
// a named util::framed::Error.
//
// These sweep what the handwritten cases in tests/test_partial_codec.cpp
// cannot: arbitrary nesting of columnar and non-columnar arrays, NUL and
// high bytes in keys and strings, -0.0 and subnormal samples, documents
// where the SAME array flips between columnar and generic encoding
// depending on a single non-finite element.
#include <gtest/gtest.h>

#include <string>

#include "gen/domain_gen.hpp"
#include "sim/partial_codec.hpp"
#include "util/framed_io.hpp"
#include "util/json.hpp"
#include "util/proptest.hpp"

namespace {

using roleshare::sim::decode_partial_document;
using roleshare::sim::encode_partial_document;
using roleshare::util::json::Value;
using roleshare::util::proptest::Verdict;

std::string describe_value(const Value& v) { return v.dump(); }

/// What every consumer of a decoded document compares: the canonical
/// dump after JSON normalization (non-finite → null).
std::string canonical(const Value& v) {
  return roleshare::util::json::parse(v.dump()).dump();
}

}  // namespace

// decode(encode(D)) dumps byte-identically to parse(D.dump()) — the
// bit-identity contract that makes a partial's RSBP frame and its JSON
// text the same document.
PROP_TEST_WITH_PARAMS(PropPartialCodec, BinaryMatchesJsonPathExactly, 400) {
  prop.check(
      roleshare::testgen::json_value(3),
      [](const Value& v) {
        const std::string want = canonical(v);
        const Value back =
            decode_partial_document(encode_partial_document(v), "prop");
        if (back.dump() != want)
          return Verdict{false, "binary path diverged: " + back.dump() +
                                    " vs " + want};
        return Verdict{};
      },
      describe_value);
}

// Binary encoding is deterministic and a fixpoint under re-encode —
// the property behind byte-identical store hits.
PROP_TEST_WITH_PARAMS(PropPartialCodec, BinaryEncodeIsAFixpoint, 300) {
  prop.check(
      roleshare::testgen::json_value(3),
      [](const Value& v) {
        const std::string bytes = encode_partial_document(v);
        if (encode_partial_document(v) != bytes)
          return Verdict{false, "encode is not deterministic"};
        if (encode_partial_document(decode_partial_document(bytes, "prop")) !=
            bytes)
          return Verdict{false, "re-encode of decoded doc changed bytes"};
        return Verdict{};
      },
      describe_value);
}

// EVERY proper prefix of a binary frame is rejected with a framed
// error — truncation can never silently yield a document.
PROP_TEST_WITH_PARAMS(PropPartialCodec, EveryTruncatedPrefixIsRejected,
                      60) {
  prop.check(
      roleshare::testgen::json_value(2),
      [](const Value& v) {
        const std::string bytes = encode_partial_document(v);
        for (std::size_t len = 0; len < bytes.size(); ++len) {
          try {
            decode_partial_document(bytes.substr(0, len), "truncated");
            return Verdict{false, "prefix of length " +
                                      std::to_string(len) + " of " +
                                      std::to_string(bytes.size()) +
                                      " bytes was accepted"};
          } catch (const roleshare::util::framed::Error&) {
            // expected
          }
        }
        return Verdict{};
      },
      describe_value);
}

// Any byte appended after a complete frame is a named error too — the
// frame must be consumed EXACTLY.
PROP_TEST_WITH_PARAMS(PropPartialCodec, TrailingBytesAreRejected, 200) {
  prop.check(
      roleshare::testgen::json_value(2),
      [](const Value& v) {
        const std::string bytes = encode_partial_document(v);
        for (const char extra : {'\0', '\n', 'x'}) {
          try {
            decode_partial_document(bytes + extra, "trailing");
            return Verdict{false,
                           std::string("trailing byte accepted: ") + extra};
          } catch (const roleshare::util::framed::Error& e) {
            const std::string what = e.what();
            if (what.find("trailing") == std::string::npos)
              return Verdict{false, "error does not name the origin: " +
                                        what};
          }
        }
        return Verdict{};
      },
      describe_value);
}
