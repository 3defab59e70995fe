// The partial codec — the serialization seam between the partial layer
// and its bytes on disk. The contract under test: an RSBP frame decodes
// to the canonical document down to the dump() byte level
// (decode(encode(D)).dump() == parse(D.dump()).dump() for every
// document), and anything that is not a well-formed RSBP frame — JSON
// text included — is rejected with errors naming the origin, never
// decoded into a wrong document.
#include "sim/partial_codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "sim/defection_experiment.hpp"
#include "util/framed_io.hpp"
#include "util/json.hpp"

namespace roleshare::sim {
namespace {

using util::json::Value;

/// A document shaped like the real shard partials: header echo fields,
/// nested panels, large all-finite sample arrays (the columnar case),
/// plus the awkward corners — empty arrays, mixed arrays, non-finite
/// numbers, embedded NULs.
Value representative_document() {
  Value doc = Value::object();
  doc.set("kind", "defection");
  doc.set("bench", "fig3_defection");
  doc.set("runs", 50);
  doc.set("agg", "exact");
  doc.set("run_begin", 0);
  doc.set("run_end", 25);
  doc.set("window_end", 50);
  Value panels = Value::array();
  for (int p = 0; p < 3; ++p) {
    Value panel = Value::object();
    panel.set("rate_pct", 20.0 * p);
    Value samples = Value::array();
    for (int i = 0; i < 200; ++i)
      samples.push_back(0.1 * i + 1e-9 * p - 3.5);
    panel.set("samples", std::move(samples));
    Value mixed = Value::array();
    mixed.push_back(1.0);
    mixed.push_back("not a number");
    mixed.push_back(Value());
    mixed.push_back(true);
    panel.set("mixed", std::move(mixed));
    panel.set("empty", Value::array());
    Value non_finite = Value::array();
    non_finite.push_back(std::nan(""));
    non_finite.push_back(std::numeric_limits<double>::infinity());
    non_finite.push_back(2.5);
    panel.set("non_finite", std::move(non_finite));
    panel.set("nul_key", std::string("a\0b", 3));
    panels.push_back(std::move(panel));
  }
  doc.set("panels", std::move(panels));
  return doc;
}

/// The canonical form every consumer sees: what parsing the JSON text
/// yields (non-finite numbers normalized to null, etc.).
std::string canonical_dump(const Value& doc) {
  return util::json::parse(doc.dump()).dump();
}

TEST(PartialCodec, BothFormatsDecodeToTheCanonicalDocument) {
  // The RSBP frame and the JSON text of one document decode to the same
  // canonical document.
  const Value doc = representative_document();
  const std::string want = canonical_dump(doc);
  const Value back =
      decode_partial_document(encode_partial_document(doc), "round trip");
  EXPECT_EQ(back.dump(), want) << "RSBP is distinguishable from the JSON path";
}

TEST(PartialCodec, EncodeIsDeterministic) {
  const Value doc = representative_document();
  const std::string bytes = encode_partial_document(doc);
  EXPECT_EQ(encode_partial_document(doc), bytes);
  // encode ∘ decode is a fixpoint: re-encoding the decoded document
  // reproduces the bytes (the store-hit re-encode determinism).
  EXPECT_EQ(encode_partial_document(decode_partial_document(bytes, "fixpoint")),
            bytes);
}

TEST(PartialCodec, DetectionNamesOriginOnGarbage) {
  for (const std::string garbage :
       {std::string("not a document"), std::string(""),
        std::string("RSRS....")}) {
    try {
      decode_partial_document(garbage, "mystery.file");
      FAIL() << "garbage accepted: " << garbage;
    } catch (const util::framed::Error& e) {
      EXPECT_NE(std::string(e.what()).find("mystery.file"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(PartialCodec, JsonDecodeErrorsNameTheOrigin) {
  // A JSON-text partial (the retired file format) is refused at the
  // frame magic, naming the file — it is never parsed as text.
  const std::string json_text = representative_document().dump() + "\n";
  try {
    decode_partial_document(json_text, "old_shard.json");
    FAIL() << "JSON-text partial accepted";
  } catch (const util::framed::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("old_shard.json"), std::string::npos) << what;
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
  }
}

TEST(PartialCodec, BinaryTruncationAndTrailingBytesRejected) {
  const std::string bytes = encode_partial_document(representative_document());
  // Exhaustive over the frame scaffolding, sampled over the long payload.
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 || len + 64 > bytes.size()) ? 1 : 37) {
    EXPECT_THROW(decode_partial_document(bytes.substr(0, len), "truncated"),
                 util::framed::Error)
        << "prefix of length " << len << " accepted";
  }
  EXPECT_THROW(decode_partial_document(bytes + "\n", "trailing"),
               util::framed::Error);
}

TEST(PartialCodec, CorruptTreeIsRejectedNamingTheOrigin) {
  // Well-formed frames whose tree is not a document: an unknown tag, a
  // column reference past the columns section, and nesting past the
  // depth cap.
  const auto frame = [](const auto& write_tree) {
    util::framed::Writer w(util::framed::magic4('R', 'S', 'B', 'P'), 1);
    w.begin_section("columns");
    w.put_u32(0);
    w.end_section();
    w.begin_section("tree");
    write_tree(w);
    w.end_section();
    return w.finish();
  };
  const std::string unknown_tag =
      frame([](util::framed::Writer& w) { w.put_u8(99); });
  const std::string bad_column = frame([](util::framed::Writer& w) {
    w.put_u8(7);  // column_ref
    w.put_u32(0);
  });
  const std::string too_deep = frame([](util::framed::Writer& w) {
    for (int i = 0; i < 200; ++i) {
      w.put_u8(5);  // array
      w.put_u32(1);
    }
    w.put_u8(0);  // null
  });
  for (const std::string& bytes : {unknown_tag, bad_column, too_deep}) {
    try {
      decode_partial_document(bytes, "corrupt.partial");
      FAIL() << "corrupt tree accepted";
    } catch (const util::framed::Error& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt.partial"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(PartialCodec, RealPartialSurvivesEitherFormat) {
  // A real experiment partial round-trips through its RSBP frame and
  // through its JSON text to the same canonical document.
  DefectionExperimentConfig config;
  config.network.node_count = 50;
  config.network.seed = 4242;
  config.network.defection_rate = 0.15;
  config.runs = 4;
  config.rounds = 3;
  config.agg = AggBackend::Exact;
  const DefectionPartial partial = run_defection_partial(config);
  const std::string want = canonical_dump(partial.to_json());
  const DefectionPartial from_rsbp =
      DefectionPartial::from_json(decode_partial_document(
          encode_partial_document(partial.to_json()), "round trip"));
  EXPECT_EQ(canonical_dump(from_rsbp.to_json()), want);
  const DefectionPartial from_text = DefectionPartial::from_json(
      util::json::parse(partial.to_json().dump()));
  EXPECT_EQ(canonical_dump(from_text.to_json()), want);
}

TEST(PartialCodec, ColumnarEncodingWinsOnSampleHeavyDocuments) {
  // The size claim the RSBP format exists for: full-precision doubles
  // print as ~20 text bytes but travel as 8 binary ones, so documents
  // dominated by sample columns (10k-run exact shards) must shrink. (On
  // tiny documents the per-key framing overhead can make RSBP larger
  // than the text — that's fine; nobody shards a 4-run experiment for
  // size.)
  Value doc = Value::object();
  doc.set("kind", "reward");
  Value samples = Value::array();
  for (int i = 0; i < 4096; ++i) samples.push_back(std::sqrt(2.0) * i);
  doc.set("samples", std::move(samples));
  const std::size_t bin = encode_partial_document(doc).size();
  const std::size_t text = doc.dump().size();
  EXPECT_LT(bin, text / 2) << "RSBP " << bin << " vs JSON text " << text;
}

}  // namespace
}  // namespace roleshare::sim
