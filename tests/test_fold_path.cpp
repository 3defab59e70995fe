// The one fold path (bench/bench_drivers.hpp, DESIGN.md §6 and §11):
// every series document is written by write_series, and every shard fold
// goes through ShardableBench::fold — merge_partials reaches it through
// make_shardable_bench(shard_doc), which rebuilds the bench from the
// document's own header echo. Under test: that round trip for every
// registry bench, byte-identity of a two-window fold against one
// in-process window, the refusals (another bench, an extra or altered
// header field, an unfinished checkpoint), and that the fig_longhorizon
// result-store key covers --alpha / --beta / --top-fraction.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "shard_util.hpp"
#include "sim/partial_codec.hpp"
#include "util/json.hpp"

namespace roleshare::bench {
namespace {

namespace fs = std::filesystem;
using util::json::Value;

// Owns the argv a bench factory parses, like main's.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "test_fold_path");
    for (std::string& s : strings_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

class FoldPath : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rs_fold_path_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Runs `driver` over [begin, end) (whole range when both are 0) and
  /// returns the written partial document's bytes.
  template <typename PartialT>
  std::string run_window(const PanelDriver<PartialT>& driver,
                         std::size_t begin, std::size_t end,
                         sim::PartialFormat format,
                         std::size_t stop_after = 0) {
    ShardKnobs knobs;
    knobs.runs = driver.runs;
    knobs.shard = sim::RunShard{begin, end};
    knobs.partial_out = path("window_" + std::to_string(begin) + "_" +
                             std::to_string(end) + ".partial");
    knobs.format = format;
    knobs.stop_after = stop_after;
    run_sharded_panels<PartialT>(knobs, driver.panel_count, driver.header,
                                 driver.panel_meta, driver.run_panel);
    return read_text_file(knobs.partial_out);
  }

  /// Folds two windows (one json, one binary) through the bench rebuilt
  /// from the first window's header and expects the series document of
  /// one in-process window over all runs, byte for byte.
  template <typename PartialT>
  void expect_two_window_fold_matches_one_window(
      const PanelDriver<PartialT>& driver) {
    ShardKnobs whole;
    whole.runs = driver.runs;
    const ShardExecution<PartialT> exec = run_sharded_panels<PartialT>(
        whole, driver.panel_count, driver.header, driver.panel_meta,
        driver.run_panel);
    write_series(driver, exec.partials, 0, driver.runs, path("single.json"));

    const std::size_t split = driver.runs / 2;
    const std::string first =
        run_window(driver, 0, split, sim::PartialFormat::Json);
    const std::string second =
        run_window(driver, split, driver.runs, sim::PartialFormat::Binary);
    ShardableBench folder =
        make_shardable_bench(sim::decode_partial_document(first, "first"));
    folder.fold(first, 0, split, "first");
    folder.fold(second, split, driver.runs, "second");
    folder.write_series(path("folded.json"));

    EXPECT_EQ(read_text_file(path("single.json")),
              read_text_file(path("folded.json")));
  }

  fs::path dir_;
};

/// The message of the exception `fold` throws, or "" when it folds.
std::string fold_refusal(ShardableBench& bench, const std::string& bytes,
                         std::size_t run_begin, std::size_t run_end) {
  try {
    bench.fold(bytes, run_begin, run_end, "doc under test");
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

std::string with_header_field(const std::string& bytes,
                              const std::string& key, Value value) {
  Value doc = sim::decode_partial_document(bytes, "doc");
  Value edited = Value::object();
  for (const auto& [k, v] : doc.as_object())
    edited.set(k, k == key ? value : v);
  if (doc.find(key) == nullptr) edited.set(key, std::move(value));
  return sim::partial_codec(sim::PartialFormat::Json).encode(edited);
}

TEST_F(FoldPath, HeaderEchoRebuildsEveryRegistryBench) {
  // Non-default values for every knob any bench echoes, so a field the
  // rebuild dropped would fall back to its default and show.
  Argv argv({"--nodes=61", "--runs=7", "--rounds=3", "--agg=streaming",
             "--seed=7", "--alpha=0.6", "--beta=0.1",
             "--top-fraction=0.05"});
  const std::string names = kShardableBenchNames;
  std::size_t benches = 0;
  for (std::size_t pos = 0; pos < names.size();) {
    const std::size_t comma = names.find(", ", pos);
    const std::string name = names.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? names.size() : comma + 2;
    ++benches;
    SCOPED_TRACE(name);

    const ShardableBench original =
        make_shardable_bench(name, argv.argc(), argv.argv());
    const Value header = util::json::parse(original.config_echo);
    EXPECT_EQ(header.at("bench").as_string(), name);
    EXPECT_EQ(header.at("nodes").as_size(), 61u);
    EXPECT_EQ(header.at("agg").as_string(), "streaming");

    // A bare header and a full document header rebuild the same bench.
    const ShardableBench from_header = make_shardable_bench(header);
    EXPECT_EQ(from_header.config_echo, original.config_echo);
    Value doc = header;
    doc.set("run_begin", 0);
    doc.set("run_end", 3);
    doc.set("window_end", 3);
    doc.set("panels", Value::array());
    const ShardableBench from_doc = make_shardable_bench(doc);
    EXPECT_EQ(from_doc.config_echo, original.config_echo);
    EXPECT_EQ(from_doc.bench_name, name);
    EXPECT_EQ(from_doc.runs, 7u);
    EXPECT_EQ(from_doc.panel_count, original.panel_count);
  }
  EXPECT_EQ(benches, 6u);
}

TEST_F(FoldPath, UnknownBenchIsRefused) {
  Value header = Value::object();
  header.set("kind", "defection");
  header.set("bench", "fig99");
  EXPECT_THROW(make_shardable_bench(header), std::invalid_argument);
}

TEST_F(FoldPath, Fig3TwoWindowFoldMatchesOneWindow) {
  Argv argv({"--nodes=60", "--runs=4", "--rounds=3"});
  expect_two_window_fold_matches_one_window(
      make_fig3_driver(argv.argc(), argv.argv()).panels);
}

TEST_F(FoldPath, StrategicTwoWindowFoldMatchesOneWindow) {
  Argv argv({"--nodes=50", "--runs=4", "--rounds=3", "--seed=5"});
  expect_two_window_fold_matches_one_window(
      make_strategic_driver(argv.argc(), argv.argv()).panels);
}

TEST_F(FoldPath, RefusesAShardFromAnotherBench) {
  Argv argv({"--nodes=40", "--runs=4", "--rounds=2"});
  const auto fig3 = make_fig3_driver(argv.argc(), argv.argv()).panels;
  const auto sweep = make_scenario_driver(argv.argc(), argv.argv()).panels;
  const std::string fig3_bytes =
      run_window(fig3, 0, 2, sim::PartialFormat::Json);
  const std::string sweep_bytes =
      run_window(sweep, 0, 2, sim::PartialFormat::Binary);

  // Both are "defection" partials; the header tells them apart.
  ShardableBench fig3_folder =
      make_shardable_bench(sim::decode_partial_document(fig3_bytes, "fig3"));
  EXPECT_NE(fold_refusal(fig3_folder, sweep_bytes, 0, 2).find("\"bench\""),
            std::string::npos);
  ShardableBench sweep_folder = make_shardable_bench(
      sim::decode_partial_document(sweep_bytes, "sweep"));
  EXPECT_NE(fold_refusal(sweep_folder, fig3_bytes, 0, 2), "");
  // The refused documents left both folds empty.
  EXPECT_EQ(fold_refusal(fig3_folder, fig3_bytes, 0, 2), "");
}

TEST_F(FoldPath, RefusesAnExtraOrAlteredHeaderField) {
  Argv argv({"--nodes=40", "--runs=4", "--rounds=2"});
  const auto fig3 = make_fig3_driver(argv.argc(), argv.argv()).panels;
  const std::string bytes = run_window(fig3, 0, 2, sim::PartialFormat::Json);
  ShardableBench clean =
      make_shardable_bench(sim::decode_partial_document(bytes, "clean"));

  const std::string extra = with_header_field(bytes, "extra", Value(1));
  EXPECT_NE(fold_refusal(clean, extra, 0, 2).find("\"extra\""),
            std::string::npos);
  // Rebuilt from the extra document itself: the factory ignores
  // --extra, so the rebuilt header lacks it and the fold still refuses.
  ShardableBench from_extra =
      make_shardable_bench(sim::decode_partial_document(extra, "extra"));
  EXPECT_NE(fold_refusal(from_extra, extra, 0, 2).find("\"extra\""),
            std::string::npos);

  // trim is a bench constant, not a flag: an altered value cannot be
  // rebuilt and must not be folded under the bench's own trim.
  const std::string trim = with_header_field(bytes, "trim", Value(0.3));
  ShardableBench from_trim =
      make_shardable_bench(sim::decode_partial_document(trim, "trim"));
  EXPECT_NE(fold_refusal(from_trim, trim, 0, 2).find("\"trim\""),
            std::string::npos);
  EXPECT_NE(fold_refusal(clean, trim, 0, 2).find("\"trim\""),
            std::string::npos);

  // Nothing refused was folded: the clean document still folds first.
  EXPECT_EQ(fold_refusal(clean, bytes, 0, 2), "");
}

TEST_F(FoldPath, RefusesAChangedPanelLayout) {
  Argv argv({"--nodes=40", "--runs=4", "--rounds=2"});
  const auto fig3 = make_fig3_driver(argv.argc(), argv.argv()).panels;
  const std::string bytes = run_window(fig3, 0, 2, sim::PartialFormat::Json);
  Value doc = sim::decode_partial_document(bytes, "doc");
  Value panels = Value::array();
  for (const Value& panel : doc.at("panels").as_array()) {
    Value edited = Value::object();
    for (const auto& [k, v] : panel.as_object())
      edited.set(k, k == "rate_pct" ? Value(v.as_number() + 1) : v);
    panels.push_back(std::move(edited));
  }
  Value edited = Value::object();
  for (const auto& [k, v] : doc.as_object())
    edited.set(k, k == "panels" ? panels : v);
  ShardableBench folder = make_shardable_bench(doc);
  EXPECT_NE(
      fold_refusal(folder,
                   sim::partial_codec(sim::PartialFormat::Json).encode(edited),
                   0, 2)
          .find("panel layout"),
      std::string::npos);
}

TEST_F(FoldPath, RefusesAnUnfinishedCheckpoint) {
  Argv argv({"--nodes=40", "--runs=4", "--rounds=2"});
  const auto fig3 = make_fig3_driver(argv.argc(), argv.argv()).panels;
  const std::string unfinished =
      run_window(fig3, 0, 0, sim::PartialFormat::Binary, /*stop_after=*/2);
  const Value doc = sim::decode_partial_document(unfinished, "unfinished");
  ASSERT_EQ(doc.at("run_end").as_size(), 2u);
  ASSERT_EQ(doc.at("window_end").as_size(), 4u);

  ShardableBench folder = make_shardable_bench(doc);
  EXPECT_NE(fold_refusal(folder, unfinished, 0, 4).find("covers runs [0, 2)"),
            std::string::npos);
  EXPECT_NE(fold_refusal(folder, unfinished, 0, 2), "");
  // Nothing folded, so there is no series to write.
  EXPECT_THROW(folder.write_series(path("none.json")), std::runtime_error);
  EXPECT_THROW(folder.folded_document(), std::runtime_error);
}

using LongHorizonStore = FoldPath;

TEST_F(LongHorizonStore, KeyCoversAlphaBetaAndTopFraction) {
  Argv base({"--nodes=200", "--runs=1", "--rounds=4"});
  const auto base_driver =
      make_longhorizon_driver(base.argc(), base.argv()).panels;
  const std::string base_id = store_key_of(base_driver.header, 0, 1).id();
  for (const std::string flag :
       {"--alpha=0.6", "--beta=0.1", "--top-fraction=0.05"}) {
    SCOPED_TRACE(flag);
    Argv other({"--nodes=200", "--runs=1", "--rounds=4", flag});
    const auto driver =
        make_longhorizon_driver(other.argc(), other.argv()).panels;
    EXPECT_NE(store_key_of(driver.header, 0, 1).id(), base_id);
  }
}

TEST_F(LongHorizonStore, AnotherAlphaIsAStoreMiss) {
  Argv first({"--nodes=200", "--runs=1", "--rounds=4"});
  Argv second({"--nodes=200", "--runs=1", "--rounds=4", "--alpha=0.6"});
  const auto a = make_longhorizon_driver(first.argc(), first.argv()).panels;
  const auto b = make_longhorizon_driver(second.argc(), second.argv()).panels;
  ShardKnobs knobs;
  knobs.runs = 1;
  knobs.store_dir = path("store");
  const auto run = [&](const PanelDriver<sim::LongHorizonPartial>& d) {
    return run_sharded_panels<sim::LongHorizonPartial>(
        knobs, d.panel_count, d.header, d.panel_meta, d.run_panel);
  };
  EXPECT_FALSE(run(a).store_hit);
  EXPECT_FALSE(run(b).store_hit);  // the alpha=0.3 entry must not serve it
  EXPECT_TRUE(run(a).store_hit);
  EXPECT_TRUE(run(b).store_hit);
}

}  // namespace
}  // namespace roleshare::bench
