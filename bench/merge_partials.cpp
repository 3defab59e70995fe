// merge_partials — folds the per-shard partials of a sharded figure sweep
// back into the figure (the reduce step of the run-range sharding
// workflow; see DESIGN.md "Accumulators & sharding").
//
//   $ ./fig3_defection --runs=8 --run-begin=0 --run-end=4 --partial-out=s0.json
//   $ ./fig3_defection --runs=8 --run-begin=4 --run-end=8 --partial-out=s1.json
//   $ ./merge_partials --series-out=merged.json s0.json s1.json
//
// There is no merge logic here: the fold is the one in bench_drivers.hpp
// that the orchestrate coordinator uses. The bench that wrote the shards
// is rebuilt from the first shard's own header echo
// (make_shardable_bench(doc)); every shard — the first included — is then
// folded through it, and the fold refuses any document whose config
// echo, panel layout or window does not match, naming the file. Shards
// from different benches are refused up front. Shards may be listed in
// any order; before any fold the whole set is validated to tile the full
// run range [0, runs) exactly — no overlaps, no gaps, no unfinished
// checkpoints (a partial whose run_end < window_end must be resumed via
// the bench's --partial-in first). That tiling is the contract that makes
// an exact-backend merge bit-identical to a single-process execution (the
// CI smoke jobs diff merged.json against an unsharded --series-out byte
// for byte). Streaming-backend partials merge within the documented
// reservoir error bound instead.
//
// Shard files are read through sim::decode_partial_document, so JSON and
// framed-binary shards (bench --format=bin) interoperate freely — the
// format is auto-detected per file from its leading bytes and printed
// with the byte size. --format={auto,json,bin} (default auto) makes an
// explicit choice a *requirement* on every input: a pipeline that
// intends binary shards fails loudly when a text one sneaks in. With
// --store=DIR the merged full-range partial is additionally published
// to the content-addressed sim::ResultStore, so a later bench run over
// the whole window is a cache hit.
//
// Exit codes: 0 on success, 1 on malformed/incompatible/missing shards.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_drivers.hpp"
#include "bench_util.hpp"
#include "shard_util.hpp"
#include "sim/partial_codec.hpp"
#include "sim/result_store.hpp"
#include "util/json.hpp"

using namespace roleshare;

namespace {

struct ShardFile {
  std::string path;
  std::string bytes;
  util::json::Value doc;
  std::size_t run_begin() const { return doc.at("run_begin").as_size(); }
  std::size_t run_end() const { return doc.at("run_end").as_size(); }
};

}  // namespace

int main(int argc, char** argv) {
  const std::string series_out =
      bench::arg_string(argc, argv, "series-out", "MERGED_series.json");
  const std::string format_arg =
      bench::arg_string(argc, argv, "format", "auto");
  const std::string store_dir = bench::arg_string(argc, argv, "store", "");
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) paths.push_back(arg);
  }

  bench::print_header("merge_partials", "fold shard partials into a figure");
  if (paths.size() < 2) {
    std::fprintf(stderr,
                 "usage: merge_partials [--series-out=FILE] "
                 "[--format={auto,json,bin}] [--store=DIR] "
                 "shard0 shard1 ...\n"
                 "(need at least two shard partial files; shard formats "
                 "auto-detect unless --format pins one)\n");
    return 1;
  }

  try {
    // --format=auto accepts any mix; an explicit choice is a requirement
    // on every input file. The store publication (if any) reuses the
    // pinned format, defaulting to the compact binary form under auto.
    std::optional<sim::PartialFormat> required_format;
    if (format_arg != "auto")
      required_format = sim::parse_partial_format(format_arg);
    const sim::PartialFormat publish_format =
        required_format.value_or(sim::PartialFormat::Binary);

    std::vector<ShardFile> files;
    for (const std::string& path : paths) {
      std::string bytes = bench::read_text_file(path);
      const sim::PartialFormat format =
          sim::detect_partial_format(bytes, path);
      if (required_format && format != *required_format) {
        throw std::invalid_argument(
            "shard " + path + " is " + sim::to_string(format) +
            " but --format=" + format_arg + " requires every shard to be " +
            sim::to_string(*required_format));
      }
      std::printf("[shard] %s: %zu bytes, %s\n", path.c_str(), bytes.size(),
                  sim::to_string(format));
      util::json::Value doc = sim::decode_partial_document(bytes, path);
      files.push_back({path, std::move(bytes), std::move(doc)});
    }

    // Every shard must come from the same bench; the fold then checks
    // every other header field against the bench rebuilt from the first.
    const std::string bench_name = files.front().doc.at("bench").as_string();
    for (const ShardFile& file : files) {
      const std::string& file_bench = file.doc.at("bench").as_string();
      if (file_bench != bench_name) {
        throw std::invalid_argument(
            "refusing to merge across benches: " + files.front().path +
            " is \"" + bench_name + "\", " + file.path + " is \"" +
            file_bench + "\"");
      }
    }

    std::sort(files.begin(), files.end(),
              [](const ShardFile& a, const ShardFile& b) {
                return a.run_begin() < b.run_begin();
              });
    const std::size_t runs_total = files.front().doc.at("runs").as_size();

    // Pre-flight: the shard set must tile [0, runs) exactly — overlaps,
    // gaps, missing shards and unfinished checkpoints are all named
    // before any fold work starts.
    std::vector<sim::ShardWindow> windows;
    for (const ShardFile& file : files) {
      windows.push_back({file.run_begin(), file.run_end(),
                         file.doc.at("window_end").as_size(), file.path});
    }
    sim::check_shard_tiling(std::move(windows), runs_total);

    bench::ShardableBench shardable =
        bench::make_shardable_bench(files.front().doc);
    std::printf("merging %zu %s shards, runs [0, %zu), agg=%s\n",
                files.size(), bench_name.c_str(), runs_total,
                files.front().doc.at("agg").as_string().c_str());
    for (const ShardFile& file : files)
      shardable.fold(file.bytes, file.run_begin(), file.run_end(),
                     "shard " + file.path);

    if (!store_dir.empty()) {
      const std::string bytes = sim::partial_codec(publish_format)
                                    .encode(shardable.folded_document());
      const std::string path = sim::ResultStore(store_dir).insert(
          bench::store_key_of(util::json::parse(shardable.config_echo), 0,
                              runs_total),
          bytes);
      std::printf("[store] published merged runs [0, %zu) to %s (%zu bytes, "
                  "%s)\n",
                  runs_total, path.c_str(), bytes.size(),
                  sim::to_string(publish_format));
    }

    shardable.write_series(series_out);
    const auto& panels = files.front().doc.at("panels").as_array();
    for (std::size_t i = 0; i < panels.size(); ++i) {
      std::printf("panel %zu %s: runs [0, %zu) folded\n", i + 1,
                  bench::panel_meta_of(panels[i]).dump().c_str(),
                  runs_total);
    }
    std::printf("\n[series] wrote %s\n", series_out.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ERROR: %s\n", e.what());
    return 1;
  }
  return 0;
}
