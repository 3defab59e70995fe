// dump_partial — the tool that prints shard partials as JSON. Under
// test: the built binary prints, one line per file in argument order,
// exactly the canonical document decode_partial_document yields, and
// exits 1 naming the file when one is not an RSBP frame.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.hpp"
#include "sim/defection_experiment.hpp"
#include "sim/partial_codec.hpp"

namespace roleshare::bench {
namespace {

namespace fs = std::filesystem;

struct ToolRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr, interleaved
};

ToolRun run_dump_partial(const std::string& args) {
  const std::string command =
      "'" + std::string(RS_DUMP_PARTIAL_BIN) + "' " + args + " 2>&1";
  ToolRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
    run.output.append(buffer, n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

class DumpPartial : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rs_dump_partial_" +
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

  fs::path dir_;
};

util::json::Value real_partial(std::uint64_t seed) {
  sim::DefectionExperimentConfig config;
  config.network.node_count = 40;
  config.network.seed = seed;
  config.network.defection_rate = 0.2;
  config.runs = 2;
  config.rounds = 2;
  return sim::run_defection_partial(config).to_json();
}

TEST_F(DumpPartial, PrintsTheCanonicalDocumentOfEachFile) {
  std::string want;
  for (const std::uint64_t seed : {11u, 12u}) {
    const std::string bytes =
        sim::encode_partial_document(real_partial(seed));
    const std::string file = path(std::to_string(seed) + ".partial");
    write_text_file(file, bytes);
    want += sim::decode_partial_document(bytes, file).dump() + "\n";
  }
  const ToolRun run =
      run_dump_partial(path("11.partial") + " " + path("12.partial"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output, want);
}

TEST_F(DumpPartial, ExitsOneNamingAFileThatIsNotRsbp) {
  const std::string good = path("good.partial");
  const std::string json_text = path("old.json");
  write_text_file(good, sim::encode_partial_document(real_partial(11)));
  write_text_file(json_text, real_partial(11).dump() + "\n");
  const ToolRun run = run_dump_partial(good + " " + json_text);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find(json_text), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("bad magic"), std::string::npos) << run.output;
  EXPECT_EQ(run_dump_partial("").exit_code, 1);  // no files: usage
}

}  // namespace
}  // namespace roleshare::bench
