// dump_partial — prints shard partial files as JSON text, one line per
// file, in argument order: the canonical util::json document every
// consumer (resume, merge, store) decodes from the RSBP frame.
//
//   $ ./dump_partial s0.partial s1.partial | python3 -m json.tool --json-lines
//
// Exit codes: 0 when every file decodes, 1 at the first file that is
// missing or not a well-formed RSBP frame (the error names the file).
#include <cstdio>
#include <exception>
#include <string>

#include "bench_util.hpp"
#include "sim/partial_codec.hpp"

using namespace roleshare;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: dump_partial FILE...\n");
    return 1;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    try {
      const std::string json =
          sim::decode_partial_document(bench::read_text_file(path), path)
              .dump();
      std::printf("%s\n", json.c_str());
    } catch (const std::exception& e) {
      std::fflush(stdout);
      std::fprintf(stderr, "ERROR: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
