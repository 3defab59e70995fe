// RoleShare benchmark harness; perfbench/run.py drives it.
//
//   rs_perfbench job --workload=W --seed=S --run-dir=D --result=F
//       [--reference=1]
//     Runs one job of workload W (its panels x runs x rounds) and writes
//     its timings, orchestration counts and series digests to F as JSON.
//     --reference=1 takes the serial single-process path instead (one
//     thread, no orchestration) — the path the recorded digests come from.
//
//   rs_perfbench_trace trace --workload=W --seed=S --run-dir=D --result=F
//       --trace-out=T
//     Runs W's job untraced, then traced, then the layer probes
//     (probes.hpp), and writes every span as Chrome trace-event JSON to T.
//
//   rs_perfbench fingerprint
//     Prints the compiler and build flags as JSON.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

using namespace roleshare;
using perfbench::JobResult;

namespace {

util::json::Value stats_json(const orch::JobStats& s) {
  util::json::Value v = util::json::Value::object();
  v.set("windows", s.windows);
  v.set("folded", s.folded);
  v.set("retries", s.retries);
  v.set("store_hits", s.store_hits);
  v.set("worker_deaths", s.worker_deaths);
  v.set("respawns", s.respawns);
  v.set("duplicate_results", s.duplicate_results);
  v.set("checkpoints", s.checkpoints);
  return v;
}

util::json::Value job_json(const JobResult& r) {
  util::json::Value v = util::json::Value::object();
  v.set("workload", r.workload);
  v.set("panels", r.panels);
  v.set("rounds", r.rounds);
  v.set("setup_s", r.setup_s);
  v.set("wall_s", r.wall_s);
  v.set("cpu_s", r.cpu_s);
  v.set("setup_copy_cpu_s", r.setup_copy_cpu_s);
  v.set("peak_rss_mb", r.peak_rss_mb);
  v.set("parallelism", r.parallelism);
  v.set("orchestrated", r.orchestrated);
  v.set("digest", r.digest);
  util::json::Value panels = util::json::Value::array();
  for (const std::string& d : r.panel_digests) panels.push_back(d);
  v.set("panel_digests", std::move(panels));
  util::json::Value samples = util::json::Value::array();
  for (const perfbench::TimingSample& t : r.panel_samples) {
    util::json::Value sample = util::json::Value::object();
    sample.set("rounds", t.rounds);
    sample.set("wall_s", t.wall_s);
    sample.set("cpu_s", t.cpu_s);
    samples.push_back(std::move(sample));
  }
  v.set("panel_samples", std::move(samples));
  v.set("stats", stats_json(r.stats));
  return v;
}

perfbench::JobOptions job_options(int argc, char** argv) {
  perfbench::JobOptions o;
  o.workload = bench::arg_string(argc, argv, "workload", "");
  o.seed = static_cast<std::uint64_t>(bench::arg_int(argc, argv, "seed", 0));
  o.run_dir = bench::arg_string(argc, argv, "run-dir", "");
  o.reference = bench::arg_int(argc, argv, "reference", 0) != 0;
  if (o.workload.empty() || o.run_dir.empty())
    throw std::invalid_argument("--workload and --run-dir are required");
  return o;
}

void write_result(int argc, char** argv, const util::json::Value& v) {
  const std::string path = bench::arg_string(argc, argv, "result", "");
  if (path.empty()) throw std::invalid_argument("--result is required");
  bench::write_text_file(path, v.dump() + "\n");
}

int job_mode(int argc, char** argv) {
  const JobResult r = perfbench::run_job(job_options(argc, argv));
  write_result(argc, argv, job_json(r));
  return 0;
}

/// Splices span side files (bare comma-separated events) into `out`.
void splice(std::FILE* out, const std::vector<std::string>& files) {
  for (const std::string& path : files) {
    const std::string events = bench::read_text_file(path);
    if (!events.empty()) std::fprintf(out, ",\n%s", events.c_str());
  }
}

int trace_mode(int argc, char** argv) {
#ifndef RS_PERFBENCH_TRACE
  throw std::invalid_argument("trace mode needs the rs_perfbench_trace build");
#endif
  perfbench::JobOptions o = job_options(argc, argv);
  const std::string trace_out = bench::arg_string(argc, argv, "trace-out", "");
  if (trace_out.empty()) throw std::invalid_argument("--trace-out is required");
  const std::string run_dir = o.run_dir;

  // The same job untraced, then traced: their wall ratio is the
  // tracing overhead.
  o.run_dir = run_dir + "/untraced";
  const JobResult plain = perfbench::run_job(o);

  perfbench::Tracer& tracer = perfbench::Tracer::instance();
  tracer.enable(perfbench::mono_ns());
  o.run_dir = run_dir + "/traced";
  const JobResult traced = perfbench::run_job(o);

  // Orchestration and codec/store numbers come from the Fig-7 job: this
  // one when it is the workload, otherwise a probe run of it.
  JobResult orch_job = traced;
  std::string orch_dir = o.run_dir;
  if (!traced.orchestrated) {
    perfbench::Span span("probe.orch");
    perfbench::JobOptions p = o;
    p.workload = "fig7_orch";
    p.run_dir = orch_dir = run_dir + "/probe_orch";
    orch_job = perfbench::run_job(p);
  }
  perfbench::probe_dense(o.seed);
  perfbench::probe_sparse(o.seed);
  perfbench::probe_reward(o.seed);
  perfbench::probe_codec_store(orch_dir + "/spool", run_dir + "/probe_store");
  tracer.disable();

  std::FILE* out = std::fopen(trace_out.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + trace_out);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
               "\"args\":{\"name\":\"perfbench %s\"}}",
               static_cast<int>(::getpid()), o.workload.c_str());
  tracer.write_events(out, true);
  splice(out, traced.side_files);
  if (!traced.orchestrated) splice(out, orch_job.side_files);
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0)
    throw std::runtime_error("cannot write " + trace_out);

  util::json::Value v = job_json(traced);
  v.set("untraced_wall_s", plain.wall_s);
  v.set("untraced_digest", plain.digest);
  v.set("orch_stats", stats_json(orch_job.stats));
  write_result(argc, argv, v);
  return 0;
}

int fingerprint_mode() {
  util::json::Value v = util::json::Value::object();
#if defined(__clang__)
  v.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  v.set("compiler", std::string("gcc ") + __VERSION__);
#endif
  v.set("build_type", std::string(RS_PERFBENCH_BUILD_TYPE));
#ifdef __OPTIMIZE__
  v.set("optimized", true);
#else
  v.set("optimized", false);
#endif
#ifdef NDEBUG
  v.set("ndebug", true);
#else
  v.set("ndebug", false);
#endif
  std::printf("%s\n", v.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "job") return job_mode(argc, argv);
    if (mode == "trace") return trace_mode(argc, argv);
    if (mode == "fingerprint") return fingerprint_mode();
    std::fprintf(stderr, "usage: %s job|trace|fingerprint --key=value...\n",
                 argv[0]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
