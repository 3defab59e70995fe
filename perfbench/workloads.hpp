// The three benchmark workloads, each one job driven through the same
// public entry points users run: the bench/bench_drivers.hpp factories
// (which own every seed and config of the figure benches),
// bench::run_sharded_panels for the single-process path and
// orch::run_coordinator for the orchestrated one.
//
// The benchmark seed picks WHICH runs a job simulates: run k of an
// experiment always draws from root.split(k), so a job of `runs` runs
// executes the global run window [seed*runs, seed*runs + runs). The
// drivers keep their own root seeds; nothing is copied out of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "orch/coordinator.hpp"

namespace perfbench {

struct WorkloadDef {
  const char* name;
  const char* bench;    // bench_drivers.hpp factory
  std::size_t nodes;
  std::size_t runs;     // runs per panel in one job
  std::size_t rounds;   // rounds per run
  std::size_t threads;  // run fan-out of an in-process job (at most nproc)
  bool orchestrated;    // fig7_orch: coordinator + 3 worker agents
};

const WorkloadDef& find_workload(const std::string& name);

struct JobOptions {
  std::string workload;
  std::uint64_t seed = 0;
  std::string run_dir;     // scratch directory for series/spool/store
  bool reference = false;  // serial single-process path (threads=1)
};

/// One timed stretch of a job: rounds completed, wall and CPU seconds.
struct TimingSample {
  std::size_t rounds = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

struct JobResult {
  std::string workload;
  std::size_t panels = 0;
  std::size_t rounds = 0;          // panels x runs x rounds completed
  double setup_s = 0.0;            // start -> first round can run
  double wall_s = 0.0;             // job wall time (rounds_per_s base)
  double cpu_s = 0.0;              // process + reaped children CPU,
                                   // without setup_copy_cpu_s
  double setup_copy_cpu_s = 0.0;   // CPU of the objects built only to
                                   // time setup (in-process jobs)
  double peak_rss_mb = 0.0;        // max over the process and children
  std::size_t parallelism = 1;     // threads or worker processes
  std::vector<TimingSample> panel_samples;  // in-process: one per panel
  std::string digest;              // SHA-256 of the series document
  std::vector<std::string> panel_digests;
  bool orchestrated = false;
  roleshare::orch::JobStats stats;
  std::vector<std::string> side_files;  // worker span files (traced)
};

JobResult run_job(const JobOptions& options);

}  // namespace perfbench
