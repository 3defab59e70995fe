#include "workloads.hpp"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench_drivers.hpp"
#include "crypto/sha256.hpp"
#include "orch/spawn.hpp"
#include "orch/worker.hpp"
#include "sim/longhorizon.hpp"
#include "sim/network.hpp"
#include "sim/sampled_round.hpp"
#include "trace.hpp"
#include "util/hex.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace roleshare;

const WorkloadDef& find_workload(const std::string& name) {
  // Sizes: the Fig-3 panels at 500 nodes keep a job near 3 s on 4 cores;
  // the long-horizon job spends about half its time building 200k-node
  // networks; Fig 7 keeps the driver's 30 runs, so the orchestrated job
  // has 6 windows of 5 runs. The long-horizon runs fan out over 2
  // threads: on a shared 4-vCPU host its jobs vary about a third more
  // from one to the next with 4 (the Fig-3 jobs vary less with 4).
  static const WorkloadDef kWorkloads[] = {
      {"fig3_dense", "fig3_defection", 500, 4, 10, 4, false},
      {"longhorizon_sparse", "fig_longhorizon", 200'000, 4, 2000, 2, false},
      {"fig7_orch", "fig7_reward_comparison", 100'000, 30, 10, 1, true},
  };
  for (const WorkloadDef& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

namespace {

/// Worker agents of the orchestrated workload.
constexpr std::size_t kOrchWorkers = 3;

/// Threads an in-process workload fans its runs out over.
std::size_t fanout_threads(const WorkloadDef& def) {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                 def.threads);
}

double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    total += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
             static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) /
                 1e6;
  }
  return total;
}

/// Peak resident set of this process and its reaped children. The own
/// peak comes from VmHWM, which belongs to the current memory map:
/// RUSAGE_SELF's ru_maxrss would carry over the high-water mark of the
/// image that exec'd this one (the Python driver).
double peak_rss_mb() {
  long kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      kb = std::stol(line.substr(6));
      break;
    }
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  kb = std::max(kb, children.ru_maxrss);
  return static_cast<double>(kb) / 1024.0;
}

std::string sha256_hex(std::string_view bytes) {
  const auto digest = crypto::sha256(bytes);
  return util::to_hex(digest);
}

/// Owned argv for the driver factories ("--name=value" knobs).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    for (std::string& a : args_) ptrs_.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

/// The global run window a seed selects: [offset, offset + runs).
std::size_t run_offset(const WorkloadDef& def, std::uint64_t seed) {
  return static_cast<std::size_t>(seed % 65536) * def.runs;
}

Argv driver_argv(const WorkloadDef& def, std::uint64_t seed,
                 std::size_t threads) {
  return Argv({"perfbench", "--nodes=" + std::to_string(def.nodes),
               "--runs=" + std::to_string(run_offset(def, seed) + def.runs),
               "--rounds=" + std::to_string(def.rounds),
               "--threads=" + std::to_string(threads)});
}

/// Calls fn with the workload's PanelDriver, built by its factory.
template <typename Fn>
auto with_driver(const WorkloadDef& def, Argv& argv, Fn&& fn) {
  const std::string name = def.bench;
  if (name == "fig3_defection")
    return fn(bench::make_fig3_driver(argv.argc(), argv.argv()).panels);
  if (name == "fig_longhorizon")
    return fn(bench::make_longhorizon_driver(argv.argc(), argv.argv()).panels);
  return fn(bench::make_fig7_driver(argv.argc(), argv.argv()).panels);
}

/// Re-expresses a partial of global runs [offset + b, offset + e) as runs
/// [b, e) of a `runs`-run experiment, so the job's shard documents,
/// checkpoints and coordinator windows all speak the job's own [0, runs).
template <typename P>
P relabel(const P& partial, std::size_t offset) {
  // util::json objects append on set(), so rebuild both levels.
  const util::json::Value v = partial.to_json();
  util::json::Value envelope = util::json::Value::object();
  for (const auto& [key, value] : v.at("envelope").as_object()) {
    const bool run_index = key == "run_begin" || key == "run_end" ||
                           key == "window_end" || key == "runs_total";
    envelope.set(key, run_index ? util::json::Value(value.as_size() - offset)
                                : value);
  }
  util::json::Value shifted = util::json::Value::object();
  for (const auto& [key, value] : v.as_object())
    shifted.set(key, key == "envelope" ? envelope : value);
  return P::from_json(shifted);
}

/// Maps the job's run range [0, runs) onto the seed's global window and
/// wraps every panel call in a span.
template <typename P>
bench::PanelDriver<P> shift_runs(bench::PanelDriver<P> driver,
                                 std::size_t offset, std::size_t runs) {
  auto inner = driver.run_panel;
  driver.run_panel = [inner, offset](std::size_t panel, sim::RunShard sub) {
    Span span("sim.run_panel");
    span.count("panel", static_cast<double>(panel));
    span.count("runs", static_cast<double>(sub.end - sub.begin));
    return relabel(
        inner(panel, sim::RunShard{sub.begin + offset, sub.end + offset}),
        offset);
  };
  driver.runs = runs;
  return driver;
}

/// The first-run objects a job needs before its first round: the
/// workload-sized Network and, on the sparse path, its SparseRoundContext.
void build_first_network(const WorkloadDef& def, std::uint64_t seed) {
  if (def.orchestrated) return;  // the reward experiment has no Network
  sim::NetworkConfig nc;
  nc.node_count = def.nodes;
  nc.seed = sim::seed_for_run(seed, run_offset(def, seed));
  const bool sparse = std::string(def.bench) == "fig_longhorizon";
  if (sparse) {
    const sim::LongHorizonConfig lh;
    nc.fan_out = lh.fan_out;
    nc.stake_lo = lh.stake_lo;
    nc.stake_hi = lh.stake_hi;
    nc.defection_rate = lh.defection_rate;
    nc.delay_lo_ms = lh.delay_lo_ms;
    nc.delay_hi_ms = lh.delay_hi_ms;
  }
  Span net_span("setup.network");
  const sim::Network net(nc);
  net_span.end();
  if (sparse) {
    Span ctx_span("setup.sparse_ctx");
    sim::SparseRoundContext ctx;
    ctx.init_from(net);
  }
}

void digest_series(const std::string& path, JobResult& result) {
  const std::string bytes = bench::read_text_file(path);
  result.digest = sha256_hex(bytes);
  const util::json::Value doc = util::json::parse(bytes);
  result.panel_digests.clear();
  for (const util::json::Value& panel : doc.at("panels").as_array())
    result.panel_digests.push_back(
        sha256_hex(panel.at("series").dump()).substr(0, 16));
}

template <typename P>
void run_in_process(const WorkloadDef& def, bench::PanelDriver<P> driver,
                    const JobOptions& options, std::size_t threads,
                    std::int64_t t0, JobResult& result) {
  // The pool and network are built once more only to time setup; their
  // CPU is not the job's work, so it is kept out of cpu_s.
  const double copy_cpu0 = cpu_seconds();
  {
    Span pool_span("setup.pool");
    util::ThreadPool pool(threads);
  }
  build_first_network(def, options.seed);
  result.setup_s = static_cast<double>(mono_ns() - t0) / 1e9;
  result.setup_copy_cpu_s = cpu_seconds() - copy_cpu0;

  // Each panel call is one timing sample. Panels run one after another,
  // so the process's CPU over a call is that panel's.
  auto inner = driver.run_panel;
  driver.run_panel = [&def, &result, inner](std::size_t panel,
                                            sim::RunShard sub) {
    const double cpu0 = cpu_seconds();
    const std::int64_t wall0 = mono_ns();
    P part = inner(panel, sub);
    result.panel_samples.push_back(
        {(sub.end - sub.begin) * def.rounds,
         static_cast<double>(mono_ns() - wall0) / 1e9,
         cpu_seconds() - cpu0});
    return part;
  };

  const std::int64_t t1 = mono_ns();
  bench::ShardKnobs knobs;
  knobs.runs = driver.runs;
  const bench::ShardExecution<P> exec = bench::run_sharded_panels<P>(
      knobs, driver.panel_count, driver.header, driver.panel_meta,
      driver.run_panel);
  Span series_span("sim.series");
  util::json::Value panels = util::json::Value::array();
  for (std::size_t i = 0; i < driver.panel_count; ++i) {
    util::json::Value v = driver.panel_meta(i);
    v.set("series", driver.series_json(exec.partials[i]));
    panels.push_back(std::move(v));
  }
  const std::string path = options.run_dir + "/series.json";
  bench::write_series_document(path, driver.header, 0, driver.runs,
                               std::move(panels));
  digest_series(path, result);
  series_span.end();
  result.wall_s = static_cast<double>(mono_ns() - t1) / 1e9;
  result.parallelism = threads;
}

/// The Fig-7 job as an orchestrated run: 3 forked worker agents, binary
/// partials, a checkpoint after every run, worker 0 killed after 3 runs
/// (mid-window: its replacement resumes from the checkpoint) and window
/// 0 re-issued after it folds (served from the fresh result store).
template <typename P>
void run_orchestrated(const WorkloadDef& def, bench::PanelDriver<P> driver,
                      const JobOptions& options, Argv& argv,
                      std::int64_t t0, JobResult& result) {
  namespace fs = std::filesystem;
  const std::string spool = options.run_dir + "/spool";
  const std::string store = options.run_dir + "/store";
  fs::remove_all(spool);
  fs::remove_all(store);
  fs::create_directories(spool);

  // Earliest window start across the fleet, written by the workers.
  void* shared = ::mmap(nullptr, sizeof(std::atomic<std::int64_t>),
                        PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                        -1, 0);
  if (shared == MAP_FAILED) throw std::runtime_error("mmap failed");
  auto* first_window = new (shared) std::atomic<std::int64_t>(0);

  const std::size_t offset = run_offset(def, options.seed);
  const std::uint64_t job_span = Tracer::instance().current();
  bench::ShardableBench shardable = bench::make_shardable_bench(driver);

  orch::JobConfig job;
  job.runs = shardable.runs;
  job.window = std::max<std::size_t>(
      1, (job.runs + 2 * kOrchWorkers - 1) / (2 * kOrchWorkers));
  job.workers = kOrchWorkers;
  job.socket_path = spool + "/orch.sock";
  job.spool_dir = spool;
  job.reissue_window = 0;

  const orch::SpawnWorkerFn spawn_worker = [&](std::uint32_t worker_id) {
    const std::int64_t spawned_at = mono_ns();
    return orch::spawn_child([&, worker_id, spawned_at]() {
      Tracer::instance().reset_for_child();
      const std::string side_file =
          spool + "/spans." + std::to_string(::getpid()) + ".json";
      bool first = true;
      bench::ShardableBench mine = with_driver(def, argv, [&](auto d) {
        return bench::make_shardable_bench(shift_runs(d, offset, def.runs));
      });
      orch::WorkerOptions worker;
      worker.socket_path = job.socket_path;
      worker.worker_id = worker_id;
      if (worker_id == 0) worker.kill_after_runs = 3;
      orch::WindowRunner runner;
      runner.config_echo = mine.config_echo;
      runner.run = [&](const orch::WindowAssignment& assignment,
                       std::size_t stop_after,
                       const std::function<void(std::size_t)>& on_checkpoint) {
        const std::int64_t now = mono_ns();
        std::int64_t expected = 0;
        first_window->compare_exchange_strong(expected, now);
        if (first && Tracer::instance().enabled()) {
          Tracer::instance().record("orch.spawn", job_span, spawned_at, now);
        }
        first = false;
        orch::WindowOutcome outcome;
        {
          Span window("orch.window", job_span);
          window.count("window", assignment.window_index);
          window.count("attempt", assignment.attempt);
          bench::ShardKnobs knobs;
          knobs.runs = mine.runs;
          knobs.shard = sim::RunShard{assignment.run_begin, assignment.run_end};
          knobs.partial_out = assignment.spool_path;
          knobs.partial_in = assignment.resume_path;
          knobs.checkpoint_every = 1;
          knobs.stop_after = stop_after;
          knobs.format = sim::PartialFormat::Binary;
          knobs.store_dir = store;
          knobs.on_checkpoint = on_checkpoint;
          outcome = mine.run_window(knobs);
          window.count("executed", static_cast<double>(outcome.executed));
          window.count("store_hit", outcome.store_hit ? 1.0 : 0.0);
          window.count("partial_bytes",
                       static_cast<double>(outcome.partial_bytes));
        }
        if (Tracer::instance().enabled())
          Tracer::instance().write_side_file(side_file);
        return outcome;
      };
      return orch::run_worker(worker, runner);
    });
  };

  orch::JobCallbacks callbacks;
  callbacks.config_echo = shardable.config_echo;
  callbacks.fold = [&](const std::string& bytes, std::size_t begin,
                       std::size_t end, const std::string& origin) {
    Span fold("orch.fold");
    fold.count("bytes", static_cast<double>(bytes.size()));
    shardable.fold(bytes, begin, end, origin);
  };
  const std::string series_path = options.run_dir + "/series.json";
  callbacks.finalize = [&]() {
    Span series("sim.series");
    shardable.write_series(series_path);
  };

  {
    Span coordinator("orch.run_coordinator");
    result.stats = orch::run_coordinator(job, callbacks, spawn_worker);
    coordinator.count("retries", static_cast<double>(result.stats.retries));
    coordinator.count("worker_deaths",
                      static_cast<double>(result.stats.worker_deaths));
    coordinator.count("checkpoints",
                      static_cast<double>(result.stats.checkpoints));
    coordinator.count("store_hits",
                      static_cast<double>(result.stats.store_hits));
    coordinator.count("workers", static_cast<double>(kOrchWorkers));
  }
  const std::int64_t t_first = first_window->load();
  ::munmap(shared, sizeof(std::atomic<std::int64_t>));
  if (t_first == 0) throw std::runtime_error("no worker ever ran a window");
  result.setup_s = static_cast<double>(t_first - t0) / 1e9;
  digest_series(series_path, result);
  result.wall_s = static_cast<double>(mono_ns() - t0) / 1e9;
  result.parallelism = kOrchWorkers + 1;
  for (const auto& entry : fs::directory_iterator(spool)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("spans.", 0) == 0)
      result.side_files.push_back(entry.path().string());
  }
}

}  // namespace

JobResult run_job(const JobOptions& options) {
  const WorkloadDef& def = find_workload(options.workload);
  std::filesystem::create_directories(options.run_dir);
  JobResult result;
  result.workload = def.name;
  result.orchestrated = def.orchestrated && !options.reference;

  const std::size_t threads =
      options.reference || def.orchestrated ? 1 : fanout_threads(def);
  Argv argv = driver_argv(def, options.seed, threads);
  const double cpu0 = cpu_seconds();
  Span job("job");
  job.count("seed", static_cast<double>(options.seed));
  const std::int64_t t0 = mono_ns();
  Span driver_span("setup.driver");
  with_driver(def, argv, [&](auto raw) {
    auto driver = shift_runs(raw, run_offset(def, options.seed), def.runs);
    driver_span.end();
    result.panels = driver.panel_count;
    if (result.orchestrated) {
      run_orchestrated(def, driver, options, argv, t0, result);
    } else {
      run_in_process(def, driver, options, threads, t0, result);
    }
    return 0;
  });
  result.rounds = result.panels * def.runs * def.rounds;
  result.cpu_s = cpu_seconds() - cpu0 - result.setup_copy_cpu_s;
  result.peak_rss_mb = peak_rss_mb();
  job.count("rounds", static_cast<double>(result.rounds));
  job.count("parallelism", static_cast<double>(result.parallelism));
  job.count("cpu_s", result.cpu_s);
  return result;
}

}  // namespace perfbench
