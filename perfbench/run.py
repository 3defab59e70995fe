#!/usr/bin/env python3
"""RoleShare benchmark: one command for the three workloads.

    python3 perfbench/run.py --workload fig3_dense --seed 3 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (the harness plus the
library from src/) into .bench_build/perfbench, then:

  --trace 0  runs jobs of the workload back to back for --seconds, each in
             its own process under a watchdog, and prints the end-to-end
             metrics (BENCHMARK.json "end_to_end").
  --trace 1  runs the workload's job untraced and traced, then the layer
             probes, writes a Chrome trace-event file (opens in Perfetto)
             and prints the per-layer metrics (BENCHMARK.json "per_layer").

Every job's series document is checked panel by panel against the digest
recorded for the seed (perfbench/reference_digests.json, produced by the
serial single-process path); for an unrecorded seed the digest is
reported and every job of the run must agree with the first. One
operation is one panel's series; a panel fails on a digest mismatch, when
its job exits non-zero, when the watchdog kills the job, or (fig7_orch)
when the job's orchestration counts differ from EXPECTED_STATS.

The last line of stdout is the result object; everything else goes to
stderr. A full report (host and build fingerprint, per-job records,
percentile labels) is written to .bench_build/results/.

Without --workload the three workloads run in turn, one result line each.

    python3 perfbench/run.py --record-digests 0-31   # rewrite the references
    python3 -m unittest discover -s perfbench -p 'test_*.py'   # self-tests
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNS_DIR = os.path.join(".bench_build", "runs")
RESULTS_DIR = os.path.join(".bench_build", "results")
DIGESTS = os.path.join(HERE, "reference_digests.json")

WORKLOADS = ("fig3_dense", "longhorizon_sparse", "fig7_orch")
PANELS = {"fig3_dense": 6, "longhorizon_sparse": 3, "fig7_orch": 6}
# The orchestrated job's fault path: one injected worker kill, its window
# retried from the checkpoint, a checkpoint after every run and the
# re-issued window served from the store. A job that skips any of it is
# faster but did not do the work, so it fails.
EXPECTED_STATS = {"fig7_orch": {"retries": 1, "worker_deaths": 1,
                                "checkpoints": 24, "store_hits": 1}}
# A job takes 3-12 s on a 4-core host; anything near this is a hang.
JOB_DEADLINE_S = 90.0
TRACE_DEADLINE_S = 150.0

# ------------------------------------------------------------- statistics

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest ladder percentile with at least ten samples beyond it;
    the median when no ladder percentile has that many."""
    for q in TAIL_LADDER:
        if n - 1 - int((n - 1) * q / 100.0) >= 10:
            return q
    return 50.0


# --------------------------------------------------------------- building


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_sources():
    for path in ("src/sim/network.hpp", "bench/bench_drivers.hpp",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(path):
            raise SystemExit(
                "perfbench: %s is missing — run from the root of a RoleShare "
                "checkout" % path)


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def binary(traced):
    return os.path.join(BUILD_DIR,
                        "rs_perfbench_trace" if traced else "rs_perfbench")


def fingerprint():
    cpu = "unknown"
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu == "unknown":
                    cpu = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    build_info = json.loads(subprocess.run(
        [binary(False), "fingerprint"], capture_output=True, text=True,
        check=True).stdout)
    sha = "unknown"
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "isa": {f: f in flags for f in ("sha_ni", "avx2", "avx512f")},
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info["build_type"],
        "optimized": build_info["optimized"] and build_info["ndebug"],
        "git_sha": sha,
    }


# -------------------------------------------------------------- reference


def load_references():
    with open(DIGESTS) as f:
        return json.load(f)


def reference_for(references, workload, seed):
    return references.get(workload, {}).get(str(seed))


def failed_panels(panel_digests, expected):
    """Panels whose series digest differs from the expected one."""
    if len(panel_digests) != len(expected):
        return len(expected)
    return sum(1 for got, want in zip(panel_digests, expected) if got != want)


def stats_mismatch(stats, expected_stats):
    """The orchestration counts that differ from the expected ones, as
    {key: (got, want)}; empty when they all match."""
    return {k: (stats.get(k), want) for k, want in expected_stats.items()
            if stats.get(k) != want}


# ------------------------------------------------------------------- jobs


def children_cpu_s():
    u = resource.getrusage(resource.RUSAGE_CHILDREN)
    return u.ru_utime + u.ru_stime


def run_watched(cmd, deadline_s, log_path):
    """Runs cmd in its own process group; kills the whole group at the
    deadline. Returns (exit code or None on expiry, cpu seconds)."""
    cpu0 = children_cpu_s()
    with open(log_path, "ab") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=out,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
    return code, children_cpu_s() - cpu0


def run_job(cmd, result_path, panels, expected, deadline_s, log_path,
            expected_stats=None):
    """One job under the watchdog. Returns a record with attempted/failed
    panel counts; `expected` is the reference panel digest list (None:
    accept whatever the job produced, the caller compares later). A job
    whose orchestration counts differ from `expected_stats` fails every
    panel."""
    if os.path.exists(result_path):
        os.remove(result_path)
    code, cpu_s = run_watched(cmd, deadline_s, log_path)
    record = {"attempted": panels, "failed": panels, "cpu_s": cpu_s,
              "exit": code, "watchdog": code is None}
    if code != 0 or not os.path.isfile(result_path):
        return record
    with open(result_path) as f:
        job = json.load(f)
    record.update(job)
    # Measured from outside (process and workers), less the CPU of the
    # objects the job built only to time its setup.
    record["cpu_s"] = cpu_s - job["setup_copy_cpu_s"]
    record["failed"] = (failed_panels(job["panel_digests"], expected)
                        if expected is not None else 0)
    if expected_stats:
        wrong = stats_mismatch(job["stats"], expected_stats)
        if wrong:
            log("orchestration counts differ from the expected %s: %s; all "
                "%d panels count as failed" % (expected_stats, wrong, panels))
            record["failed"] = panels
    return record


def job_cmd(workload, seed, run_dir, result_path, reference=False):
    return [binary(False), "job", "--workload=" + workload,
            "--seed=%d" % seed, "--run-dir=" + run_dir,
            "--result=" + result_path, "--reference=%d" % int(reference)]


def measure(workload, seed, seconds, run_dir, expected):
    """Back-to-back jobs for `seconds`; returns (records, expected)."""
    records = []
    result_path = os.path.join(run_dir, "job.json")
    start = time.monotonic()
    while not records or time.monotonic() - start < seconds:
        rec = run_job(job_cmd(workload, seed, run_dir, result_path),
                      result_path, PANELS[workload], expected,
                      JOB_DEADLINE_S, os.path.join(run_dir, "job.log"),
                      EXPECTED_STATS.get(workload))
        if expected is None and rec["exit"] == 0 and "panel_digests" in rec:
            expected = rec["panel_digests"]  # unrecorded seed: first job
        records.append(rec)
        if rec["watchdog"]:
            log("watchdog: job %d of %s killed after %.0f s; its %d panels "
                "count as failed" % (len(records), workload, JOB_DEADLINE_S,
                                     rec["attempted"]))
        elif rec["failed"]:
            log("job %d of %s: %d of %d panels failed (exit %s)" %
                (len(records), workload, rec["failed"], rec["attempted"],
                 rec["exit"]))
    return records, expected


def timing_samples(record):
    """A job's (rounds, wall s, cpu s) samples: one per panel call for an
    in-process job, the whole job for the orchestrated one."""
    panels = record.get("panel_samples")
    if panels:
        return [(s["rounds"], s["wall_s"], s["cpu_s"]) for s in panels]
    return [(record["rounds"], record["wall_s"], record["cpu_s"])]


def end_to_end(records):
    """The end-to-end metrics of a run's jobs. Sample i of every job does
    the same work (the same panel), so the rates add up each sample's
    median wall and CPU over the jobs that passed: one slow stretch of a
    shared host moves them little, and panels that differ in cost do not
    widen the spread as they would in a median over all samples."""
    ok = [r for r in records if r["failed"] == 0]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    panels = list(zip(*(timing_samples(r) for r in ok)))
    rounds = sum(p[0][0] for p in panels)
    wall = sum(statistics.median(s[1] for s in p) for p in panels)
    cpu = sum(statistics.median(s[2] for s in p) for p in panels)
    metrics = {
        "rounds_per_s": (rounds / wall if wall else 0.0, "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in ok)
                    if ok else 0.0, "s"),
        "cpu_ms_per_round": (1e3 * cpu / rounds if rounds else 0.0, "ms"),
        # Each job reports its own peak (process and reaped workers).
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok)
                        if ok else 0.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    return attempted, failed, metrics


# ------------------------------------------------------------------ trace


def load_trace(path):
    """Reads a trace file and checks it is well formed: every complete
    event has a name, pid, ts and dur, span ids are unique, every parent
    id names a span of the trace, and every span lies inside its parent.
    Returns the spans as dicts; raises ValueError otherwise."""
    with open(path) as f:
        doc = json.load(f)
    spans = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        for key in ("name", "pid", "ts", "dur", "args"):
            if key not in ev:
                raise ValueError("trace event without %s: %r" % (key, ev))
        sid = ev["args"]["id"]
        if sid in spans:
            raise ValueError("duplicate span id %d" % sid)
        spans[sid] = ev
    slack_us = 1.0
    for ev in spans.values():
        parent = ev["args"]["parent"]
        if parent == 0:
            continue
        if parent not in spans:
            raise ValueError("span %s has unknown parent %d" %
                             (ev["name"], parent))
        p = spans[parent]
        if (ev["ts"] < p["ts"] - slack_us or
                ev["ts"] + ev["dur"] > p["ts"] + p["dur"] + slack_us):
            raise ValueError("span %s lies outside its parent %s" %
                             (ev["name"], p["name"]))
    return list(spans.values())


# Spans that wrap a whole driver, coordinator or window call, or the
# harness's own setup timing. They explain no time inside a module, so
# they do not count as covering the job.
WRAPPER_SPANS = ("job", "sim.run_panel", "orch.window",
                 "orch.run_coordinator", "orch.spawn")


def is_wrapper(span):
    return span["name"] in WRAPPER_SPANS or span["name"].startswith("setup.")


def uncovered_share(spans, root):
    """Share of root's duration during which no module-call span below it
    (any descendant but the wrappers) was running: the time the spans do
    not explain."""
    children = {}
    for s in spans:
        children.setdefault(s["args"]["parent"], []).append(s)
    calls, stack = [], list(children.get(root["args"]["id"], []))
    while stack:
        s = stack.pop()
        stack.extend(children.get(s["args"]["id"], []))
        if not is_wrapper(s):
            calls.append((s["ts"], s["ts"] + s["dur"]))
    covered, end = 0.0, root["ts"]
    for a, b in sorted(calls):
        a = max(a, end)
        if b > a:
            covered += b - a
            end = b
    return 1.0 - covered / root["dur"] if root["dur"] > 0 else 0.0


# (metric base, span name, sample fn(span) -> value or None, unit)
TIMINGS = [
    ("crypto.keygen_ms", "crypto.keygen", lambda s: s["dur"] / 1e3, "ms"),
    ("crypto.sortition_us_per_node", "crypto.sortition_batch",
     lambda s: s["dur"] / s["args"]["nodes"], "us"),
    ("consensus.elect_ms", "consensus.elect", lambda s: s["dur"] / 1e3, "ms"),
    ("consensus.verify_us_per_vote", "consensus.verify_votes",
     lambda s: s["dur"] / s["args"]["votes"] if s["args"]["votes"] else None,
     "us"),
    ("net.topology_ms", "net.topology", lambda s: s["dur"] / 1e3, "ms"),
    ("net.flood_ms", "net.flood", lambda s: s["dur"] / 1e3, "ms"),
    ("sim.network_build_ms", "sim.network_build", lambda s: s["dur"] / 1e3,
     "ms"),
    ("sim.round_ms", "sim.round", lambda s: s["dur"] / 1e3, "ms"),
    ("sim.sparse_init_ms", "sim.sparse_init", lambda s: s["dur"] / 1e3, "ms"),
    ("sim.sparse_round_us", "sim.sparse_round", lambda s: s["dur"], "us"),
    ("sim.refresh_us", "sim.refresh", lambda s: s["dur"], "us"),
    ("sim.codec_encode_ms", "sim.codec_encode", lambda s: s["dur"] / 1e3,
     "ms"),
    ("sim.codec_decode_ms", "sim.codec_decode", lambda s: s["dur"] / 1e3,
     "ms"),
    ("sim.store_put_ms", "sim.store_put", lambda s: s["dur"] / 1e3, "ms"),
    ("sim.store_get_ms", "sim.store_get", lambda s: s["dur"] / 1e3, "ms"),
    ("econ.distribute_us", "econ.distribute", lambda s: s["dur"], "us"),
    ("econ.optimize_us", "econ.optimize", lambda s: s["dur"], "us"),
    ("util.alias_build_ms", "util.alias_build", lambda s: s["dur"] / 1e3,
     "ms"),
    ("util.concentration_us", "util.concentration", lambda s: s["dur"],
     "us"),
    ("orch.spawn_ms", "orch.spawn", lambda s: s["dur"] / 1e3, "ms"),
    ("orch.fold_ms", "orch.fold", lambda s: s["dur"] / 1e3, "ms"),
]


def per_layer(spans, result):
    """Every per-layer metric from the trace's spans and the traced job's
    record. Returns ({name: (value, unit)}, {name: label}) where the labels
    name the percentile and sample count behind each timing."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        got = by_name.get(name, [])
        if not got:
            raise ValueError("trace has no %s spans" % name)
        return got

    def arg_sum(name, key):
        return sum(s["args"][key] for s in named(name))

    metrics, labels = {}, {}
    for base, span_name, fn, unit in TIMINGS:
        values = [v for v in map(fn, named(span_name)) if v is not None]
        q = tail_percentile(len(values))
        metrics[base + ".p50"] = (percentile(values, 50.0), unit)
        metrics[base + ".tail"] = (percentile(values, q), unit)
        labels[base + ".tail"] = "p%g of %d" % (q, len(values))
    windows = [s["dur"] / 1e3 for s in named("orch.window")]
    metrics["orch.window_ms.p50"] = (percentile(windows, 50.0), "ms")
    metrics["orch.window_ms.max"] = (max(windows), "ms")
    labels["orch.window_ms.max"] = "max of %d" % len(windows)

    floods = named("net.flood")
    metrics["consensus.committee_size"] = (
        arg_sum("consensus.elect", "members") / len(named("consensus.elect")),
        "count")
    metrics["net.edges_relaxed"] = (arg_sum("net.flood", "edges") /
                                    len(floods), "count")
    metrics["net.timely_frac"] = (arg_sum("net.flood", "timely") /
                                  arg_sum("net.flood", "arrivals"), "ratio")
    metrics["sim.round_allocs"] = (statistics.median(
        s["args"]["allocs"] for s in named("sim.round")), "count")
    metrics["sim.touched_per_round"] = (
        arg_sum("sim.sparse_round", "touched") /
        len(named("sim.sparse_round")), "count")
    metrics["sim.partial_bytes"] = (statistics.median(
        s["args"]["bytes"] for s in named("sim.codec_encode")), "bytes")
    metrics["sim.store_hit_frac"] = (
        arg_sum("orch.window", "store_hit") / len(named("orch.window")),
        "ratio")
    metrics["econ.infeasible_frac"] = (
        1.0 - arg_sum("econ.optimize", "feasible") /
        len(named("econ.optimize")), "ratio")

    coordinator = named("orch.run_coordinator")[0]
    busy = sum(s["dur"] for s in named("orch.window"))
    metrics["orch.idle_frac"] = (
        1.0 - busy / (coordinator["args"]["workers"] * coordinator["dur"]),
        "ratio")
    for key in ("retries", "worker_deaths", "checkpoints", "store_hits"):
        metrics["orch." + key] = (coordinator["args"][key], "count")

    job = [s for s in named("job") if s["args"]["parent"] == 0][0]
    metrics["util.pool_busy_frac"] = (
        job["args"]["cpu_s"] /
        (job["dur"] / 1e6 * job["args"]["parallelism"]), "ratio")
    metrics["trace.overhead_frac"] = (
        result["wall_s"] / result["untraced_wall_s"] - 1.0, "ratio")
    metrics["trace.uncovered_frac"] = (uncovered_share(spans, job), "ratio")
    return metrics, labels


# ------------------------------------------------------------------- main


def write_report(name, report):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    log("report: " + path)


def main_measure(args, workload, run_dir, expected, report):
    records, expected = measure(workload, args.seed, args.seconds, run_dir,
                                expected)
    # Unrecorded seed: later jobs were checked against the first; the
    # first itself cannot fail a comparison, which is why it is reported.
    attempted, failed, metrics = end_to_end(records)
    report.update({"jobs": records, "digest_panels": expected})
    return attempted, failed, metrics


def main_trace(args, workload, run_dir, expected, report):
    trace_path = os.path.join(RESULTS_DIR, "trace-%s-seed%d.json" %
                              (workload, args.seed))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    result_path = os.path.join(run_dir, "trace.json")
    cmd = [binary(True), "trace", "--workload=" + workload,
           "--seed=%d" % args.seed, "--run-dir=" + run_dir,
           "--result=" + result_path, "--trace-out=" + trace_path]
    rec = run_job(cmd, result_path, PANELS[workload], expected,
                  TRACE_DEADLINE_S, os.path.join(run_dir, "trace.log"))
    if rec["exit"] != 0:
        log("traced run failed (exit %s)" % rec["exit"])
        return rec["attempted"], rec["failed"], None
    failed = rec["failed"]
    if rec["untraced_digest"] != rec["digest"]:
        failed = rec["attempted"]  # tracing changed the output
    # The orch.* counts come from a Fig-7 job (this one or a probe run).
    wrong = stats_mismatch(rec["orch_stats"], EXPECTED_STATS["fig7_orch"])
    if wrong:
        log("orchestration counts differ from the expected: %s" % wrong)
        failed = rec["attempted"]
    metrics, labels = per_layer(load_trace(trace_path), rec)
    report.update({"trace_file": trace_path, "job": rec, "labels": labels,
                   "digest_panels": rec["panel_digests"]})
    for name, label in sorted(labels.items()):
        log("%-34s %s" % (name, label))
    return rec["attempted"], failed, metrics


def record_digests(spec, workloads):
    """Runs the serial single-process path for each seed in LO-HI and
    stores its panel digests as the reference."""
    lo, _, hi = spec.partition("-")
    refs = load_references()
    for workload in workloads:
        for seed in range(int(lo), int(hi or lo) + 1):
            run_dir = os.path.join(RUNS_DIR, "ref-%s-%d" % (workload, seed))
            os.makedirs(run_dir, exist_ok=True)
            result_path = os.path.join(run_dir, "job.json")
            rec = run_job(job_cmd(workload, seed, run_dir, result_path, True),
                          result_path, PANELS[workload], None, 600.0,
                          os.path.join(run_dir, "job.log"))
            if rec["exit"] != 0:
                raise SystemExit("reference job %s seed %d failed" %
                                 (workload, seed))
            refs.setdefault(workload, {})[str(seed)] = rec["panel_digests"]
            shutil.rmtree(run_dir)
            log("%s seed %d: %s" % (workload, seed, rec["digest"]))
    with open(DIGESTS, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="default: every workload, one result line each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", metavar="LO-HI")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def run_workload(args, workload, fp, references):
    """Measures one workload; returns the result object, or None when the
    traced run produced no trace."""
    expected = reference_for(references, workload, args.seed)
    run_dir = os.path.join(RUNS_DIR, "%s-%d-%d" % (workload, args.seed,
                                                   os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    report = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "fingerprint": fp,
              "digest_recorded": expected is not None}
    try:
        run = main_trace if args.trace else main_measure
        attempted, failed, metrics = run(args, workload, run_dir, expected,
                                         report)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if metrics is None:
        return None
    report.update({"attempted": attempted, "failed": failed,
                   "metrics": metrics})
    if not report["digest_recorded"]:
        log("%s seed %d has no recorded digest; panel digests: %s" %
            (workload, args.seed, " ".join(report["digest_panels"] or [])))
    write_report("%s-seed%d-trace%d.json" % (workload, args.seed, args.trace),
                 report)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv):
    args = parse_args(argv)
    check_sources()
    build()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.record_digests:
        record_digests(args.record_digests, workloads)
        return 0
    fp = fingerprint()
    log("fingerprint: " + json.dumps(fp, sort_keys=True))
    if not fp["optimized"]:
        log("WARNING: the harness was built without optimization")
    references = load_references()
    for workload in workloads:
        result = run_workload(args, workload, fp, references)
        if result is None:
            return 1
        if not args.workload:
            result = dict(workload=workload, **result)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
