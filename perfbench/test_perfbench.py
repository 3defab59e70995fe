"""Self-tests of the benchmark harness (perfbench/run.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: jobs are stood in for by small Python processes.
"""

import json
import os
import shutil
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

PANELS = ["%016x" % i for i in range(6)]


def fake_job(tmp, body):
    """A stand-in job process: runs `body` (Python) with `result` bound to
    the result path it must write."""
    script = os.path.join(tmp, "job.py")
    with open(script, "w") as f:
        f.write("import json, os, subprocess, sys, time\n"
                "result = sys.argv[1]\n" + body)
    result = os.path.join(tmp, "job.json")
    return [sys.executable, script, result], result


FIG7_STATS = dict(run.EXPECTED_STATS["fig7_orch"], windows=7, folded=6)


def job_record(digests, stats=None, setup_copy_cpu_s=0.0):
    return ("json.dump({'panel_digests': %r, 'rounds': 240, 'wall_s': 2.0,"
            " 'setup_s': 0.01, 'peak_rss_mb': 20.0, 'stats': %r,"
            " 'setup_copy_cpu_s': %r}, open(result, 'w'))\n"
            % (digests, stats or {}, setup_copy_cpu_s))


class PercentileRule(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(48), 75.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        for n in (11, 20, 40, 48, 100, 999, 1000, 5000, 10001):
            q = run.tail_percentile(n)
            values = list(range(n))
            beyond = sum(1 for v in values if v > run.percentile(values, q))
            self.assertGreaterEqual(beyond, 10 if q > 50 else 0, n)
            higher = [p for p in run.TAIL_LADDER if p > q]
            for p in higher:  # no higher ladder step qualifies
                self.assertLess(
                    sum(1 for v in values if v > run.percentile(values, p)),
                    10, (n, p))

    def test_small_samples_fall_back_to_the_median(self):
        self.assertEqual(run.tail_percentile(3), 50.0)
        self.assertEqual(run.tail_percentile(20), 50.0)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([1, 2, 3, 4], 50.0), 2.5)
        self.assertEqual(run.percentile(range(1, 101), 99.0), 99.01)
        self.assertEqual(run.percentile([7.0], 99.0), 7.0)


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.tmp, True)
        self.log = os.path.join(self.tmp, "job.log")

    def test_matching_digests_pass(self):
        cmd, result = fake_job(self.tmp, job_record(PANELS))
        rec = run.run_job(cmd, result, 6, PANELS, 30.0, self.log)
        self.assertEqual((rec["attempted"], rec["failed"]), (6, 0))

    def test_injected_digest_mismatch_fails_one_panel(self):
        wrong = list(PANELS)
        wrong[2] = "ffffffffffffffff"
        cmd, result = fake_job(self.tmp, job_record(wrong))
        rec = run.run_job(cmd, result, 6, PANELS, 30.0, self.log)
        self.assertEqual((rec["attempted"], rec["failed"]), (6, 1))
        self.assertFalse(rec["watchdog"])

    def test_expected_orchestration_counts_pass(self):
        cmd, result = fake_job(self.tmp, job_record(PANELS, FIG7_STATS))
        rec = run.run_job(cmd, result, 6, PANELS, 30.0, self.log,
                          run.EXPECTED_STATS["fig7_orch"])
        self.assertEqual((rec["attempted"], rec["failed"]), (6, 0))

    def test_skipped_fault_path_fails_every_panel(self):
        # The injected kill never happened: same series, fewer retries.
        for key in ("retries", "worker_deaths", "checkpoints", "store_hits"):
            stats = dict(FIG7_STATS, **{key: FIG7_STATS[key] - 1})
            cmd, result = fake_job(self.tmp, job_record(PANELS, stats))
            rec = run.run_job(cmd, result, 6, PANELS, 30.0, self.log,
                              run.EXPECTED_STATS["fig7_orch"])
            self.assertEqual((rec["attempted"], rec["failed"]), (6, 6), key)

    def test_setup_copy_cpu_is_not_charged_to_the_job(self):
        cmd, result = fake_job(self.tmp,
                               job_record(PANELS, setup_copy_cpu_s=1000.0))
        rec = run.run_job(cmd, result, 6, PANELS, 30.0, self.log)
        self.assertLess(rec["cpu_s"], -999.0)

    def test_nonzero_exit_fails_every_panel(self):
        cmd, result = fake_job(self.tmp, job_record(PANELS) + "sys.exit(1)\n")
        rec = run.run_job(cmd, result, 6, PANELS, 30.0, self.log)
        self.assertEqual((rec["attempted"], rec["failed"]), (6, 6))

    def test_watchdog_kills_the_job_and_its_workers(self):
        pid_file = os.path.join(self.tmp, "worker.pid")
        body = ("w = subprocess.Popen([sys.executable, '-c', "
                "'import time; time.sleep(60)'])\n"
                "open(%r, 'w').write(str(w.pid))\n"
                "time.sleep(60)\n" % pid_file)
        cmd, result = fake_job(self.tmp, body)
        start = time.monotonic()
        rec = run.run_job(cmd, result, 6, PANELS, 1.0, self.log)
        self.assertLess(time.monotonic() - start, 30.0)
        self.assertTrue(rec["watchdog"])
        self.assertEqual((rec["attempted"], rec["failed"]), (6, 6))
        with open(pid_file) as f:
            worker = int(f.read())
        for _ in range(50):  # the orphaned worker is reaped by init
            try:
                os.kill(worker, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            self.fail("worker process survived the watchdog")

    def test_end_to_end_counts_failures_against_attempts(self):
        ok = {"attempted": 6, "failed": 0, "rounds": 240, "wall_s": 2.0,
              "cpu_s": 8.0, "setup_s": 0.01, "peak_rss_mb": 1.0}
        hung = {"attempted": 6, "failed": 6, "cpu_s": 90.0, "exit": None,
                "watchdog": True}
        attempted, failed, metrics = run.end_to_end(
            [ok, hung, dict(ok, peak_rss_mb=2.0), dict(ok, peak_rss_mb=3.0)])
        self.assertEqual((attempted, failed), (24, 6))
        self.assertAlmostEqual(metrics["ok_frac"][0], 1.0 - 6 / 24)
        # The failed job's time and CPU are not folded into the rates.
        self.assertAlmostEqual(metrics["rounds_per_s"][0], 120.0)
        self.assertAlmostEqual(metrics["cpu_ms_per_round"][0], 1e3 * 8 / 240)
        # The median of the jobs' own peaks, not this driver's.
        self.assertEqual(metrics["peak_rss_mb"][0], 2.0)

    def test_rates_add_up_per_panel_medians(self):
        def job(*walls):
            return {"attempted": 2, "failed": 0, "rounds": 200,
                    "wall_s": 99.0, "cpu_s": 99.0, "setup_s": 0.1,
                    "peak_rss_mb": 1.0,
                    "panel_samples": [{"rounds": 100, "wall_s": w,
                                       "cpu_s": 2 * w} for w in walls]}
        jobs = [job(1.0, 2.0), job(1.2, 2.0), job(9.0, 2.0),
                dict(job(0.1, 0.1), failed=2)]
        _, _, metrics = run.end_to_end(jobs)
        # Panel medians 1.2 s and 2.0 s: the slow stretch of the third
        # job moves neither rate, and the failed job adds nothing.
        self.assertAlmostEqual(metrics["rounds_per_s"][0], 200 / 3.2)
        self.assertAlmostEqual(metrics["cpu_ms_per_round"][0],
                               1e3 * 6.4 / 200)


def span(name, sid, parent, ts, dur, **counts):
    args = {"id": sid, "parent": parent}
    args.update(counts)
    return {"name": name, "ph": "X", "pid": 1, "tid": 1, "ts": ts,
            "dur": dur, "args": args}


class TraceFile(unittest.TestCase):
    def write(self, events):
        tmp = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, tmp, True)
        path = os.path.join(tmp, "trace.json")
        with open(path, "w") as f:
            json.dump({"traceEvents": [{"name": "process_name", "ph": "M",
                                        "pid": 1, "args": {}}] + events}, f)
        return path

    def test_well_formed_trace_loads(self):
        spans = run.load_trace(self.write([
            span("job", 1, 0, 0, 100), span("a", 2, 1, 0, 40),
            span("b", 3, 1, 50, 40), span("c", 4, 3, 60, 10)]))
        self.assertEqual(len(spans), 4)

    def test_unknown_parent_is_rejected(self):
        with self.assertRaisesRegex(ValueError, "unknown parent"):
            run.load_trace(self.write([span("job", 1, 0, 0, 10),
                                       span("a", 2, 9, 0, 5)]))

    def test_child_outside_parent_is_rejected(self):
        with self.assertRaisesRegex(ValueError, "outside its parent"):
            run.load_trace(self.write([span("job", 1, 0, 0, 10),
                                       span("a", 2, 1, 5, 50)]))

    def test_duplicate_id_is_rejected(self):
        with self.assertRaisesRegex(ValueError, "duplicate"):
            run.load_trace(self.write([span("job", 1, 0, 0, 10),
                                       span("a", 1, 0, 0, 5)]))

    def test_uncovered_share_counts_gaps_between_module_calls(self):
        job = span("job", 1, 0, 0, 100)
        spans = [job, span("a", 2, 1, 0, 40), span("b", 3, 1, 50, 40),
                 span("c", 4, 3, 60, 10), span("d", 5, 3, 80, 10)]
        # a [0,40) and b [50,90) cover 80 of 100.
        self.assertAlmostEqual(run.uncovered_share(spans, job), 0.2)

    def test_wrapper_spans_do_not_cover_the_job(self):
        job = span("job", 1, 0, 0, 100)
        spans = [job, span("setup.network", 2, 1, 0, 10),
                 span("sim.run_panel", 3, 1, 10, 80),
                 span("net.flood", 4, 3, 20, 30),
                 span("orch.window", 5, 1, 90, 10)]
        # Only the flood inside the panel call counts: 30 of 100.
        self.assertAlmostEqual(run.uncovered_share(spans, job), 0.7)

    @unittest.skipUnless(os.path.isdir(run.RESULTS_DIR),
                         "no traced run in this checkout yet")
    def test_traces_written_by_the_harness_are_well_formed(self):
        traces = [f for f in os.listdir(run.RESULTS_DIR)
                  if f.startswith("trace-")]
        for name in traces:
            spans = run.load_trace(os.path.join(run.RESULTS_DIR, name))
            roots = [s for s in spans if s["args"]["parent"] == 0]
            self.assertIn("job", [s["name"] for s in roots])


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        with open(os.path.join(HERE, "predictions.json")) as f:
            self.predictions = json.load(f)

    def test_every_per_layer_metric_has_a_prediction(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        for name in names:
            base = name.rsplit(".", 1)[0] if name.endswith(
                (".p50", ".tail", ".max")) else name
            self.assertIn(base, self.predictions, name)
        timings = {base for base, _, _, _ in run.TIMINGS}
        for base in timings:
            self.assertIn(base + ".p50", names)
            self.assertIn(base + ".tail", names)

    def test_end_to_end_names_match_the_harness(self):
        ok = {"attempted": 6, "failed": 0, "rounds": 1, "wall_s": 1.0,
              "cpu_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 1.0}
        _, _, metrics = run.end_to_end([ok])
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, {k: u for k, (_, u) in metrics.items()})
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
