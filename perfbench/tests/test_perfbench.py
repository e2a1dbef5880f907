#!/usr/bin/env python3
"""Self-test of the netadv benchmark at tiny size.

    python3 perfbench/tests/test_perfbench.py

Runs every workload with --tiny in both modes and checks that every
workload and metric name is emitted with its unit, that the traced layers
add up to the traced wall, and that an injected out-of-ladder decision is
counted as a failed operation instead of crashing the run.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ["python3", "perfbench/run.py"]
WORKLOADS = ("fig1", "serve", "cc_campaign")

# Every name the benchmark's definition promises, beyond BENCHMARK.json.
PROMISED = [
    "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "failed_share",
    "decisions_per_s", "decision_p50_us", "decision_p95_us",
    "rl.update_s", "rl.rollout_infer_s", "rl.batch_infer_s",
    "rl.batch_size_mean", "abr.protocol.mpc.decide_s",
    "abr.protocol.mpc_dp.decide_s", "abr.sim_s", "core.record.self_s",
    "core.replay.self_s", "serve.self_s", "exp.job.train-adversary.cc_s",
    "exp.job.record-traces.cc_s", "exp.job.replay.cc_s",
    "exp.job.train-adversary.fairness_s", "exp.job.record-traces.fairness_s",
    "exp.job.replay.fairness_s", "exp.overhead_s", "exp.resume_s",
    "util.pool.cpu_per_wall", "rl.env_steps", "rl.updates",
    "abr.protocol.mpc.decisions", "abr.protocol.mpc_dp.decisions",
    "abr.protocol.pensieve.decisions", "abr.protocol.bb.decisions",
    "core.traces_recorded", "core.traces_replayed", "serve.ticks",
    "serve.decisions", "exp.jobs_completed", "exp.jobs_cached",
    "unattributed_s", "trace_overhead_s", "host.reference_s",
]
# Seconds that are not layers of the traced round.
NOT_LAYERS = {"trace_wall_s", "trace_overhead_s", "host.reference_s"}


def run(workload, trace, *extra, cwd=ROOT):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.definition = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.results = {(w, t): result_of(run(w, t))
                       for w in WORKLOADS for t in (0, 1)}

    def test_workloads_are_defined(self):
        names = [w["name"] for w in self.definition["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))

    def test_every_metric_is_emitted_with_its_unit(self):
        emitted = set()
        for (workload, trace), result in self.results.items():
            listed = self.definition["end_to_end" if trace == 0 else "per_layer"]
            metrics = result["metrics"]
            self.assertEqual(set(metrics), {m["name"] for m in listed},
                             (workload, trace))
            for m in listed:
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                self.assertTrue(math.isfinite(metrics[m["name"]]["value"]))
            emitted |= set(metrics)
        self.assertEqual([n for n in PROMISED if n not in emitted], [])

    def test_runs_are_correct_and_end_to_end_metrics_nonzero(self):
        for (workload, trace), result in self.results.items():
            self.assertTrue(result["correct"], (workload, trace))
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            if trace == 0:
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, (workload, name))

    def test_layers_sum_to_traced_wall(self):
        for workload in WORKLOADS:
            metrics = self.results[(workload, 1)]["metrics"]
            layers = [m["value"] for name, m in metrics.items()
                      if m["unit"] == "s" and name not in NOT_LAYERS]
            # unattributed_s is a difference of sums: allow rounding.
            self.assertTrue(all(v >= -1e-9 for v in layers), workload)
            self.assertAlmostEqual(sum(layers), metrics["trace_wall_s"]["value"],
                                   delta=1e-6 * metrics["trace_wall_s"]["value"])
            self.assertEqual(metrics["failed_share"]["value"], 0)

    def test_each_workload_drives_its_layers(self):
        value = lambda w, n: self.results[(w, 1)]["metrics"][n]["value"]
        self.assertGreater(value("fig1", "rl.env_steps"), 0)
        self.assertGreater(value("fig1", "abr.protocol.mpc.decisions"), 0)
        self.assertGreater(value("fig1", "core.traces_replayed"), 0)
        self.assertGreater(value("serve", "serve.decisions"), 0)
        self.assertGreater(value("serve", "rl.batch_size_mean"), 0)
        self.assertGreater(value("serve", "abr.protocol.mpc_dp.decisions"), 0)
        self.assertGreater(value("cc_campaign", "exp.jobs_completed"), 0)
        self.assertEqual(value("cc_campaign", "exp.jobs_completed"),
                         value("cc_campaign", "exp.jobs_cached"))
        self.assertEqual(value("serve", "rl.env_steps"), 0)
        self.assertEqual(value("cc_campaign", "serve.decisions"), 0)

    def test_bad_decision_is_counted_not_fatal(self):
        for trace in (0, 1):
            result = result_of(run("fig1", trace, "--inject-bad-decision"))
            self.assertFalse(result["correct"])
            self.assertGreaterEqual(result["failed"], 1)
            self.assertLess(result["failed"], result["attempted"])
            if trace == 1:
                self.assertGreater(result["metrics"]["failed_share"]["value"], 0)

    def test_refuses_to_run_without_the_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run("serve", 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
