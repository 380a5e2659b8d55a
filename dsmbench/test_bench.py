#!/usr/bin/env python3
"""Tests of the DSM client benchmark itself.

Run from the root of a checkout of the repository:

    python3 dsmbench/test_bench.py

They check that a seed gives a byte-identical schedule, that routing puts
every op on a holder among the front doors, that every metric name the
benchmark prints matches BENCHMARK.json and the name rule, and that a
tiny-rate smoke run of each workload passes the correctness gate in both
modes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, HERE)
import run as runner  # noqa: E402


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def exe(*args):
    done = subprocess.run([runner.EXE] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        assert runner.build(), "build failed"
        cls.bench = bench_json()
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def test_schedule_is_a_function_of_the_seed(self):
        for w in self.workloads:
            args = ["schedule-digest", "--workload", w, "--rate", "50000",
                    "--seconds", "0.5"]
            a = exe(*(args + ["--seed", "7"]))
            b = exe(*(args + ["--seed", "7"]))
            c = exe(*(args + ["--seed", "8"]))
            self.assertEqual(a[0], 0)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a[1].split()[0], c[1].split()[0], w)

    def test_write_workloads_share_their_ops(self):
        args = ["schedule-digest", "--rate", "50000", "--seconds", "0.5",
                "--seed", "3"]
        self.assertEqual(exe(*(args + ["--workload", "pram-write"])),
                         exe(*(args + ["--workload", "causal-write"])))

    def test_routing_hits_front_door_holders(self):
        for w in self.workloads:
            for seed in ("1", "2", "3"):
                code, out = exe("routing", "--workload", w, "--seed", seed)
                self.assertEqual(code, 0, out)
                self.assertIn(" 0 misrouted", out)

    def test_spec_matches_benchmark_json(self):
        code, out = exe("spec")
        self.assertEqual(code, 0)
        spec = json.loads(out)
        self.assertEqual([w["name"] for w in spec["workloads"]], self.workloads)
        for key in ("end_to_end", "per_layer"):
            mine = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            theirs = [(m["name"], m["unit"], m["better"])
                      for m in self.bench[key]]
            self.assertEqual(mine, theirs, key)
            for name, _, _ in mine:
                self.assertRegex(name, NAME)

    def smoke(self, workload, trace):
        done = subprocess.run(
            RUN + ["--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", str(trace), "--rate-scale", "0.02"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in self.bench[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for k, v in result["metrics"].items():
            self.assertRegex(k, NAME)
            self.assertIsInstance(v["value"], (int, float))
        return result

    def test_smoke_end_to_end(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                r = self.smoke(w, 0)
                for k, v in r["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_smoke_traced(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                r = self.smoke(w, 1)["metrics"]
                fanout = 2 if w == "causal-write" else 1
                self.assertEqual(r["core.msgs_per_write"]["value"], fanout)
                self.assertEqual(r["session.retransmits"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
