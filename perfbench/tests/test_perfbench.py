"""Tests of the repository benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

The smoke tests build tcbench (like perfbench/run.py does) and run each
workload at --size tiny, so the first run takes a few minutes.
"""

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("gemm_tc", "mem_bound", "serve_mlp")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class GeneratorTest(unittest.TestCase):
    def write(self, workload, seed):
        d = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, d)
        gen.write_inputs(workload, seed, d)
        return d

    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            a, b = self.write(w, 7), self.write(w, 7)
            cmp = filecmp.dircmp(a, b)
            self.assertEqual(cmp.left_only + cmp.right_only, [], w)
            _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                                   shallow=False)
            self.assertEqual(mismatch + errors, [], w)

    def test_different_seed_different_inputs(self):
        shapes = lambda doc: [(l.get("m"), l.get("n"), l.get("k"),
                               l.get("ctas")) for l in doc["launches"]]
        self.assertNotEqual(shapes(gen.gemm_tc(1)), shapes(gen.gemm_tc(2)))
        order = lambda docs: [d["name"] for d in docs]
        self.assertNotEqual(order(gen.mem_bound(1)), order(gen.mem_bound(2)))
        self.assertNotEqual(gen.serve_arrivals(1), gen.serve_arrivals(2))

    def test_work_mix_is_seed_independent(self):
        """Seeds change GEMM aspect ratios, scenario order and arrival
        times, not the kernel mix, the scenarios or the request count."""
        mix = lambda doc: [(l["kind"], l["mode"], l.get("block_m"),
                            l.get("warp_n")) for l in doc["launches"]]
        self.assertEqual(mix(gen.gemm_tc(1)), mix(gen.gemm_tc(9)))
        scenarios = lambda docs: sorted(json.dumps(d, sort_keys=True)
                                        for d in docs)
        self.assertEqual(scenarios(gen.mem_bound(1)),
                         scenarios(gen.mem_bound(9)))
        self.assertEqual(len(gen.serve_arrivals(1)),
                         len(gen.serve_arrivals(9)))

    def test_shapes_fit_their_kernels(self):
        for seed in range(20):
            for l in gen.gemm_tc(seed)["launches"]:
                if l["kind"] == "cutlass":
                    self.assertEqual(l["m"] % l["block_m"], 0)
                    self.assertEqual(l["n"] % l["block_n"], 0)
                    self.assertEqual(l["k"] % l["block_k"], 0)
                elif l["kind"] == "wmma_shared":
                    self.assertEqual((l["m"] % 64, l["n"] % 64, l["k"] % 16),
                                     (0, 0, 0))
            for d in gen.mem_bound(seed):
                k = d["kernels"][0]
                self.assertEqual((k["m"] % 16, k["n"] % 16, k["k"] % 16),
                                 (0, 0, 0))

    def test_arrivals_are_sorted_and_enough_for_p95(self):
        a = gen.serve_arrivals(3)
        self.assertEqual(a, sorted(a))
        # At least ten samples beyond the 95th percentile.
        self.assertGreaterEqual(len(a) * 0.05, 10)


class BenchmarkSpecTest(unittest.TestCase):
    def test_names_and_units(self):
        s = spec()
        self.assertEqual(sorted(s), ["command", "end_to_end", "paths",
                                     "per_layer", "run_seconds", "workloads"])
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in s[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual([w["name"] for w in s["workloads"]], list(WORKLOADS))
        for w in s["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for key in ("end_to_end", "per_layer"):
            for m in s[key]:
                self.assertRegex(m["unit"], UNIT_RE)
                self.assertIn(m["better"], ("higher", "lower"))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"]
                                               for m in s["end_to_end"])}])

    def test_per_layer_names_match_tcbench(self):
        """tcbench.cpp emits exactly the per_layer list."""
        with open(os.path.join(BENCH_DIR, "tcbench.cpp")) as f:
            src = f.read()
        table = src[src.index("kLayerMetrics[] = {"):]
        table = table[:table.index("};")]
        emitted = set(re.findall(r'"([a-z0-9_.]+)"', table))
        self.assertEqual(emitted, {m["name"] for m in spec()["per_layer"]})


class BuildDirTest(unittest.TestCase):
    def test_build_tree_is_keyed_by_checkout(self):
        """Checkouts that share CARGO_TARGET_DIR get separate build
        trees, and a tree configured from other sources is recognised."""
        d = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, d)
        with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": d}):
            here = run.build_dir()
            with mock.patch.object(run, "ROOT", "/other/checkout"):
                other = run.build_dir()
        self.assertNotEqual(here, other)
        self.assertEqual({os.path.dirname(here), os.path.dirname(other)},
                         {d})
        os.makedirs(here)
        with open(os.path.join(here, "CMakeCache.txt"), "w") as f:
            f.write("CMAKE_HOME_DIRECTORY:INTERNAL=/other/checkout/"
                    "perfbench\n")
        self.assertEqual(run.configured_source(here),
                         "/other/checkout/perfbench")
        self.assertIsNone(run.configured_source(other))


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=1800)


class SmokeTest(unittest.TestCase):
    """Each workload at tiny size, untraced and traced."""

    def check(self, workload, trace):
        p = run_bench(["--workload", workload, "--seed", "3", "--seconds",
                       "0", "--trace", str(trace), "--size", "tiny"])
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        lines = p.stdout.strip().splitlines()
        self.assertTrue(lines[-2].startswith("samples: "))
        self.assertTrue(lines[-3].startswith("host: "))
        host = json.loads(lines[-3][len("host: "):])
        self.assertGreaterEqual(host["effective_cpus"], 1)
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec()[key]})
        return result["metrics"]

    def test_gemm_tc(self):
        e2e = self.check("gemm_tc", 0)
        for name in ("wall_s", "sim_minst_per_s", "model_tflops",
                     "ipc_corr_pct", "cycles_err_pct"):
            self.assertGreater(e2e[name]["value"], 0, name)
        layer = self.check("gemm_tc", 1)
        self.assertGreater(layer["probe.bank_conflict.calls"]["value"], 0)
        self.assertGreater(layer["probe.scoreboard.calls"]["value"], 0)

    def test_mem_bound(self):
        self.check("mem_bound", 0)
        layer = self.check("mem_bound", 1)
        # wmma_naive issues no shared-memory instructions.
        self.assertEqual(layer["probe.bank_conflict.calls"]["value"], 0)
        self.assertGreater(layer["probe.mshr_query.calls"]["value"], 0)

    def test_serve_mlp(self):
        e2e = self.check("serve_mlp", 0)
        self.assertEqual(e2e["serve_goodput"]["value"], 1)
        layer = self.check("serve_mlp", 1)
        self.assertEqual(layer["serve.requests"]["value"],
                         gen.SERVE_REQUESTS["tiny"])
        self.assertGreater(layer["model.kernels_per_batch"]["value"], 0)

    def test_fails_without_sources(self):
        """With only BENCHMARK.json and perfbench/ present the run must
        fail before printing a result."""
        d = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, d)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(BENCH_DIR, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "gemm_tc", "--seed", "1", "--seconds", "1"],
                           cwd=d, env=env, capture_output=True, text=True,
                           timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
