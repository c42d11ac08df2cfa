#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload gemm_tc --seed 1 --seconds 20 --trace 0

Builds libtcsim and tcbench from the checkout's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), generates the workload's inputs
from --seed, runs tcbench for --seconds, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1).  The line before it records the host:
effective CPU count, build type, compiler and source revision.  Exits
non-zero when a build fails, an output check fails, or a metric is
missing.  See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402

WORKLOADS = ("gemm_tc", "mem_bound", "serve_mlp")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def read_int(path):
    try:
        with open(path) as f:
            return int(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def cgroup_cpu_limit():
    """CPUs the cgroup quota allows, or None when unlimited: v2
    cpu.max ("max 100000" or "<quota> <period>"), else v1
    cpu.cfs_quota_us / cpu.cfs_period_us (quota -1 = unlimited)."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            quota, period = f.read().split()[:2]
        if quota == "max":
            return None
        return int(quota) / int(period)
    except (OSError, ValueError):
        pass
    for d in ("/sys/fs/cgroup/cpu", "/sys/fs/cgroup/cpu,cpuacct"):
        quota = read_int(os.path.join(d, "cpu.cfs_quota_us"))
        period = read_int(os.path.join(d, "cpu.cfs_period_us"))
        if quota is not None and period:
            return quota / period if quota > 0 else None
    return None


def effective_cpus():
    affinity = len(os.sched_getaffinity(0))
    limit = cgroup_cpu_limit()
    if limit is None:
        return affinity, affinity, None
    return min(affinity, max(1, math.ceil(limit))), affinity, limit


def build_dir():
    """Build tree of this checkout.  It is keyed by the checkout's path,
    so checkouts that share $CARGO_TARGET_DIR never build each other's
    sources."""
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    key = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + key)


def configured_source(out):
    """The source directory the build tree `out` was configured from,
    or None when it is not configured."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            m = re.search(r"^CMAKE_HOME_DIRECTORY:INTERNAL=(.*)$", f.read(),
                          re.M)
    except OSError:
        return None
    return m.group(1) if m else None


def build(out, jobs):
    """Configure (once) and build tcbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("the tcsim sources (CMakeLists.txt, src/) are "
                           "not in this checkout")
    source = configured_source(out)
    if source is not None and \
            os.path.realpath(source) != os.path.realpath(BENCH_DIR):
        log("%s was configured from %s; configuring it afresh" %
            (out, source))
        shutil.rmtree(out)
        source = None
    if source is None:
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "tcbench",
                    "-j", str(jobs)], check=True, stdout=sys.stderr)
    return os.path.join(out, "tcbench")


def compiler_info(out):
    info = {}
    for path in glob.glob(os.path.join(out, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        for key in ("ID", "VERSION"):
            m = re.search(r'set\(CMAKE_CXX_COMPILER_%s "([^"]*)"\)' % key,
                          text)
            if m:
                info[key.lower()] = m.group(1)
    build_type = None
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
            build_type = m.group(1) if m else None
    return ("%s %s" % (info.get("id", "?"), info.get("version", "?")),
            build_type)


def source_revision():
    """git commit when the checkout is a repository, and always a digest
    of the sources the benchmark builds (the checkout may not be one)."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(d, n) for n in names
                      if n.endswith((".cpp", ".h", ".py", ".txt"))]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return commit, h.hexdigest()[:16]


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for smoke tests")
    args = ap.parse_args(argv)

    cpus, affinity, limit = effective_cpus()
    out = build_dir()
    try:
        exe = build(out, cpus)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    work = os.path.join(out, "work", "%s-%d-%s" % (args.workload, args.seed,
                                                   args.size))
    shutil.rmtree(work, ignore_errors=True)
    gen.write_inputs(args.workload, args.seed, work, args.size)
    spans = os.path.join(out, "results", "%s-%d.spans.json" %
                         (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    try:
        proc = subprocess.run(
            [exe, args.workload, work, repr(args.seconds), str(args.trace),
             spans], stdout=subprocess.PIPE, text=True,
            timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("tcbench exceeded %d s" % HARNESS_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("tcbench exited with %d" % proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    produced = raw["per_layer" if args.trace else "end_to_end"]

    metrics = {}
    for m in metric_specs(args.trace):
        if m["name"] not in produced:
            log("tcbench did not report %s" % m["name"])
            return 1
        metrics[m["name"]] = {"value": produced[m["name"]], "unit": m["unit"]}
    extra = sorted(set(produced) - set(metrics))
    if extra:
        log("metrics missing from BENCHMARK.json: %s" % ", ".join(extra))
        return 1

    compiler, build_type = compiler_info(out)
    commit, digest = source_revision()
    host = {
        "effective_cpus": cpus, "affinity_cpus": affinity,
        "cgroup_cpu_limit": limit, "nproc": os.cpu_count(),
        "build_type": build_type, "compiler": compiler,
        "git_commit": commit, "source_digest": digest,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "passes": raw["passes"], "traced_passes": raw["traced_passes"],
        "ops_per_pass": raw["ops_per_pass"],
        "pass_wall_s": raw["pass_wall_s"],
        "failures": raw["failures"],
    }
    result = {"correct": bool(raw["checks_ok"]),
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    with open(os.path.join(out, "results", "%s-%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump({"host": host, "result": result}, f, indent=1)
    for failure in raw["failures"]:
        log("check failed: " + failure)
    print("host: " + json.dumps(host, sort_keys=True))
    print("samples: %d operations per pass (latency percentiles are "
          "over these)" % raw["ops_per_pass"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
