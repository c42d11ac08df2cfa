#!/usr/bin/env python3
"""Fault-injection determinism gate.

Runs simrunner over the fault-injected scenarios twice — serial
(``--jobs 1``) and parallel (``--jobs J``) — and requires
byte-identical batch reports modulo wall-time fields
(report_diff.py).  This is the end-to-end proof that injected
faults are deterministic: disabled/degraded SM picks, kernel
hang/slowdown rule matches, ECC-retry decisions, serving-loop kills,
retries, sheds and deadline misses must all land on the same cycles
however the batch is parallelized.

By default the gate selects scenarios whose report carries a fault or
resilience block (filename filter ``--filter``, default matches the
committed fault scenarios).  It additionally asserts that the serial
report actually exercised fault injection — a filter that matches no
faulty scenario would otherwise pass vacuously.

Usage:
    tools/check_fault_identity.py <simrunner> <scenarios...>
        [--jobs 2] [--filter SUBSTR] [--workdir DIR]

Exit status: 0 on identity (and both runs passing), 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_leg(simrunner, inputs, jobs, report):
    cmd = [simrunner, "--quiet", "--jobs", str(jobs),
           "--report", report] + inputs
    print("+", " ".join(cmd), flush=True)
    return subprocess.call(cmd)


def expand_filtered(inputs, substr):
    out = []
    for inp in inputs:
        if os.path.isdir(inp):
            for name in sorted(os.listdir(inp)):
                if name.endswith(".json") and substr in name:
                    out.append(os.path.join(inp, name))
        elif substr in os.path.basename(inp):
            out.append(inp)
    return out


def count_faulty(report_path):
    """Scenario results carrying a fault or serve-resilience block."""
    with open(report_path) as f:
        doc = json.load(f)
    n = 0
    for result in doc.get("results", []):
        serve = result.get("serve") or {}
        if "fault" in result or "resilience" in serve:
            n += 1
    return n


def main():
    parser = argparse.ArgumentParser(
        description="fault-injected report identity, serial vs parallel")
    parser.add_argument("simrunner")
    parser.add_argument("inputs", nargs="+",
                        help="scenario files or directories")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--filter", default=None, metavar="SUBSTR",
                        help="only scenarios whose filename contains "
                             "SUBSTR")
    parser.add_argument("--workdir", default=".")
    args = parser.parse_args()

    inputs = args.inputs
    if args.filter is not None:
        inputs = expand_filtered(inputs, args.filter)
        if not inputs:
            print("check_fault_identity: no scenarios match "
                  "--filter {!r}".format(args.filter))
            return 1

    os.makedirs(args.workdir, exist_ok=True)
    serial = os.path.join(args.workdir, "report_serial.json")
    parallel = os.path.join(args.workdir,
                            "report_j{}.json".format(args.jobs))

    rc_serial = run_leg(args.simrunner, inputs, 1, serial)
    rc_parallel = run_leg(args.simrunner, inputs, args.jobs, parallel)
    rc_diff = subprocess.call(
        [sys.executable, os.path.join(HERE, "report_diff.py"), serial,
         parallel])

    if rc_diff != 0:
        print("check_fault_identity: FAILED — jobs={} diverged from "
              "serial".format(args.jobs))
        return 1
    if rc_serial != 0 or rc_parallel != 0:
        print("check_fault_identity: scenario failures (serial rc={}, "
              "parallel rc={})".format(rc_serial, rc_parallel))
        return 1
    faulty = count_faulty(serial)
    if faulty == 0:
        print("check_fault_identity: FAILED — no scenario exercised "
              "fault injection or resilience (vacuous gate)")
        return 1
    print("check_fault_identity: OK — {} fault/resilience scenario(s) "
          "bit-identical across jobs={}".format(faulty, args.jobs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
