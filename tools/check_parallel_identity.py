#!/usr/bin/env python3
"""Serial-vs-parallel identity gate for the scenario suite.

Runs simrunner twice over the same scenario set — ``--jobs 1`` and
``--jobs N`` — and requires the two batch reports to be identical
modulo wall-time fields (see report_diff.py).  This is the end-to-end
proof that running scenarios (and sweep points) side by side changes
nothing: every cycle stamp, stall counter, memory counter, event stamp
and assertion value must match the serial run, for every scenario in
the suite.

``--filter`` narrows a directory input to scenarios whose filename
contains a substring (e.g. ``--filter serving_``).

Usage:
    tools/check_parallel_identity.py <simrunner> <scenarios...>
        [--jobs 4] [--filter SUBSTR] [--workdir DIR]

Exit status: 0 on identity (and both runs passing), 1 otherwise.
"""

import argparse
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
    """Directories become their matching .json files; explicit files
    pass through the filter too so a stale name fails loudly."""
    out = []
    for inp in inputs:
        if os.path.isdir(inp):
            for name in sorted(os.listdir(inp)):
                if name.endswith(".json") and substr in name:
                    out.append(os.path.join(inp, name))
        elif substr in os.path.basename(inp):
            out.append(inp)
    return out


def main():
    parser = argparse.ArgumentParser(
        description="serial-vs-parallel scenario report identity")
    parser.add_argument("simrunner")
    parser.add_argument("inputs", nargs="+",
                        help="scenario files or directories")
    parser.add_argument("--jobs", type=int, default=4,
                        help="--jobs for the parallel leg (the serial "
                             "leg always uses 1)")
    parser.add_argument("--filter", default=None, metavar="SUBSTR",
                        help="only scenarios whose filename contains "
                             "SUBSTR")
    parser.add_argument("--workdir", default=".")
    args = parser.parse_args()

    inputs = args.inputs
    if args.filter is not None:
        inputs = expand_filtered(inputs, args.filter)
        if not inputs:
            print("check_parallel_identity: no scenarios match "
                  "--filter {!r}".format(args.filter))
            return 1

    os.makedirs(args.workdir, exist_ok=True)
    serial = os.path.join(args.workdir, "report_serial.json")
    parallel = os.path.join(args.workdir,
                            "report_j{}.json".format(args.jobs))

    rc_serial = run_leg(args.simrunner, inputs, 1, serial)
    rc_parallel = run_leg(args.simrunner, inputs, args.jobs, parallel)
    # Scenario failures fail the gate too, but only after the diff ran:
    # an identity break plus a red scenario should report both.
    rc_diff = subprocess.call(
        [sys.executable, os.path.join(HERE, "report_diff.py"), serial,
         parallel])

    if rc_diff != 0:
        print("check_parallel_identity: FAILED — jobs={} diverged from "
              "serial".format(args.jobs))
        return 1
    if rc_serial != 0 or rc_parallel != 0:
        print("check_parallel_identity: scenario failures (serial rc={}, "
              "parallel rc={})".format(rc_serial, rc_parallel))
        return 1
    print("check_parallel_identity: OK — jobs={} bit-identical to serial "
          "across the suite".format(args.jobs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
