#!/usr/bin/env python3
"""Forked-vs-cold identity gate for sweep scenarios.

Runs simrunner twice over the same sweep scenario set — once forking
each point from the shared-prefix snapshot (the default) and once with
``--cold-sweep`` (every point re-simulated from cycle 0) — and
requires the two batch reports to be identical modulo wall-time fields
(see report_diff.py).  This is the end-to-end proof of the snapshot
contract: restoring a captured run and extending it produces exactly
the statistics of the uncaptured simulation, for every point of every
sweep.

Usage:
    tools/check_fork_identity.py <simrunner> <scenarios...>
        [--workdir DIR]

Exit status: 0 on identity (and both runs passing), 1 otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_leg(simrunner, inputs, report, cold):
    cmd = [simrunner, "--quiet", "--jobs", "1", "--report", report]
    if cold:
        cmd.append("--cold-sweep")
    cmd += inputs
    print("+", " ".join(cmd), flush=True)
    return subprocess.call(cmd)


def main():
    parser = argparse.ArgumentParser(
        description="forked-vs-cold sweep report identity")
    parser.add_argument("simrunner")
    parser.add_argument("inputs", nargs="+",
                        help="sweep scenario files or directories")
    parser.add_argument("--workdir", default=".")
    args = parser.parse_args()

    forked = os.path.join(args.workdir, "report_forked.json")
    cold = os.path.join(args.workdir, "report_cold.json")

    rc_forked = run_leg(args.simrunner, args.inputs, forked, cold=False)
    rc_cold = run_leg(args.simrunner, args.inputs, cold, cold=True)
    # Scenario failures fail the gate too, but only after the diff ran:
    # an identity break plus a red scenario should report both.
    rc_diff = subprocess.call(
        [sys.executable, os.path.join(HERE, "report_diff.py"), forked,
         cold])

    if rc_diff != 0:
        print("check_fork_identity: FAILED — forked sweep points diverged "
              "from cold reruns")
        return 1
    if rc_forked != 0 or rc_cold != 0:
        print("check_fork_identity: scenario failures (forked rc={}, "
              "cold rc={})".format(rc_forked, rc_cold))
        return 1
    print("check_fork_identity: OK — snapshot forks bit-identical to cold "
          "reruns across the suite")
    return 0


if __name__ == "__main__":
    sys.exit(main())
