#!/usr/bin/env python3
"""Declarative-vs-legacy identity gate for migrated task-graph scenarios.

The scenarios that were migrated to the declarative form (tensor arena
plus per-kernel ``reads``/``writes``) keep their hand-written originals
under ``scenarios/legacy/``.  This gate runs simrunner on both forms
and requires the batch reports to match on every cycle stamp, stall
counter, memory counter, event stamp and assertion value — the
end-to-end proof that the task-graph compiler lowers to the exact op
sequence the legacy plumbing spelled out.

Per-pair ignore keys, beyond report_diff.py's wall-time defaults:

* ``file`` — the two forms live at different paths;
* ``events`` — the compiler records an event per cross-stream edge,
  the hand-written form sometimes records extras (e.g. trailing
  records nothing waits on), and recording is cycle-neutral;
* ``assertions`` — the declarative files additionally assert the
  derived stream assignment, so the expect lists differ by design
  (the compared kernel/total metrics cover every asserted value);
* ``ticks``/``skipped_cycles`` — engine main-loop telemetry: the
  legacy no-op waits and trailing records add op-queue entries that
  shift tick boundaries by one without moving any cycle stamp;
* ``stream`` (fork_join_conv_gemm only) — the compiler packs the join
  head onto the conv stream, using two streams where the hand-written
  scenario spends three.  Stream *labels* may differ; cycles may not.

Usage:
    tools/check_taskgraph_identity.py <simrunner> <scenarios_dir>
        [--workdir DIR]

Exit status: 0 on identity (and all runs passing), 1 otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

BASE_IGNORE = ["wall_ms", "ticks_per_sec", "jobs", "sim",
               "file", "events", "assertions", "ticks", "skipped_cycles"]

# (scenario basename, extra ignore keys)
PAIRS = [
    ("event_dag_mlp3.json", []),
    ("fork_join_conv_gemm.json", ["stream"]),
]


def run_report(simrunner, scenario, report):
    cmd = [simrunner, "--quiet", "--jobs", "1", "--report", report,
           scenario]
    print("+", " ".join(cmd), flush=True)
    return subprocess.call(cmd)


def main():
    parser = argparse.ArgumentParser(
        description="declarative-vs-legacy scenario report identity")
    parser.add_argument("simrunner")
    parser.add_argument("scenarios_dir",
                        help="directory holding the declarative scenarios "
                             "and their legacy/ twins")
    parser.add_argument("--workdir", default=".")
    args = parser.parse_args()

    failures = 0
    for basename, extra_ignore in PAIRS:
        decl = os.path.join(args.scenarios_dir, basename)
        legacy = os.path.join(args.scenarios_dir, "legacy", basename)
        stem = os.path.splitext(basename)[0]
        decl_report = os.path.join(args.workdir,
                                   "report_decl_{}.json".format(stem))
        legacy_report = os.path.join(args.workdir,
                                     "report_legacy_{}.json".format(stem))

        rc_decl = run_report(args.simrunner, decl, decl_report)
        rc_legacy = run_report(args.simrunner, legacy, legacy_report)
        rc_diff = subprocess.call(
            [sys.executable, os.path.join(HERE, "report_diff.py"),
             decl_report, legacy_report,
             "--ignore"] + BASE_IGNORE + extra_ignore)

        if rc_diff != 0:
            print("check_taskgraph_identity: FAILED — {} diverged from "
                  "its legacy twin".format(basename))
            failures += 1
        if rc_decl != 0 or rc_legacy != 0:
            print("check_taskgraph_identity: {} scenario failures "
                  "(declarative rc={}, legacy rc={})".format(
                      basename, rc_decl, rc_legacy))
            failures += 1

    if failures:
        return 1
    print("check_taskgraph_identity: OK — {} migrated scenario(s) "
          "bit-identical to their hand-written forms".format(len(PAIRS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
