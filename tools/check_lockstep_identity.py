#!/usr/bin/env python3
"""Event-driven-vs-lockstep identity gate for the scenario suite.

The engine's default loop ticks only the SMs with a due event and jumps
the clock over cycles in which every SM is provably stalled, charging
the skipped stall cycles lazily.  Lockstep mode (``"sim": {"idle_skip":
false}``) ticks every busy SM on every cycle and is the reference that
loop must reproduce.  This gate copies every top-level scenario file
into a work directory with ``sim.idle_skip`` forced to false, runs
``simrunner --jobs 1`` over the original and the copies, and requires
the two batch reports to be identical on every cycle stamp, stall
counter, memory counter and assertion value.

Ignored keys, beyond report_diff.py's wall-time defaults:

* ``ticks``/``skipped_cycles`` — main-loop telemetry that differs by
  construction (lockstep skips no cycle on its own);
* ``file`` — the copies live in the work directory.

Anti-vacuity: every scenario file must be rewritten, both reports must
hold the same non-zero number of results, the default run must skip
cycles somewhere, and the lockstep run must tick at least as often on
every result and more on some.  Whole-line ``//`` comments are
stripped before parsing; a file that still does not parse as a JSON
object fails the gate.

Usage:
    tools/check_lockstep_identity.py <simrunner> <scenarios_dir>
        [--workdir DIR]

Exit status: 0 on identity (and both runs passing), 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

IGNORE = ["wall_ms", "ticks_per_sec", "jobs", "sim", "ticks",
          "skipped_cycles", "file"]


def rewrite(src, dst):
    """Copy scenario @p src to @p dst with sim.idle_skip = false."""
    with open(src) as f:
        lines = [ln for ln in f if not ln.lstrip().startswith("//")]
    doc = json.loads("".join(lines))
    if not isinstance(doc, dict):
        raise ValueError("top level is not a JSON object")
    sim = doc.setdefault("sim", {})
    if not isinstance(sim, dict):
        raise ValueError('"sim" is not an object')
    sim["idle_skip"] = False
    with open(dst, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def run_report(simrunner, inputs, report):
    cmd = [simrunner, "--quiet", "--jobs", "1", "--report", report, inputs]
    print("+", " ".join(cmd), flush=True)
    return subprocess.call(cmd)


def totals(report):
    with open(report) as f:
        results = json.load(f)["results"]
    return [r.get("total", {}) for r in results]


def main():
    parser = argparse.ArgumentParser(
        description="event-driven vs lockstep scenario report identity")
    parser.add_argument("simrunner")
    parser.add_argument("scenarios_dir")
    parser.add_argument("--workdir", default=".")
    args = parser.parse_args()

    names = sorted(n for n in os.listdir(args.scenarios_dir)
                   if n.endswith(".json"))
    lockstep_dir = os.path.join(args.workdir, "lockstep_scenarios")
    os.makedirs(lockstep_dir, exist_ok=True)
    for old in os.listdir(lockstep_dir):
        os.remove(os.path.join(lockstep_dir, old))
    rewritten = 0
    for name in names:
        try:
            rewrite(os.path.join(args.scenarios_dir, name),
                    os.path.join(lockstep_dir, name))
        except (OSError, ValueError) as e:
            print("check_lockstep_identity: cannot rewrite {}: {}".format(
                name, e))
            return 1
        rewritten += 1
    if rewritten == 0 or rewritten != len(names):
        print("check_lockstep_identity: rewrote {} of {} scenario "
              "files".format(rewritten, len(names)))
        return 1

    default = os.path.join(args.workdir, "report_default.json")
    lockstep = os.path.join(args.workdir, "report_lockstep.json")
    rc_default = run_report(args.simrunner, args.scenarios_dir, default)
    rc_lockstep = run_report(args.simrunner, lockstep_dir, lockstep)
    # Scenario failures fail the gate too, but only after the diff ran:
    # an identity break plus a red scenario should report both.
    rc_diff = subprocess.call(
        [sys.executable, os.path.join(HERE, "report_diff.py"), default,
         lockstep, "--ignore"] + IGNORE)

    failures = 0
    if rc_diff != 0:
        print("check_lockstep_identity: FAILED — the event-driven run "
              "diverged from lockstep")
        failures += 1
    if rc_default != 0 or rc_lockstep != 0:
        print("check_lockstep_identity: scenario failures (default rc={}, "
              "lockstep rc={})".format(rc_default, rc_lockstep))
        failures += 1
    if failures:
        return 1

    t_default = totals(default)
    t_lockstep = totals(lockstep)
    if not t_default or len(t_default) != len(t_lockstep):
        print("check_lockstep_identity: result counts differ or are zero "
              "({} vs {})".format(len(t_default), len(t_lockstep)))
        return 1
    if not any(t.get("skipped_cycles", 0) > 0 for t in t_default):
        print("check_lockstep_identity: the default run skipped no "
              "cycles, so the comparison proves nothing")
        return 1
    # Lockstep ticks every cycle the engine itself would skip (the
    # serving driver's host-side idle jumps still count as skipped),
    # so it must tick more somewhere if the rewrite took effect.
    more = [b.get("ticks", 0) - a.get("ticks", 0)
            for a, b in zip(t_default, t_lockstep)]
    if min(more) < 0 or max(more) <= 0:
        print("check_lockstep_identity: lockstep did not tick more than "
              "the default run; the idle_skip rewrite did not take "
              "effect")
        return 1
    print("check_lockstep_identity: OK — {} scenario files ({} results) "
          "identical to lockstep".format(rewritten, len(t_default)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
