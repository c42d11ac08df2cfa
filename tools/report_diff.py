#!/usr/bin/env python3
"""Diff two simrunner batch reports, ignoring wall-time fields.

The simulator is deterministic: two runs of the same scenario suite
must produce byte-identical reports except for host-speed telemetry.
This is the comparator behind the serial-vs-parallel CI legs — a run
with ``--jobs N`` must match a ``--jobs 1`` run on every cycle count,
stall counter, memory counter and assertion value.

Ignored keys (wall-clock shaped, legitimately run-dependent):
``wall_ms``, ``ticks_per_sec``, ``jobs``, and each result's ``sim``
telemetry block wholesale.

Usage:
    tools/report_diff.py <a.json> <b.json> [--ignore key ...]

Exit status: 0 when the reports match modulo ignored keys, 1 otherwise.
"""

import argparse
import json
import sys

DEFAULT_IGNORE = ("wall_ms", "ticks_per_sec", "jobs", "sim")


def strip(node, ignore):
    """Recursively remove ignored keys from a parsed JSON tree."""
    if isinstance(node, dict):
        return {k: strip(v, ignore) for k, v in node.items()
                if k not in ignore}
    if isinstance(node, list):
        return [strip(v, ignore) for v in node]
    return node


def diff(a, b, path="$"):
    """Yield human-readable difference lines between two JSON trees."""
    if type(a) is not type(b):
        yield "{}: type {} vs {}".format(
            path, type(a).__name__, type(b).__name__)
        return
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            sub = "{}.{}".format(path, k)
            if k not in a:
                yield "{}: only in second report".format(sub)
            elif k not in b:
                yield "{}: only in first report".format(sub)
            else:
                yield from diff(a[k], b[k], sub)
    elif isinstance(a, list):
        if len(a) != len(b):
            yield "{}: length {} vs {}".format(path, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff(x, y, "{}[{}]".format(path, i))
    elif a != b:
        yield "{}: {} vs {}".format(path, a, b)


def main():
    parser = argparse.ArgumentParser(
        description="diff two batch reports modulo wall-time fields")
    parser.add_argument("report_a")
    parser.add_argument("report_b")
    parser.add_argument("--ignore", nargs="*", default=list(DEFAULT_IGNORE),
                        help="keys to strip everywhere before comparing")
    args = parser.parse_args()

    with open(args.report_a) as f:
        a = strip(json.load(f), set(args.ignore))
    with open(args.report_b) as f:
        b = strip(json.load(f), set(args.ignore))

    differences = list(diff(a, b))
    if differences:
        print("report_diff: {} and {} differ:".format(
            args.report_a, args.report_b))
        for line in differences[:50]:
            print("  ", line)
        if len(differences) > 50:
            print("   ... and {} more".format(len(differences) - 50))
        return 1
    print("report_diff: reports identical modulo {}".format(
        ", ".join(sorted(args.ignore))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
