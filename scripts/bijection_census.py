#!/usr/bin/env python3
"""Census of the subgroup / minimal-quasivariety correspondence.

Runs the bijection verification over every abelian group up to a given
order and prints one summary row per factor multiset.  With ``--json`` it
prints instead one canonical JSON document, the list of every group's
``BijectionReport.to_dict()`` with no timings, so that two runs can be
compared byte for byte.  Either way the exit code is 1 when a group fails,
and 2, with one ``error:`` line, when stdout closes before the output ends.

Usage: python scripts/bijection_census.py [--max-order 16] [--json]
"""

import argparse
import os
import sys
import time

from fslat import groups as G
from fslat import quasivar as Q
from fslat.cli import MAX_GROUP_ORDER, dumps


def max_order(text: str) -> int:
    """A group order bound in [1, MAX_GROUP_ORDER], the range ``fslat`` accepts."""
    value = G.parse_int(text)
    if not 1 <= value <= MAX_GROUP_ORDER:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_GROUP_ORDER}, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=max_order, default=16)
    parser.add_argument("--json", action="store_true", help="print the reports as one JSON document")
    args = parser.parse_args()

    if args.json:
        reports = [Q.verify_bijection(spec) for spec in G.all_group_specs(args.max_order)]
        print(dumps([report.to_dict() for report in reports]))
        if not all(report.ok for report in reports):
            raise SystemExit(1)
        return

    grand_total = 0
    start = time.perf_counter()
    print(f"{'group':>14} {'order':>5} {'subgroups':>9} {'minimal':>7} {'ok':>3} {'secs':>6}")
    for spec in G.all_group_specs(args.max_order):
        t0 = time.perf_counter()
        report = Q.verify_bijection(spec)
        proper = sum(1 for e in report.entries if e.is_proper)
        grand_total += report.subgroup_count
        print(
            f"{str(spec):>14} {spec.order():>5} {report.subgroup_count:>9} "
            f"{proper:>7} {'yes' if report.ok else 'NO':>3} {time.perf_counter() - t0:>6.2f}"
        )
        if not report.ok:
            raise SystemExit(1)
    print(f"\n{grand_total} subgroups verified in {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
    except BrokenPipeError as exc:
        # the interpreter flushes stdout again at exit; point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
