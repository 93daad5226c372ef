#!/usr/bin/env python3
"""The sha256 pins of the tool's byte-level record: each pin writes
canonical payloads to stdout, and ``PINS`` holds the sha256 of those bytes.
Runs every pin in one process and prints, per pin, the name, the digest,
``OK`` or ``DIFFERS``, the time and the load cache's hits and misses; exits
1 when a pin differs.  ``tests/test_pins.py`` runs every pin in tier-1.

Usage: python scripts/pins.py
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
import time

from fslat import algebras, cli, groups, quasivar


def census():
    """The bytes of ``scripts/bijection_census.py --max-order 64 --json``."""
    reports = [quasivar.verify_bijection(spec) for spec in groups.all_group_specs(64)]
    assert all(report.ok for report in reports)
    print(cli.dumps([report.to_dict() for report in reports]))


def subgroups():
    """``fslat group subgroups`` on every group of order <= 64."""
    for spec in groups.all_group_specs(64):
        assert cli.run(["group", "subgroups", "--orders", ",".join(map(str, spec.orders))]) == 0


def balpha():
    """``fslat balpha --samples 289`` on every pair sqrt:a < sqrt:b, then on
    (sN+1*sqrt:d)/N < (sN+2*sqrt:d)/N for each radicand d, denominator N
    and shift s: 100 requests."""
    radicands = (2, 3, 5, 6, 7, 10, 11, 13)
    pairs = [(f"sqrt:{a}", f"sqrt:{b}") for a, b in itertools.combinations(radicands, 2)]
    pairs += [(f"({s * n}+1*sqrt:{d})/{n}", f"({s * n}+2*sqrt:{d})/{n}")
              for d in radicands for n in (10, 317, 99991) for s in (-3, 0, 2)]
    for alpha, beta in pairs:
        assert cli.run(["balpha", "--alpha", alpha, "--beta", beta, "--samples", "289"]) == 0


def _builds(kind, max_order, path):
    """(group, subgroup, ``fslat build KIND`` argv writing to ``path``) for
    each proper subgroup of order <= ``max_order``, in ``subgroups`` order."""
    for spec in groups.all_group_specs(max_order):
        for sub in filter(lambda sub: sub.is_proper, groups.subgroups(spec)):
            yield spec, sub, ["build", kind, "--orders", ",".join(map(str, spec.orders)),
                              "--subgroup", ";".join(",".join(map(str, e)) for e in sub.elements),
                              "--out", path]


def minimal():
    """``fslat check-minimal`` and ``fslat decompose`` on the ``build maroti``
    file of every proper subgroup of order <= 32: 1,150 fan files, each
    loaded twice, the second time from the load cache."""
    with tempfile.TemporaryDirectory() as tmp:
        fan = os.path.join(tmp, "fan.json")
        for _, _, build in _builds("maroti", 32, fan):
            for argv in (build, ["check-minimal", "--algebra", fan], ["decompose", "--algebra", fan]):
                assert cli.run(argv) == 0


def twisted():
    """``fslat build twisted`` on every proper subgroup of order <= 16, with
    ``--u trivial`` and ``chain2``, with no ``--transversal`` and with each
    coset's greatest member, then ``check-minimal`` and ``decompose``: every
    file and exit code (the 864 analyses of chain2 files exit 2)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "twisted.json")
        for spec, sub, build in _builds("twisted", 16, path):
            greatest = ";".join(",".join(map(str, block[-1])) for block in groups.cosets(spec, sub))
            for u in ("trivial", "chain2"):
                for reps in ([], ["--transversal", greatest]):
                    code = cli.run([*build, "--u", u, *reps])
                    with open(path, encoding="utf-8") as fh:
                        sys.stdout.write(fh.read())
                    print(code)
                    for argv in (["check-minimal", "--algebra", path], ["decompose", "--algebra", path]):
                        print(cli.run(argv))


PINS = {
    "census": (census, "3a4a36ff86fd9e480081999ca8683b77cc661899c797ae544f4cdae541ca9296"),
    "subgroups": (subgroups, "fa6042ca5edbd2201d327ab0625a63325a475735462fd41ffcfde520e443d053"),
    "balpha": (balpha, "0e2471feb7adeabe07709d8eb95792a645f373d3f87854a75cef2f7704d81920"),
    "minimal": (minimal, "6692e15e2d7eb40016beedeb487f2ad85d7d4037ffa9ef2b97bfd1f6105b2d28"),
    "twisted": (twisted, "4eece25ce0aa881f536c1c560fefea04cce3fd96a2c911f1b20d376898024edd"),
}


def digest(pin) -> str:
    """The sha256 of what ``pin`` writes to stdout; its stderr, such as the
    ``twisted`` pin's 864 ``error:`` lines, is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        pin()
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()  # no options: --help, or exit 2
    differs = []
    for name, (pin, pinned) in PINS.items():
        before, start = algebras._loaded_algebra.cache_info(), time.perf_counter()
        got = digest(pin)
        ms, after = 1000 * (time.perf_counter() - start), algebras._loaded_algebra.cache_info()
        if got != pinned:
            differs.append(name)
        print(f"{name} {got} {'OK' if got == pinned else 'DIFFERS'} {ms:.0f} ms, "
              f"loaded algebras: {after.hits - before.hits} hits, {after.misses - before.misses} misses")
    if differs:
        print(f"error: pins differ: {', '.join(differs)}", file=sys.stderr)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
