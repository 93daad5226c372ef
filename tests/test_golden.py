"""Golden payloads: the sha256 of stdout and the exit code of fixed CLI
requests, pinned so that a refactoring which changes any canonical byte is
caught, not only one that makes reruns differ."""

import hashlib
import json

import pytest

from fslat import algebras as A
from fslat import constructions as C
from fslat import groups as G
from fslat.cli import run
from tables import greatest_transversal

Z4 = G.make_group([4])


def _tower():
    """Cosets of {0} above cosets of {0, 2} in C4, above a zero: the atoms
    l0, l1 hold the even and odd upper elements u0..u3; not free-minimal."""
    carrier = ("u0", "u1", "u2", "u3", "l0", "l1", "o")
    lower = {i: 4 + i % 2 for i in range(4)}
    meet = [[6] * 7 for _ in range(7)]
    for x in range(7):
        meet[x][x] = x
    for i in range(4):
        for j in range(4):
            if i != j and lower[i] == lower[j]:
                meet[i][j] = lower[i]
        meet[i][lower[i]] = meet[lower[i]][i] = lower[i]
    return A.FSemilattice(Z4, carrier, meet, ((1, 2, 3, 0, 5, 4, 6),))


def _twisted():
    """The twisted multiple of the one-element factor over C2xC4 > {0, (0,2)},
    built on the lexicographically greatest coset members."""
    c2x4 = G.make_group([2, 4])
    h = G.subgroup_from_elements(c2x4, [(0, 0), (0, 2)])
    return C.twisted_multiple(c2x4, h, reps=greatest_transversal(c2x4, h))


def _fan():
    c2x4 = G.make_group([2, 4])
    return C.maroti(c2x4, G.subgroup_from_elements(c2x4, [(0, 0), (0, 2)]))


def _escaped():
    """A three-element table over C2 that is not commutative at its first
    two labels; the labels hold characters JSON escapes."""
    fan = C.maroti(G.make_group([2]), G.trivial_subgroup(G.make_group([2])))
    meet = [list(row) for row in fan.meet]
    meet[0][1] = 0
    return A.FSemilattice(fan.group, ("caf\u00e9", 'say "hi" \\ bye', "o"), meet, fan.action)


ALGEBRAS = {"tower": _tower, "twisted": _twisted, "fan": _fan, "escaped": _escaped}

# name: (argv, with {tower}, {twisted}, {fan} and {escaped} standing for algebra files)
REQUESTS = {
    "build-twisted-chain2": [
        "build", "twisted", "--orders", "6", "--subgroup", "0;3", "--u", "chain2",
        "--transversal", "3;1;5",
    ],
    "simplicity-twisted": ["simplicity", "--algebra", "{twisted}"],
    "simplicity-fan": ["simplicity", "--algebra", "{fan}"],
    "check-minimal-tower": ["check-minimal", "--algebra", "{tower}"],
    "quasi-tower": ["quasi", "--algebra", "{tower}", "--qi", "x^y=x & g0^2(y)=y -> x = g0^2(x)"],
    "quasi-tower-fails": ["quasi", "--algebra", "{tower}", "--qi", "x^y=y -> x=y"],
    "hasse-actions-tower": ["hasse", "--algebra", "{tower}", "--actions"],
    "verify-bijection": ["verify-bijection", "--orders", "2,4"],
    "balpha": ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--samples", "7"],
    "balpha-no-samples": ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--samples", "0"],
    "balpha-one-sample": ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--samples", "1"],
    "balpha-negative-alpha": [
        "balpha", "--alpha", "(1+-1*sqrt:5)/2", "--beta", "sqrt:2", "--samples", "289",
    ],
    "validate-escaped-labels": ["validate", "--algebra", "{escaped}"],
}

# Recorded with the tuple-coded twisted multiple and the pairwise separating
# search, and balpha-negative-alpha and validate-escaped-labels with
# ``json.dumps(payload, indent=2)``, and quasi-tower-fails (a witness) with
# the valuation-by-valuation quasi-identity scan, and balpha-no-samples and
# balpha-one-sample with the samples as lists of lists; the coded versions,
# ``cli.dumps``, the value-mask scan and the tuple rows must reproduce every byte.
GOLDEN = {
    "balpha": ("9bb173704871ab7eaca6e17e6a69ed66e562849fa8e5c21c1fee7783d1d3f56c", 0),
    "balpha-negative-alpha": ("c2aad3fb9d5617e5528324ad8a5a83f9f0576ceb92cecaab01d97c2edd0d213e", 0),
    "balpha-no-samples": ("ab6339c17c04ce1e7979fde52806ca56a064df4e62f6301a6a57b38a4ad302d8", 0),
    "balpha-one-sample": ("ae86fd6edbf002ccd41bcbadb33487f26c34f776f3a79f19fab610f61fb12793", 0),
    "build-twisted-chain2": ("9c6e0b20969aea8a6dd8a5941f92eb3048b7b04392062a04cd4c456ef3cd695c", 0),
    "check-minimal-tower": ("0a72ca46c354bdba27671aa7747dc3f429732ee3490efaf27db6368fd275ea8f", 1),
    "hasse-actions-tower": ("754f1eaff5c3fc3c88e6c237522b5cddad11e9b6826fa9ddb9a24b65e3205a01", 0),
    "quasi-tower": ("bca20456c99b8e4a6a791069f95675ea41f0e3b999596cd568c4e8dadce72f1f", 0),
    "quasi-tower-fails": ("2a69b429cfcaffe68c6f937ede369cfea5a50f8beac20a27710c3fd15b0f313f", 1),
    "simplicity-fan": ("aa1c7ced6c55f9ee6143387cfb55659ed7118ed77e4565669f47c155b358eb3d", 0),
    "simplicity-twisted": ("f873c1d3fd5ae3e9fac8e72ff5172f66c7ae24b9ce96888258f953982e587f68", 0),
    "validate-escaped-labels": ("8ccbb27fd3f56e98a09a7769e9deb97feed18a05433f7977f642b42880dcf919", 1),
    "verify-bijection": ("3083732fe32e55a7afae2c011e9df6caa3aad46e7e8ef94cf1717557da5fff4d", 0),
}


def outcome(capsys, tmp_path, name):
    """(sha256 of stdout, exit code) of one request, the algebra files it
    names written under ``tmp_path``."""
    paths = {}
    for key, build in ALGEBRAS.items():
        if "{" + key + "}" in REQUESTS[name]:
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(A.algebra_to_dict(build())))
            paths[key] = str(path)
    argv = [arg.format(**paths) for arg in REQUESTS[name]]
    code = run(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode()).hexdigest(), code


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_payload(capsys, tmp_path, name):
    assert outcome(capsys, tmp_path, name) == GOLDEN[name]

