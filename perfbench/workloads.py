"""The three workloads: seeded inputs, one callable per op, and its oracle check.

Each ``setup_*`` function takes the imported fslat modules, a seeded
``random.Random``, the smoke flag and a scratch directory, and returns a
list of ``Op``.  The seed only permutes or draws inputs; fslat sees nothing
but the generated groups, algebra files and command lines.  Rationale for
each workload is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from math import log10
from typing import Any, Callable

import oracle


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def _cli_call(cli, argv):
    """In-process ``fslat`` invocation; returns (exit code, captured stdout)."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue()

    return call


# ---------------------------------------------------------------- census

CENSUS_MAX_ORDER = 32
CENSUS_SMOKE_MAX_ORDER = 8


def setup_census(fs, rng, smoke, workdir):
    """One op per group: ``verify_bijection(spec)`` over every factor
    multiset up to order 32, in seeded order, as scripts/bijection_census.py
    calls it."""
    groups, quasivar = fs["groups"], fs["quasivar"]
    specs = groups.all_group_specs(CENSUS_SMOKE_MAX_ORDER if smoke else CENSUS_MAX_ORDER)
    rng.shuffle(specs)
    ops = []
    for spec in specs:
        orders = spec.orders
        ops.append(
            Op(
                "verify_bijection",
                lambda spec=spec: quasivar.verify_bijection(spec),
                lambda report, orders=orders: oracle.check_bijection_report(orders, report),
            )
        )
    return ops


def warm_census(fs, workdir):
    fs["quasivar"].verify_bijection(fs["groups"].make_group([2, 2]))


# ---------------------------------------------------------------- analyze

# The roster fixes each algebra's group and subgroup orders: (orders, |H|)
# for a fan, (orders, |H|, |H'|) for a tower.  The seed picks which
# subgroups of those orders, the carrier order and the request order, so
# algebra sizes, and with them the cost of a pass, do not move with it.
ANALYZE_FANS = (
    ((2, 2, 2, 2), 1), ((16,), 1), ((3, 5), 1), ((2, 2, 3), 1), ((7,), 1), ((4, 4), 2),
    ((2, 2, 4), 2), ((2, 6), 2), ((2, 2, 2), 2), ((2, 8), 4), ((12,), 3), ((3, 3), 3),
)
ANALYZE_TOWERS = (
    ((2, 2, 2, 2), 2, 1), ((16,), 2, 1), ((2, 8), 4, 1), ((3, 5), 3, 1),
    ((2, 6), 2, 1), ((4, 4), 4, 2), ((3, 3), 3, 1), ((2, 2, 3), 6, 2),
)
ANALYZE_SMOKE = ((((2, 2), 1), ((6,), 2)), (((4,), 2, 1),))

# Requests sent against every algebra of a family; ``quasi`` is sent once
# per quasi-identity in oracle.QUASI_IDENTITIES.
_TOWER_REQUESTS = ("validate", "hasse", "hasse --actions", "check-minimal", "quasi")
_FAN_REQUESTS = _TOWER_REQUESTS + ("decompose", "simplicity")


def _subgroups_of_order(orders, size, within=None):
    """Subgroups of the given order generated by at most two elements,
    optionally inside ``within``, in a fixed order."""
    elems = sorted(within) if within is not None else oracle.group_elements(orders)
    subs = {oracle.closure(orders, pair) for pair in itertools.combinations_with_replacement(elems, 2)}
    return sorted((h for h in subs if len(h) == size), key=sorted)


def _cosets(orders, sub):
    blocks = {}
    for g in oracle.group_elements(orders):
        block = frozenset(oracle.add(orders, g, h) for h in sub)
        blocks[min(block)] = block
    return [blocks[k] for k in sorted(blocks)]


def _label(prefix, block):
    return prefix + ",".join(str(c) for c in min(block))


def _build_layers(rng, orders, layers):
    """Algebra whose levels are coset partitions, finest on top, above a zero.

    ``layers`` lists subgroups from the bottom level up, each containing the
    next.  Two elements meet at the deepest level where one coset holds
    both, else at zero.  The carrier is shuffled so that results do not rest
    on a fixed layout.  Returns the algebra dict and the labels of each level.
    """
    levels = [(_cosets(orders, sub), prefix) for sub, prefix in layers]
    nodes = [(depth, block) for depth, (blocks, _) in enumerate(levels) for block in blocks]
    labels = [_label(levels[d][1], b) for d, b in nodes]
    order = list(range(len(nodes))) + [len(nodes)]
    rng.shuffle(order)
    carrier = [labels[i] if i < len(nodes) else "o" for i in order]
    pos = {old: new for new, old in enumerate(order)}
    zero = pos[len(nodes)]
    offset = [sum(len(levels[e][0]) for e in range(d)) for d in range(len(levels))]
    block_of = [{g: k for k, b in enumerate(blocks) for g in b} for blocks, _ in levels]

    def meet_nodes(i, j):
        (di, bi), (dj, bj) = nodes[i], nodes[j]
        g, h = min(bi), min(bj)
        for depth in range(min(di, dj), -1, -1):
            k = block_of[depth][g]
            if block_of[depth][h] == k:
                return offset[depth] + k
        return None

    n = len(carrier)
    meet = [[zero] * n for _ in range(n)]
    for i in range(len(nodes)):
        for j in range(len(nodes)):
            m = meet_nodes(i, j)
            if m is not None:
                meet[pos[i]][pos[j]] = pos[m]
    action = []
    for i in range(len(orders)):
        step = tuple(1 if j == i else 0 for j in range(len(orders)))
        perm = [0] * n
        for idx, (depth, block) in enumerate(nodes):
            perm[pos[idx]] = pos[offset[depth] + block_of[depth][oracle.add(orders, min(block), step)]]
        perm[zero] = zero
        action.append(perm)
    data = {"group": {"orders": list(orders)}, "carrier": carrier, "meet": meet, "action": action}
    level_labels = [{_label(levels[d][1], b) for dd, b in nodes if dd == d} for d in range(len(levels))]
    return data, level_labels


@dataclass
class _Algebra:
    path: str
    family: str
    table: oracle.Table
    subgroup: frozenset
    lower_labels: set


def _write_algebra(workdir, i, family, data, subgroup, lower):
    path = os.path.join(workdir, f"alg{i:02d}-{family}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return _Algebra(path, family, oracle.Table(data), subgroup, lower)


def _draw_algebras(rng, fans, towers, workdir):
    """Fans over a proper H; towers stack the cosets of H' < H over those of
    H, with H proper and nontrivial so that the group moves the lower level
    and one upper element generates the whole tower."""
    out = []
    for orders, size in fans:
        h = rng.choice(_subgroups_of_order(orders, size))
        data, _ = _build_layers(rng, orders, [(h, "")])
        out.append(_write_algebra(workdir, len(out), "fan", data, h, set()))
    for orders, size, fine in towers:
        h = rng.choice(_subgroups_of_order(orders, size))
        h_fine = rng.choice(_subgroups_of_order(orders, fine, within=h))
        data, levels = _build_layers(rng, orders, [(h, "l"), (h_fine, "u")])
        out.append(_write_algebra(workdir, len(out), "tower", data, h, levels[0]))
    return out


def _analyze_op(cli, alg, request, qi_name=None):
    kind, *flags = request.split()
    t = alg.table
    argv = [kind, "--algebra", alg.path] + flags

    def payload(text):
        return oracle.load_json(text) or {}

    if kind == "validate":
        check = lambda out: oracle.check_validate(t, out[0], payload(out[1]))
    elif kind == "hasse":
        check = lambda out: oracle.check_hasse(t, out[0], out[1], bool(flags))
    elif kind == "check-minimal" and alg.family == "fan":
        check = lambda out: oracle.check_minimal_fan(t, out[0], payload(out[1]))
    elif kind == "check-minimal":
        check = lambda out: oracle.check_minimal_tower(t, out[0], payload(out[1]), alg.lower_labels)
    elif kind == "decompose":
        check = lambda out: oracle.check_decompose(t, out[0], payload(out[1]), alg.subgroup)
    elif kind == "simplicity":
        check = lambda out: oracle.check_simplicity_fan(t, out[0], payload(out[1]))
    else:
        argv += ["--qi", oracle.QUASI_IDENTITIES[qi_name]["text"]]
        check = lambda out: oracle.check_quasi(t, qi_name, out[0], payload(out[1]))
    label = f"{kind}:{alg.family}" if qi_name is None else f"quasi-{qi_name}:{alg.family}"
    return Op(label, _cli_call(cli, argv), check)


def setup_analyze(fs, rng, smoke, workdir):
    """In-process CLI requests against coset fans (free-minimal) and towers
    (not minimal) written to ``workdir``, in seeded order."""
    fans, towers = ANALYZE_SMOKE if smoke else (ANALYZE_FANS, ANALYZE_TOWERS)
    ops = []
    for alg in _draw_algebras(rng, fans, towers, workdir):
        for request in _FAN_REQUESTS if alg.family == "fan" else _TOWER_REQUESTS:
            if request == "quasi":
                ops += [_analyze_op(fs["cli"], alg, request, name) for name in sorted(oracle.QUASI_IDENTITIES)]
            else:
                ops.append(_analyze_op(fs["cli"], alg, request))
    rng.shuffle(ops)
    return ops


def warm_analyze(fs, workdir):
    path = os.path.join(workdir, "warm.json")
    data, _ = _build_layers(random.Random(0), (2,), [(frozenset({(0,)}), "")])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    for argv in (["validate"], ["check-minimal"], ["decompose"], ["hasse"]):
        _cli_call(fs["cli"], argv + ["--algebra", path])()


# ---------------------------------------------------------------- continuum

CONTINUUM_REQUESTS = 500
CONTINUUM_SMOKE_REQUESTS = 12
CONTINUUM_MAX_N = 10**5
_RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)


def _irrational_text(p, q, r, d):
    return f"({p}+{q}*sqrt:{d})/{r}"


def _approx(p, q, r, d):
    return (p + q * d ** 0.5) / r


def _generic_pair(rng):
    """alpha < beta, each (p + q sqrt d)/r with small coefficients; floats
    only order the pair, whose gap is far above their error."""
    while True:
        one, two = (
            (rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 6), rng.choice(_RADICANDS))
            for _ in range(2)
        )
        a, b = _approx(*one), _approx(*two)
        if abs(a - b) > 1e-6:
            return (one, two) if a < b else (two, one)


def _near_rational_pair(rng, stratum, strata, max_n):
    """alpha = s + sqrt(d)/N, beta = s + 2 sqrt(d)/N.

    The descent length grows like N/sqrt(d), so N is drawn log-uniform in
    [10, max_n] as scaled by sqrt(d/13): stratified, one draw per stratum,
    so that the total work of a pass hardly moves with the seed."""
    s = rng.randint(-3, 3)
    d = rng.choice(_RADICANDS)
    u = (stratum + rng.random()) / strata
    n = max(2, round(10 ** (1 + u * (log10(max_n) - 1)) * (d / 13) ** 0.5))
    return (s * n, 1, n, d), (s * n, 2, n, d)


def setup_continuum(fs, rng, smoke, workdir):
    """Half generic pairs alpha < beta with small coefficients, half
    near-rational pairs whose Stern-Brocot descent is long, in seeded order."""
    requests = CONTINUUM_SMOKE_REQUESTS if smoke else CONTINUUM_REQUESTS
    max_n = 100 if smoke else CONTINUUM_MAX_N
    ops = []
    for i in range(requests):
        if i % 2 == 0:
            kind, (alpha, beta) = "generic", _generic_pair(rng)
        else:
            kind, (alpha, beta) = "near", _near_rational_pair(rng, i // 2, requests // 2, max_n)
        a_text, b_text = _irrational_text(*alpha), _irrational_text(*beta)
        argv = ["balpha", "--alpha", a_text, "--beta", b_text]
        ops.append(
            Op(
                kind,
                _cli_call(fs["cli"], argv),
                lambda out, a=a_text, b=b_text: oracle.check_balpha(
                    a, b, out[0], oracle.load_json(out[1]) or {"between": [0, 0]}
                ),
            )
        )
    rng.shuffle(ops)
    return ops


def warm_continuum(fs, workdir):
    _cli_call(fs["cli"], ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3"])()


WORKLOADS = {
    "census": (setup_census, warm_census),
    "analyze": (setup_analyze, warm_analyze),
    "continuum": (setup_continuum, warm_continuum),
}
