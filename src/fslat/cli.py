"""Command-line front end: build, validate, visualize, and verify.

Every subcommand is deterministic given identical inputs and flags; payloads
carry no timestamps, so identical invocations emit identical bytes.  Exit
codes: 0 success/verified, 1 property failure (with a certificate in the
payload), 2 usage error.  Every command that reads ``--algebra`` validates
it on load: a table that fails an axiom gets the ``validate`` payload and
exit 1 before anything else runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from . import algebras, constructions, groups, irrationals, quasivar
from .algebras import FSemilattice


# Most cyclic factors and largest product of the finite factor orders that
# ``--orders`` and an ``--algebra`` file's group accept, and the most atoms
# ``build ak`` builds; larger requests are usage errors, refused before
# anything is built or validated (validation compares every pair of
# generator permutations, so its cost grows with the square of the rank).
MAX_GROUP_RANK = 16
MAX_GROUP_ORDER = 64
MAX_AK_ATOMS = 256


def _check_orders(orders) -> None:
    if len(orders) > MAX_GROUP_RANK:
        raise ValueError(f"groups take at most {MAX_GROUP_RANK} cyclic factors, got {len(orders)}")
    if math.prod(k for k in orders if k >= 1) > MAX_GROUP_ORDER:
        shown = ",".join(map(str, orders))
        raise ValueError(f"finite factor orders {shown} multiply to more than {MAX_GROUP_ORDER}")


def _parse_orders(text: str) -> groups.GroupSpec:
    orders = [int(p) for p in text.split(",")]
    _check_orders(orders)
    return groups.make_group(orders)


def _parse_elements(text: str) -> list[groups.Element]:
    """The ';'-separated elements of ``text``; blank parts are skipped."""
    return [groups.parse_element(part) for part in text.split(";") if part.strip()]


def _load_algebra(path: str) -> FSemilattice:
    """The algebra in ``path``; ``InvalidAlgebraError`` if it fails an axiom.
    Its group's rank and order are checked before its tables are."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply to load") from None
    try:
        group = groups.group_from_dict(data["group"])
    except (KeyError, TypeError):
        pass  # algebra_from_dict names the malformed payload
    else:
        _check_orders(group.orders)
    algebra = algebras.algebra_from_dict(data)
    algebras.require_valid(algebra)
    return algebra


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(obj: float) -> str:
    if obj != obj:
        return "NaN"
    if obj == math.inf:
        return "Infinity"
    if obj == -math.inf:
        return "-Infinity"
    return float.__repr__(obj)


# The JSON text of each scalar, by its exact type; ``_write`` finds the base
# type of a subclass of str, int or float by isinstance, in json's order.
_SCALAR_TEXT = {
    str: _encode_str,
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: int.__repr__,
    float: _float_text,
}


def _write(obj, chunks: list[str], newline: str) -> None:
    """Append the JSON text of ``obj`` to ``chunks``; ``newline`` is a line
    break followed by the indent of the line ``obj`` starts on."""
    to_text = _SCALAR_TEXT.get(type(obj))
    if to_text is not None:
        chunks.append(to_text(obj))
    elif isinstance(obj, (str, int, float)):  # a subclass: its base type's text
        chunks.append(_SCALAR_TEXT[next(t for t in (str, int, float) if isinstance(obj, t))](obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            chunks.append("[]")
            return
        inner = newline + "  "
        try:
            texts = [_SCALAR_TEXT[type(item)](item) for item in obj]
        except KeyError:  # a container or a subclass among the items
            separator = "[" + inner
            for item in obj:
                chunks.append(separator)
                separator = "," + inner
                _write(item, chunks, inner)
            chunks.append(newline + "]")
        else:
            chunks.append("[" + inner + ("," + inner).join(texts) + newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            chunks.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in obj.items():
            # encode_basestring_ascii raises TypeError for a key that is not a str
            chunks.append(separator + _encode_str(key) + ": ")
            separator = "," + inner
            _write(value, chunks, inner)
        chunks.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with str keys,
    lists, tuples, str, int, float, bool and None; any other type, and a
    dict key that is not a str, raises ``TypeError``.  CPython encodes in C
    only without ``indent``; its pure-Python indented encoder costs more than
    most requests."""
    chunks: list[str] = []
    _write(obj, chunks, "\n")
    return "".join(chunks)


def _emit(payload: dict, args) -> None:
    """Print ``payload`` as indented JSON (``dumps``), or write it to
    ``--out`` with the same bytes; ``--meta`` wraps it with the argv that
    ``run`` parsed and the clock."""
    if getattr(args, "meta", False):
        payload = {"payload": payload, "meta": {"argv": args.argv, "time": time.time()}}
    text = dumps(payload)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _generator_index(algebra: FSemilattice, label: str | None) -> int:
    if label is not None:
        return algebra.index(label)
    for x in range(algebra.size):
        if algebras.generates(algebra, x):
            return x
    raise ValueError("no single element generates this algebra; pass --generator")


def _dot_id(label: str) -> str:
    """A carrier label as a quoted DOT identifier."""
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def hasse_dot(algebra: FSemilattice, include_actions: bool = False) -> str:
    """DOT digraph of the covering relation, optionally with dashed action arcs."""
    ids = [_dot_id(label) for label in algebra.carrier]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for node in ids:
        lines.append(f"  {node};")
    for low, high in sorted(algebras.cover_edges(algebra)):
        lines.append(f"  {ids[low]} -> {ids[high]};")
    if include_actions:
        for i, perm in enumerate(algebra.action):
            for x in range(algebra.size):
                lines.append(
                    f'  {ids[x]} -> {ids[perm[x]]} [style=dashed, label="g{i}", constraint=false];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_group_subgroups(args) -> int:
    group = _parse_orders(args.orders)
    subs = groups.subgroups(group)
    order = group.order()
    payload = {
        "group": groups.group_to_dict(group),
        "order": "infinite" if order is None else order,
        "count": len(subs),
        "subgroups": [groups.subgroup_to_dict(s) for s in subs],
    }
    _emit(payload, args)
    return 0


# The flags each kind of build needs, then those it may take; ``build``
# refuses any other one given.
BUILD_FLAGS = {
    "maroti": (("orders", "subgroup"), ()),
    "twisted": (("orders", "subgroup"), ("transversal", "u")),
    "ak": (("k",), ()),
    "two-element": (("orders",), ()),
}


def _build_algebra(args) -> FSemilattice:
    needs, may_take = BUILD_FLAGS[args.kind]
    unused = [f"--{name}" for name in ("orders", "subgroup", "transversal", "u", "k")
              if name not in needs + may_take and getattr(args, name) is not None]
    if unused:
        raise ValueError(f"build {args.kind} does not take {' or '.join(unused)}")
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ValueError(f"build {args.kind} needs {' and '.join(missing)}")
    if args.kind == "ak":
        if args.k > MAX_AK_ATOMS:
            raise ValueError(f"build ak takes at most {MAX_AK_ATOMS} atoms, got --k {args.k}")
        return constructions.a_k(args.k)
    if args.kind == "two-element":
        return constructions.two_element(_parse_orders(args.orders))
    group = _parse_orders(args.orders)
    sub = groups.subgroup_from_elements(group, _parse_elements(args.subgroup))
    if args.kind == "maroti":
        return constructions.maroti(group, sub)
    reps = None
    if args.transversal is not None:
        reps = groups.make_transversal(group, sub, _parse_elements(args.transversal))
    factor = None
    gens = None
    if args.u == "chain2":
        factor, gens = constructions.chain2_factor(group, sub)
    return constructions.twisted_multiple(group, sub, factor, reps, gens)


def _cmd_build(args) -> int:
    algebra = _build_algebra(args)
    _emit(algebras.algebra_to_dict(algebra), args)
    return 0


def _cmd_validate(args) -> int:
    algebra = _load_algebra(args.algebra)
    _emit(algebra.validation.to_dict(), args)
    return 0


def _cmd_hasse(args) -> int:
    algebra = _load_algebra(args.algebra)
    text = hasse_dot(algebra, include_actions=args.actions)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_check_minimal(args) -> int:
    algebra = _load_algebra(args.algebra)
    a = _generator_index(algebra, args.generator)
    verdict = quasivar.is_minimal_free(algebra, a)
    payload = {
        "generator": algebra.carrier[a],
        "minimal": verdict.minimal,
        "checked": verdict.checked,
        "counterexample": None
        if verdict.counterexample is None
        else algebra.carrier[verdict.counterexample],
    }
    _emit(payload, args)
    return 0 if verdict.minimal else 1


def _cmd_verify_bijection(args) -> int:
    group = _parse_orders(args.orders)
    report = quasivar.verify_bijection(group)
    _emit(report.to_dict(), args)
    return 0 if report.ok else 1


def _cmd_quasi(args) -> int:
    algebra = _load_algebra(args.algebra)
    qi = quasivar.parse_quasi_identity(args.qi, algebra.group)
    holds, witness = quasivar.holds_quasi_identity(algebra, qi)
    payload = {
        "quasi_identity": quasivar.format_quasi_identity(qi),
        "holds": holds,
        "witness": None
        if witness is None
        else {name: algebra.carrier[idx] for name, idx in sorted(witness.items())},
    }
    _emit(payload, args)
    return 0 if holds else 1


def _cmd_decompose(args) -> int:
    algebra = _load_algebra(args.algebra)
    a = _generator_index(algebra, args.generator)
    result = quasivar.decompose_ku(algebra, a)
    payload = {
        "generator": algebra.carrier[a],
        "subgroup": groups.subgroup_to_dict(result.subgroup),
        "factor_size": result.factor.size,
        "factor": algebras.algebra_to_dict(result.factor),
        "isomorphism": {
            "from": [result.reconstruction.carrier[i] for i in range(result.reconstruction.size)],
            "to": [algebra.carrier[v] for v in result.iso.map],
        },
    }
    _emit(payload, args)
    return 0


def _cmd_simplicity(args) -> int:
    algebra = _load_algebra(args.algebra)
    a = _generator_index(algebra, args.generator)
    report = quasivar.simplicity_and_quotient_report(algebra, a, limit=args.limit)
    payload = {
        "generator": algebra.carrier[a],
        "congruences": report.congruence_count,
        "simple": report.simple,
        "separating_quasi_identity": quasivar.format_quasi_identity(report.qi),
        "excluded_quotients": [
            {
                "blocks": [[algebra.carrier[x] for x in b] for b in e.blocks],
                "excluded": e.excluded,
            }
            for e in report.exclusions
        ],
    }
    _emit(payload, args)
    return 0


def _cmd_balpha(args) -> int:
    if (args.p is None) != (args.q is None):
        raise ValueError("--p and --q go together")
    alpha = irrationals.parse_irrational(args.alpha)
    beta = irrationals.parse_irrational(args.beta)
    if irrationals.compare_values(alpha, beta) >= 0:
        raise ValueError("need alpha < beta")
    if args.p is not None:
        p, q = args.p, args.q
    else:
        p, q = irrationals.rational_between(alpha, beta)
    report = irrationals.check_separating_identity(alpha, beta, p, q, args.samples)
    payload = {
        "alpha": str(alpha),
        "beta": str(beta),
        "between": [p, q],
        "report": report.to_dict(),
    }
    _emit(payload, args)
    return 0 if report.separates else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fslat",
        description="Semilattices over abelian groups: constructions, minimality, "
        "bijection and decomposition checks, exact continuum demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON payload to this path")
        p.add_argument("--meta", action="store_true", help="wrap payload with run metadata")

    p_group = sub.add_parser("group", help="group-level queries")
    group_sub = p_group.add_subparsers(dest="group_command", required=True)
    p_subgroups = group_sub.add_parser("subgroups", help="enumerate all subgroups")
    p_subgroups.add_argument("--orders", required=True, help="comma-joined factor orders")
    common(p_subgroups)
    p_subgroups.set_defaults(func=_cmd_group_subgroups)

    p_build = sub.add_parser("build", help="emit a constructed algebra as JSON")
    p_build.add_argument("kind", choices=["maroti", "twisted", "ak", "two-element"])
    p_build.add_argument("--orders", help="comma-joined factor orders")
    p_build.add_argument("--subgroup", help="subgroup elements: coords comma-joined, ';'-separated")
    p_build.add_argument("--transversal", help="coset representatives, same syntax as --subgroup")
    p_build.add_argument("--u", choices=["trivial", "chain2"],
                         help="factor algebra for twisted builds (default: trivial)")
    p_build.add_argument("--k", type=int, help="atom count for ak")
    common(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_validate = sub.add_parser("validate", help="axiom-check an algebra JSON file")
    p_validate.add_argument("--algebra", required=True)
    common(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_hasse = sub.add_parser("hasse", help="emit the covering relation as DOT")
    p_hasse.add_argument("--algebra", required=True)
    p_hasse.add_argument("--dot", help="write DOT here instead of stdout")
    p_hasse.add_argument("--actions", action="store_true", help="add dashed generator arcs")
    p_hasse.set_defaults(func=_cmd_hasse)

    p_minimal = sub.add_parser("check-minimal", help="free-minimality of a generated algebra")
    p_minimal.add_argument("--algebra", required=True)
    p_minimal.add_argument("--generator", help="carrier label of the generator")
    common(p_minimal)
    p_minimal.set_defaults(func=_cmd_check_minimal)

    p_bij = sub.add_parser("verify-bijection", help="subgroup/minimal-quasivariety correspondence")
    p_bij.add_argument("--orders", required=True)
    common(p_bij)
    p_bij.set_defaults(func=_cmd_verify_bijection)

    p_quasi = sub.add_parser("quasi", help="check a quasi-identity against an algebra")
    p_quasi.add_argument("--algebra", required=True)
    p_quasi.add_argument("--qi", required=True, help='e.g. "g0(x)=x -> x = x^y"')
    common(p_quasi)
    p_quasi.set_defaults(func=_cmd_quasi)

    p_dec = sub.add_parser("decompose", help="subgroup/factor splitting of a free-minimal algebra")
    p_dec.add_argument("--algebra", required=True)
    p_dec.add_argument("--generator")
    common(p_dec)
    p_dec.set_defaults(func=_cmd_decompose)

    p_simp = sub.add_parser("simplicity", help="congruence census and quotient exclusion")
    p_simp.add_argument("--algebra", required=True)
    p_simp.add_argument("--generator")
    p_simp.add_argument("--limit", type=int, default=24, help="congruence carrier limit")
    common(p_simp)
    p_simp.set_defaults(func=_cmd_simplicity)

    p_balpha = sub.add_parser("balpha", help="exact separating-identity demo on {m+n*alpha}")
    p_balpha.add_argument("--alpha", required=True, help="sqrt:D or (P+Q*sqrt:D)/R")
    p_balpha.add_argument("--beta", required=True)
    p_balpha.add_argument("--p", type=int,
                          help="numerator of a rational between, with --q (default: search)")
    p_balpha.add_argument("--q", type=int, help="denominator of a rational between, with --p")
    p_balpha.add_argument("--samples", type=int, default=25,
                          help=f"sample points to trace, 0..{irrationals.MAX_SAMPLES}")
    common(p_balpha)
    p_balpha.set_defaults(func=_cmd_balpha)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process for ``run``: building the subcommand tree costs
    more than most requests, and ``parse_args`` leaves the parser unchanged."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return args.func(args)
    except algebras.InvalidAlgebraError as exc:
        _emit(exc.report.to_dict(), args)
        return 1
    except (
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
        constructions.VerificationError,
    ) as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
