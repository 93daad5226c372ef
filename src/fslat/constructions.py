"""Concrete semilattices over abelian groups.

Builders for the coset fan over a subgroup (the Maroti semilattice), the
generalized twisted multiple that glues shifted copies of a smaller algebra
above a common zero, the cyclic atom fan over the infinite cyclic group, and
the two-element algebra with trivial action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    FSemilattice,
    Homomorphism,
    act,
    is_isomorphism,
    perm_identity,
)
from .groups import (
    Element,
    GroupSpec,
    InfiniteGroupError,
    NotASubgroupError,
    Subgroup,
    Transversal,
    cosets,
    format_element,
    identity,
    inv,
    elementary,
    mul,
    presentation,
    transversal,
)


class VerificationError(RuntimeError):
    """A construction invariant that should always hold failed; this signals a bug."""


def maroti(group: GroupSpec, sub: Subgroup) -> FSemilattice:
    """Atoms are the cosets of the subgroup, plus a common zero below them.

    The group translates cosets; the zero is fixed.  Atoms are labeled by the
    lexicographically least coset member, the zero by ``o``.
    """
    blocks = cosets(group, sub)
    block_index = {g: i for i, b in enumerate(blocks) for g in b}
    n = len(blocks) + 1
    bottom = n - 1
    labels = tuple(format_element(b[0]) for b in blocks) + ("o",)
    meet = [[bottom] * n for _ in range(n)]
    for i in range(len(blocks)):
        meet[i][i] = i
    meet[bottom][bottom] = bottom
    action = []
    for i in range(group.rank):
        step = elementary(group, i)
        perm = [block_index[mul(group, b[0], step)] for b in blocks] + [bottom]
        action.append(tuple(perm))
    return FSemilattice(group=group, carrier=labels, meet=tuple(tuple(r) for r in meet), action=tuple(action))


def two_element(group: GroupSpec) -> FSemilattice:
    """The two-element chain 0 < 1 with every group element acting as identity."""
    return FSemilattice(
        group=group,
        carrier=("0", "1"),
        meet=((0, 0), (0, 1)),
        action=tuple(perm_identity(2) for _ in range(group.rank)),
    )


def a_k(k: int) -> FSemilattice:
    """k atoms over a zero, the infinite cyclic group rotating the atoms."""
    if k < 1:
        raise ValueError("need at least one atom")
    n = k + 1
    bottom = k
    labels = tuple(f"a{i}" for i in range(k)) + ("o",)
    meet = [[bottom] * n for _ in range(n)]
    for i in range(n):
        meet[i][i] = i
    perm = tuple((i + 1) % k for i in range(k)) + (bottom,)
    return FSemilattice(
        group=GroupSpec((0,)),
        carrier=labels,
        meet=tuple(tuple(r) for r in meet),
        action=(perm,),
    )


def trivial_factor(group: GroupSpec, sub: Subgroup) -> tuple[FSemilattice, tuple[Element, ...]]:
    """One-element algebra over the abstract form of the subgroup, with the
    natural generator correspondence."""
    pres = presentation(group, sub)
    algebra = FSemilattice(
        group=pres.spec,
        carrier=("u",),
        meet=((0,),),
        action=tuple((0,) for _ in range(pres.spec.rank)),
    )
    return algebra, pres.generators


def chain2_factor(group: GroupSpec, sub: Subgroup) -> tuple[FSemilattice, tuple[Element, ...]]:
    """Two-element chain over the abstract form of the subgroup, trivial action."""
    pres = presentation(group, sub)
    algebra = FSemilattice(
        group=pres.spec,
        carrier=("0", "1"),
        meet=((0, 0), (0, 1)),
        action=tuple(perm_identity(2) for _ in range(pres.spec.rank)),
    )
    return algebra, pres.generators


@dataclass(frozen=True)
class TwistedSpec:
    group: GroupSpec
    subgroup: Subgroup
    transversal: Transversal
    factor: FSemilattice
    factor_generators: tuple[Element, ...]


def _factor_exponent_table(spec: TwistedSpec) -> dict[Element, Element]:
    """Map each subgroup element to its exponent vector over the supplied
    generators, verifying on the way that the correspondence is an isomorphism
    onto the subgroup.  Mismatches are an error, never coerced."""
    fgroup = spec.factor.group
    if not fgroup.is_finite:
        raise NotASubgroupError("factor algebra must live over a finite group")
    if len(spec.factor_generators) != fgroup.rank:
        raise NotASubgroupError("need one subgroup generator per factor-group coordinate")
    parent = spec.group
    table: dict[Element, Element] = {}
    for exponents in fgroup.elements():
        value = identity(parent)
        for g, e in zip(spec.factor_generators, exponents):
            for _ in range(e):
                value = mul(parent, value, g)
        if value in table:
            raise NotASubgroupError("generator correspondence is not injective")
        table[value] = exponents
    if set(table) != set(spec.subgroup.elements):
        raise NotASubgroupError("generator correspondence does not present the subgroup")
    return table


def twisted_spec(
    group: GroupSpec,
    sub: Subgroup,
    factor: FSemilattice | None = None,
    reps: Transversal | None = None,
    factor_generators: tuple[Element, ...] | None = None,
) -> TwistedSpec:
    """Assemble and validate the ingredients of a twisted multiple.

    With no factor supplied, the one-element algebra over the subgroup is
    used; with a factor but no explicit generator correspondence, the natural
    presentation of the subgroup is used provided its abstract group matches
    the factor's exactly.
    """
    if not group.is_finite:
        raise InfiniteGroupError("twisted multiples are built over finite groups")
    if reps is None:
        reps = transversal(group, sub)
    if reps.subgroup.elements != sub.elements:
        raise NotASubgroupError("transversal does not belong to the subgroup")
    if factor is None:
        factor, gens = trivial_factor(group, sub)
        if factor_generators is None:
            factor_generators = gens
    if factor_generators is None:
        pres = presentation(group, sub)
        if pres.spec != factor.group:
            raise NotASubgroupError(
                f"factor group {factor.group} does not match the subgroup's abstract form {pres.spec}; "
                "supply an explicit generator correspondence"
            )
        factor_generators = pres.generators
    spec = TwistedSpec(group, sub, reps, factor, tuple(factor_generators))
    _factor_exponent_table(spec)
    return spec


def twisted_multiple(spec: TwistedSpec) -> FSemilattice:
    """Glue one shifted copy of the factor algebra per coset above a zero.

    Carrier: pairs (u, t) for u in the factor and t a coset representative,
    ordered by (representative, u), plus a final zero.  Pairs over the same
    representative meet inside the factor; over different representatives
    they meet at zero.  A group element g sends (u, t) to (k(u), f) where f
    is the representative of g t's coset and k = g t f^{-1} lies in the
    subgroup, acting on u through the factor's own action.
    """
    group = spec.group
    exponents = _factor_exponent_table(spec)
    rep_of: dict[Element, Element] = {}
    for r in spec.transversal.reps:
        for h in spec.subgroup.elements:
            rep_of[mul(group, r, h)] = r
    reps = list(spec.transversal.reps)
    u_size = spec.factor.size
    pairs = [(u, t) for t in range(len(reps)) for u in range(u_size)]
    pair_index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs) + 1
    bottom = n - 1
    labels = tuple(
        f"{spec.factor.carrier[u]}@{format_element(reps[t])}" for u, t in pairs
    ) + ("o",)
    meet = [[bottom] * n for _ in range(n)]
    meet[bottom][bottom] = bottom
    for i, (u1, t1) in enumerate(pairs):
        for j, (u2, t2) in enumerate(pairs):
            if t1 == t2:
                meet[i][j] = pair_index[(spec.factor.meet[u1][u2], t1)]
    action = []
    for gi in range(group.rank):
        g = elementary(group, gi)
        perm = []
        for u, t in pairs:
            gt = mul(group, g, reps[t])
            f = rep_of[gt]
            k = mul(group, gt, inv(group, f))
            u2 = act(spec.factor, exponents[k], u)
            perm.append(pair_index[(u2, reps.index(f))])
        perm.append(bottom)
        action.append(tuple(perm))
    return FSemilattice(
        group=group, carrier=labels, meet=tuple(tuple(r) for r in meet), action=tuple(action)
    )


def twisted(
    group: GroupSpec,
    sub: Subgroup,
    factor: FSemilattice | None = None,
    reps: Transversal | None = None,
    factor_generators: tuple[Element, ...] | None = None,
) -> FSemilattice:
    return twisted_multiple(twisted_spec(group, sub, factor, reps, factor_generators))


def transversal_independence_check(
    group: GroupSpec,
    sub: Subgroup,
    factor: FSemilattice | None,
    first: Transversal,
    second: Transversal,
    factor_generators: tuple[Element, ...] | None = None,
) -> Homomorphism:
    """Build the twisted multiple with two different transversals and verify
    the explicit isomorphism (u, t) -> (t'^{-1} t (u), t') between them, where
    t' represents t's coset in the second transversal."""
    spec1 = twisted_spec(group, sub, factor, first, factor_generators)
    spec2 = twisted_spec(group, sub, factor, second, factor_generators)
    left = twisted_multiple(spec1)
    right = twisted_multiple(spec2)
    exponents = _factor_exponent_table(spec1)
    u_size = spec1.factor.size
    coset_of = {}
    for idx, r in enumerate(second.reps):
        for h in sub.elements:
            coset_of[mul(group, r, h)] = idx
    mapping = []
    for i in range(left.size - 1):
        t_pos, u = divmod(i, u_size)
        t = first.reps[t_pos]
        t2_pos = coset_of[t]
        t2 = second.reps[t2_pos]
        k = mul(group, inv(group, t2), t)
        mapping.append(t2_pos * u_size + act(spec1.factor, exponents[k], u))
    mapping.append(right.size - 1)
    hom = Homomorphism(left, right, tuple(mapping))
    if not is_isomorphism(hom):
        raise VerificationError("transversal-independence map failed verification")
    return hom


def counterexample_a7() -> FSemilattice:
    """Seven-element algebra over C4 whose generator is not free-minimal.

    Four maximal elements are rotated cyclically; opposite ones meet in one
    of two middle elements that are swapped by the action, and the middle
    elements meet at the zero.  The meet of two opposite maximal elements
    generates a proper three-element subalgebra.
    """
    a0, a1, a2, a3, p, q, o = range(7)
    meet = [[o] * 7 for _ in range(7)]
    for x in range(7):
        meet[x][x] = x
    for x, y, v in [(a0, a2, p), (a1, a3, q)]:
        meet[x][y] = meet[y][x] = v
    for x in (a0, a2):
        meet[p][x] = meet[x][p] = p
    for x in (a1, a3):
        meet[q][x] = meet[x][q] = q
    gen = (a1, a2, a3, a0, q, p, o)
    return FSemilattice(
        group=GroupSpec((4,)),
        carrier=("a0", "a1", "a2", "a3", "p", "q", "o"),
        meet=tuple(tuple(r) for r in meet),
        action=(gen,),
    )
