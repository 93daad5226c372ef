"""Concrete semilattices over abelian groups.

Builders for the coset fan over a subgroup (the Maroti semilattice), the
generalized twisted multiple that glues shifted copies of a smaller algebra
above a common zero, the cyclic atom fan over the infinite cyclic group, and
the two-element algebra with trivial action, and the free one-generated
algebra P+(F).
"""

from __future__ import annotations

from functools import cache

from .algebras import (
    CarrierLimitError,
    FSemilattice,
    Homomorphism,
    element_action,
    is_isomorphism,
    perm_identity,
)
from .groups import (
    AdditionTable,
    GroupSpec,
    InfiniteGroupError,
    NotASubgroupError,
    Subgroup,
    Transversal,
    format_element,
    identity,
    inv,
    mul,
    presentation,
    transversal,
)


class VerificationError(RuntimeError):
    """A construction invariant that should always hold failed; this signals a bug."""


# Largest carrier ``free_one_generated`` builds: 2^|F| - 1 for |F| = 10.
MAX_FREE_CARRIER = 1023


@cache
def _fan_meet(size: int) -> tuple[tuple[int, ...], ...]:
    """size - 1 atoms over a zero, the last index: built once per size, since
    a census builds over a thousand fans and building a table costs O(size^2)."""
    bottom = size - 1
    return tuple((bottom,) * i + (i,) + (bottom,) * (bottom - i) for i in range(size))


def maroti(group: GroupSpec, sub: Subgroup, table: AdditionTable | None = None) -> FSemilattice:
    """Atoms are the cosets of the subgroup, plus a common zero below them.

    The group translates cosets; the zero is fixed.  Atoms are labeled by the
    lexicographically least coset member, the zero by ``o``.  Atoms come
    from one ``table.labelling``; generator s moves rep to s + rep's block.
    """
    table = AdditionTable.of(group, table)
    block_of, reps = table.labelling(sub)
    bottom = len(reps)
    labels = [*map(table.labels.__getitem__, reps), "o"]
    action = []
    for i in range(group.rank):
        row = table[table.generator_codes[i]]
        action.append([block_of[row[g]] for g in reps] + [bottom])
    return FSemilattice(group=group, carrier=labels, meet=_fan_meet(bottom + 1), action=action)


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
    labels = tuple(f"a{i}" for i in range(k)) + ("o",)
    perm = tuple((i + 1) % k for i in range(k)) + (k,)
    return FSemilattice(group=GroupSpec((0,)), carrier=labels, meet=_fan_meet(k + 1), action=(perm,))


def free_one_generated(group: GroupSpec) -> FSemilattice:
    """P+(F): the nonempty subsets of the group, union as meet, translation
    as action; the free one-generated algebra, generated by {0}.

    The subset with bit i set for the i-th element of ``group.elements()``
    has index mask - 1, so the generator {0} has index 0.  Labels list the
    members, e.g. ``{0;2}`` over C4.
    """
    if not group.is_finite:
        raise InfiniteGroupError("P+(F) is built over finite groups")
    # 2^k - 1 <= MAX_FREE_CARRIER exactly when k <= MAX_FREE_CARRIER.bit_length()
    if group.order() > MAX_FREE_CARRIER.bit_length():
        raise CarrierLimitError(
            f"P+({group}) has 2^{group.order()} - 1 elements, more than {MAX_FREE_CARRIER}"
        )
    table = AdditionTable(group)
    elems = table.elements
    n = (1 << len(elems)) - 1
    masks = range(1, n + 1)
    labels = tuple(
        "{" + ";".join(format_element(g) for i, g in enumerate(elems) if m >> i & 1) + "}"
        for m in masks
    )
    meet = tuple(tuple((m | k) - 1 for k in masks) for m in masks)
    action = []
    for gi in range(group.rank):
        shift = table[table.generator_codes[gi]]
        image = [0] * (n + 1)
        for m in masks:
            low = (m & -m).bit_length() - 1
            image[m] = image[m & (m - 1)] | 1 << shift[low]
        action.append(tuple(image[m] - 1 for m in masks))
    return FSemilattice(group=group, carrier=labels, meet=meet, action=action)


def trivial_factor(spec: GroupSpec, label: str = "u") -> FSemilattice:
    """One-element algebra over ``spec``, its element labeled ``label``."""
    return FSemilattice(group=spec, carrier=(label,), meet=((0,),), action=((0,),) * spec.rank)


def chain2_factor(group: GroupSpec, sub: Subgroup) -> FSemilattice:
    """Two-element chain over the abstract form of the subgroup, trivial action."""
    return two_element(presentation(group, sub).spec)


def twisted_multiple(
    group: GroupSpec,
    sub: Subgroup,
    factor: FSemilattice | None = None,
    reps: Transversal | None = None,
) -> FSemilattice:
    """Glue one shifted copy of the factor algebra per coset above a zero.

    The factor lives over the subgroup's abstract form ``presentation(group,
    sub).spec``, whose i-th coordinate is the presentation's i-th generator;
    with no factor, the one-element algebra over it is used.  With no
    transversal, the least member of each coset represents it.

    Carrier: pairs (u, t) for u in the factor and t a coset representative,
    (u, t) at index (position of t) * |factor| + u, plus a final zero.  Pairs
    over the same representative meet inside the factor; over different
    representatives they meet at zero.  A group element g sends (u, t) to
    (k(u), f) where g t = f k with f a representative and k in the subgroup,
    acting on u through the factor's own action.  Every code is split once
    as t + h, so moving (u, t) by g reads g + t's split.
    """
    if not group.is_finite:
        raise InfiniteGroupError("twisted multiples are built over finite groups")
    if reps is None:
        reps = transversal(group, sub)
    if reps.subgroup != sub:
        raise NotASubgroupError("transversal does not belong to the subgroup")
    pres = presentation(group, sub)
    if factor is None:
        factor = trivial_factor(pres.spec)
    if factor.group != pres.spec:
        raise NotASubgroupError(
            f"factor group {factor.group} does not match the subgroup's abstract form {pres.spec}"
        )
    table = AdditionTable(group)
    exponents = {0: identity(pres.spec)}  # code of h -> h's exponents over pres.generators
    for i, g in enumerate(pres.generators):
        row = table[table.index[g]]
        for code, vector in list(exponents.items()):
            for e in range(1, pres.spec.orders[i]):
                code = row[code]
                exponents[code] = vector[:i] + (e,) + vector[i + 1 :]
    members = [table.index[h] for h in sub.elements]
    split = {}  # code(t + h) -> (position of t, code of h)
    for pos, t in enumerate(reps.reps):
        row = table[table.index[t]]
        for h in members:
            split[row[h]] = (pos, h)
    u_size = factor.size
    bottom = len(reps.reps) * u_size
    labels = tuple(f"{u}@{format_element(t)}" for t in reps.reps for u in factor.carrier) + ("o",)
    meet = [[bottom] * (bottom + 1) for _ in range(bottom + 1)]
    for i in range(bottom):
        base = i - i % u_size
        meet[i][base : base + u_size] = [base + v for v in factor.meet[i % u_size]]
    action = []
    for gi in range(group.rank):
        shift = table[table.generator_codes[gi]]
        perm = []
        for t in reps.reps:
            f, k = split[shift[table.index[t]]]
            perm += [f * u_size + u for u in element_action(factor, exponents[k])]
        action.append(tuple(perm) + (bottom,))
    return FSemilattice(group=group, carrier=labels, meet=meet, action=action)


def transversal_independence_check(
    group: GroupSpec,
    sub: Subgroup,
    factor: FSemilattice | None,
    first: Transversal,
    second: Transversal,
) -> Homomorphism:
    """Build the twisted multiple with two different transversals and verify
    the explicit isomorphism (u, t) -> (t'^{-1} t (u), t') between them, where
    t' represents t's coset in the second transversal.  With e the second
    transversal's member of the subgroup, that pair is (t - e) applied to
    (u, e), so the map is read off the action of the second multiple."""
    left = twisted_multiple(group, sub, factor, first)
    right = twisted_multiple(group, sub, factor, second)
    u_size = (right.size - 1) // len(second.reps)
    e = next(t for t in second.reps if t in sub)
    base = second.reps.index(e) * u_size
    mapping = []
    for t in first.reps:
        mapping += element_action(right, mul(group, t, inv(group, e)))[base : base + u_size]
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
        meet=meet,
        action=(gen,),
    )
