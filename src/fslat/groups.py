"""Finitely generated abelian groups presented as products of cyclic factors.

A group is described by a tuple of factor orders: an entry ``k >= 1`` is a
cyclic factor of order ``k``, an entry ``0`` is an infinite cyclic factor.
Elements are integer coordinate vectors, reduced into ``[0, k)`` on finite
factors and unrestricted on infinite ones, so equality of reduced vectors is
equality of elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

Element = tuple[int, ...]


class InfiniteGroupError(ValueError):
    """An operation that needs a finite group met an infinite cyclic factor."""


class NotASubgroupError(ValueError):
    """A claimed subgroup fails membership, identity, or closure checks."""


@dataclass(frozen=True)
class GroupSpec:
    """Abelian group ``Z_k0 x Z_k1 x ...``; the trivial group is ``orders = (1,)``."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.orders, tuple):
            object.__setattr__(self, "orders", tuple(self.orders))
        if len(self.orders) == 0:
            raise ValueError("need at least one cyclic factor; use [1] for the trivial group")
        for k in self.orders:
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ValueError(f"factor orders must be integers >= 0, got {k!r}")

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def is_finite(self) -> bool:
        return all(k >= 1 for k in self.orders)

    def order(self) -> int | None:
        """Group order, or None when an infinite factor is present."""
        return prod(self.orders) if self.is_finite else None

    def elements(self) -> list[Element]:
        """All elements in lexicographic order (finite groups only)."""
        if not self.is_finite:
            raise InfiniteGroupError(f"cannot enumerate elements of {self}")
        return list(itertools.product(*[range(k) for k in self.orders]))

    def __str__(self) -> str:
        return "x".join("C_inf" if k == 0 else f"C{k}" for k in self.orders)


def make_group(orders) -> GroupSpec:
    """Build a GroupSpec from any sequence of nonnegative integers."""
    return GroupSpec(tuple(orders))


def reduce_element(group: GroupSpec, coords) -> Element:
    """Canonical (reduced) form of a coordinate vector."""
    coords = tuple(coords)
    if len(coords) != group.rank:
        raise ValueError(f"expected {group.rank} coordinates, got {len(coords)}")
    return tuple(c % k if k >= 1 else c for c, k in zip(coords, group.orders))


def identity(group: GroupSpec) -> Element:
    return (0,) * group.rank


def mul(group: GroupSpec, a: Element, b: Element) -> Element:
    if len(a) != group.rank or len(b) != group.rank:
        raise ValueError("coordinate length mismatch")
    return tuple((x + y) % k if k >= 1 else x + y for x, y, k in zip(a, b, group.orders))


def inv(group: GroupSpec, a: Element) -> Element:
    if len(a) != group.rank:
        raise ValueError("coordinate length mismatch")
    return reduce_element(group, tuple(-x for x in a))


def elementary(group: GroupSpec, i: int, power: int = 1) -> Element:
    """The i-th coordinate generator raised to ``power``."""
    coords = [0] * group.rank
    coords[i] = power
    return reduce_element(group, coords)


def element_order(group: GroupSpec, a: Element) -> int:
    """Multiplicative order of ``a`` (finite unless a nonzero infinite coordinate)."""
    n = 1
    for c, k in zip(a, group.orders):
        if k == 0:
            if c != 0:
                raise InfiniteGroupError("element has infinite order")
            continue
        d = k // gcd(c % k, k) if c % k else 1
        n = n * d // gcd(n, d)
    return n


def format_element(a: Element) -> str:
    return ",".join(str(c) for c in a)


def parse_element(text: str) -> Element:
    return tuple(int(part) for part in text.split(","))


def _join(current, g, add) -> set:
    """Coset-union join <S, g> = S u (S + g) u (S + 2g) u ... of a subgroup S
    and an element g, stopping at the first multiple of g that lies in S."""
    joined = set(current)
    step = g
    while step not in current:
        joined.update(add(step, s) for s in current)
        step = add(step, g)
    return joined


def _closure(group: GroupSpec, seed) -> set[Element]:
    """Subgroup generated by ``seed``: the identity joined with one seed
    element at a time."""
    out = {identity(group)}
    for g in seed:
        out = _join(out, reduce_element(group, g), lambda a, b: mul(group, a, b))
    return out


@dataclass(frozen=True)
class Subgroup:
    parent: GroupSpec
    elements: tuple[Element, ...]
    generators: tuple[Element, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def __contains__(self, a: Element) -> bool:
        return a in set(self.elements)

    @property
    def is_proper(self) -> bool:
        order = self.parent.order()
        return order is None or self.size < order


def _minimal_generators(
    group: GroupSpec, elems: set[Element]
) -> tuple[tuple[Element, ...], set[Element]]:
    """Generators of <elems>, and <elems> itself.

    The greedy pass takes each element of sorted ``elems`` that the subgroup
    found so far misses, so it ends with <elems>.  Only when that is
    ``elems`` does the second pass drop each generator the others already
    generate, comparing sizes inside a subgroup.  ``elems`` must have a
    finite closure.
    """
    gens: list[Element] = []
    have = {identity(group)}
    for g in sorted(elems):
        if g not in have:
            gens.append(g)
            have = _join(have, g, lambda a, b: mul(group, a, b))
    if have == elems:
        for g in list(gens):
            rest = [h for h in gens if h != g]
            if len(_closure(group, rest)) == len(elems):
                gens = rest
    return tuple(gens), have


def subgroup_from_elements(group: GroupSpec, elems) -> Subgroup:
    """Validate an element set as a subgroup and put it in canonical form.

    The set is a subgroup exactly when it equals the subgroup it generates,
    which the generator search computes anyway.  Only a set that fails is
    walked pair by pair, to name the missing inverse or product.  A set with
    a nonzero coordinate on an infinite factor is never a finite subgroup;
    it skips the search, whose closure would not end.
    """
    elems = {reduce_element(group, e) for e in elems}
    if not elems:
        raise NotASubgroupError("a subgroup is nonempty")
    if identity(group) not in elems:
        raise NotASubgroupError("identity element missing")
    if all(c == 0 for e in elems for c, k in zip(e, group.orders) if k == 0):
        gens, generated = _minimal_generators(group, elems)
        if generated == elems:
            return Subgroup(group, tuple(sorted(elems)), gens)
    for a in elems:
        if inv(group, a) not in elems:
            raise NotASubgroupError(f"not closed under inverse at {a}")
        for b in elems:
            if mul(group, a, b) not in elems:
                raise NotASubgroupError(f"not closed under product at {a}, {b}")
    raise AssertionError("a set closed under inverse and product generates itself")


def trivial_subgroup(group: GroupSpec) -> Subgroup:
    return Subgroup(group, (identity(group),), ())


def full_subgroup(group: GroupSpec) -> Subgroup:
    if not group.is_finite:
        raise InfiniteGroupError("full subgroup only materialized for finite groups")
    elems = group.elements()
    return Subgroup(group, tuple(sorted(elems)), _minimal_generators(group, set(elems))[0])


def _subgroup_sets(group: GroupSpec, universe) -> set[frozenset[Element]]:
    """All subgroups contained in ``universe`` (itself a subgroup's element set).

    Elements are coded as indices into ``group.elements()`` and added through
    one table built per call.  Every subgroup S found is extended by each
    element g outside it with the coset-union join
    <S, g> = S u (S + g) u (S + 2g) u ... (``_join``).  All members of one
    coset g + S give the same join, so one element per coset is tried.
    Coordinate tuples come back only at the return.
    """
    elems = group.elements()
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[mul(group, a, b)] for b in elems] for a in elems]

    def add(a: int, b: int) -> int:
        return table[a][b]

    pool = sorted(index[g] for g in universe)
    seen = {frozenset({index[identity(group)]})}
    stack = list(seen)
    while stack:
        current = stack.pop()
        tried = set(current)
        for g in pool:
            if g in tried:
                continue
            tried.update(add(g, s) for s in current)
            extended = frozenset(_join(current, g, add))
            if extended not in seen:
                seen.add(extended)
                stack.append(extended)
    return {frozenset(elems[i] for i in s) for s in seen}


def subgroups(group: GroupSpec) -> list[Subgroup]:
    """Every subgroup of a finite group, canonically sorted by (size, elements)."""
    if not group.is_finite:
        raise InfiniteGroupError("subgroup enumeration needs a finite group")
    sets = _subgroup_sets(group, group.elements())
    ordered = sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))
    return [subgroup_from_elements(group, s) for s in ordered]


def _check_subgroup_of(group: GroupSpec, sub: Subgroup) -> None:
    if sub.parent != group:
        raise NotASubgroupError("subgroup belongs to a different group")


def cosets(group: GroupSpec, sub: Subgroup) -> list[tuple[Element, ...]]:
    """The coset partition of a finite group, blocks sorted by least member."""
    if not group.is_finite:
        raise InfiniteGroupError("coset enumeration needs a finite group")
    _check_subgroup_of(group, sub)
    # Elements come in increasing order, so the first one not yet placed is
    # the least member of a new block and blocks appear already sorted.
    placed: set[Element] = set()
    blocks = []
    for g in group.elements():
        if g in placed:
            continue
        block = tuple(sorted(mul(group, g, h) for h in sub.elements))
        placed.update(block)
        blocks.append(block)
    return blocks


@dataclass(frozen=True)
class Transversal:
    parent: GroupSpec
    subgroup: Subgroup
    reps: tuple[Element, ...]

    @property
    def size(self) -> int:
        return len(self.reps)


def transversal(group: GroupSpec, sub: Subgroup, normalized: bool = True) -> Transversal:
    """One coset representative per coset.

    Normalized: the representative of the subgroup's own coset is the identity
    and every representative is the lexicographically least member of its coset.
    Otherwise a deterministic alternative (lexicographically greatest members)
    is returned; arbitrary transversals are built with :func:`make_transversal`.
    """
    blocks = cosets(group, sub)
    reps = tuple(b[0] if normalized else b[-1] for b in blocks)
    return Transversal(group, sub, reps)


def make_transversal(group: GroupSpec, sub: Subgroup, reps) -> Transversal:
    """Validate an arbitrary representative sequence: exactly one per coset."""
    reps = tuple(reduce_element(group, r) for r in reps)
    blocks = cosets(group, sub)
    block_of = {g: i for i, b in enumerate(blocks) for g in b}
    hit = [block_of[r] for r in reps]
    if sorted(hit) != list(range(len(blocks))):
        raise NotASubgroupError("representatives do not meet every coset exactly once")
    return Transversal(group, sub, reps)


@dataclass(frozen=True)
class SubgroupPresentation:
    """A finite subgroup rewritten as an abstract product of cyclic factors,
    together with concrete generators in the parent group, one per factor."""

    spec: GroupSpec
    generators: tuple[Element, ...]


def presentation(group: GroupSpec, sub: Subgroup) -> SubgroupPresentation:
    """Invariant-factor decomposition of a finite subgroup with explicit generators.

    Repeatedly splits off a cyclic direct summand of maximal order; the
    complement is located among the subgroups of the remainder.
    """
    elems = set(sub.elements)
    if len(elems) == 1:
        return SubgroupPresentation(GroupSpec((1,)), (identity(group),))
    orders: list[int] = []
    gens: list[Element] = []
    current = sorted(elems)
    while len(current) > 1:
        g1 = max(current, key=lambda g: (element_order(group, g), tuple(-c for c in g)))
        d = element_order(group, g1)
        cyclic = _closure(group, [g1])
        orders.append(d)
        gens.append(g1)
        if len(cyclic) == len(current):
            break
        target = len(current) // len(cyclic)
        candidates = sorted(_subgroup_sets(group, current), key=lambda s: tuple(sorted(s)))
        complement = next(
            s for s in candidates if len(s) == target and len(s & cyclic) == 1
        )
        current = sorted(complement)
    return SubgroupPresentation(GroupSpec(tuple(orders)), tuple(gens))


def all_group_specs(max_order: int) -> list[GroupSpec]:
    """Every factor multiset with product <= max_order (one spec per multiset)."""
    specs = [GroupSpec((1,))]

    def grow(prefix: list[int], start: int, room: int) -> None:
        for k in range(start, room + 1):
            specs.append(GroupSpec(tuple(prefix + [k])))
            grow(prefix + [k], k, room // k)

    grow([], 2, max_order)
    specs.sort(key=lambda s: (s.order(), s.orders))
    return specs


def group_to_dict(group: GroupSpec) -> dict:
    return {"orders": list(group.orders)}


def group_from_dict(data: dict) -> GroupSpec:
    return GroupSpec(tuple(data["orders"]))


def subgroup_to_dict(sub: Subgroup) -> dict:
    return {"elements": [list(e) for e in sub.elements]}


def subgroup_from_dict(group: GroupSpec, data: dict) -> Subgroup:
    return subgroup_from_elements(group, [tuple(e) for e in data["elements"]])
