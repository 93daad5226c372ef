"""Finitely generated abelian groups presented as products of cyclic factors.

A group is described by a tuple of factor orders: an entry ``k >= 1`` is a
cyclic factor of order ``k``, an entry ``0`` is an infinite cyclic factor.
Elements are integer coordinate vectors, reduced into ``[0, k)`` on finite
factors and unrestricted on infinite ones, so equality of reduced vectors is
equality of elements.  These tuples are the API and JSON form; the finite
routines work on integer codes added through one ``AdditionTable`` per call.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from math import gcd, prod
from typing import NamedTuple

Element = tuple[int, ...]

MAX_INT_DIGITS = 1000  # most digits of a parsed integer, sign not counted; CPython prints <= 4,300


class InfiniteGroupError(ValueError):
    """An operation that needs a finite group met an infinite cyclic factor."""


class NotASubgroupError(ValueError):
    """A claimed subgroup fails membership, identity, or closure checks."""


class GroupSpec(NamedTuple("GroupSpec", [("orders", tuple[int, ...])])):
    """Abelian group ``Z_k0 x Z_k1 x ...``; the trivial group is ``orders = (1,)``."""

    __slots__ = ()

    def __new__(cls, orders):
        orders = tuple(orders)
        if len(orders) == 0:
            raise ValueError("need at least one cyclic factor; use [1] for the trivial group")
        for k in orders:
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ValueError(f"factor orders must be integers >= 0, got {k!r}")
        return super().__new__(cls, orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def is_finite(self) -> bool:
        return 0 not in self.orders

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


make_group = GroupSpec  # a GroupSpec from any sequence of nonnegative integers


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


def elementary(group: GroupSpec, i: int) -> Element:
    """The i-th coordinate generator."""
    return reduce_element(group, [int(j == i) for j in range(group.rank)])


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
    return ",".join(map(str, a))


_INT_MATCH = re.compile(r"\s*-?([0-9]+)\s*").fullmatch


def parse_int(text: str) -> int:
    """An integer in ASCII digits, with an optional leading ``-`` and spaces
    around it, and at most ``MAX_INT_DIGITS`` digits."""
    m = _INT_MATCH(text)
    if not m:
        raise ValueError(f"invalid integer {text!r}; use ASCII digits with an optional leading '-'")
    if len(m[1]) > MAX_INT_DIGITS:
        raise ValueError(f"integers take at most {MAX_INT_DIGITS} digits, got {len(m[1])}")
    return int(text)


def parse_element(text: str) -> Element:
    return tuple(map(parse_int, text.split(",")))


class AdditionTable(dict):
    """Integer codes for the torsion part of a group, and their sums.

    Code i is ``elements[i]``, the i-th torsion element in lexicographic
    order, so sorting codes sorts elements; code 0 is the identity, ``index``
    maps back, and ``table[a][b]`` codes the sum, each row filled on first
    use.  ``labels`` holds the ``format_element`` string of each code.
    Built per top-level call and handed down, never kept past it, so no
    row outlives the call.  Given ``span``, only the product over factors
    of the cyclic subgroups that the elements' coordinates generate is
    coded; it holds <span>, and ``of`` refuses it unless ``whole``.
    """

    def __init__(self, group: GroupSpec, span=None):
        super().__init__()
        self.group = group
        steps = [gcd(k, *(e[i] for e in span)) if k and span else 1 for i, k in enumerate(group.orders)]
        self.digits = [((k or 1) // d, d) for k, d in zip(group.orders, steps)]
        self.whole = max(steps) == 1
        self.elements = list(itertools.product(*(range(0, r * d, d) for r, d in self.digits)))
        self.index = {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def generator_codes(self) -> tuple[int, ...]:
        """The code of each coordinate generator, in a table that codes them."""
        return tuple(self.index[elementary(self.group, i)] for i in range(self.group.rank))

    @staticmethod
    def of(group: GroupSpec, table: AdditionTable | None) -> AdditionTable:
        """``table`` checked to code all of ``group``, or a new table when None."""
        if table is not None and table.group != group:
            raise ValueError(f"the addition table codes {table.group}, not {group}")
        if table is not None and not table.whole:
            raise ValueError(f"the addition table codes a span, not the whole of {group}")
        return AdditionTable(group) if table is None else table

    def __missing__(self, a: int) -> list[int]:
        row = [0]
        for (r, d), c in zip(self.digits, self.elements[a]):
            row = [x * r + (c // d + j) % r for x in row for j in range(r)] if r > 1 else row
        self[a] = row
        return row

    def subgroup(self, codes) -> Subgroup | None:
        """The subgroup coded by ``codes``, or None when they are not closed.

        Each code g that the subgroup S found so far misses is joined coset
        by coset, S u (S + g) u (S + 2g) u ... up to the first multiple of g
        in S, so the pass ends with <codes>, which is ``codes`` exactly when
        they are closed.
        """
        codes = set(codes)
        have = {0}
        for g in codes:
            if g not in have:
                joined, step = set(have), g
                while step not in have:
                    row = self[step]
                    joined.update([row[s] for s in have])
                    step = row[g]
                have = joined
        if have != codes:
            return None
        return Subgroup(self.group, tuple(map(self.elements.__getitem__, sorted(codes))))

    @cached_property
    def labels(self) -> list[str]:
        return list(map(format_element, self.elements))

    def labelling(self, sub: Subgroup) -> tuple[list[int], list[int]]:
        """The coset block of each code, and each block's least code: the
        first code g not yet labelled starts block c, and every g + h, h in
        the subgroup, is labelled c."""
        if not self.group.is_finite:
            raise InfiniteGroupError("coset enumeration needs a finite group")
        if sub.parent != self.group:
            raise NotASubgroupError("subgroup belongs to a different group")
        members = [self.index[h] for h in sub.elements]
        block_of, reps = [-1] * len(self.elements), []
        # codes ahead of g are labelled during the walk; the iterator reads them late
        for g, c in enumerate(block_of):
            if c < 0:
                for x in map(self[g].__getitem__, members):
                    block_of[x] = len(reps)
                reps.append(g)
        return block_of, reps


class Subgroup(NamedTuple):
    parent: GroupSpec
    elements: tuple[Element, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def __contains__(self, a: Element) -> bool:
        return a in set(self.elements)

    @property
    def is_proper(self) -> bool:
        order = self.parent.order()
        return order is None or self.size < order


def subgroup_from_elements(group: GroupSpec, elems) -> Subgroup:
    """Validate an element set as a subgroup and put it in canonical form.

    The set is a subgroup exactly when it equals the subgroup it generates,
    which the coded closure test (``AdditionTable.subgroup``) computes.
    Only a set that fails is walked pair by pair, to name the missing
    inverse or product.  A set with a nonzero coordinate on an infinite
    factor skips the test, as no finite subgroup has one; the test codes
    the set's span only.
    """
    elems = {reduce_element(group, e) for e in elems}
    if not elems:
        raise NotASubgroupError("a subgroup is nonempty")
    if identity(group) not in elems:
        raise NotASubgroupError("identity element missing")
    if all(c == 0 for e in elems for c, k in zip(e, group.orders) if k == 0):
        table = AdditionTable(group, elems)
        sub = table.subgroup({table.index[e] for e in elems})
        if sub is not None:
            return sub
    for a in elems:
        if inv(group, a) not in elems:
            raise NotASubgroupError(f"not closed under inverse at {a}")
        for b in elems:
            if mul(group, a, b) not in elems:
                raise NotASubgroupError(f"not closed under product at {a}, {b}")
    raise AssertionError("a set closed under inverse and product generates itself")


def trivial_subgroup(group: GroupSpec) -> Subgroup:
    return Subgroup(group, (identity(group),))


def full_subgroup(group: GroupSpec) -> Subgroup:
    if not group.is_finite:
        raise InfiniteGroupError("full subgroup only materialized for finite groups")
    return Subgroup(group, tuple(group.elements()))


def _subgroup_sets(table: AdditionTable) -> list[list[int]]:
    """All coded subgroups of the table, each met once, by its Hermite
    normal form: in the table's digit space Z_r1 x ... x Z_rm, a lattice L
    between (+) r_i Z and Z^m.  Row i is d_i e_i, d_i | r_i, plus an offset
    in [0, d_j) on each later coordinate j, built from the last coordinate
    back.  A row is kept when (r_i / d_i) times it lies in the later rows'
    lattice L', so r_i e_i lies in L.  L's codes are those of L' and of its
    cosets c row_i + L', c < r_i / d_i, each the last one moved by row_i.
    Each subgroup has one Hermite normal form, so none comes twice."""
    lattices = [([0], ())]  # a lattice's codes, and the (d_j, weight_j, r_j) of its rows
    weight = 1
    for r in reversed([r for r, _ in table.digits]):
        grown = []
        for codes, rows in lattices:
            grown.append((codes, ((r, weight, r), *rows)))  # d = r: r e_i codes 0, always kept
            have = set(codes)
            for d in [d for d in range(1, r) if r % d == 0]:
                m = r // d
                pairs = [(d * weight, 0)]  # the code of each row, and of m times it
                for dj, w, rj in rows:
                    pairs = [(g + x * w, mg + m * x % rj * w) for g, mg in pairs for x in range(dj)]
                for g in [g for g, mg in pairs if mg in have]:
                    add_g, coset, spanned = table[g].__getitem__, codes, list(codes)
                    for _ in range(m - 1):
                        coset = list(map(add_g, coset))
                        spanned += coset
                    grown.append((spanned, ((d, weight, r), *rows)))
        lattices = grown
        weight *= r
    return [codes for codes, _ in lattices]


def subgroups(group: GroupSpec, table: AdditionTable | None = None) -> list[Subgroup]:
    """Every subgroup of a finite group, canonically sorted by (size, elements):
    each code list of ``_subgroup_sets``, sorted, decoded."""
    if not group.is_finite:
        raise InfiniteGroupError("subgroup enumeration needs a finite group")
    table = AdditionTable.of(group, table)
    decode = table.elements.__getitem__
    sets = sorted(map(sorted, _subgroup_sets(table)), key=lambda s: (len(s), s))
    return [Subgroup(group, tuple(map(decode, s))) for s in sets]


def cosets(group: GroupSpec, sub: Subgroup) -> list[tuple[Element, ...]]:
    """The coset partition of a finite group, blocks sorted by least member."""
    table = AdditionTable(group)
    block_of, reps = table.labelling(sub)
    blocks: list[list[Element]] = [[] for _ in reps]
    for g, c in zip(table.elements, block_of):
        blocks[c].append(g)
    return list(map(tuple, blocks))


class Transversal(NamedTuple):
    parent: GroupSpec
    subgroup: Subgroup
    reps: tuple[Element, ...]

    @property
    def size(self) -> int:
        return len(self.reps)


def transversal(group: GroupSpec, sub: Subgroup) -> Transversal:
    """One coset representative per coset: the lexicographically least member,
    so the subgroup's own coset comes first, represented by the identity.
    Any other transversal is built with :func:`make_transversal`."""
    return Transversal(group, sub, tuple(b[0] for b in cosets(group, sub)))


def make_transversal(group: GroupSpec, sub: Subgroup, reps) -> Transversal:
    """Validate an arbitrary representative sequence: exactly one per coset."""
    reps = tuple(reduce_element(group, r) for r in reps)
    blocks = cosets(group, sub)
    block_of = {g: i for i, b in enumerate(blocks) for g in b}
    hit = [block_of[r] for r in reps]
    if sorted(hit) != list(range(len(blocks))):
        raise NotASubgroupError("representatives do not meet every coset exactly once")
    return Transversal(group, sub, reps)


class SubgroupPresentation(NamedTuple):
    """A finite subgroup rewritten as an abstract product of cyclic factors,
    together with concrete generators in the parent group, one per factor."""

    spec: GroupSpec
    generators: tuple[Element, ...]


def presentation(group: GroupSpec, sub: Subgroup) -> SubgroupPresentation:
    """Invariant-factor decomposition of a finite subgroup K with explicit generators.

    The members are ranked once by order, largest first, least on ties, and
    one pass takes each member g whose least multiple in the part H
    generated so far is 0, so H + <g> = H (+) <g>, until H is K.  The orders
    taken are K's invariant factors, largest first, as an element of largest
    order in a finite abelian group generates a direct summand: if
    K = H (+) C and C has exponent e, a g meeting H in 0 has the order of
    g + H in C, at most e and reached in C, and one passed over meets every
    larger H too, so the pass takes a g = h + c of order e.  Then c in C has
    order e, C = <c> (+) D, K = (H + <c>) (+) D = (H (+) <g>) (+) D, and the
    exponent of D divides e.
    """
    if sub.parent != group:
        raise NotASubgroupError("subgroup belongs to a different group")
    zero = identity(group)
    part, orders, gens = {zero}, [], []
    for g in sorted(sub.elements, key=lambda g: (-element_order(group, g), g)):
        multiples = [g]
        while multiples[-1] not in part:
            multiples.append(mul(group, multiples[-1], g))
        if multiples[-1] == zero:
            orders.append(len(multiples))
            gens.append(g)
            part = {mul(group, h, m) for h in part for m in multiples}
            if len(part) == len(sub.elements):
                break
    return SubgroupPresentation(GroupSpec(orders), tuple(gens))


def all_group_specs(max_order: int) -> list[GroupSpec]:
    """Every factor multiset with product <= max_order (one spec per multiset)."""
    specs = [GroupSpec((1,))]

    def grow(prefix: list[int], start: int, room: int) -> None:
        for k in range(start, room + 1):
            specs.append(GroupSpec(prefix + [k]))
            grow(prefix + [k], k, room // k)

    grow([], 2, max_order)
    specs.sort(key=lambda s: (s.order(), s.orders))
    return specs


def group_to_dict(group: GroupSpec) -> dict:
    return {"orders": list(group.orders)}


def group_from_dict(data: dict) -> GroupSpec:
    return GroupSpec(data["orders"])


def subgroup_to_dict(sub: Subgroup) -> dict:
    return {"elements": [list(e) for e in sub.elements]}
