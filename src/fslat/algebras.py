"""Finite meet-semilattices carrying an abelian group of automorphisms.

An algebra stores a carrier of labels, an index-valued meet table, and one
carrier permutation per group generator; a full group element acts as the
product of generator permutations raised to its coordinates, each power
p^c(x) read off x's ``cycle`` under p.  Storing generator permutations only
is what lets an infinite cyclic factor act on a finite carrier: only the
finite image of the action matters.

All values are immutable after construction; every operation here is pure.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import chain, combinations, compress, product
from math import lcm
from operator import eq, itemgetter
from typing import NamedTuple

from .groups import (
    Element,
    GroupSpec,
    elementary,
    identity,
    mul,
)

Perm = tuple[int, ...]


class ShapeError(ValueError):
    """Tables are not well-shaped (wrong sizes, bad indices, non-permutations)."""


class NotGeneratedError(ValueError):
    """An element expected to generate the algebra does not."""


class CarrierLimitError(ValueError):
    """Carrier exceeds the configured size limit of an enumeration."""


class InvalidAlgebraError(ValueError):
    """An analysis was asked of a table that fails an axiom (``report``)."""

    def __init__(self, report: ValidationReport):
        super().__init__(f"{report.axiom} fails: {report.detail}")
        self.report = report


class Term(NamedTuple("Term", [("pairs", frozenset[tuple[Element, str]])])):
    """A term in normal form: the meet of the translates g(v) over a nonempty
    set of (group element g, variable v) pairs.  The form is closed under
    meet (set union) and translation, and set semantics absorbs idempotence."""

    __slots__ = ()

    def __new__(cls, pairs):
        pairs = frozenset(pairs)
        if not pairs:
            raise ValueError("a term is a meet over a nonempty set of translated variables")
        return super().__new__(cls, pairs)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({v for _, v in self.pairs}))


def var(name: str, group: GroupSpec) -> Term:
    return Term({(identity(group), name)})


def translate_term(group: GroupSpec, g: Element, term: Term) -> Term:
    return Term((mul(group, g, h), v) for h, v in term.pairs)


def meet_terms(one: Term, two: Term) -> Term:
    return Term(one.pairs | two.pairs)


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def cycle(p: Perm, x: int) -> list[int]:
    """x's cycle under p, from x: p^c(x) is ``orbit[c % len(orbit)]`` for
    ``orbit = cycle(p, x)`` and every integer c, negative or huge."""
    out = [x]
    y = p[x]
    while y != x:
        out.append(y)
        y = p[y]
    return out


def perm_order(p: Perm) -> int:
    """The lcm of p's cycle lengths, each cycle walked once."""
    seen = [False] * len(p)
    lengths = set()
    for start in range(len(p)):
        if not seen[start]:
            x, length = start, 0
            while not seen[x]:
                seen[x] = True
                x = p[x]
                length += 1
            lengths.add(length)
    return lcm(*lengths)


# Most entries of each memo of a generator permutation fact: orders and
# commuting pairs by value; per meet table, points of ``cover_keepers``.
PERM_MEMO = 4096

_order = lru_cache(maxsize=PERM_MEMO)(perm_order)


@lru_cache(maxsize=PERM_MEMO)
def _commute(p: Perm, q: Perm) -> bool:
    """Whether p(q(x)) = q(p(x)) for every x."""
    return itemgetter(*q)(p) == itemgetter(*p)(q)


class MeetTable(tuple):
    """A meet table, a tuple of index rows, caching the facts about the table
    alone: algebras sharing one (every coset fan of a size, every loaded
    payload of one ``exact`` table) compute them once."""

    def __new__(cls, rows):
        return rows if type(rows) is cls else super().__new__(cls, map(tuple, rows))

    @cached_property
    def exact(self) -> bool:
        """Whether the table is square and every entry an exact ``int`` below its
        size.  ``==`` cannot tell: it takes ``True`` and ``1.0`` for ``1``."""
        n = len(self)
        return (
            set(map(len, self)) == {n}
            and set(map(type, chain.from_iterable(self))) == {int}
            and 0 <= min(map(min, self)) <= max(map(max, self)) < n
        )

    @cached_property
    def shape_error(self) -> str | None:
        """Why this is not a square table of indices below its size, or None."""
        n = len(self)
        if self.exact:
            return None
        if set(map(len, self)) != {n}:
            return "meet table is not square of carrier size"
        for v in chain.from_iterable(self):  # name the first bad entry
            if not _is_index(v) or not 0 <= v < n:
                return f"meet entry {v!r} is not an index below {n}"
        return None  # int subclasses other than bool pass

    @cached_property
    def failure(self) -> tuple[str, tuple[int, ...], str] | None:
        """A well-shaped table's first meet-axiom failure: (axiom, witness, detail over its labels)."""
        meet, n = self, len(self)
        for x in range(n):
            if meet[x][x] != x:
                return "meet-idempotence", (x,), "{0} ^ {0} != {0}"
        if meet != tuple(zip(*meet)):
            x, y = next((x, y) for x in range(n) for y in range(x + 1, n) if meet[x][y] != meet[y][x])
            return "meet-commutativity", (x, y), "{0} ^ {1} != {1} ^ {0}"
        down = meet.down_sets
        if not all(down[m] == dx & dy for dx, row in zip(down, meet) for m, dy in zip(row, down)):
            lookups = [itemgetter(*row) for row in meet]
            for x, y in product(range(n), repeat=2):
                left, right = meet[meet[x][y]], lookups[y](meet[x])
                if left != right:
                    z = next(z for z in range(n) if left[z] != right[z])
                    return "meet-associativity", (x, y, z), "({0} ^ {1}) ^ {2} != {0} ^ ({1} ^ {2})"
        return None

    @cached_property
    def down_sets(self) -> tuple[int, ...]:
        """For each x, the bitmask of the z with x ^ z = z: the down-set of
        x once the table is commutative."""
        bits = [1 << z for z in range(len(self))]
        return tuple(sum(compress(bits, map(eq, row, range(len(self))))) for row in self)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Edges (lower, upper) of the covering relation of a semilattice: the
        lower covers of y are the members of dy - {y} below no other member."""
        down = self.down_sets
        edges = []
        for y, dy in enumerate(down):
            strict = rest = dy ^ 1 << y
            below = 0
            while rest:
                low = rest & -rest
                below |= down[low.bit_length() - 1] ^ low
                rest ^= low
            rest = strict & ~below
            while rest:
                low = rest & -rest
                edges.append((low.bit_length() - 1, y))
                rest ^= low
        return tuple(sorted(edges))

    @cached_property
    def cover_keepers(self) -> set[Perm]:
        """The permutations ``keeps_covers`` has found to keep every cover in order."""
        return set()

    def keeps_covers(self, p: Perm) -> bool:
        """Whether p keeps each cover in order; one that does is kept in
        ``cover_keepers``, up to ``PERM_MEMO`` points of permutations."""
        kept = self.cover_keepers
        if p in kept:
            return True
        if not all(self[p[x]][p[y]] == p[x] for x, y in self.covers):
            return False
        if len(kept) < PERM_MEMO // len(self):
            kept.add(p)
        return True


class FSemilattice(
    NamedTuple("FSemilattice", [("group", GroupSpec), ("carrier", tuple[str, ...]),
                                ("meet", MeetTable), ("action", tuple[Perm, ...])])
):
    """Carrier labels, meet table of indices, and one permutation per generator;
    no ``__slots__``, so that the cached tables live in the instance's ``__dict__``."""

    def __new__(cls, group, carrier, meet, action):
        return super().__new__(cls, group, tuple(carrier), MeetTable(meet), tuple(map(tuple, action)))

    @property
    def size(self) -> int:
        return len(self.carrier)

    def index(self, label: str) -> int:
        try:
            return self.carrier.index(label)
        except ValueError:
            raise KeyError(f"no carrier element labeled {label!r}") from None

    def label(self, x: int) -> str:
        return self.carrier[x]

    @cached_property
    def validation(self) -> ValidationReport:
        """The ``validate_axioms`` report, computed on first use."""
        return validate_axioms(self)


class ValidationReport(NamedTuple):
    ok: bool
    axiom: str | None = None
    witness: tuple[int, ...] | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "valid": self.ok,
            "axiom": self.axiom,
            "witness": list(self.witness) if self.witness is not None else None,
            "detail": self.detail,
        }


def check_shape(algebra: FSemilattice) -> None:
    """Structural well-formedness; raised errors are distinct from axiom failures.

    Labels, meet rows and permutations are tested whole, by the set of
    their types and values; a per-entry loop runs only when that test
    fails, to name the offender or to pass a subclass."""
    n = algebra.size
    if n == 0:
        raise ShapeError("empty carrier")
    if set(map(type, algebra.carrier)) != {str}:
        for label in algebra.carrier:
            if not isinstance(label, str):
                raise ShapeError(f"carrier label {label!r} is not a string")
    if len(set(algebra.carrier)) != n:
        raise ShapeError("carrier labels are not unique")
    square, meet_error = len(algebra.meet) == n, algebra.meet.shape_error
    if meet_error or not square:
        raise ShapeError(meet_error if square else "meet table is not square of carrier size")
    if len(algebra.action) != algebra.group.rank:
        raise ShapeError("need one action permutation per group generator")
    points = list(range(n))
    for p in algebra.action:
        if (
            len(p) != n
            or (set(map(type, p)) != {int} and not all(map(_is_index, p)))
            or sorted(p) != points
        ):
            raise ShapeError("action table is not a carrier permutation")


def _is_index(v) -> bool:
    """An int that is not a bool: JSON true/false must not pass as 1/0."""
    return isinstance(v, int) and not isinstance(v, bool)


def validate_axioms(algebra: FSemilattice) -> ValidationReport:
    """Check the defining identities, returning the first violation with a witness.

    Checked in order: idempotence, commutativity, and associativity of the
    meet; each generator permutation a meet-automorphism; generator
    permutations pairwise commuting; the permutation of a finite factor of
    order k having order dividing k.  The last two make exponentiation of
    generator permutations a genuine group action.

    Associativity is decided by the down-set certificate (``down_sets``): a
    commutative, idempotent table is a semilattice meet iff dx & dy = d(x ^ y)
    for all x, y.  That law makes the order transitive (x <= y gives
    dx = dx & dy) and puts x ^ y, and every common lower bound of x and y, in
    dx & dy.  The cubic scan runs only when the certificate fails, to name
    the first witness; it compares the rows (x ^ y) ^ z and x ^ (y ^ z) over
    all z whole for each pair (x, y).  The other checks likewise compare
    whole tables, permutations or covers before an element loop names a
    witness.  The three action checks are memoized by value (``keeps_covers``,
    ``_commute``, ``_order``), read only after ``check_shape`` has found every
    entry an int, since ``==`` takes ``True`` for ``1``; a witness scan runs
    on the failing algebra itself.
    """
    check_shape(algebra)
    n = algebra.size
    meet = algebra.meet
    lab = algebra.label
    if meet.failure:
        axiom, witness, detail = meet.failure
        return ValidationReport(False, axiom, witness, detail.format(*map(lab, witness)))
    for i, p in enumerate(algebra.action):
        # a bijection that keeps each cover in order keeps the whole order,
        # so it preserves greatest lower bounds
        if not meet.keeps_covers(p):
            pairs = ((x, y) for x in range(n) for y in range(x, n))
            x, y = next((x, y) for x, y in pairs if p[meet[x][y]] != meet[p[x]][p[y]])
            detail = f"g{i}({lab(x)} ^ {lab(y)}) != g{i}({lab(x)}) ^ g{i}({lab(y)})"
            return ValidationReport(False, "action-automorphism", (i, x, y), detail)
    for i, j in combinations(range(len(algebra.action)), 2):
        p, q = algebra.action[i], algebra.action[j]
        if not _commute(p, q):
            x = next(x for x in range(n) if p[q[x]] != q[p[x]])
            detail = f"g{i}(g{j}({lab(x)})) != g{j}(g{i}({lab(x)}))"
            return ValidationReport(False, "action-commutation", (i, j, x), detail)
    for i, (p, k) in enumerate(zip(algebra.action, algebra.group.orders)):
        if k >= 1 and k % _order(p):
            # p^k fixes x exactly when the length of x's cycle divides k
            x = next(x for x in range(n) if k % len(cycle(p, x)))
            detail = f"g{i} applied {k} times moves {lab(x)}; factor order {k}"
            return ValidationReport(False, "action-order", (i, x), detail)
    return ValidationReport(True)


def require_valid(algebra: FSemilattice) -> None:
    """Raise ``InvalidAlgebraError`` unless the algebra passes ``validate_axioms``."""
    if not algebra.validation.ok:
        raise InvalidAlgebraError(algebra.validation)


def act(algebra: FSemilattice, g: Element, x: int) -> int:
    """Action of a full group element: generator permutations raised to its
    coordinates, the first generator applied first, each power read off the
    point's ``cycle`` under the generator."""
    if len(g) != algebra.group.rank:
        raise ValueError("coordinate length mismatch")
    for p, c in zip(algebra.action, g):
        if c:
            orbit = cycle(p, x)
            x = orbit[c % len(orbit)]
    return x


def element_action(algebra: FSemilattice, g: Element) -> Perm:
    """The full carrier permutation induced by one group element: ``act`` on
    every element at once, each cycle of each generator walked once."""
    if len(g) != algebra.group.rank:
        raise ValueError("coordinate length mismatch")
    perm = perm_identity(algebra.size)
    for p, c in zip(algebra.action, g):
        if c:
            power: dict[int, int] = {}
            for start in range(algebra.size):
                if start not in power:
                    orbit = cycle(p, start)
                    power.update(zip(orbit, orbit[c % len(orbit):] + orbit[: c % len(orbit)]))
            perm = tuple(map(power.__getitem__, perm))
    return perm


def zero(algebra: FSemilattice) -> int:
    """The least element: the meet of the whole carrier."""
    x = 0
    for y in range(1, algebra.size):
        x = algebra.meet[x][y]
    return x


def atoms(algebra: FSemilattice) -> tuple[int, ...]:
    """Elements covering the least element."""
    z = zero(algebra)
    return tuple(y for x, y in cover_edges(algebra) if x == z)


def cover_edges(algebra: FSemilattice) -> tuple[tuple[int, int], ...]:
    """Edges (lower, upper) of the covering relation of the induced order."""
    require_valid(algebra)
    return algebra.meet.covers


def derive(algebra: FSemilattice, a: int) -> tuple[list[int], list[tuple]]:
    """The one closure routine: the elements of the subalgebra generated by
    ``a`` in the order reached, and the step that first reached each one
    after ``a``: ("move", i, k), generator permutation k of the i-th
    element, or ("meet", i, j), the meet of the i-th and the j-th.  Breadth
    first, each element is moved by every generator permutation, then met
    with each element reached up to it, which closes every unordered pair on
    a commutative meet table.  No inverse is needed: p^-1 = p^(ord p - 1).
    The walk stops once every element is reached: no later step adds one."""
    require_valid(algebra)
    action, meet, n = algebra.action, algebra.meet, algebra.size
    seen = [False] * n
    seen[a] = True
    order, steps = [a], []
    # order grows while it is walked; the list iterator sees the appends
    for i, x in enumerate(order):
        if len(order) == n:
            break
        for k, p in enumerate(action):
            x2 = p[x]
            if not seen[x2]:
                seen[x2] = True
                order.append(x2)
                steps.append(("move", i, k))
        row = meet[x]
        for j in range(i + 1):
            x2 = row[order[j]]
            if not seen[x2]:
                seen[x2] = True
                order.append(x2)
                steps.append(("meet", i, j))
    return order, steps


def replay(derivation: tuple[list[int], list[tuple]], target: FSemilattice, b: int) -> list[int]:
    """A derivation from a, taken in ``target`` from ``b``: t(b) for the
    term t(x) that reaches each t(a), in the order reached."""
    action, meet = target.action, target.meet
    image = [b]
    for kind, u, v in derivation[1]:
        image.append(action[v][image[u]] if kind == "move" else meet[image[u]][image[v]])
    return image


def subalgebra_generated(algebra: FSemilattice, seed: int) -> tuple[FSemilattice, tuple[int, ...]]:
    """The subalgebra generated by ``seed`` (the elements ``derive``
    reaches), plus its index embedding into the parent."""
    embedding = tuple(sorted(derive(algebra, seed)[0]))
    pos = {v: i for i, v in enumerate(embedding)}
    sub = FSemilattice(
        group=algebra.group,
        carrier=tuple(algebra.carrier[v] for v in embedding),
        meet=tuple(tuple(pos[algebra.meet[u][v]] for v in embedding) for u in embedding),
        action=tuple(tuple(pos[p[v]] for v in embedding) for p in algebra.action),
    )
    return sub, embedding


def generates(algebra: FSemilattice, x: int) -> bool:
    return len(derive(algebra, x)[0]) == algebra.size


class Homomorphism(NamedTuple):
    source: FSemilattice
    target: FSemilattice
    map: tuple[int, ...]

    @property
    def is_bijective(self) -> bool:
        n = self.target.size
        return self.source.size == n and sorted(self.map) == list(range(n))


def is_homomorphism(hom: Homomorphism) -> bool:
    """Check meet and generator-action preservation over the whole source."""
    src, dst, f = hom.source, hom.target, hom.map
    if src.group != dst.group or len(f) != src.size:
        return False
    n = src.size
    pairs = ((x, y) for x in range(n) for y in range(x, n))
    return all(f[src.meet[x][y]] == dst.meet[f[x]][f[y]] for x, y in pairs) and all(
        f[p[x]] == q[f[x]] for p, q in zip(src.action, dst.action) for x in range(n)
    )


def is_isomorphism(hom: Homomorphism) -> bool:
    """A bijective homomorphism."""
    return hom.is_bijective and is_homomorphism(hom)


class HomExtendResult(NamedTuple):
    hom: Homomorphism | None
    conflict: tuple[Term, Term] | None

    @property
    def ok(self) -> bool:
        return self.hom is not None


def hom_extend(
    source: FSemilattice, a: int, target: FSemilattice, b: int
) -> HomExtendResult:
    """Try to extend ``a -> b`` to the canonical homomorphism t(a) -> t(b).

    The derivation of the source from ``a`` (``derive``) is replayed in the
    target from ``b``, which gives the only candidate map.  Every step of
    the closure, in the order ``derive`` walks them, is then checked
    against it: a move or meet of reached elements must land on the move or
    meet of their images (a total f with f.p = q.f has f.p^-1 = q^-1.f).
    At the first step that does not, two derivations of one source element
    disagree on the target side, so the map is not well-defined; the terms
    in ``x`` of the two derivations are returned as the witness: they agree
    at x = ``a`` but not at x = ``b``.  Otherwise the map is the unique
    homomorphism sending ``a`` to ``b``, onto the subalgebra ``b`` generates.
    """
    require_valid(source)
    require_valid(target)
    if source.group != target.group:
        raise ValueError("algebras live over different groups")
    derivation = order, steps = derive(source, a)
    if len(order) < source.size:
        raise NotGeneratedError(f"element {source.label(a)!r} does not generate the source")
    image = [0] * source.size
    for x, y in zip(order, replay(derivation, target, b)):
        image[x] = y

    def clash(x2: int, step: tuple) -> HomExtendResult:
        group = source.group
        translations = [elementary(group, i) for i in range(group.rank)]
        terms = [var("x", group)]
        for kind, u, v in steps + [step]:
            terms.append(
                translate_term(group, translations[v], terms[u])
                if kind == "move"
                else meet_terms(terms[u], terms[v])
            )
        return HomExtendResult(None, (terms[order.index(x2)], terms[-1]))

    moves = list(zip(source.action, target.action))
    smeet, tmeet = source.meet, target.meet
    for i, x in enumerate(order):
        y = image[x]
        for k, (p, q) in enumerate(moves):
            if image[p[x]] != q[y]:
                return clash(p[x], ("move", i, k))
        srow, trow = smeet[x], tmeet[y]
        for j, x1 in enumerate(order[: i + 1]):
            if image[srow[x1]] != trow[image[x1]]:
                return clash(srow[x1], ("meet", i, j))
    return HomExtendResult(Homomorphism(source, target, tuple(image)), None)


# A partition of the carrier in canonical form: sorted blocks, sorted by
# least member.
Blocks = tuple[tuple[int, ...], ...]


class Congruence(NamedTuple):
    algebra: FSemilattice
    blocks: Blocks

    @property
    def is_identity(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    @property
    def is_total(self) -> bool:
        return len(self.blocks) == 1


def _blocks(labels: Sequence[int]) -> Blocks:
    """The partition given by each element's class label, as blocks: a class
    first appears at its least member, so the blocks come out canonical."""
    groups: dict[int, list[int]] = {}
    for x, label in enumerate(labels):
        groups.setdefault(label, []).append(x)
    return tuple(map(tuple, groups.values()))


def principal_congruence(algebra: FSemilattice, x: int, y: int) -> Blocks:
    """Smallest congruence identifying ``x`` and ``y``: close the merge under
    every generator permutation and one-sided meets, stopping as soon as one
    class is left.  Classes only grow, so a meet pair already in one class
    is not queued."""
    n = algebra.size
    meet, action = algebra.meet, algebra.action
    label = list(range(n))
    members = [[z] for z in range(n)]
    classes = n
    queue = [(x, y)]
    while queue:
        u, v = queue.pop()
        lu, lv = label[u], label[v]
        if lu == lv:
            continue
        if len(members[lu]) < len(members[lv]):
            lu, lv = lv, lu
        moved = members[lv]
        for z in moved:
            label[z] = lu
        members[lu] += moved
        classes -= 1
        if classes == 1:
            break
        for p in action:
            queue.append((p[u], p[v]))
        queue += [(a, b) for a, b in zip(meet[u], meet[v]) if label[a] != label[b]]
    return _blocks(label)


def _join(roots: tuple[int, ...], blocks: Blocks) -> tuple[int, ...]:
    """The join of a partition, given as each element's root (the least
    member of its class), with the partition ``blocks``, in the same form.
    Roots are merged in a union-find keyed by root, so each block costs one
    lookup per member and a relabelling pass runs once, at the end."""
    parent: dict[int, int] = {}

    def find(r: int) -> int:
        while r in parent:
            r = parent[r]
        return r

    for block in blocks:
        tops = {find(r) for r in set(map(roots.__getitem__, block))}
        if len(tops) > 1:
            least = min(tops)
            for r in tops - {least}:
                parent[r] = least
    if not parent:
        return roots
    lookup = list(range(len(roots)))
    for r in parent:
        lookup[r] = find(r)
    return tuple(map(lookup.__getitem__, roots))


def _principal_basis(algebra: FSemilattice) -> set[Blocks]:
    """Principal congruences whose joins give every congruence.

    The pairs (x, x ^ y) suffice: Cg(x, y) = Cg(x, x ^ y) v Cg(y, x ^ y),
    because x ~ y forces x ^ y ~ y ^ y = y and x = x ^ x ~ y ^ x = x ^ y.
    A congruence is closed under each generator permutation p, and p has
    finite order, so Cg(p x, p y) = Cg(x, y): one closure serves the whole
    orbit of a pair under the generator permutations.
    """
    n = algebra.size
    pairs = {(min(x, m), max(x, m)) for x in range(n) for m in algebra.meet[x] if m != x}
    basis = set()
    for pair in sorted(pairs):
        if pair not in pairs:
            continue
        basis.add(principal_congruence(algebra, *pair))
        pairs.discard(pair)
        orbit = [pair]
        for u, v in orbit:
            for p in algebra.action:
                image = (min(p[u], p[v]), max(p[u], p[v]))
                if image in pairs:
                    pairs.discard(image)
                    orbit.append(image)
    return basis


def congruences(algebra: FSemilattice, limit: int = 24) -> list[Congruence]:
    """All congruences, as the join-closure of a basis of principal ones.

    Joins of congruences are computed as partition joins, which stays inside
    the congruence lattice because compatibility with each operation survives
    unions and transitive closure.  Every congruence is a join of basis
    elements, so the basis elements are taken in turn and each is joined
    with every congruence found so far: after k of them, the found set holds
    the joins of every subset of the first k (R. Freese, "Computing
    congruences efficiently", Algebra Universalis 59, 2008).  A join with a
    basis element the congruence already contains merges nothing and returns
    the congruence itself.  The coarsest basis elements go first, which
    keeps the found set small the longest.  ``_principal_basis`` says which
    principal congruences make up the basis and how few closures compute
    them.
    """
    require_valid(algebra)
    n = algebra.size
    if n > limit:
        raise CarrierLimitError(f"carrier size {n} exceeds congruence limit {limit}")
    found = {tuple(range(n))}
    for blocks in sorted(_principal_basis(algebra), key=lambda blocks: (len(blocks), blocks)):
        blocks = tuple(b for b in blocks if len(b) > 1)
        found |= {_join(one, blocks) for one in found}
    ordered = sorted(map(_blocks, found), key=lambda blocks: (-len(blocks), blocks))
    return [Congruence(algebra, blocks) for blocks in ordered]


def quotient(algebra: FSemilattice, cong: Congruence) -> FSemilattice:
    """Quotient algebra with congruence blocks as elements."""
    if cong.algebra != algebra:
        raise ValueError("congruence belongs to a different algebra")
    blocks = cong.blocks
    block_of = {x: i for i, b in enumerate(blocks) for x in b}
    labels = tuple("|".join(algebra.carrier[x] for x in b) for b in blocks)
    meet = [[block_of[algebra.meet[b1[0]][b2[0]]] for b2 in blocks] for b1 in blocks]
    action = [[block_of[p[b[0]]] for b in blocks] for p in algebra.action]
    return FSemilattice(group=algebra.group, carrier=labels, meet=meet, action=action)


def algebra_to_dict(algebra: FSemilattice) -> dict:
    return {
        "group": {"orders": list(algebra.group.orders)},
        "carrier": list(algebra.carrier),
        "meet": [list(row) for row in algebra.meet],
        "action": [list(p) for p in algebra.action],
    }


# Most rows of a meet table ``algebra_from_dict`` keeps, and most tables it
# keeps: at worst 2^18 cells, about 2 MiB of rows (an 8-byte slot per cell;
# entries below 64 are CPython's shared small ints), plus down-sets and covers.
LOADED_ROWS = 64


@lru_cache(maxsize=LOADED_ROWS)
def _loaded_table(meet: MeetTable) -> MeetTable:
    """The kept table equal to ``meet``, the least recently used leaving first;
    only ``exact`` tables are passed, since ``==`` takes ``True`` for ``1``."""
    return meet


def algebra_from_dict(data: dict) -> FSemilattice:
    """The algebra of a payload, shape-checked once, its axiom report cached;
    an ``exact`` meet table of at most ``LOADED_ROWS`` rows is the kept one
    of its value (``_loaded_table``), with that table's cached facts.
    Its carrier and tables must be arrays: a JSON string or object would
    pass as the sequence of its characters or keys."""
    try:
        group = GroupSpec(data["group"]["orders"])
        for name in ("carrier", "meet", "action"):
            if not isinstance(data[name], (list, tuple)):
                raise ShapeError(f"malformed algebra payload: {name!r} is not a JSON array")
        meet, action = MeetTable(data["meet"]), tuple(map(tuple, data["action"]))
    except (KeyError, TypeError) as exc:
        raise ShapeError(f"malformed algebra payload: {exc}") from exc
    if len(meet) <= LOADED_ROWS and meet.exact:
        meet = _loaded_table(meet)
    algebra = FSemilattice(group, data["carrier"], meet, action)
    algebra.validation  # raises ShapeError before the axioms are checked
    return algebra
