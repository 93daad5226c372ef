"""Independent brute-force oracles, kept deliberately separate from the
library's own algorithms so the two sides can disagree."""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Sequence
from math import ceil, lcm, log2

from fslat.algebras import (
    Congruence,
    FSemilattice,
    HomExtendResult,
    Homomorphism,
    NotGeneratedError,
    Perm,
    Term,
    ValidationReport,
    act,
    ShapeError,
    check_shape,
    element_action,
    is_isomorphism,
    meet_terms,
    perm_identity,
    var,
    zero,
)
from fslat.constructions import VerificationError
from fslat.groups import (
    Element,
    GroupSpec,
    InfiniteGroupError,
    NotASubgroupError,
    Subgroup,
    Transversal,
    elementary,
    format_element,
    identity,
    inv,
    mul,
    presentation,
    reduce_element,
    subgroup_from_elements,
    transversal,
)
from fslat.irrationals import QuadraticIrrational, compare_values, compare_with_rational
from fslat.quasivar import (
    DecompositionResult,
    MinimalityVerdict,
    QuasiIdentity,
    make_quasi_identity,
)


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_compose(p: Perm, q: Perm) -> Perm:
    """(p . q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def _close_mul(group: GroupSpec, seed):
    """The identity and ``seed`` closed under products, breadth first from
    the identity, multiplying each element found by the seed elements only:
    in a finite group that reaches every product of seed elements."""
    seed = list(seed)

    def times(a, b):
        return tuple((x + y) % k if k else x + y for x, y, k in zip(a, b, group.orders))

    out = [(0,) * group.rank]
    seen = set(out)
    for a in out:
        for b in seed:
            c = times(a, b)
            if c not in seen:
                seen.add(c)
                out.append(c)
    return frozenset(out)


def brute_force_subgroups(group: GroupSpec) -> set[frozenset]:
    """Close every subset of size up to ceil(log2 |G|); enough generators for
    any subgroup of an abelian group of that order."""
    elems = group.elements()
    bound = max(1, ceil(log2(len(elems)))) if len(elems) > 1 else 1
    found = set()
    for size in range(0, bound + 1):
        for subset in itertools.combinations(elems, size):
            found.add(_close_mul(group, subset))
    return found


def all_partitions(n: int):
    """Every set partition of range(n), blocks as sorted tuples sorted by least member."""
    if n == 0:
        yield ()
        return
    codes = [0] * n

    def grow(i: int, maxcode: int):
        if i == n:
            blocks: dict[int, list[int]] = {}
            for idx, c in enumerate(codes):
                blocks.setdefault(c, []).append(idx)
            yield tuple(tuple(b) for b in sorted(blocks.values(), key=lambda b: b[0]))
            return
        for c in range(maxcode + 2):
            codes[i] = c
            yield from grow(i + 1, max(maxcode, c))

    yield from grow(1, 0)


def is_congruence_direct(algebra: FSemilattice, blocks) -> bool:
    block_of = {x: i for i, b in enumerate(blocks) for x in b}
    n = algebra.size
    for x in range(n):
        for y in range(n):
            if block_of[x] != block_of[y]:
                continue
            for c in range(n):
                if block_of[algebra.meet[x][c]] != block_of[algebra.meet[y][c]]:
                    return False
            for p in algebra.action:
                if block_of[p[x]] != block_of[p[y]]:
                    return False
    return True


def congruences_by_exhaustion(algebra: FSemilattice):
    return [
        blocks
        for blocks in all_partitions(algebra.size)
        if is_congruence_direct(algebra, blocks)
    ]


def axioms_hold_direct(algebra: FSemilattice) -> bool:
    """Re-derive axiom validity with plain loops, independent of the library."""
    n = algebra.size
    meet = algebra.meet
    if any(meet[x][x] != x for x in range(n)):
        return False
    if any(meet[x][y] != meet[y][x] for x in range(n) for y in range(n)):
        return False
    for x, y, z in itertools.product(range(n), repeat=3):
        if meet[meet[x][y]][z] != meet[x][meet[y][z]]:
            return False
    for p in algebra.action:
        if sorted(p) != list(range(n)):
            return False
        for x in range(n):
            for y in range(n):
                if p[meet[x][y]] != meet[p[x]][p[y]]:
                    return False
    for p, q in itertools.combinations(algebra.action, 2):
        if any(p[q[x]] != q[p[x]] for x in range(n)):
            return False
    for p, k in zip(algebra.action, algebra.group.orders):
        if k >= 1:
            x_to = list(range(n))
            for _ in range(k):
                x_to = [p[v] for v in x_to]
            if x_to != list(range(n)):
                return False
    return True


def normal_form_subalgebra(algebra: FSemilattice, seed: int) -> set[int]:
    """Every element of the generated subalgebra as a meet of a nonempty set
    of translates of the seed (the term normal form), computed directly."""
    n = algebra.size
    gens = [tuple(p) for p in algebra.action]
    gens += [perm_inverse(p) for p in gens]
    image = {perm_identity(n)}
    queue = list(image)
    while queue:
        p = queue.pop()
        for g in gens:
            q = perm_compose(g, p)
            if q not in image:
                image.add(q)
                queue.append(q)
    orbit = sorted({p[seed] for p in image})
    out = set()
    for size in range(1, len(orbit) + 1):
        for subset in itertools.combinations(orbit, size):
            value = subset[0]
            for other in subset[1:]:
                value = algebra.meet[value][other]
            out.add(value)
    return out


def witness_violates(algebra: FSemilattice, axiom: str, witness) -> bool:
    """Replay a validation certificate: the named axiom must really fail there."""
    meet = algebra.meet
    if axiom == "meet-idempotence":
        (x,) = witness
        return meet[x][x] != x
    if axiom == "meet-commutativity":
        x, y = witness
        return meet[x][y] != meet[y][x]
    if axiom == "meet-associativity":
        x, y, z = witness
        return meet[meet[x][y]][z] != meet[x][meet[y][z]]
    if axiom == "action-automorphism":
        i, x, y = witness
        p = algebra.action[i]
        return p[meet[x][y]] != meet[p[x]][p[y]]
    if axiom == "action-commutation":
        i, j, x = witness
        p, q = algebra.action[i], algebra.action[j]
        return p[q[x]] != q[p[x]]
    if axiom == "action-order":
        i, x = witness
        p = algebra.action[i]
        k = algebra.group.orders[i]
        v = x
        for _ in range(k):
            v = p[v]
        return v != x
    return False


def _generator_moves(algebra: FSemilattice):
    """Generator permutations with their group elements; a set closed under
    each permutation of a finite carrier is closed under its inverse."""
    return [(elementary(algebra.group, i), p) for i, p in enumerate(algebra.action)]


def reference_hom_extend(
    source: FSemilattice, a: int, target: FSemilattice, b: int
) -> HomExtendResult:
    """The term-carrying ``hom_extend`` kept as a reference for the
    parent-pointer version: same map, same conflict terms, same exceptions.

    Try to extend ``a -> b`` to the canonical homomorphism t(a) -> t(b).

    The relation {(a, b)} is closed under generator application (forward
    only, as in ``derive``) and meet-pairing while tracking, for each
    reached source element, one term in ``x`` that produced it.  If two
    derivations of the same source element disagree on the target side, the map is not
    well-defined and the two terms form the returned witness: they agree at
    x = ``a`` but not at x = ``b``.  Otherwise the closure is the unique homomorphism sending
    ``a`` to ``b``, and it is surjective onto the subalgebra generated by ``b``.
    """
    if source.group != target.group:
        raise ValueError("algebras live over different groups")
    if not _generates(source, a):
        raise NotGeneratedError(f"element {source.label(a)!r} does not generate the source")
    group = source.group
    id_el = identity(group)
    moves = [
        (g, p, q)
        for (g, p), (_, q) in zip(_generator_moves(source), _generator_moves(target))
    ]
    image: dict[int, tuple[int, Term]] = {a: (b, Term(frozenset({(id_el, "x")})))}
    processed: list[int] = []
    queue = [a]

    def record(x2: int, y2: int, term: Term):
        known = image.get(x2)
        if known is None:
            image[x2] = (y2, term)
            queue.append(x2)
            return None
        if known[0] != y2:
            return (known[1], term)
        return None

    while queue:
        x = queue.pop(0)
        y, term_x = image[x]
        for g, p, q in moves:
            translated = Term(frozenset((mul(group, g, h), v) for h, v in term_x.pairs))
            clash = record(p[x], q[y], translated)
            if clash:
                return HomExtendResult(None, clash)
        for x1 in processed + [x]:
            y1, term_1 = image[x1]
            clash = record(source.meet[x][x1], target.meet[y][y1], Term(term_x.pairs | term_1.pairs))
            if clash:
                return HomExtendResult(None, clash)
        processed.append(x)
    mapping = tuple(image[x][0] for x in range(source.size))
    return HomExtendResult(Homomorphism(source, target, mapping), None)


def reference_extension_map(
    source: FSemilattice, a: int, target: FSemilattice, b: int
) -> tuple[int, ...] | None:
    """``reference_hom_extend``'s breadth-first pair closure without its
    terms: the map of the extension of ``a -> b``, or None where two
    derivations of one source element disagree in the target.  The same
    refusals, in the same order."""
    if source.group != target.group:
        raise ValueError("algebras live over different groups")
    if not _generates(source, a):
        raise NotGeneratedError(f"element {source.label(a)!r} does not generate the source")
    return _extension_map(source, a, target, b)


def _extension_map(source: FSemilattice, a: int, target: FSemilattice, b: int) -> tuple[int, ...] | None:
    """``reference_extension_map`` past its refusals: ``a`` generates ``source``."""
    moves = []
    for p, q in zip(source.action, target.action):
        moves += [(p, q), (perm_inverse(p), perm_inverse(q))]
    image = {a: b}
    processed: list[int] = []
    queue = [a]

    def clashes(x2: int, y2: int) -> bool:
        known = image.get(x2)
        if known is None:
            image[x2] = y2
            queue.append(x2)
            return False
        return known != y2

    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        y = image[x]
        for p, q in moves:
            if clashes(p[x], q[y]):
                return None
        meet_x, meet_y = source.meet[x], target.meet[y]
        for x1 in processed:
            if clashes(meet_x[x1], meet_y[image[x1]]):
                return None
        if clashes(meet_x[x], meet_y[y]):
            return None
        processed.append(x)
    return tuple(image[x] for x in range(source.size))


def reference_holds_quasi_identity(
    algebra: FSemilattice, qi: QuasiIdentity
) -> tuple[bool, dict[str, int] | None]:
    """The valuation-by-valuation scan kept as a reference for the
    value-mask scan of ``holds_quasi_identity``: same verdict, same witness.
    It shares no term code with the library: each term becomes its sorted
    (translate table, variable slot) pairs, the tables built by
    ``reference_act``, and is folded through the meet table at every
    valuation.

    Exhaustive check; on failure, the first failing valuation in canonical
    order (variables sorted by name, carrier indices counted lexicographically)."""
    names = qi.variables
    meet = algebra.meet
    tables: dict = {}

    def compiled(term):
        for g, _ in term.pairs:
            if g not in tables:
                tables[g] = [reference_act(algebra, g, x) for x in range(algebra.size)]
        return [(tables[g], names.index(v)) for g, v in sorted(term.pairs)]

    def value(pairs, combo):
        out = None
        for table, i in pairs:
            y = table[combo[i]]
            out = y if out is None else meet[out][y]
        return out

    premises = [(compiled(s), compiled(t)) for s, t in qi.premises]
    left, right = (compiled(t) for t in qi.conclusion)
    for combo in itertools.product(range(algebra.size), repeat=len(names)):
        if all(value(s, combo) == value(t, combo) for s, t in premises):
            if value(left, combo) != value(right, combo):
                return False, dict(zip(names, combo))
    return True, None


def _sign_plus_root(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for a square-free d >= 2: b*sqrt(d) against -a
    compared through their squares, which never tie when b != 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        return 1 if a >= 0 or a * a < b * b * d else -1
    return 1 if a > 0 and a * a > b * b * d else -1


def reference_identity_samples(
    alpha: QuadraticIrrational, p: int, q: int
) -> tuple[tuple[int, int, bool], ...]:
    """Every point m + n*alpha of the window |m|, |n| <= 8, ordered by
    (max(|m|, |n|), m, n), with whether min(x + p, x + q*alpha) = x + q*alpha
    there, kept as a reference for ``_identity_samples``.

    The minimum is x + q*alpha exactly when the difference of the two
    translates, (m + p + n*alpha) - (m + (n + q)*alpha) = dm + dn*alpha, is
    >= 0; times r > 0 that is (dm*r + dn*p') + dn*q'*sqrt(d) for
    alpha = (p' + q'*sqrt(d))/r, an integer sign."""
    window = sorted(
        (max(abs(m), abs(n)), m, n) for m in range(-8, 9) for n in range(-8, 9)
    )
    lines = []
    for _, m, n in window:
        dm, dn = (m + p) - m, n - (n + q)
        sign = _sign_plus_root(dm * alpha.r + dn * alpha.p, dn * alpha.q, alpha.d)
        lines.append((m, n, sign >= 0))
    return tuple(lines)


def reference_rational_between(
    alpha: QuadraticIrrational, beta: QuadraticIrrational
) -> tuple[int, int]:
    """The one-step Stern-Brocot descent kept as a reference for the
    run-length version: one mediant per step, so its time grows with the
    partial quotients of the bounds.

    Minimal-denominator rational strictly between alpha < beta, found by
    descending the Stern-Brocot tree of all rationals."""
    if compare_values(alpha, beta) >= 0:
        raise ValueError("need alpha < beta")
    lo = (-1, 0)
    hi = (1, 0)
    while True:
        num, den = lo[0] + hi[0], lo[1] + hi[1]
        if den == 0:
            num, den = 0, 1  # root of the tree extended over all rationals
        if compare_with_rational(alpha, num, den) <= 0:
            lo = (num, den)
        elif compare_with_rational(beta, num, den) >= 0:
            hi = (num, den)
        else:
            return num, den


def reference_act(algebra: FSemilattice, g: Element, x: int) -> int:
    """The step-by-step ``act`` kept as a reference for the cycle walk:
    each generator permutation applied (coordinate mod its order) times.

    Action of a full group element: generator permutations raised to its coordinates."""
    if len(g) != algebra.group.rank:
        raise ValueError("coordinate length mismatch")
    y = x
    for p, c in zip(algebra.action, g):
        for _ in range(c % reference_perm_order(p)):
            y = p[y]
    return y


def reference_eval_unary(algebra: FSemilattice, term: Term, x: int) -> int:
    """A term in one variable at ``x``: the meet of its translates g(x),
    each applied step by step (``reference_act``)."""
    values = [reference_act(algebra, g, x) for g, _ in term.pairs]
    value = values[0]
    for other in values[1:]:
        value = algebra.meet[value][other]
    return value


def reference_orbits(algebra: FSemilattice) -> list[frozenset[int]]:
    """Each element's orbit under the action: the closure of {x} under every
    generator permutation and its inverse, searched from each x alone."""
    moves = [m for p in algebra.action for m in (p, perm_inverse(p))]
    orbits = []
    for x in range(algebra.size):
        orbit, queue = {x}, [x]
        while queue:
            y = queue.pop()
            for p in moves:
                if p[y] not in orbit:
                    orbit.add(p[y])
                    queue.append(p[y])
        orbits.append(frozenset(orbit))
    return orbits


def reference_closure(algebra: FSemilattice, seed: int, perms) -> tuple[int, ...]:
    """The closure loop ``decompose_ku`` and ``subalgebra_generated`` each
    carried before they shared ``generated_by``, kept as its reference: the
    least subset containing ``seed`` closed under meet and ``perms`` with
    their inverses, each permutation visited right before its inverse."""
    members = {seed}
    queue = [seed]
    gen_perms = []
    for p in perms:
        gen_perms += [p, perm_inverse(p)]
    while queue:
        x = queue.pop()
        for p in gen_perms:
            y = p[x]
            if y not in members:
                members.add(y)
                queue.append(y)
        for y in list(members):
            m = algebra.meet[x][y]
            if m not in members:
                members.add(m)
                queue.append(m)
    return tuple(sorted(members))


def _generates(algebra: FSemilattice, x: int) -> bool:
    return len(reference_closure(algebra, x, algebra.action)) == algebra.size


# Verbatim copies of ``generated_by``, which ``subalgebra_generated`` folded
# in once the closure ran only on valid algebras, and of the cubic
# ``cover_edges`` that the down-sets replaced.


def reference_generated_by(
    algebra: FSemilattice, seed: int, group: GroupSpec, perms: Sequence[Perm]
) -> tuple[FSemilattice, tuple[int, ...]]:
    """Least subset containing ``seed`` closed under meet and the carrier
    permutations ``perms`` (one per generator of ``group``) and their
    inverses, returned as an algebra over ``group`` acting by the restricted
    permutations, plus the index embedding into ``algebra``.

    The moves are each permutation followed by its inverse.  Each dequeued
    element is met with the members found so far on one side only, so on a
    meet table that is not commutative the subset returned depends on the
    order elements are queued in; a meet that leaves the subset is then
    reported as a ``ShapeError`` naming the pair.
    """
    moves = []
    for p in perms:
        moves += [p, perm_inverse(p)]
    members = {seed}
    queue = [seed]
    while queue:
        x = queue.pop()
        for p in moves:
            y = p[x]
            if y not in members:
                members.add(y)
                queue.append(y)
        for y in list(members):
            z = algebra.meet[x][y]
            if z not in members:
                members.add(z)
                queue.append(z)
    embedding = tuple(sorted(members))
    pos = {v: i for i, v in enumerate(embedding)}
    try:
        meet = tuple(tuple(pos[algebra.meet[u][v]] for v in embedding) for u in embedding)
    except KeyError:
        u, v = next(
            (u, v) for u in embedding for v in embedding if algebra.meet[u][v] not in pos
        )
        lab = algebra.label
        raise ShapeError(
            f"meet table is not commutative: {lab(u)} ^ {lab(v)} = "
            f"{lab(algebra.meet[u][v])} lies outside the subset generated by {lab(seed)}"
        ) from None
    sub = FSemilattice(
        group=group,
        carrier=tuple(algebra.carrier[v] for v in embedding),
        meet=meet,
        action=tuple(tuple(pos[p[v]] for v in embedding) for p in perms),
    )
    return sub, embedding


def reference_cover_edges(algebra: FSemilattice) -> tuple[tuple[int, int], ...]:
    """Edges (lower, upper) of the covering relation of the induced order."""
    n = algebra.size

    def leq(x: int, y: int) -> bool:
        return algebra.meet[x][y] == x

    edges = []
    for x in range(n):
        for y in range(n):
            if x == y or not leq(x, y):
                continue
            if any(z not in (x, y) and leq(x, z) and leq(z, y) for z in range(n)):
                continue
            edges.append((x, y))
    return tuple(edges)


def reference_is_isomorphic_1gen(
    first: FSemilattice, a: int, second: FSemilattice, b: int
) -> tuple[bool, Homomorphism | None]:
    """The two-extension isomorphism test ``is_minimal_free`` used before it
    decided each element by one injective extension, kept as the reference
    the isomorphism tests compare against (``reference_is_minimal_free``
    runs it inline); each extension is this module's
    ``reference_extension_map``, not the library's ``hom_extend``.

    Isomorphism test for algebras generated by ``a`` and ``b``: both canonical
    extensions must be well-defined; the forward one is returned as witness."""
    if first.size != second.size:
        return False, None
    forward = reference_extension_map(first, a, second, b)
    if forward is None:
        return False, None
    if reference_extension_map(second, b, first, a) is None:
        return False, None
    return True, Homomorphism(first, second, forward)


def reference_is_minimal_free(algebra: FSemilattice, a: int) -> MinimalityVerdict:
    """The element-by-element ``is_minimal_free`` kept as a reference for the
    orbit skip: it tests every nonzero element up to the first failure, with
    this module's ``reference_closure`` for the subalgebra it generates.
    Generation is tested once per element: once a and b are known to
    generate, the two extension maps of ``reference_is_isomorphic_1gen``
    are taken without testing it again.

    Decide whether the generated quasivariety is minimal: every nonzero
    element must generate a subalgebra isomorphic to the whole algebra via
    the canonical generator-to-generator map."""
    if algebra.size == 1:
        raise ValueError("minimality test needs a nontrivial algebra")
    if not _generates(algebra, a):
        raise NotGeneratedError(f"{algebra.label(a)!r} does not generate the algebra")
    bottom = zero(algebra)
    checked = 0
    for b in range(algebra.size):
        if b == bottom:
            continue
        checked += 1
        # b generates a subalgebra as large as the algebra only by generating
        # all of it, which is then its own generated subalgebra
        if not _generates(algebra, b):
            return MinimalityVerdict(False, b, checked)
        if _extension_map(algebra, a, algebra, b) is None or _extension_map(algebra, b, algebra, a) is None:
            return MinimalityVerdict(False, b, checked)
    return MinimalityVerdict(True, None, checked)


# Verbatim copies of the tuple routines that integer codes added through one
# addition table per call replaced, kept as references for ``subgroups``,
# ``subgroup_from_elements``, ``cosets``, ``maroti`` and ``stabilizer``.


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


def reference_closure_subgroup_from_elements(group: GroupSpec, elems) -> Subgroup:
    """Validate an element set as a subgroup and put it in canonical form.

    The set is a subgroup exactly when it equals the subgroup it generates
    (``_closure``).  Only a set that fails is walked pair by pair, to name
    the missing inverse or product.  A set with a nonzero coordinate on an
    infinite factor is never a finite subgroup; it skips the closure, which
    would not end.
    """
    elems = {reduce_element(group, e) for e in elems}
    if not elems:
        raise NotASubgroupError("a subgroup is nonempty")
    if identity(group) not in elems:
        raise NotASubgroupError("identity element missing")
    if all(c == 0 for e in elems for c, k in zip(e, group.orders) if k == 0):
        if _closure(group, sorted(elems)) == elems:
            return Subgroup(group, tuple(sorted(elems)))
    for a in elems:
        if inv(group, a) not in elems:
            raise NotASubgroupError(f"not closed under inverse at {a}")
        for b in elems:
            if mul(group, a, b) not in elems:
                raise NotASubgroupError(f"not closed under product at {a}, {b}")
    raise AssertionError("a set closed under inverse and product generates itself")


def _reference_subgroup_sets(group: GroupSpec) -> set[frozenset[Element]]:
    """All subgroups of a finite group, as element sets.

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

    seen = {frozenset({index[identity(group)]})}
    stack = list(seen)
    while stack:
        current = stack.pop()
        tried = set(current)
        for g in range(len(elems)):
            if g in tried:
                continue
            tried.update(add(g, s) for s in current)
            extended = frozenset(_join(current, g, add))
            if extended not in seen:
                seen.add(extended)
                stack.append(extended)
    return {frozenset(elems[i] for i in s) for s in seen}


def reference_subgroups(group: GroupSpec) -> list[Subgroup]:
    """Every subgroup of a finite group, canonically sorted by (size, elements)."""
    if not group.is_finite:
        raise InfiniteGroupError("subgroup enumeration needs a finite group")
    sets = _reference_subgroup_sets(group)
    ordered = sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))
    return [reference_closure_subgroup_from_elements(group, s) for s in ordered]


def reference_cosets(group: GroupSpec, sub: Subgroup) -> list[tuple[Element, ...]]:
    """The coset partition of a finite group, blocks sorted by least member."""
    if not group.is_finite:
        raise InfiniteGroupError("coset enumeration needs a finite group")
    if sub.parent != group:
        raise NotASubgroupError("subgroup belongs to a different group")
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


def reference_maroti(group: GroupSpec, sub: Subgroup) -> FSemilattice:
    """Atoms are the cosets of the subgroup, plus a common zero below them.

    The group translates cosets; the zero is fixed.  Atoms are labeled by the
    lexicographically least coset member, the zero by ``o``.
    """
    blocks = reference_cosets(group, sub)
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


def reference_stabilizer(algebra: FSemilattice, a: int) -> Subgroup:
    """The subgroup of group elements fixing ``a`` (finite groups only)."""
    group = algebra.group
    if not group.is_finite:
        raise InfiniteGroupError("stabilizers need a finite group")
    fixing = [g for g in group.elements() if act(algebra, g, a) == a]
    return reference_closure_subgroup_from_elements(group, fixing)


def reference_subgroup_from_elements(group: GroupSpec, elems) -> Subgroup:
    """The pair-by-pair ``subgroup_from_elements`` kept as a reference for
    the validation by closure: same subgroup, same error messages.

    Validate an element set as a subgroup and put it in canonical form."""
    elems = {reduce_element(group, e) for e in elems}
    if not elems:
        raise NotASubgroupError("a subgroup is nonempty")
    if identity(group) not in elems:
        raise NotASubgroupError("identity element missing")
    for a in elems:
        if inv(group, a) not in elems:
            raise NotASubgroupError(f"not closed under inverse at {a}")
        for b in elems:
            if mul(group, a, b) not in elems:
                raise NotASubgroupError(f"not closed under product at {a}, {b}")
    return Subgroup(group, tuple(sorted(elems)))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def _canonical_blocks(n: int, uf: _UnionFind) -> tuple[tuple[int, ...], ...]:
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(uf.find(x), []).append(x)
    return tuple(tuple(sorted(b)) for b in sorted(groups.values(), key=lambda b: b[0]))


def reference_principal_congruence(algebra: FSemilattice, x: int, y: int) -> tuple[tuple[int, ...], ...]:
    """The ``principal_congruence`` without an early stop, kept as a
    reference for the library's.

    Smallest congruence identifying ``x`` and ``y``: close the merge under
    every generator permutation and one-sided meets."""
    n = algebra.size
    uf = _UnionFind(n)
    queue = [(x, y)]
    while queue:
        u, v = queue.pop()
        if not uf.union(u, v):
            continue
        for p in algebra.action:
            queue.append((p[u], p[v]))
        for c in range(n):
            queue.append((algebra.meet[u][c], algebra.meet[v][c]))
    return _canonical_blocks(n, uf)


def _join_partitions(n, first, second) -> tuple[tuple[int, ...], ...]:
    uf = _UnionFind(n)
    for blocks in (first, second):
        for block in blocks:
            for other in block[1:]:
                uf.union(block[0], other)
    return _canonical_blocks(n, uf)


def reference_congruences(algebra: FSemilattice) -> list[Congruence]:
    """The ``congruences`` closure that joins each new partition with every
    partition found so far, from the principal congruences of all pairs,
    kept as a reference for the library's basis and join loop (no carrier
    limit)."""
    n = algebra.size
    delta = tuple((x,) for x in range(n))
    found = {delta}
    for x in range(n):
        for y in range(x + 1, n):
            found.add(reference_principal_congruence(algebra, x, y))
    frontier = list(found)
    while frontier:
        fresh = []
        for one in frontier:
            for two in list(found):
                joined = _join_partitions(n, one, two)
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh
    ordered = sorted(found, key=lambda blocks: (-len(blocks), blocks))
    return [Congruence(algebra, blocks) for blocks in ordered]


# Verbatim copies of the tuple-coded twisted multiple and its transversal
# check, kept as references for the coset split over one addition table and
# for the map read off the action.  Their ingredients travel in one record,
# every one of them given.

TwistedSpec = namedtuple("TwistedSpec", "group subgroup transversal factor factor_generators")


def _reference_factor_exponent_table(spec: TwistedSpec) -> dict[Element, Element]:
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


def reference_twisted_multiple(spec: TwistedSpec) -> FSemilattice:
    """Glue one shifted copy of the factor algebra per coset above a zero.

    Carrier: pairs (u, t) for u in the factor and t a coset representative,
    ordered by (representative, u), plus a final zero.  Pairs over the same
    representative meet inside the factor; over different representatives
    they meet at zero.  A group element g sends (u, t) to (k(u), f) where f
    is the representative of g t's coset and k = g t f^{-1} lies in the
    subgroup, acting on u through the factor's own action.
    """
    group = spec.group
    exponents = _reference_factor_exponent_table(spec)
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


def reference_transversal_independence_check(
    group: GroupSpec,
    sub: Subgroup,
    factor: FSemilattice,
    first: Transversal,
    second: Transversal,
    factor_generators: tuple[Element, ...],
) -> Homomorphism:
    """Build the twisted multiple with two different transversals and verify
    the explicit isomorphism (u, t) -> (t'^{-1} t (u), t') between them, where
    t' represents t's coset in the second transversal."""
    spec1 = TwistedSpec(group, sub, first, factor, factor_generators)
    spec2 = TwistedSpec(group, sub, second, factor, factor_generators)
    left = reference_twisted_multiple(spec1)
    right = reference_twisted_multiple(spec2)
    exponents = _reference_factor_exponent_table(spec1)
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


# Verbatim copy of the enumeration of the action image that
# ``separating_quasi_identity`` scanned, reading each generator's order from
# ``reference_perm_order`` where the library read the length of its row of
# powers.


def _image_elements(algebra: FSemilattice) -> list[Element]:
    """Group elements enumerating the action image: full factor ranges when
    finite, permutation-order ranges on infinite factors."""
    orders = algebra.group.orders
    ranges = [range(k if k >= 1 else reference_perm_order(p)) for k, p in zip(orders, algebra.action)]
    return [tuple(c) for c in itertools.product(*ranges)]


def reference_separating_quasi_identity(algebra: FSemilattice, a: int) -> QuasiIdentity:
    """The pairwise candidate search kept as a reference for the choice of
    the last generator that moves the generator: same quasi-identity, same
    errors.

    The canonically first unary-term pair disagreeing at the generator,
    packaged as (s(x) = t(x)) -> (x = x ^ y).
    """
    if algebra.size == 1:
        raise ValueError("the one-element algebra admits no separating quasi-identity")
    if not _generates(algebra, a):
        raise NotGeneratedError(f"{algebra.label(a)!r} does not generate the algebra")
    group = algebra.group
    elements = _image_elements(algebra)
    for j in range(1, len(elements)):
        for i in range(j):
            # the candidate terms g(x) take the values g(a) at the generator
            if reference_act(algebra, elements[i], a) != reference_act(algebra, elements[j], a):
                s, t = (Term(frozenset({(g, "x")})) for g in (elements[i], elements[j]))
                x = var("x", group)
                y = var("y", group)
                return make_quasi_identity([(s, t)], (x, meet_terms(x, y)))
    raise ValueError("no separating term pair found; the algebra is trivially acted on")


# Verbatim copy of ``decompose_ku`` with its scan of meets of up to three
# translates, kept as a reference for the version that relies on the
# verified isomorphism alone; its minimality test and its action are this
# module's ``reference_is_minimal_free`` and ``reference_act``.

MAX_TRANSLATES = 3


def reference_decompose_ku(algebra: FSemilattice, a: int) -> DecompositionResult:
    """Split a free-minimal algebra at its generator.

    K collects the group elements g with a ^ g(a) above zero; the factor is
    the K-closure of the generator.  The twisted multiple over (K, factor) is
    rebuilt and the explicit isomorphism (u, t) -> t(u) is verified.  The
    block condition -- a meet of translates is nonzero exactly when all the
    translating elements share a K-coset -- is checked on meets of up to
    ``MAX_TRANSLATES`` translates.
    """
    group = algebra.group
    if not group.is_finite:
        raise InfiniteGroupError("decomposition is implemented for finite groups")
    if algebra.size == 1:
        raise ValueError("decomposition needs a nontrivial algebra")
    verdict = reference_is_minimal_free(algebra, a)
    if not verdict.minimal:
        raise ValueError(
            f"decomposition needs a free-minimal algebra; counterexample "
            f"{algebra.label(verdict.counterexample)!r}"
        )
    bottom = zero(algebra)
    elements = group.elements()
    translate = {g: reference_act(algebra, g, a) for g in elements}
    k_elems = [g for g in elements if algebra.meet[a][translate[g]] != bottom]
    sub = subgroup_from_elements(group, k_elems)  # failure here would be a bug
    coset_id = {g: i for i, b in enumerate(reference_cosets(group, sub)) for g in b}
    for size in range(1, MAX_TRANSLATES + 1):
        for combo in itertools.combinations_with_replacement(elements, size):
            value = None
            for g in combo:
                translated = translate[g]
                value = translated if value is None else algebra.meet[value][translated]
            same_coset = len({coset_id[g] for g in combo}) == 1
            if (value != bottom) != same_coset:
                raise VerificationError(
                    f"block condition fails for translates {[format_element(g) for g in combo]}"
                )
    pres = presentation(group, sub)
    factor, closure = reference_generated_by(
        algebra, a, pres.spec, [element_action(algebra, g) for g in pres.generators]
    )
    reps = transversal(group, sub)
    rebuilt = reference_twisted_multiple(TwistedSpec(group, sub, reps, factor, pres.generators))
    u_size = factor.size
    mapping = []
    for i in range(rebuilt.size - 1):
        t_pos, u = divmod(i, u_size)
        t = reps.reps[t_pos]
        mapping.append(reference_act(algebra, t, closure[u]))
    mapping.append(bottom)
    iso = Homomorphism(rebuilt, algebra, tuple(mapping))
    if not is_isomorphism(iso):
        raise VerificationError("reconstruction map failed verification")
    return DecompositionResult(sub, factor, rebuilt, iso)


# Verbatim copies of ``validate_axioms`` and the ``perm_order`` it calls,
# kept as references for the action-order check by cycle lengths; the
# check composes p^(k mod ord p) one factor at a time.


def reference_perm_order(p) -> int:
    seen = [False] * len(p)
    n = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        n = lcm(n, length)
    return n


def reference_validate_axioms(algebra: FSemilattice) -> ValidationReport:
    """Check the defining identities, returning the first violation with a witness.

    Checked in order: idempotence, commutativity, and associativity of the
    meet; each generator permutation a meet-automorphism; generator
    permutations pairwise commuting; the permutation of a finite factor of
    order k having order dividing k.  The last two make exponentiation of
    generator permutations a genuine group action.
    """
    check_shape(algebra)
    n = algebra.size
    meet = algebra.meet
    lab = algebra.label
    for x in range(n):
        if meet[x][x] != x:
            return ValidationReport(False, "meet-idempotence", (x,), f"{lab(x)} ^ {lab(x)} != {lab(x)}")
    for x in range(n):
        for y in range(x + 1, n):
            if meet[x][y] != meet[y][x]:
                return ValidationReport(
                    False, "meet-commutativity", (x, y), f"{lab(x)} ^ {lab(y)} != {lab(y)} ^ {lab(x)}"
                )
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[meet[x][y]][z] != meet[x][meet[y][z]]:
                    return ValidationReport(
                        False,
                        "meet-associativity",
                        (x, y, z),
                        f"({lab(x)} ^ {lab(y)}) ^ {lab(z)} != {lab(x)} ^ ({lab(y)} ^ {lab(z)})",
                    )
    for i, p in enumerate(algebra.action):
        for x in range(n):
            for y in range(x, n):
                if p[meet[x][y]] != meet[p[x]][p[y]]:
                    return ValidationReport(
                        False,
                        "action-automorphism",
                        (i, x, y),
                        f"g{i}({lab(x)} ^ {lab(y)}) != g{i}({lab(x)}) ^ g{i}({lab(y)})",
                    )
    for i in range(len(algebra.action)):
        for j in range(i + 1, len(algebra.action)):
            p, q = algebra.action[i], algebra.action[j]
            for x in range(n):
                if p[q[x]] != q[p[x]]:
                    return ValidationReport(
                        False,
                        "action-commutation",
                        (i, j, x),
                        f"g{i}(g{j}({lab(x)})) != g{j}(g{i}({lab(x)}))",
                    )
    for i, (p, k) in enumerate(zip(algebra.action, algebra.group.orders)):
        if k >= 1:
            pk = perm_identity(n)
            for _ in range(k % reference_perm_order(p)):
                pk = perm_compose(p, pk)
            for x in range(n):
                if pk[x] != x:
                    return ValidationReport(
                        False,
                        "action-order",
                        (i, x),
                        f"g{i} applied {k} times moves {lab(x)}; factor order {k}",
                    )
    return ValidationReport(True)
