"""Quasi-identities over terms, and the quasivariety-level decision procedures.

A quasi-identity is a Horn formula over terms (``algebras.Term``): finitely
many equational premises and one equational conclusion, checked by
exhaustive valuation over finite carriers.

The decision procedures implemented here: the free-minimality test (the
map generator -> b must extend injectively for every nonzero b), the
stabilizer map from minimal algebras to subgroups with its inverse built
from coset fans, and the splitting of a free-minimal algebra into a
subgroup K and a K-algebra whose twisted multiple reconstructs it.  Each
refuses an algebra that fails ``validate_axioms`` with
``InvalidAlgebraError``.
"""

from __future__ import annotations

import re
from itertools import repeat
from operator import eq
from typing import NamedTuple

from .algebras import (
    CarrierLimitError,
    FSemilattice,
    Homomorphism,
    NotGeneratedError,
    Term,
    ValidationReport,
    act,
    congruences,
    cycle,
    derive,
    element_action,
    generates,
    is_isomorphism,
    meet_terms,
    perm_identity,
    quotient,
    replay,
    require_valid,
    translate_term,
    var,
    zero,
)
from .constructions import VerificationError, maroti, trivial_factor, twisted_multiple
from .groups import (
    AdditionTable,
    Element,
    GroupSpec,
    InfiniteGroupError,
    NotASubgroupError,
    Subgroup,
    elementary,
    identity,
    parse_int,
    presentation,
    reduce_element,
    subgroups,
    transversal,
)


class QuasiIdentity(NamedTuple):
    premises: tuple[tuple[Term, Term], ...]
    conclusion: tuple[Term, Term]
    variables: tuple[str, ...]


def make_quasi_identity(premises, conclusion) -> QuasiIdentity:
    premises = tuple((s, t) for s, t in premises)
    names: set[str] = set()
    for s, t in premises + (conclusion,):
        names.update(s.variables)
        names.update(t.variables)
    return QuasiIdentity(premises, tuple(conclusion), tuple(sorted(names)))


def eval_term(algebra: FSemilattice, term: Term, valuation: dict[str, int]) -> int:
    value = None
    for g, v in sorted(term.pairs):
        if v not in valuation:
            raise ValueError(f"unbound variable {v!r}")
        translated = act(algebra, g, valuation[v])
        value = translated if value is None else algebra.meet[value][translated]
    return value


# Most valuations (carrier size to the number of variables) the exhaustive
# quasi-identity check accepts; a larger scan is refused before it starts.
MAX_VALUATIONS = 10**6


def holds_quasi_identity(
    algebra: FSemilattice, qi: QuasiIdentity
) -> tuple[bool, dict[str, int] | None]:
    """Exhaustive check; on failure, the first failing valuation in canonical
    order (variables sorted by name, carrier indices counted lexicographically).
    More than ``MAX_VALUATIONS`` valuations raise ``CarrierLimitError``.

    Each equation is checked at its last variable d, at every value of d at
    once.  Each side's pairs on earlier variables fold at run time to one
    carrier element, its bound constant, and its pairs on d make a column
    over the carrier, built once.  The check is an int mask with byte c set
    where the sides agree at d = c (a premise) or differ (the conclusion),
    memoised by the pair of bound constants: at most min(n^d, (n+1)^2) masks
    of n bytes, near 1 MB under ``MAX_VALUATIONS``.  Each depth's AND of
    masks is walked from the lowest bit, so in canonical order, and what it
    skips fails a premise or meets the conclusion: the first full valuation
    reached is the first failing one.
    """
    require_valid(algebra)
    names, n = qi.variables, algebra.size
    if n ** len(names) > MAX_VALUATIONS:
        raise CarrierLimitError(f"{n}^{len(names)} valuations exceed {MAX_VALUATIONS}")
    ident = perm_identity(n)
    rows = algebra.meet + (ident,)  # row n, the identity, folds as a top
    ones = int.from_bytes(b"\x01" * n, "little")
    slot = {v: i for i, v in enumerate(names)}
    perms: dict[Element, tuple[int, ...]] = {identity(algebra.group): ident}
    # checks[d]: (bound pairs and column of each side, flip, memo) for the equations
    # whose last variable is names[d]; a side without names[d] has the column None.
    checks: list[list] = [[] for _ in names]
    for (s, t), flip in [(equation, 0) for equation in qi.premises] + [(qi.conclusion, ones)]:
        d = max(slot[v] for term in (s, t) for _, v in term.pairs)
        sides = []
        for term in (s, t):
            bound, column = [], None
            for g, v in term.pairs:
                perm = perms[g] if g in perms else perms.setdefault(g, element_action(algebra, g))
                if slot[v] < d:
                    bound.append((perm, slot[v]))
                else:
                    column = perm if column is None else tuple(rows[a][b] for a, b in zip(column, perm))
            sides.append((bound, column))
        checks[d].append((sides, flip, {}))

    last = len(names) - 1
    valuation, pending = [0] * len(names), [0] * len(names)
    depth = 0
    while True:
        mask = ones
        for ((lefts, lcol), (rights, rcol)), flip, memo in checks[depth]:
            left = right = n
            for perm, i in lefts:
                left = rows[left][perm[valuation[i]]]
            for perm, i in rights:
                right = rows[right][perm[valuation[i]]]
            key = left, right
            if key not in memo:
                values = [repeat(b) if c is None else rows[b] if c is ident
                          else map(rows[b].__getitem__, c) for b, c in ((left, lcol), (right, rcol))]
                memo[key] = int.from_bytes(bytes(map(eq, *values)), "little") ^ flip
            mask &= memo[key]
        pending[depth] = mask
        while not pending[depth]:
            depth -= 1
            if depth < 0:
                return True, None
        low = pending[depth] & -pending[depth]
        pending[depth] ^= low
        valuation[depth] = low.bit_length() >> 3
        if depth == last:
            return False, dict(zip(names, valuation))
        depth += 1


def separating_quasi_identity(algebra: FSemilattice, a: int) -> QuasiIdentity:
    """The canonically first unary-term pair disagreeing at the generator,
    packaged as (s(x) = t(x)) -> (x = x ^ y).

    Candidates are the translates g(x) of the action image in lexicographic
    order of g, so the first pair is x and g_j(x), j the last generator that
    moves a: every g before it is nonzero only at generators that fix a.

    For a free-minimal algebra the result holds in the algebra and fails in
    the two-element algebra with trivial action, which is what separates the
    generated quasivariety from the trivially-acted one.
    """
    if algebra.size == 1:
        raise ValueError("the one-element algebra admits no separating quasi-identity")
    if not generates(algebra, a):
        raise NotGeneratedError(f"{algebra.label(a)!r} does not generate the algebra")
    moving = [j for j, p in enumerate(algebra.action) if p[a] != a]
    if not moving:
        raise ValueError("no separating term pair found; the algebra is trivially acted on")
    group = algebra.group
    x, y = var("x", group), var("y", group)
    g = elementary(group, moving[-1])
    return make_quasi_identity([(x, translate_term(group, g, x))], (x, meet_terms(x, y)))


class MinimalityVerdict(NamedTuple):
    """Outcome of ``is_minimal_free``: the verdict, the first nonzero element
    (by carrier index) that fails, and ``checked``, the number of nonzero
    elements decided up to the verdict, whether tested one by one or passed
    with an element of their orbit."""

    minimal: bool
    counterexample: int | None
    checked: int


def is_minimal_free(algebra: FSemilattice, a: int) -> MinimalityVerdict:
    """Decide whether the generated quasivariety is minimal: for every
    nonzero b, a -> b must extend to an isomorphism onto the subalgebra
    generated by b.  ``a`` is derived once (``derive``), which raises
    ``NotGeneratedError`` before any b when ``a`` does not generate, and b
    passes iff the derivation replayed from b is injective.

    The lemma: on a valid algebra generated by a, b = u(a) for a unary term
    u, and unary terms commute because the group is abelian, so t(a) = t'(a)
    gives t(b) = u(t(a)) = u(t'(a)) = t'(b).  The extension is always
    well-defined, it is x -> u(x), and it maps onto the subalgebra generated
    by b, so it is the isomorphism exactly when it is injective.

    Each generator permutation s is an automorphism that commutes with the
    action, so b and s(b) pass or fail together: when b passes, its orbit is
    marked as passed and skipped, and the first failing element is the one
    the element-by-element scan finds.  a's orbit is a and what moves reach
    from it in the derivation (no meet first reaches g(a), as g(a) <= h(a)
    forces g(a) = h(a)); replayed from b, those positions are b's orbit.
    """
    if algebra.size == 1:
        raise ValueError("minimality test needs a nontrivial algebra")
    derivation = derive(algebra, a)
    if len(derivation[0]) < algebra.size:
        raise NotGeneratedError(f"{algebra.label(a)!r} does not generate the algebra")
    orbit = {0}
    for i, (kind, u, _) in enumerate(derivation[1], 1):
        if kind == "move" and u in orbit:
            orbit.add(i)
    bottom = zero(algebra)
    passed = [False] * algebra.size
    checked = 0
    for b in range(algebra.size):
        if b == bottom:
            continue
        checked += 1
        if passed[b]:
            continue
        image = replay(derivation, algebra, b)
        if len(set(image)) < algebra.size:
            return MinimalityVerdict(False, b, checked)
        for i in orbit:
            passed[image[i]] = True
    return MinimalityVerdict(True, None, checked)


def stabilizer(algebra: FSemilattice, a: int, table: AdditionTable | None = None) -> Subgroup:
    """The subgroup of group elements fixing ``a`` (finite groups only).

    The images g(a) are listed in ``table.elements`` order one coordinate
    at a time: each image so far is followed round its ``cycle`` under the
    next generator, and the cycle is repeated up to the factor's order,
    which its length divides on a valid algebra.  So the position of an
    image is the code of its g, and the codes fixing ``a`` go to
    ``table.subgroup`` as they are, whose closure test guards the result.
    """
    require_valid(algebra)
    group = algebra.group
    if not group.is_finite:
        raise InfiniteGroupError("stabilizers need a finite group")
    table = AdditionTable.of(group, table)
    images = [a]
    for p, k in zip(algebra.action, group.orders):
        moved = []
        for x in images:
            orbit = cycle(p, x)
            moved += orbit * (k // len(orbit))
        images = moved
    sub = table.subgroup({c for c, x in enumerate(images) if x == a})
    if sub is None:  # the action of a valid algebra is a group action
        raise NotASubgroupError(f"the elements fixing {algebra.label(a)!r} are not closed")
    return sub


class BijectionEntry(NamedTuple):
    subgroup: Subgroup
    algebra_size: int
    is_proper: bool
    minimal: bool | None
    stabilizer_ok: bool

    @property
    def ok(self) -> bool:
        return self.stabilizer_ok and self.minimal is not False


class BijectionReport(NamedTuple):
    group: GroupSpec
    entries: tuple[BijectionEntry, ...]
    pairwise_distinct: bool

    @property
    def subgroup_count(self) -> int:
        return len(self.entries)

    @property
    def ok(self) -> bool:
        return self.pairwise_distinct and all(e.ok for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "orders": list(self.group.orders),
            "subgroup_count": self.subgroup_count,
            "representative_count": self.subgroup_count,
            "pairwise_distinct": self.pairwise_distinct,
            "ok": self.ok,
            "entries": [
                {
                    "subgroup": [list(e) for e in entry.subgroup.elements],
                    "algebra_size": entry.algebra_size,
                    "proper": entry.is_proper,
                    "minimal": entry.minimal,
                    "stabilizer_roundtrip": entry.stabilizer_ok,
                }
                for entry in self.entries
            ],
        }


def verify_bijection(group: GroupSpec) -> BijectionReport:
    """Check, for one finite group, that subgroups and minimal quasivarieties
    correspond: each coset fan over a proper subgroup is free-minimal, the
    stabilizer of its identity-coset atom recovers the subgroup, and fans
    over distinct subgroups are non-isomorphic.

    An isomorphism that sends one generator to the other commutes with the
    action, so it preserves the generator's stabilizer: ``pairwise_distinct``
    reports that the generator stabilizers are pairwise distinct.  One
    addition table serves the subgroups, every fan and every stabilizer:
    each stabilizer is read off the fan's action as a set of codes, which
    the table's closure test turns into its element set.

    Each fan is valid by construction, so it carries ``ValidationReport(True)``
    where ``validation`` caches it, and ``validate_axioms`` never runs on it:
    ``_fan_meet`` is a semilattice (distinct atoms meet at the zero); F
    permutes the cosets of the closed K that ``subgroups`` gives, so the
    generator permutations commute and s_i^(k_i) = id; and any permutation
    of the atoms that fixes the zero is a meet automorphism of a flat fan.
    ``maroti`` cannot assume this: a caller may pass an unclosed ``Subgroup``.
    """
    table, order = AdditionTable(group), group.order()
    entries, stabilizers = [], set()
    for sub in subgroups(group, table):
        fan = maroti(group, sub, table)
        vars(fan)["validation"] = ValidationReport(True)
        proper = sub.size < order
        minimal = is_minimal_free(fan, 0).minimal if proper else None
        stab = stabilizer(fan, 0, table).elements
        stabilizers.add(stab)
        entries.append(BijectionEntry(sub, fan.size, proper, minimal, stab == sub.elements))
    return BijectionReport(group, tuple(entries), len(stabilizers) == len(entries))


class DecompositionResult(NamedTuple):
    subgroup: Subgroup
    factor: FSemilattice
    reconstruction: FSemilattice
    iso: Homomorphism


def decompose_ku(algebra: FSemilattice, a: int) -> DecompositionResult:
    """Split a free-minimal algebra at its generator.

    The fan lemma: a free-minimal finite A = <a> is the coset fan over
    K = Stab(a).  Each nonzero b generates a copy of A, so all of A.  If
    b = a ^ g(a) is nonzero, a is then a meet of translates of b, so
    a <= h(b) <= h(a) for some h; h has finite order, so h(a) = a, b = a,
    and g(a) = a in the same way.  So every nonzero element is one translate
    of a.  The factor is the one-element algebra over K that carries a's
    label, and the map (u, t) -> t(a), zero -> zero from the twisted
    multiple onto the algebra is verified as an isomorphism: that check is
    the whole certificate, and it does not rest on the lemma.
    """
    require_valid(algebra)
    group = algebra.group
    if not group.is_finite:
        raise InfiniteGroupError("decomposition is implemented for finite groups")
    if algebra.size == 1:
        raise ValueError("decomposition needs a nontrivial algebra")
    verdict = is_minimal_free(algebra, a)
    if not verdict.minimal:
        raise ValueError(
            f"decomposition needs a free-minimal algebra; counterexample "
            f"{algebra.label(verdict.counterexample)!r}"
        )
    sub = stabilizer(algebra, a)
    factor = trivial_factor(presentation(group, sub).spec, algebra.label(a))
    reps = transversal(group, sub)
    rebuilt = twisted_multiple(group, sub, factor, reps)
    mapping = [act(algebra, t, a) for t in reps.reps] + [zero(algebra)]
    iso = Homomorphism(rebuilt, algebra, tuple(mapping))
    if not is_isomorphism(iso):
        raise VerificationError("reconstruction map failed verification")
    return DecompositionResult(sub, factor, rebuilt, iso)


def delta_map(
    group: GroupSpec,
    sub: Subgroup,
    factor: FSemilattice | None = None,
) -> FSemilattice:
    """Free-algebra representative of the (subgroup, factor) pair: the twisted
    multiple, with its free-minimality verified before returning.

    The generating element is the pair (factor element 0, identity
    representative), at carrier index 0 because the identity's coset comes
    first in the least-member transversal.
    """
    order = group.order()
    if order is not None and len(sub.elements) == order:
        raise ValueError("the subgroup must be proper")
    built = twisted_multiple(group, sub, factor)
    verdict = is_minimal_free(built, 0)
    if not verdict.minimal:
        raise VerificationError(
            f"twisted multiple is not free-minimal; counterexample "
            f"{built.label(verdict.counterexample)!r}"
        )
    return built


class QuotientExclusion(NamedTuple):
    blocks: tuple[tuple[int, ...], ...]
    excluded: bool
    witness: dict[str, int] | None


class SimplicityReport(NamedTuple):
    congruence_count: int
    simple: bool
    qi: QuasiIdentity
    exclusions: tuple[QuotientExclusion, ...]

    @property
    def ok(self) -> bool:
        return all(e.excluded for e in self.exclusions)


def simplicity_and_quotient_report(
    algebra: FSemilattice, a: int, limit: int = 24
) -> SimplicityReport:
    """Enumerate congruences; every proper nontrivial quotient must fail the
    separating quasi-identity of the algebra, which is what keeps quotients
    out of the generated quasivariety.  Reports "simple" when no such
    congruence exists."""
    verdict = is_minimal_free(algebra, a)
    if not verdict.minimal:
        raise ValueError("report requires a free-minimal algebra")
    qi = separating_quasi_identity(algebra, a)
    congs = congruences(algebra, limit=limit)
    exclusions = []
    for cong in congs:
        if cong.is_identity or cong.is_total:
            continue
        holds, witness = holds_quasi_identity(quotient(algebra, cong), qi)
        exclusions.append(QuotientExclusion(cong.blocks, not holds, witness))
    report = SimplicityReport(len(congs), len(congs) == 2, qi, tuple(exclusions))
    if not report.ok:
        raise VerificationError("a proper quotient satisfied the separating quasi-identity")
    return report


# Textual quasi-identity grammar: variables are lowercase identifiers,
# generator application is gK(t) with optional power gK^N(t), meet is the
# infix ^, premises are joined by & before ->, and zero premises are written
# with a leading ->.

_TOKEN_RE = re.compile(r"->|&|=|\^|\(|\)|g[0-9]+|-?[0-9]+|[a-z_][a-z0-9_]*")


# Deepest parenthesis or generator nesting a term may have; the parser
# recurses once per level, so deeper input would exhaust the interpreter stack.
MAX_TERM_DEPTH = 100


class QuasiIdentitySyntaxError(ValueError):
    pass


class _TermParser:
    def __init__(self, text: str, group: GroupSpec):
        self.tokens = _TOKEN_RE.findall(text)
        if "".join(self.tokens).replace(" ", "") != text.replace(" ", ""):
            raise QuasiIdentitySyntaxError(f"unrecognized characters in {text!r}")
        self.pos = 0
        self.depth = 0
        self.group = group

    def peek(self, ahead: int = 0) -> str | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise QuasiIdentitySyntaxError(
                f"expected {expected or 'a token'}, got {tok!r}"
            )
        self.pos += 1
        return tok

    def parse_term(self) -> Term:
        self.depth += 1
        if self.depth > MAX_TERM_DEPTH:
            raise QuasiIdentitySyntaxError(f"terms nest deeper than {MAX_TERM_DEPTH} levels")
        term = self.parse_factor()
        while self.peek() == "^":
            self.take("^")
            term = meet_terms(term, self.parse_factor())
        self.depth -= 1
        return term

    def parse_factor(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise QuasiIdentitySyntaxError("unexpected end of term")
        if tok == "(":
            self.take("(")
            term = self.parse_term()
            self.take(")")
            return term
        if re.fullmatch(r"g[0-9]+", tok):
            self.take()
            power = 1
            if self.peek() == "^" and self.peek(2) == "(" and re.fullmatch(r"-?[0-9]+", self.peek(1)):
                self.take("^")
                power = parse_int(self.take())
            index, rank = parse_int(tok[1:]), self.group.rank
            if index >= rank:
                raise QuasiIdentitySyntaxError(f"generator g{index} out of range for rank {rank}")
            self.take("(")
            inner = self.parse_term()
            self.take(")")
            g = reduce_element(self.group, [power * (i == index) for i in range(rank)])
            return translate_term(self.group, g, inner)
        if re.fullmatch(r"[a-z_][a-z0-9_]*", tok):
            self.take()
            return var(tok, self.group)
        raise QuasiIdentitySyntaxError(f"unexpected token {tok!r}")

    def parse_equation(self) -> tuple[Term, Term]:
        left = self.parse_term()
        self.take("=")
        right = self.parse_term()
        return left, right


def parse_quasi_identity(text: str, group: GroupSpec) -> QuasiIdentity:
    if "->" not in text:
        raise QuasiIdentitySyntaxError("a quasi-identity needs '->'")
    head, _, tail = text.partition("->")
    head = head.strip()
    equations = []
    for part in (head.split("&") if head else []) + [tail]:
        parser = _TermParser(part.strip(), group)
        equations.append(parser.parse_equation())
        if parser.pos < len(parser.tokens):
            raise QuasiIdentitySyntaxError(f"trailing tokens in {part!r}")
    return make_quasi_identity(equations[:-1], equations[-1])


def format_term(term: Term) -> str:
    def one(pair: tuple[Element, str]) -> str:
        g, v = pair
        out = v
        for i in reversed(range(len(g))):
            c = g[i]
            if c == 0:
                continue
            out = f"g{i}({out})" if c == 1 else f"g{i}^{c}({out})"
        return out

    return " ^ ".join(one(p) for p in sorted(term.pairs))


def format_quasi_identity(qi: QuasiIdentity) -> str:
    head = " & ".join(f"{format_term(s)} = {format_term(t)}" for s, t in qi.premises)
    s, t = qi.conclusion
    return f"{head} -> {format_term(s)} = {format_term(t)}".strip()
