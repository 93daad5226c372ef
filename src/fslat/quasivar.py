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
from dataclasses import dataclass

from .algebras import (
    CarrierLimitError,
    FSemilattice,
    Homomorphism,
    NotGeneratedError,
    Term,
    act,
    congruences,
    cycle,
    derive,
    element_action,
    generates,
    is_isomorphism,
    meet_terms,
    perm_compose,
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
    reduce_element,
    subgroups,
    transversal,
)


@dataclass(frozen=True)
class QuasiIdentity:
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

    Each term is compiled once to (carrier permutation, variable slot) pairs
    in ``sorted(term.pairs)`` order, the order ``eval_term`` folds the meet
    in.  The valuations are scanned depth-first in that same canonical order,
    and each equation is checked as soon as its last variable is bound: a
    failing premise, or a conclusion that holds, rules out every extension
    of the partial valuation.  A full valuation that passes every check is
    therefore the first failing one.
    """
    require_valid(algebra)
    names = qi.variables
    if algebra.size ** len(names) > MAX_VALUATIONS:
        raise CarrierLimitError(f"{algebra.size}^{len(names)} valuations exceed {MAX_VALUATIONS}")
    slot = {v: i for i, v in enumerate(names)}
    perms: dict[Element, tuple[int, ...]] = {}

    def compile_term(term: Term) -> tuple[tuple[tuple[int, ...], int], ...]:
        out = []
        for g, v in sorted(term.pairs):
            if g not in perms:
                perms[g] = element_action(algebra, g)
            out.append((perms[g], slot[v]))
        return tuple(out)

    # checks[d]: equations whose last variable is names[d], with the outcome
    # (sides equal or not) that keeps the scan going below depth d.
    checks: list[list] = [[] for _ in names]
    for (s, t), wanted in [(eq, True) for eq in qi.premises] + [(qi.conclusion, False)]:
        left, right = compile_term(s), compile_term(t)
        checks[max(i for _, i in left + right)].append((left, right, wanted))

    meet = algebra.meet
    n = algebra.size
    last = len(names) - 1
    valuation = [-1] * len(names)
    depth = 0
    while depth >= 0:
        valuation[depth] += 1
        if valuation[depth] == n:
            valuation[depth] = -1
            depth -= 1
            continue
        for left, right, wanted in checks[depth]:
            equal = _term_value(meet, left, valuation) == _term_value(meet, right, valuation)
            if equal != wanted:
                break
        else:
            if depth == last:
                return False, dict(zip(names, valuation))
            depth += 1
    return True, None


def _term_value(meet, compiled, valuation: list[int]) -> int:
    (perm, i), *rest = compiled
    value = perm[valuation[i]]
    for perm, i in rest:
        value = meet[value][perm[valuation[i]]]
    return value


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


@dataclass(frozen=True)
class MinimalityVerdict:
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
    the element-by-element scan finds.
    """
    if algebra.size == 1:
        raise ValueError("minimality test needs a nontrivial algebra")
    derivation = derive(algebra, a)
    if len(derivation[0]) < algebra.size:
        raise NotGeneratedError(f"{algebra.label(a)!r} does not generate the algebra")
    bottom = zero(algebra)
    passed = [False] * algebra.size
    checked = 0
    for b in range(algebra.size):
        if b == bottom:
            continue
        checked += 1
        if passed[b]:
            continue
        if len(set(replay(derivation, algebra, b))) < algebra.size:
            return MinimalityVerdict(False, b, checked)
        orbit = [b]
        for x in orbit:
            for p in algebra.action:
                if not passed[p[x]]:
                    passed[p[x]] = True
                    orbit.append(p[x])
    return MinimalityVerdict(True, None, checked)


def stabilizer(algebra: FSemilattice, a: int, table: AdditionTable | None = None) -> Subgroup:
    """The subgroup of group elements fixing ``a`` (finite groups only).

    The images g(a) are listed in ``table.elements`` order one coordinate
    at a time: each image so far is followed round its ``cycle`` under the
    next generator, and the cycle is repeated up to the factor's order,
    which its length divides on a valid algebra.  So the position of an
    image is the code of its g, and the codes fixing ``a`` go to
    ``table.subgroup`` as they are: a table whose subgroups are enumerated
    answers from its memo.
    """
    require_valid(algebra)
    group = algebra.group
    if not group.is_finite:
        raise InfiniteGroupError("use stabilizer_image over infinite factors")
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


@dataclass(frozen=True)
class StabilizerImage:
    """Stabilizer computed inside the finite group generated by the action
    permutations; it is the image of the true stabilizer."""

    image: tuple[tuple[int, ...], ...]
    stabilizer: tuple[tuple[int, ...], ...]

    @property
    def image_size(self) -> int:
        return len(self.image)

    @property
    def stabilizer_size(self) -> int:
        return len(self.stabilizer)


def stabilizer_image(algebra: FSemilattice, a: int) -> StabilizerImage:
    """The action image, and the permutations in it fixing ``a``.  The
    generator permutations commute on a valid algebra, so they are joined
    in one at a time, coset by coset, as ``groups._join`` joins codes:
    <S, p> is S u pS u p^2 S u ... up to the first coset that meets S."""
    require_valid(algebra)
    image = {perm_identity(algebra.size)}
    for p in algebra.action:
        coset, joined = image, set(image)
        while (coset := {perm_compose(p, s) for s in coset}).isdisjoint(image):
            joined |= coset
        image = joined
    return StabilizerImage(tuple(sorted(image)), tuple(sorted(p for p in image if p[a] == a)))


@dataclass(frozen=True)
class BijectionEntry:
    subgroup: Subgroup
    algebra_size: int
    is_proper: bool
    minimal: bool | None
    stabilizer_ok: bool

    @property
    def ok(self) -> bool:
        return self.stabilizer_ok and self.minimal is not False


@dataclass(frozen=True)
class BijectionReport:
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
    each stabilizer is read off the fan's action as a set of codes, and
    the table's subgroup memo, filled by the enumeration, turns that set
    into its ``Subgroup`` without a second generator search.  Every fan is
    still validated before its stabilizer is read.
    """
    table = AdditionTable(group)
    entries, stabilizers = [], set()
    for sub in subgroups(group, table):
        fan = maroti(group, sub, table)
        minimal = is_minimal_free(fan, 0).minimal if sub.is_proper else None
        stab = stabilizer(fan, 0, table).elements
        stabilizers.add(stab)
        entries.append(BijectionEntry(sub, fan.size, sub.is_proper, minimal, stab == sub.elements))
    return BijectionReport(group, tuple(entries), len(stabilizers) == len(entries))


@dataclass(frozen=True)
class DecompositionResult:
    subgroup: Subgroup
    factor: FSemilattice
    factor_generators: tuple[Element, ...]
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
    factor, generators = trivial_factor(group, sub, algebra.label(a))
    reps = transversal(group, sub)
    rebuilt = twisted_multiple(group, sub, factor, reps, generators)
    mapping = [act(algebra, t, a) for t in reps.reps] + [zero(algebra)]
    iso = Homomorphism(rebuilt, algebra, tuple(mapping))
    if not is_isomorphism(iso):
        raise VerificationError("reconstruction map failed verification")
    return DecompositionResult(sub, factor, generators, rebuilt, iso)


def delta_map(
    group: GroupSpec,
    sub: Subgroup,
    factor: FSemilattice | None = None,
    factor_generators: tuple[Element, ...] | None = None,
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
    built = twisted_multiple(group, sub, factor, factor_generators=factor_generators)
    verdict = is_minimal_free(built, 0)
    if not verdict.minimal:
        raise VerificationError(
            f"twisted multiple is not free-minimal; counterexample "
            f"{built.label(verdict.counterexample)!r}"
        )
    return built


@dataclass(frozen=True)
class QuotientExclusion:
    blocks: tuple[tuple[int, ...], ...]
    excluded: bool
    witness: dict[str, int] | None


@dataclass(frozen=True)
class SimplicityReport:
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

_TOKEN_RE = re.compile(r"->|&|=|\^|\(|\)|g\d+|-?\d+|[a-z_][a-z0-9_]*")


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
        if re.fullmatch(r"g\d+", tok):
            self.take()
            power = 1
            if self.peek() == "^" and self.peek(1) is not None and re.fullmatch(
                r"-?\d+", self.peek(1)
            ) and self.peek(2) == "(":
                self.take("^")
                power = int(self.take())
            index = int(tok[1:])
            if index >= self.group.rank:
                raise QuasiIdentitySyntaxError(
                    f"generator g{index} out of range for rank {self.group.rank}"
                )
            self.take("(")
            inner = self.parse_term()
            self.take(")")
            g = reduce_element(
                self.group, tuple(power if i == index else 0 for i in range(self.group.rank))
            )
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

    def at_end(self) -> bool:
        return self.pos == len(self.tokens)


def parse_quasi_identity(text: str, group: GroupSpec) -> QuasiIdentity:
    if "->" not in text:
        raise QuasiIdentitySyntaxError("a quasi-identity needs '->'")
    head, _, tail = text.partition("->")
    premises = []
    head = head.strip()
    if head:
        for part in head.split("&"):
            parser = _TermParser(part.strip(), group)
            premises.append(parser.parse_equation())
            if not parser.at_end():
                raise QuasiIdentitySyntaxError(f"trailing tokens in {part!r}")
    parser = _TermParser(tail.strip(), group)
    conclusion = parser.parse_equation()
    if not parser.at_end():
        raise QuasiIdentitySyntaxError(f"trailing tokens in {tail!r}")
    return make_quasi_identity(premises, conclusion)


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
