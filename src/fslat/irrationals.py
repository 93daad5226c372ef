"""Exact arithmetic for the continuum family of semilattices on {m + n*alpha}.

For a quadratic irrational alpha, the set {m + n*alpha : m, n integers} with
minimum as meet and the two coordinate shifts as commuting automorphisms is a
semilattice over the free abelian group of rank two.  Every comparison here
is exact integer arithmetic: the sign of A + B*sqrt(d) is resolved by
comparing A^2 against B^2*d with the signs of A and B, which can never tie
because d is square-free.  No floating point anywhere.
"""

from __future__ import annotations

import re
from math import gcd, isqrt
from typing import NamedTuple

from .groups import parse_int


# Largest radicand accepted: square-freeness is decided by trial division,
# which takes about sqrt(d) steps.
MAX_RADICAND = 10**9


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _sqrtfree(d: int) -> bool:
    if d < 2:
        return False
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


def sign_with_radical(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d square-free and >= 2."""
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2*d; equality would make sqrt(d) rational
    cmp = _sign(a * a - b * b * d)
    assert cmp != 0, "square-free radicand cannot produce a tie"
    return cmp if a > 0 else -cmp


class QuadraticIrrational(
    NamedTuple("QuadraticIrrational", [("p", int), ("q", int), ("r", int), ("d", int)])
):
    """(p + q*sqrt(d)) / r with q != 0, r > 0, d square-free >= 2, gcd(p,q,r) = 1."""

    __slots__ = ()

    def __new__(cls, p, q, r, d):
        if q == 0:
            raise ValueError("q = 0 would make the value rational")
        if r == 0:
            raise ValueError("zero denominator")
        if d > MAX_RADICAND:
            raise ValueError(f"radicand {d} exceeds {MAX_RADICAND}")
        if not _sqrtfree(d):
            raise ValueError(f"radicand {d} must be square-free and >= 2")
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(abs(p), abs(q)), r)
        return super().__new__(cls, p // g, q // g, r // g, d)

    def __str__(self) -> str:
        if self.p == 0 and self.q == 1 and self.r == 1:
            return f"sqrt:{self.d}"
        return f"({self.p}+{self.q}*sqrt:{self.d})/{self.r}"


def sqrt_of(d: int) -> QuadraticIrrational:
    return QuadraticIrrational(0, 1, 1, d)


# Both forms in one grammar; every number is ASCII digits ([0-9], not the
# Unicode \d), so int() never sees a sign, a space, an underscore or another
# script's digit that the grammar did not place there.
_IRRATIONAL_RE = re.compile(
    r"sqrt:([0-9]+)|\(\s*(-?[0-9]+)\s*\+\s*(-?[0-9]+)\s*\*\s*sqrt:([0-9]+)\s*\)\s*/\s*(-?[0-9]+)"
)


def parse_irrational(text: str) -> QuadraticIrrational:
    """Accepts ``sqrt:D`` or ``(P+Q*sqrt:D)/R``, each number read by ``parse_int``
    (so refused past its digit cap, before any search)."""
    text = text.strip()
    m = _IRRATIONAL_RE.fullmatch(text)
    if not m:
        raise ValueError(f"cannot parse irrational {text!r}; use sqrt:D or (P+Q*sqrt:D)/R")
    if m.group(1) is not None:
        return sqrt_of(parse_int(m.group(1)))
    p, q, d, r = map(parse_int, m.group(2, 3, 4, 5))
    return QuadraticIrrational(p, q, r, d)


def compare_values(alpha: QuadraticIrrational, beta: QuadraticIrrational) -> int:
    """Exact sign of alpha - beta, also across different radicands.

    The difference has the shape A + B*sqrt(d1) + C*sqrt(d2); the two-radical
    case is settled by comparing X = A + B*sqrt(d1) against Y = -C*sqrt(d2):
    with equal signs, sign(X^2 - Y^2) is again a single-radical sign.
    """
    a = alpha.p * beta.r - beta.p * alpha.r
    b = alpha.q * beta.r
    c = -beta.q * alpha.r
    if alpha.d == beta.d:
        return sign_with_radical(a, b + c, alpha.d)
    if b == 0:
        return sign_with_radical(a, c, beta.d)
    if c == 0:
        return sign_with_radical(a, b, alpha.d)
    sx = sign_with_radical(a, b, alpha.d)
    sy = _sign(-c)
    if sx != sy:
        return sx if sx != 0 else -sy
    if sx == 0:
        return 0
    diff_sq = sign_with_radical(a * a + b * b * alpha.d - c * c * beta.d, 2 * a * b, alpha.d)
    return diff_sq if sx > 0 else -diff_sq


def compare_with_rational(alpha: QuadraticIrrational, num: int, den: int) -> int:
    """Exact sign of num/den - alpha (den > 0)."""
    if den <= 0:
        raise ValueError("positive denominators only")
    p, q, r, d = alpha
    return sign_with_radical(num * r - den * p, -den * q, d)


class BAlphaElement(NamedTuple):
    """The carrier element m + n*alpha, unique as a pair because alpha is irrational.

    A NamedTuple: it is the tuple (m, n), so it also unpacks, indexes and
    equals a plain tuple (m, n), and its ``==`` and hash run in C."""

    m: int
    n: int

    def __str__(self) -> str:
        return f"{self.m}+{self.n}a"


def cmp(alpha: QuadraticIrrational, x: BAlphaElement, y: BAlphaElement) -> int:
    """Exact sign of x - y: (dm*r + dn*p) + dn*q*sqrt(d), all integers.
    alpha, x and y are read by tuple unpacking, which costs less than
    their NamedTuple field reads on this per-point path."""
    p, q, r, d = alpha
    xm, xn = x
    ym, yn = y
    dn = xn - yn
    return sign_with_radical((xm - ym) * r + dn * p, dn * q, d)


def act(alpha: QuadraticIrrational, g: tuple[int, int], x: BAlphaElement) -> BAlphaElement:
    """Action of the group pair (i, j): add i to the rational and j to the
    irrational coordinate."""
    i, j = g
    return BAlphaElement(x.m + i, x.n + j)


def meet(alpha: QuadraticIrrational, x: BAlphaElement, y: BAlphaElement) -> BAlphaElement:
    return x if cmp(alpha, x, y) <= 0 else y


def rational_between(alpha: QuadraticIrrational, beta: QuadraticIrrational) -> tuple[int, int]:
    """Minimal-denominator rational strictly between alpha < beta, found by
    descending the Stern-Brocot tree of all rationals.

    The descent moves in whole runs: every mediant of a run of right turns
    lies below alpha and every mediant of a run of left turns above beta,
    so each run is one partial quotient, taken at once (Graham, Knuth and
    Patashnik, Concrete Mathematics, sections 4.5 and 6.7).  The first
    mediant that ends neither kind of run lies strictly between.
    """
    if compare_values(alpha, beta) >= 0:
        raise ValueError("need alpha < beta")
    if compare_with_rational(alpha, 0, 1) <= 0:  # the root, 0/1, is below alpha
        lo, hi = (0, 1), (1, 0)
    elif compare_with_rational(beta, 0, 1) >= 0:
        lo, hi = (-1, 0), (0, 1)
    else:
        return 0, 1
    while True:
        k = _run_length(alpha, lo, hi, -1)
        lo = (lo[0] + k * hi[0], lo[1] + k * hi[1])
        k = _run_length(beta, hi, lo, 1)
        if k == 0:
            return lo[0] + hi[0], lo[1] + hi[1]
        hi = (hi[0] + k * lo[0], hi[1] + k * lo[1])


def _run_length(
    alpha: QuadraticIrrational, start: tuple[int, int], toward: tuple[int, int], side: int
) -> int:
    """Largest k >= 0 such that the mediants (a + j*c)/(b + j*e), j = 1..k,
    of start = a/b and toward = c/e all lie on ``side`` of
    alpha = (p + q*sqrt(d))/r (-1 below, +1 above); toward lies on the
    other side.

    k is floor((alpha*b - a) / (c - alpha*e)), clamped at 0.  Rationalizing
    the denominator gives (x + y*sqrt(d))/z in integers, floored exactly via
    math.isqrt because the quotient is irrational.  Exact mediant signs then
    confirm the run ends at k, stepping by one if it did not.
    """
    p, q, r, d = alpha
    (a, b), (c, e) = start, toward
    num = (b * p - a * r, b * q)
    den = (c * r - e * p, -e * q)
    x = num[0] * den[0] - num[1] * den[1] * d
    y = num[1] * den[0] - num[0] * den[1]
    z = den[0] * den[0] - den[1] * den[1] * d
    if z < 0:
        x, y, z = -x, -y, -z
    root = isqrt(y * y * d)
    k = max(0, (x + (root if y >= 0 else -root - 1)) // z)

    def on_side(j: int) -> bool:
        return compare_with_rational(alpha, a + j * c, b + j * e) == side

    while on_side(k + 1):
        k += 1
    while k > 0 and not on_side(k):
        k -= 1
    return k


# The sample window: every m + n*alpha with |m|, |n| <= 8, in expanding square
# shells around the origin, ordered by (shell, m, n); built once at import.
_SAMPLE_POINTS = tuple(
    BAlphaElement(m, n)
    for _, m, n in sorted(
        (max(abs(m), abs(n)), m, n) for m in range(-8, 9) for n in range(-8, 9)
    )
)
MAX_SAMPLES = len(_SAMPLE_POINTS)


def _sample_points(count: int) -> tuple[BAlphaElement, ...]:
    """The first ``count`` points of the sample window."""
    if not 0 <= count <= MAX_SAMPLES:
        raise ValueError(f"sample count must be between 0 and {MAX_SAMPLES}, got {count}")
    return _SAMPLE_POINTS[:count]


class IdentityCertificate(NamedTuple):
    """Exact verdict for min(x + p, x + q*alpha) = x + q*alpha in one algebra.

    The identity is element-independent: it holds exactly when q*alpha < p,
    whose sign reduces to the integers below (a + b*sqrt(d) with its squared
    comparison a^2 versus b^2*d)."""

    alpha: str
    holds: bool
    a: int
    b: int
    d: int
    a_squared: int
    b_squared_d: int

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "holds": self.holds,
            "sign_terms": {"a": self.a, "b": self.b, "d": self.d},
            "squares": {"a^2": self.a_squared, "b^2*d": self.b_squared_d},
        }


def _identity_certificate(alpha: QuadraticIrrational, p: int, q: int) -> IdentityCertificate:
    a = p * alpha.r - q * alpha.p
    b = -q * alpha.q
    return IdentityCertificate(
        alpha=str(alpha),
        holds=sign_with_radical(a, b, alpha.d) > 0,
        a=a,
        b=b,
        d=alpha.d,
        a_squared=a * a,
        b_squared_d=b * b * alpha.d,
    )


class SeparationReport(NamedTuple):
    p: int
    q: int
    alpha_certificate: IdentityCertificate
    beta_certificate: IdentityCertificate
    alpha_samples: tuple[tuple[int, int, bool], ...]
    beta_samples: tuple[tuple[int, int, bool], ...]
    witness: BAlphaElement | None

    @property
    def separates(self) -> bool:
        return self.alpha_certificate.holds and not self.beta_certificate.holds

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "separates": self.separates,
            "alpha": self.alpha_certificate.to_dict(),
            "beta": self.beta_certificate.to_dict(),
            "witness": None if self.witness is None else list(self.witness),
            "alpha_samples": self.alpha_samples,
            "beta_samples": self.beta_samples,
        }


def _sample_translates(
    alpha: QuadraticIrrational, p: int, q: int, count: int
) -> tuple[tuple[BAlphaElement, BAlphaElement, BAlphaElement], ...]:
    """(x, (p,0)x, (0,q)x) for each of the first ``count`` sample points, by
    ``act``.  ``act`` does not read alpha: every algebra of the family has
    the carrier Z^2 and the same two shifts, so these translates serve the
    alpha-algebra and the beta-algebra alike."""
    shift_p, shift_q = (p, 0), (0, q)
    return tuple((x, act(alpha, shift_p, x), act(alpha, shift_q, x)) for x in _sample_points(count))


def _identity_samples(
    alpha: QuadraticIrrational,
    translates: tuple[tuple[BAlphaElement, BAlphaElement, BAlphaElement], ...],
) -> tuple[tuple[int, int, bool], ...]:
    """The row (m, n, equal) at each point x = m + n*alpha of ``translates``
    (``_sample_translates``): whether min((p,0)x, (0,q)x) = (0,q)x there, by
    the alpha-algebra's own ``meet``, one ``cmp`` per point.  Pairs are equal
    exactly when their values are (alpha is irrational), so ``==`` decides."""
    return tuple((m, n, meet(alpha, lhs, rhs) == rhs) for (m, n), lhs, rhs in translates)


def check_separating_identity(
    alpha: QuadraticIrrational,
    beta: QuadraticIrrational,
    p: int,
    q: int,
    sample_count: int = 25,
) -> SeparationReport:
    """Certify that min((p,0)x, (0,q)x) = (0,q)x holds in the alpha-algebra
    and fails in the beta-algebra, given alpha < p/q < beta.

    The universal verdict is the exact sign of p - q*alpha (the identity never
    depends on x), so the two verdicts also decide whether alpha < p/q < beta.
    The samples are an illustrative trace on a window of ``MAX_SAMPLES``
    points; a count outside 0..``MAX_SAMPLES`` raises ``ValueError``.  Each
    point's two translates are formed once, by ``act``, and shared by both
    algebras; each algebra then decides the identity there with its own
    ``meet``, one comparison per point and side.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    cert_a = _identity_certificate(alpha, p, q)
    cert_b = _identity_certificate(beta, p, q)
    if not (cert_a.holds and not cert_b.holds):
        raise ValueError("need alpha < p/q < beta")
    translates = _sample_translates(alpha, p, q, sample_count)
    samples_a, samples_b = (_identity_samples(side, translates) for side in (alpha, beta))
    witness = next((BAlphaElement(m, n) for m, n, equal in samples_b if not equal), None)
    return SeparationReport(p, q, cert_a, cert_b, samples_a, samples_b, witness)
