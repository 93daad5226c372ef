import random
from collections import Counter
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fslat import cli
from fslat import irrationals as I
from oracles import _sign_plus_root, reference_identity_samples, reference_rational_between

SQRT2 = I.sqrt_of(2)
SQRT3 = I.sqrt_of(3)


def test_cmp_examples():
    assert I.cmp(SQRT2, I.BAlphaElement(3, 0), I.BAlphaElement(0, 2)) > 0  # 9 > 8
    x = I.BAlphaElement(1, -2)
    assert I.cmp(SQRT2, x, x) == 0
    assert I.cmp(SQRT3, I.BAlphaElement(3, 0), I.BAlphaElement(0, 2)) < 0  # 9 < 12


def test_act_examples():
    x = I.BAlphaElement(3, 1)
    assert I.act(SQRT2, (0, 0), x) == x
    assert I.act(SQRT2, (1, 0), I.BAlphaElement(0, 0)) == I.BAlphaElement(1, 0)
    assert I.act(SQRT2, (-1, 2), x) == I.BAlphaElement(2, 3)


def test_quadratic_irrational_validation():
    with pytest.raises(ValueError):
        I.QuadraticIrrational(1, 0, 1, 2)  # rational
    with pytest.raises(ValueError):
        I.QuadraticIrrational(0, 1, 1, 4)  # square radicand
    with pytest.raises(ValueError):
        I.QuadraticIrrational(0, 1, 1, 12)  # divisible by a square
    with pytest.raises(ValueError):
        I.QuadraticIrrational(0, 1, 0, 2)
    reduced = I.QuadraticIrrational(2, 4, 6, 5)
    assert (reduced.p, reduced.q, reduced.r) == (1, 2, 3)
    flipped = I.QuadraticIrrational(1, 1, -2, 5)
    assert flipped.r == 2 and flipped.p == -1 and flipped.q == -1


def test_parse_irrational():
    assert I.parse_irrational("sqrt:2") == SQRT2
    assert I.parse_irrational("(1+2*sqrt:5)/3") == I.QuadraticIrrational(1, 2, 3, 5)
    assert I.parse_irrational("(0+-2*sqrt:2)/-1") == I.QuadraticIrrational(0, 2, 1, 2)
    with pytest.raises(ValueError):
        I.parse_irrational("pi")
    for value in (SQRT2, I.QuadraticIrrational(1, 2, 3, 5)):
        assert I.parse_irrational(str(value)) == value


# Numbers the grammar does not place: int() alone would read the first four
# (1_0 as 10, +2, " 2" and the Arabic-Indic three as 3) and fail on the last
# two with a message that names no grammar.
MALFORMED_IRRATIONALS = [
    "sqrt:1_0",
    "sqrt:+2",
    "sqrt: 2",
    "sqrt:\u0663",
    "sqrt:",
    "sqrt:2x",
    "(1_0+1*sqrt:3)/2",
    "(1+1*sqrt:\u0663)/2",
    "(\u0663+1*sqrt:3)/2",
    "(1+1*sqrt:3)/\u0663",
]


@pytest.mark.parametrize("text", MALFORMED_IRRATIONALS)
def test_malformed_irrationals_are_usage_errors(text, capsys):
    message = f"cannot parse irrational {text!r}; use sqrt:D or (P+Q*sqrt:D)/R"
    with pytest.raises(ValueError) as excinfo:
        I.parse_irrational(text)
    assert str(excinfo.value) == message
    for flag in ("--alpha", "--beta"):
        argv = ["balpha", "--alpha", "sqrt:2", "--beta", "sqrt:3"]
        argv[argv.index(flag) + 1] = text
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_compare_values_across_radicands():
    assert I.compare_values(SQRT2, SQRT3) < 0
    assert I.compare_values(SQRT3, SQRT2) > 0
    two_sqrt2 = I.QuadraticIrrational(0, 2, 1, 2)
    assert I.compare_values(SQRT2, two_sqrt2) < 0
    # sqrt(2) + 1 > sqrt(3) and mixed-radicand closeness: sqrt(6) vs (1+sqrt(2))
    assert I.compare_values(I.QuadraticIrrational(1, 1, 1, 2), SQRT3) > 0
    assert I.compare_values(I.sqrt_of(6), I.QuadraticIrrational(1, 1, 1, 2)) > 0
    assert I.compare_values(SQRT2, I.QuadraticIrrational(0, 2, 2, 2)) == 0


def test_rational_between_examples():
    assert I.rational_between(SQRT2, SQRT3) == (3, 2)
    assert I.rational_between(SQRT2, I.QuadraticIrrational(0, 2, 1, 2)) == (2, 1)
    with pytest.raises(ValueError):
        I.rational_between(SQRT3, SQRT2)


def test_rational_between_negative_interval():
    minus3 = I.QuadraticIrrational(0, -1, 1, 3)
    minus2 = I.QuadraticIrrational(0, -1, 1, 2)
    p, q = I.rational_between(minus3, minus2)
    assert (p, q) == (-3, 2)  # no integer lies between -sqrt(3) and -sqrt(2)
    assert I.compare_with_rational(minus3, p, q) > 0
    assert I.compare_with_rational(minus2, p, q) < 0


def test_rational_between_is_strictly_inside():
    pairs = [
        (SQRT2, SQRT3),
        (I.sqrt_of(5), I.sqrt_of(6)),
        (I.QuadraticIrrational(-3, 1, 2, 7), I.QuadraticIrrational(5, 1, 3, 11)),
        (I.QuadraticIrrational(0, 1, 100, 2), I.QuadraticIrrational(0, 1, 99, 2)),
    ]
    for alpha, beta in pairs:
        p, q = I.rational_between(alpha, beta)
        assert q > 0
        assert I.compare_with_rational(alpha, p, q) > 0
        assert I.compare_with_rational(beta, p, q) < 0


def test_rational_between_matches_one_step_descent():
    rng = random.Random(1729)
    radicands = [d for d in range(2, 40) if I._sqrtfree(d)]

    def generic():
        p, q = rng.randint(-20, 20), rng.choice([-5, -3, -2, -1, 1, 2, 3, 7])
        return I.QuadraticIrrational(p, q, rng.choice([1, 2, 3, 5, 7]), rng.choice(radicands))

    def near_rational():
        # s + q*sqrt(d)/N: long runs of one turn in the descent
        n, s = rng.randint(1, 3000), rng.randint(-5, 5)
        return I.QuadraticIrrational(s * n, rng.choice([-2, -1, 1, 2]), n, rng.choice(radicands))

    checked = 0
    for make in (generic, near_rational) * 400:
        alpha, beta = make(), make()
        order = I.compare_values(alpha, beta)
        if order == 0:
            continue
        if order > 0:
            alpha, beta = beta, alpha
        want = reference_rational_between(alpha, beta)
        assert I.rational_between(alpha, beta) == want, (alpha, beta)
        checked += 1
    assert checked > 700


def test_rational_between_long_partial_quotient():
    # one right turn of length 353553390593 below sqrt(2)/10^12
    alpha = I.QuadraticIrrational(0, 1, 10**12, 2)
    beta = I.QuadraticIrrational(0, 2, 10**12, 2)
    assert I.rational_between(alpha, beta) == (1, 353553390594)


def test_check_separating_identity_full_example():
    report = I.check_separating_identity(SQRT2, SQRT3, 3, 2)
    assert report.separates
    assert report.alpha_certificate.holds
    assert not report.beta_certificate.holds
    assert report.alpha_certificate.a_squared == 9
    assert report.alpha_certificate.b_squared_d == 8
    assert report.beta_certificate.a_squared == 9
    assert report.beta_certificate.b_squared_d == 12
    assert report.witness == I.BAlphaElement(0, 0)
    assert all(equal for _, _, equal in report.alpha_samples)
    assert not any(equal for _, _, equal in report.beta_samples)


def test_check_separating_identity_preconditions():
    with pytest.raises(ValueError):
        I.check_separating_identity(SQRT2, SQRT2, 3, 2)
    with pytest.raises(ValueError):
        I.check_separating_identity(SQRT2, SQRT3, 2, 1)  # 2 < sqrt(2)? no: not between
    with pytest.raises(ValueError):
        I.check_separating_identity(SQRT2, SQRT3, 3, -2)


def test_separation_precondition_matches_the_oracle_signs():
    # the precondition is read off the two certificates; the oracle decides
    # the signs of p - q*alpha and q*beta - p by its own squared comparisons
    rng = random.Random(20261020)
    radicands = [d for d in range(2, 30) if I._sqrtfree(d)]
    sides = Counter()
    for _ in range(150):
        alpha, beta = (
            I.QuadraticIrrational(
                rng.randint(-30, 30), rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 9),
                rng.choice(radicands),
            )
            for _ in range(2)
        )
        order = I.compare_values(alpha, beta)
        if order == 0:
            continue
        if order > 0:
            alpha, beta = beta, alpha
        # the Stern-Brocot answer, the two neighbours whose mediant it is,
        # its mediant with each, and rationals anywhere
        p, q = I.rational_between(alpha, beta)
        if q == 1:
            neighbours = [(p - 1, 1), (p + 1, 1)]
        else:
            b = pow(p, -1, q)  # p*b - a*q = 1 with 0 < b < q
            a = (p * b - 1) // q
            neighbours = [(a, b), (p - a, q - b)]
        candidates = [(p, q), *neighbours, *((p + a, q + b) for a, b in neighbours)]
        candidates += [(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(4)]
        for p, q in candidates:
            above_alpha = _sign_plus_root(p * alpha.r - q * alpha.p, -q * alpha.q, alpha.d) > 0
            below_beta = _sign_plus_root(q * beta.p - p * beta.r, q * beta.q, beta.d) > 0
            sides[above_alpha, below_beta] += 1
            if above_alpha and below_beta:
                assert I.check_separating_identity(alpha, beta, p, q, 0).separates
            else:
                with pytest.raises(ValueError, match=r"^need alpha < p/q < beta$"):
                    I.check_separating_identity(alpha, beta, p, q, 0)
    # below alpha, strictly between, above beta
    assert sides.keys() == {(False, True), (True, True), (True, False)}
    assert min(sides.values()) > 100, sides


def test_sample_counts_outside_the_window_are_refused():
    # the window holds every m + n*alpha with |m|, |n| <= 8
    assert I.MAX_SAMPLES == 17 * 17
    report = I.check_separating_identity(SQRT2, SQRT3, 3, 2, I.MAX_SAMPLES)
    assert len({(m, n) for m, n, _ in report.alpha_samples}) == I.MAX_SAMPLES
    for count in (-5, -1, I.MAX_SAMPLES + 1, 1000):
        with pytest.raises(ValueError, match="sample count must be between 0 and 289"):
            I.check_separating_identity(SQRT2, SQRT3, 3, 2, count)


def test_identity_holds_iff_q_alpha_below_p():
    # the universal certificate agrees with direct sampling for assorted p/q
    cases = [(SQRT2, 3, 2), (SQRT2, 1, 1), (SQRT3, 7, 4), (I.sqrt_of(5), 9, 4)]
    for alpha, p, q in cases:
        cert = I._identity_certificate(alpha, p, q)
        assert cert.holds == (I.compare_with_rational(alpha, p, q) > 0)
        for x in I._sample_points(20):
            lhs = I.meet(alpha, I.act(alpha, (p, 0), x), I.act(alpha, (0, q), x))
            rhs = I.act(alpha, (0, q), x)
            assert (I.cmp(alpha, lhs, rhs) == 0) == cert.holds


def test_identity_samples_match_the_reference_on_the_whole_window():
    rng = random.Random(20261019)
    radicands = [2, 3, 5, 6, 7, 10, 11, 13]
    cases = []
    for _ in range(60):
        alpha = I.QuadraticIrrational(
            rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5),
            rng.choice(radicands),
        )
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        cases.append((alpha, p, q))
    verdicts = set()
    # each case's translates, formed once, serve its alpha and, as beta, the next case's
    for (alpha, p, q), (beta, _, _) in zip(cases, cases[1:] + cases[:1]):
        translates = I._sample_translates(alpha, p, q, I.MAX_SAMPLES)
        for side in (alpha, beta):
            rows = I._identity_samples(side, translates)
            assert rows == reference_identity_samples(side, p, q)
            verdicts.update(equal for _, _, equal in rows)
    assert verdicts == {True, False}


def test_balpha_element_is_an_immutable_pair():
    x = I.BAlphaElement(3, -1)
    assert (x.m, x.n) == (3, -1)
    assert x == I.BAlphaElement(3, -1) and hash(x) == hash(I.BAlphaElement(3, -1))
    assert x != I.BAlphaElement(-1, 3)
    assert x == (3, -1)  # a NamedTuple: also the plain tuple (m, n)
    assert str(x) == "3+-1a"
    assert repr(x) == "BAlphaElement(m=3, n=-1)"
    with pytest.raises(AttributeError):
        x.m = 4
    with pytest.raises(AttributeError):
        x.k = 0


irrationals_strategy = st.builds(
    I.QuadraticIrrational,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9).filter(lambda q: q != 0),
    st.integers(min_value=1, max_value=9),
    st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
)

elements_strategy = st.builds(
    I.BAlphaElement,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)


@given(irrationals_strategy, elements_strategy, elements_strategy, elements_strategy)
@settings(max_examples=200)
def test_cmp_is_a_strict_total_order(alpha, x, y, z):
    assert I.cmp(alpha, x, y) == -I.cmp(alpha, y, x)
    if I.cmp(alpha, x, y) <= 0 and I.cmp(alpha, y, z) <= 0:
        assert I.cmp(alpha, x, z) <= 0
    if x != y:
        assert I.cmp(alpha, x, y) != 0


@given(
    irrationals_strategy,
    elements_strategy,
    elements_strategy,
    st.tuples(st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9)),
)
@settings(max_examples=200)
def test_act_preserves_order(alpha, x, y, g):
    assert I.cmp(alpha, x, y) == I.cmp(alpha, I.act(alpha, g, x), I.act(alpha, g, y))


def test_cmp_agrees_with_high_precision_decimal():
    getcontext().prec = 50
    rng = random.Random(20260808)
    radicands = [2, 3, 5, 6, 7, 10]
    for _ in range(100_000):
        d = rng.choice(radicands)
        p = rng.randint(-5, 5)
        q = rng.choice([-3, -2, -1, 1, 2, 3])
        r = rng.randint(1, 4)
        alpha = I.QuadraticIrrational(p, q, r, d)
        alpha_dec = (Decimal(p) + Decimal(q) * Decimal(d).sqrt()) / Decimal(r)
        x = I.BAlphaElement(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        y = I.BAlphaElement(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        numeric = (x.m - y.m) + (x.n - y.n) * alpha_dec
        expected = 0 if numeric == 0 else (1 if numeric > 0 else -1)
        assert I.cmp(alpha, x, y) == expected


def test_every_element_reaches_every_other():
    # the action alone is transitive: one shift moves any x to any y, so the
    # algebra is generated by each of its elements inside any finite window
    rng = random.Random(7)
    for _ in range(200):
        x = I.BAlphaElement(rng.randint(-8, 8), rng.randint(-8, 8))
        y = I.BAlphaElement(rng.randint(-8, 8), rng.randint(-8, 8))
        g = (y.m - x.m, y.n - x.n)
        assert I.act(SQRT2, g, x) == y


def test_meet_is_min():
    x, y = I.BAlphaElement(3, 0), I.BAlphaElement(0, 2)
    assert I.meet(SQRT2, x, y) == y  # 2*sqrt(2) < 3
    assert I.meet(SQRT3, x, y) == x  # 3 < 2*sqrt(3)
