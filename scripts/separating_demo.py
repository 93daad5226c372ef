#!/usr/bin/env python3
"""Distinguish two continuum algebras with one exactly-certified identity.

Given two quadratic irrationals alpha < beta, finds the simplest rational
p/q between them and certifies that min(x+p, x+q*alpha) = x+q*alpha holds
for every x of the alpha-algebra while failing for every x of the
beta-algebra.  All arithmetic is integer-exact.

Usage: python scripts/separating_demo.py sqrt:2 sqrt:3
       python scripts/separating_demo.py "(1+1*sqrt:5)/2" sqrt:7
"""

import argparse

from fslat import groups as G
from fslat import irrationals as I


def sample_count(text: str) -> int:
    """A trace length in [0, MAX_SAMPLES], the window ``fslat balpha`` traces."""
    value = G.parse_int(text)
    if not 0 <= value <= I.MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be between 0 and {I.MAX_SAMPLES}, got {value}")
    return value


def reason(cert: I.IdentityCertificate) -> str:
    """Why q*alpha lies below or above p: the sign of a + b*sqrt(d), which
    is r*(p - q*alpha), by the case ``sign_with_radical`` decides it in.
    b = -q*Q is never 0, so the cases are a = 0, a and b of one sign, and
    opposite signs, where the negative part's square is compared with the
    positive part's."""
    a, b = cert.a, cert.b
    if a == 0:
        return f"a = 0 and b = {b} {'>' if cert.holds else '<'} 0"
    if (a > 0) == (b > 0):
        return f"a = {a} and b = {b} are both {'positive' if a > 0 else 'negative'}"
    squares = (cert.b_squared_d, cert.a_squared) if a > 0 else (cert.a_squared, cert.b_squared_d)
    return f"{squares[0]} {'<' if cert.holds else '>'} {squares[1]}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("alpha")
    parser.add_argument("beta")
    parser.add_argument("--samples", type=sample_count, default=12)
    args = parser.parse_args()

    try:
        alpha = I.parse_irrational(args.alpha)
        beta = I.parse_irrational(args.beta)
        if I.compare_values(alpha, beta) >= 0:
            raise ValueError("need alpha < beta")
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    p, q = I.rational_between(alpha, beta)
    print(f"simplest rational between: {p}/{q}")
    report = I.check_separating_identity(alpha, beta, p, q, args.samples)
    for cert, name in ((report.alpha_certificate, "alpha"), (report.beta_certificate, "beta")):
        relation = "<" if cert.holds else ">"
        print(
            f"identity min(x+{p}, x+{q}*{name}) = x+{q}*{name}: "
            f"{'holds' if cert.holds else 'fails'}  "
            f"[q*{name} {relation} p since {reason(cert)}]"
        )
    if report.witness is not None:
        print(f"failing witness in the beta algebra: x = {report.witness}")
    print("sample trace (x, equal-in-alpha, equal-in-beta):")
    for (m, n, equal_a), (_, _, equal_b) in zip(report.alpha_samples, report.beta_samples):
        print(f"  {str(I.BAlphaElement(m, n)):>8}  {equal_a!s:>5}  {equal_b!s:>5}")
    print("verdict: separates")


if __name__ == "__main__":
    main()
