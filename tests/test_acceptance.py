"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact (no tolerances anywhere); the oracles live in
tests/oracles.py and are independent of the library's own algorithms.
"""

import random
import time
import zlib

import pytest

from fslat import algebras as A
from fslat import constructions as C
from fslat import groups as G
from fslat import irrationals as I
from fslat import quasivar as Q
from fslat.cli import run as cli_run
from oracles import (
    axioms_hold_direct,
    brute_force_subgroups,
    congruences_by_exhaustion,
    witness_violates,
)


@pytest.fixture(scope="module")
def census():
    """verify_bijection over every abelian group of order <= 16, with timing."""
    start = time.time()
    reports = {spec: Q.verify_bijection(spec) for spec in G.all_group_specs(16)}
    return reports, time.time() - start


def test_criterion_1_bijection_census_to_order_16(census, capsys):
    reports, elapsed = census
    assert len(reports) == 31
    for spec, report in reports.items():
        assert report.ok, f"bijection fails over {spec}"
        assert report.subgroup_count == len(G.subgroups(spec))
        assert report.pairwise_distinct
        for entry in report.entries:
            assert entry.stabilizer_ok  # alpha(beta(H)) == H
            if entry.is_proper:
                assert entry.minimal is True
    assert cli_run(["verify-bijection", "--orders", "4"]) == 0
    assert cli_run(["verify-bijection", "--orders", "2,2"]) == 0
    capsys.readouterr()
    assert elapsed < 60.0
    total = sum(r.subgroup_count for r in reports.values())
    print(
        f"ACCEPTANCE 1: PASS - bijection verified for all 31 groups of order <= 16 "
        f"({total} subgroups, {elapsed:.2f}s)"
    )


def test_criterion_2_subgroup_counts_against_oracle():
    expected = {(2, 2): 5, (6,): 4, (8,): 4, (2, 4): 8}
    for orders, count in expected.items():
        spec = G.make_group(orders)
        assert len(G.subgroups(spec)) == count
        assert len(brute_force_subgroups(spec)) == count
    print("ACCEPTANCE 2: PASS - subgroup counts 5/4/4/8 match the brute-force closure oracle")


def test_criterion_3_transversal_independence_property():
    checked = 0
    for spec in G.all_group_specs(12):
        order = spec.order()
        subs = [s for s in G.subgroups(spec) if 1 < s.size < order]
        for sub in subs:
            blocks = G.cosets(spec, sub)
            factors = [C.trivial_factor(G.presentation(spec, sub).spec), C.chain2_factor(spec, sub)]
            seed = zlib.crc32(repr((spec.orders, sub.elements)).encode())
            rng = random.Random(seed)
            for factor in factors:
                for _ in range(20):
                    reps1 = [rng.choice(block) for block in blocks]
                    reps2 = [rng.choice(block) for block in blocks]
                    t1 = G.make_transversal(spec, sub, reps1)
                    t2 = G.make_transversal(spec, sub, reps2)
                    hom = C.transversal_independence_check(spec, sub, factor, t1, t2)
                    assert hom.is_bijective and A.is_homomorphism(hom)
                    checked += 1
    assert checked > 0
    print(
        f"ACCEPTANCE 3: PASS - transversal independence verified on {checked} "
        f"random transversal pairs (|F| <= 12, both factor choices)"
    )


def test_criterion_4_separating_quasi_identity_mechanism(census):
    reports, _ = census
    checked = 0
    for spec, report in reports.items():
        two = C.two_element(spec)
        for entry in report.entries:
            if not entry.is_proper:
                continue
            fan = C.maroti(spec, entry.subgroup)
            qi = Q.separating_quasi_identity(fan, 0)
            holds, _ = Q.holds_quasi_identity(fan, qi)
            assert holds
            fails, witness = Q.holds_quasi_identity(two, qi)
            assert not fails
            assert {name: two.carrier[v] for name, v in witness.items()} == {
                "x": "1",
                "y": "0",
            }
            checked += 1
    print(
        f"ACCEPTANCE 4: PASS - separating quasi-identity holds in all {checked} coset fans "
        f"and fails in the two-element algebra at (x,y)=(1,0)"
    )


def test_criterion_5_counterexample_coverage():
    a7 = C.counterexample_a7()
    assert A.validate_axioms(a7).ok
    assert A.generates(a7, a7.index("a0"))
    verdict = Q.is_minimal_free(a7, a7.index("a0"))
    assert verdict.minimal is False
    assert a7.carrier[verdict.counterexample] == "p"
    print("ACCEPTANCE 5: PASS - stored 7-element counterexample validates, is 1-generated, "
          "and fails minimality with witness p")


def test_criterion_6_decomposition_roundtrip():
    checked = 0
    for spec in G.all_group_specs(12):
        for sub in G.subgroups(spec):
            if not sub.is_proper:
                continue
            built = Q.delta_map(spec, sub)
            result = Q.decompose_ku(built, 0)
            assert result.subgroup.elements == sub.elements
            assert result.factor.size == 1
            assert result.iso.is_bijective and A.is_homomorphism(result.iso)
            checked += 1
    print(
        f"ACCEPTANCE 6: PASS - decompose(delta(F, K)) returned (K, one-element factor) "
        f"with verified reconstruction for {checked} proper subgroups (|F| <= 12)"
    )


def test_criterion_7_simplicity_reports():
    algebras = []
    for spec in G.all_group_specs(12):
        for sub in G.subgroups(spec):
            fan = C.maroti(spec, sub)
            algebras.append((fan, sub.is_proper))
    for k in range(1, 7):
        algebras.append((C.a_k(k), k >= 2))
    cross_checked = 0
    for algebra, one_generated in algebras:
        congs = A.congruences(algebra)
        assert len(congs) == 2, algebra.carrier
        if one_generated:
            report = Q.simplicity_and_quotient_report(algebra, 0)
            assert report.simple and report.congruence_count == 2
        if algebra.size <= 7:
            assert len(congruences_by_exhaustion(algebra)) == 2
            cross_checked += 1
    print(
        f"ACCEPTANCE 7: PASS - all {len(algebras)} coset fans (|F| <= 12) and atom fans "
        f"(k <= 6) are simple; exhaustive partition oracle agreed on {cross_checked} "
        f"carriers <= 7"
    )


def test_criterion_8_continuum_demo():
    start = time.time()
    alpha, beta = I.sqrt_of(2), I.sqrt_of(3)
    assert I.rational_between(alpha, beta) == (3, 2)
    report = I.check_separating_identity(alpha, beta, 3, 2)
    assert report.separates
    assert report.alpha_certificate.holds and not report.beta_certificate.holds
    assert report.alpha_certificate.b_squared_d == 8
    assert report.alpha_certificate.a_squared == 9
    assert report.beta_certificate.a_squared == 9
    assert report.beta_certificate.b_squared_d == 12
    assert report.witness == I.BAlphaElement(0, 0)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 8: PASS - 3/2 separates sqrt(2) from sqrt(3) via 8 < 9 < 12 "
        f"({elapsed * 1000:.0f}ms)"
    )


def test_criterion_9_validator_fuzzing():
    base = C.maroti(G.make_group([2, 2]), G.trivial_subgroup(G.make_group([2, 2])))
    assert base.size == 5
    rng = random.Random(20260808)
    rejected = 0
    survivors = 0
    for _ in range(100):
        meet = [list(row) for row in base.meet]
        action = [list(p) for p in base.action]
        if rng.random() < 0.5:
            x, y = rng.randrange(5), rng.randrange(5)
            value = rng.choice([v for v in range(5) if v != meet[x][y]])
            meet[x][y] = value
        else:
            gen = rng.randrange(len(action))
            x, y = rng.sample(range(5), 2)
            action[gen][x], action[gen][y] = action[gen][y], action[gen][x]
        mutant = A.FSemilattice(base.group, base.carrier, meet, action)
        report = A.validate_axioms(mutant)
        if report.ok:
            survivors += 1
            assert axioms_hold_direct(mutant), "validator accepted a broken algebra"
        else:
            rejected += 1
            assert report.axiom is not None and report.witness is not None
            assert witness_violates(mutant, report.axiom, report.witness)
    assert rejected >= 99
    print(
        f"ACCEPTANCE 9: PASS - {rejected}/100 mutations rejected with replayable "
        f"axiom witnesses; {survivors} survivors independently re-verified as valid"
    )
