import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fslat import algebras as A
from fslat import constructions as C
from fslat import groups as G
from fslat import quasivar as Q
from oracles import (
    perm_compose,
    reference_act,
    reference_closure,
    reference_decompose_ku,
    reference_generated_by,
    reference_holds_quasi_identity,
    reference_is_isomorphic_1gen,
    reference_is_minimal_free,
    reference_orbits,
    reference_perm_order,
    reference_separating_quasi_identity,
    reference_stabilizer,
)
from tables import (
    atom_fan_over_z,
    fans_and_multiples,
    free_quotients,
    greatest_transversal,
    invariant_tables,
    opposite,
    random_semilattices,
    random_tables,
    refusal,
    rotated_hexagon_fan,
)

Z2 = G.make_group([2])
Z4 = G.make_group([4])
Z6 = G.make_group([6])
Z2xZ2 = G.make_group([2, 2])


def maroti_z2():
    return C.maroti(Z2, G.trivial_subgroup(Z2))


def maroti_z4_h():
    return C.maroti(Z4, G.subgroup_from_elements(Z4, [(0,), (2,)]))


def maroti_z6_h3():
    return C.maroti(Z6, G.subgroup_from_elements(Z6, [(0,), (3,)]))


def test_eval_term_examples():
    fan = maroti_z2()
    ident = Q.var("x", Z2)
    assert Q.eval_term(fan, ident, {"x": 0}) == 0
    both = Q.Term(frozenset({((0,), "x"), ((1,), "x")}))
    assert fan.carrier[Q.eval_term(fan, both, {"x": 0})] == "o"
    # duplicate pairs collapse by set semantics
    assert Q.Term(frozenset({((0,), "x")})) == Q.Term({((0,), "x"), ((0,), "x")})


def test_eval_term_unbound():
    fan = maroti_z2()
    with pytest.raises(ValueError):
        Q.eval_term(fan, Q.var("x", Z2), {"y": 0})


def test_holds_commutativity_everywhere():
    x, y = Q.var("x", Z4), Q.var("y", Z4)
    qi = Q.make_quasi_identity([], (Q.meet_terms(x, y), Q.meet_terms(y, x)))
    for algebra in (maroti_z4_h(), C.two_element(Z4), C.counterexample_a7()):
        assert Q.holds_quasi_identity(algebra, qi)[0]


def test_holds_separating_qi_on_fan_and_two_element():
    fan = maroti_z2()
    qi = Q.parse_quasi_identity("g0(x) = x -> x = x ^ y", Z2)
    assert Q.holds_quasi_identity(fan, qi)[0]
    te = C.two_element(Z2)
    holds, witness = Q.holds_quasi_identity(te, qi)
    assert not holds
    assert {k: te.carrier[v] for k, v in witness.items()} == {"x": "1", "y": "0"}


def test_separating_quasi_identity_examples():
    fan = maroti_z2()
    qi = Q.separating_quasi_identity(fan, 0)
    (s, t), = qi.premises
    assert s == Q.var("x", Z2)
    assert t == Q.Term({((1,), "x")})

    qi6 = Q.separating_quasi_identity(maroti_z6_h3(), 0)
    (s6, t6), = qi6.premises
    assert s6 == Q.var("x", Z6)
    assert t6 == Q.Term({((1,), "x")})

    assert Q.holds_quasi_identity(fan, qi)[0]
    holds, witness = Q.holds_quasi_identity(C.two_element(Z2), qi)
    assert not holds and witness == {"x": 1, "y": 0}


def test_separating_requires_generation_and_nontrivial():
    with pytest.raises(ValueError):
        Q.separating_quasi_identity(
            A.FSemilattice(Z2, ("e",), ((0,),), ((0, ),)), 0
        )
    with pytest.raises(A.NotGeneratedError):
        Q.separating_quasi_identity(C.two_element(Z2), 1)


def test_is_minimal_free_examples():
    assert Q.is_minimal_free(maroti_z6_h3(), 0).minimal

    a7 = C.counterexample_a7()
    verdict = Q.is_minimal_free(a7, 0)
    assert not verdict.minimal
    assert a7.carrier[verdict.counterexample] == "p"

    assert Q.is_minimal_free(C.a_k(4), 0).minimal


def test_is_minimal_free_refuses_a_non_generator_before_any_replay(monkeypatch):
    # the generator's one derivation decides generation before any element
    replays = []
    monkeypatch.setattr(Q, "replay", lambda *args: replays.append(args))
    a7 = C.counterexample_a7()
    with pytest.raises(A.NotGeneratedError, match="'p' does not generate the algebra"):
        Q.is_minimal_free(a7, a7.index("p"))
    assert replays == []


def test_minimal_algebras_have_cardinality_invariance():
    for algebra in (maroti_z6_h3(), maroti_z4_h(), C.a_k(3)):
        z = A.zero(algebra)
        for b in range(algebra.size):
            if b == z:
                continue
            _, emb = A.subalgebra_generated(algebra, b)
            assert len(emb) == algebra.size


def test_condition_d_implies_every_nontrivial_1gen_subalgebra_isomorphic():
    for algebra in (maroti_z6_h3(), C.a_k(3), C.maroti(Z2xZ2, G.trivial_subgroup(Z2xZ2))):
        assert Q.is_minimal_free(algebra, 0).minimal
        for b in range(algebra.size):
            sub, emb = A.subalgebra_generated(algebra, b)
            if sub.size == 1:
                continue
            assert reference_is_isomorphic_1gen(algebra, 0, sub, emb.index(b))[0]


def test_zero_annihilation():
    # if a unary term sends the generator to zero, it sends everything to zero
    for algebra, gen in ((maroti_z4_h(), 0), (C.a_k(3), 0)):
        z = A.zero(algebra)
        elems = (
            algebra.group.elements()
            if algebra.group.is_finite
            else [(k,) for k in range(4)]
        )
        for size in (1, 2, 3):
            for combo in itertools.combinations(elems, size):
                term = A.Term(frozenset((g, "x") for g in combo))
                if Q.eval_term(algebra, term, {"x": gen}) == z:
                    assert all(
                        Q.eval_term(algebra, term, {"x": b}) == z for b in range(algebra.size)
                    )


@given(st.data())
@settings(max_examples=50)
def test_unary_term_composition_commutes(data):
    algebra = data.draw(st.sampled_from([maroti_z4_h(), C.a_k(4)]))
    elems = (
        algebra.group.elements()
        if algebra.group.is_finite
        else [(k,) for k in range(-4, 5)]
    )

    def unary_term():
        members = data.draw(st.frozensets(st.sampled_from(elems), min_size=1, max_size=3))
        return A.Term(frozenset((g, "x") for g in members))

    s, t = unary_term(), unary_term()
    x = data.draw(st.integers(min_value=0, max_value=algebra.size - 1))

    def compose(outer, inner):
        return Q.eval_term(algebra, outer, {"x": Q.eval_term(algebra, inner, {"x": x})})

    assert compose(s, t) == compose(t, s)


def test_stabilizer_examples():
    h246 = G.subgroup_from_elements(Z6, [(0,), (2,), (4,)])
    fan = C.maroti(Z6, h246)
    assert Q.stabilizer(fan, 0).elements == h246.elements

    triv_fan = C.maroti(Z6, G.trivial_subgroup(Z6))
    assert Q.stabilizer(triv_fan, 0).elements == ((0,),)

    te = C.two_element(Z6)
    assert len(Q.stabilizer(te, 1).elements) == 6


def test_stabilizer_rejects_infinite():
    with pytest.raises(G.InfiniteGroupError, match="^stabilizers need a finite group$"):
        Q.stabilizer(C.a_k(3), 0)


def test_generator_preserving_isomorphism_preserves_stabilizer():
    # the invariant behind verify_bijection's pairwise_distinct: fans whose
    # generator stabilizers differ are not isomorphic
    a7 = C.counterexample_a7()
    distinct_isomorphic_pairs = 0
    for spec in G.all_group_specs(8):
        algebras = []
        for sub in G.subgroups(spec):
            fan = C.maroti(spec, sub)
            algebras += [fan, opposite(fan)]
            if 1 < sub.size < spec.order():
                reps = greatest_transversal(spec, sub)
                for factor in (None, C.chain2_factor(spec, sub)):
                    algebras.append(C.twisted_multiple(spec, sub, factor, reps))
        if spec == a7.group:
            algebras += [A.subalgebra_generated(a7, x)[0] for x in range(a7.size)]
        generated = [(alg, x) for alg in algebras for x in range(alg.size) if A.generates(alg, x)]
        for (first, a), (second, b) in itertools.product(generated, repeat=2):
            if reference_is_isomorphic_1gen(first, a, second, b)[0]:
                distinct_isomorphic_pairs += first != second
                assert Q.stabilizer(first, a) == Q.stabilizer(second, b)
    assert distinct_isomorphic_pairs > 0


def test_verify_bijection_small_groups():
    rep = Q.verify_bijection(Z2xZ2)
    assert rep.ok and rep.subgroup_count == 5

    rep6 = Q.verify_bijection(Z6)
    assert rep6.ok and rep6.subgroup_count == 4

    rep1 = Q.verify_bijection(G.make_group([1]))
    assert rep1.ok and rep1.subgroup_count == 1
    assert rep1.entries[0].algebra_size == 2
    assert rep1.entries[0].minimal is None  # improper subgroup: two-element case


def fan_theories(max_order):
    """The bijection from the model checker's side, over every coset fan M_K
    of every group of order <= ``max_order``: M_K satisfies ``-> g(x) = x``
    exactly for the g in K, so the fans of one group have pairwise distinct
    theories; and for proper K, with g0 the first element outside K, M_K
    satisfies ``x ^ g(x) = y ^ g0(y)`` for every g outside K.  Asserts both
    and returns (fans, model checks)."""
    fans = checks = 0
    for group in G.all_group_specs(max_order):
        x, y = A.var("x", group), A.var("y", group)
        elements = group.elements()
        subs, theories = G.subgroups(group), set()
        for sub in subs:
            fan = C.maroti(group, sub)
            fixed = frozenset(
                g for g in elements
                if Q.holds_quasi_identity(fan, Q.make_quasi_identity([], (A.translate_term(group, g, x), x)))[0]
            )
            assert fixed == set(sub.elements)
            theories.add(fixed)
            outside = [g for g in elements if g not in sub]
            for g in outside:
                left = A.meet_terms(x, A.translate_term(group, g, x))
                right = A.meet_terms(y, A.translate_term(group, outside[0], y))
                assert Q.holds_quasi_identity(fan, Q.make_quasi_identity([], (left, right))) == (True, None)
            fans += 1
            checks += len(elements) + len(outside)
        assert len(theories) == len(subs)
    return fans, checks


def test_fans_over_distinct_subgroups_have_distinct_theories():
    assert fan_theories(16) == (247, 5231)


def test_decompose_examples():
    fan = maroti_z4_h()
    res = Q.decompose_ku(fan, 0)
    assert res.subgroup.elements == ((0,), (2,))
    assert res.factor.size == 1
    assert A.is_homomorphism(res.iso) and res.iso.is_bijective

    triv_fan = C.maroti(Z4, G.trivial_subgroup(Z4))
    res2 = Q.decompose_ku(triv_fan, 0)
    assert res2.subgroup.elements == ((0,),)
    assert res2.factor.size == 1


def test_decompose_factor_trivial_over_finite_groups():
    for spec in (Z6, Z2xZ2, G.make_group([8])):
        for sub in G.subgroups(spec):
            if not sub.is_proper:
                continue
            fan = C.maroti(spec, sub)
            res = Q.decompose_ku(fan, 0)
            assert res.factor.size == 1
            assert res.subgroup.elements == sub.elements


def test_decompose_matches_reference():
    # the fan built over Stab(a) gives the decompositions and errors of the
    # K scan with its meets of up to three translates, on every valid
    # algebra; a table that fails an axiom is refused with that axiom
    rng = random.Random(3141)
    cases = []
    for spec in G.all_group_specs(16):
        for sub in G.subgroups(spec):
            if sub.is_proper:
                cases += [C.maroti(spec, sub), C.twisted_multiple(spec, sub)]
                cases.append(C.twisted_multiple(spec, sub, C.chain2_factor(spec, sub)))
    for orders in ([1], [2], [3], [4], [2, 2], [6], [2, 3], [8]):
        cases += random_tables(rng, G.make_group(orders), 60)
        cases += random_semilattices(rng, G.make_group(orders), 20)
    cases += [t for _, t in invariant_tables(rng, 400) if t.group.is_finite]

    def outcome(decompose, algebra, a):
        try:
            return decompose(algebra, a)
        except (ValueError, C.VerificationError) as exc:
            return type(exc), str(exc)

    decompositions = refused = 0
    for algebra in cases:
        for a in range(algebra.size):
            got = outcome(Q.decompose_ku, algebra, a)
            if refusal(algebra):
                assert got == refusal(algebra), (algebra, a)
                refused += 1
                continue
            assert got == outcome(reference_decompose_ku, algebra, a), (algebra, a)
            decompositions += isinstance(got, Q.DecompositionResult)
    assert decompositions > 1000 and refused > 1000


def test_decompose_rejects_non_minimal():
    with pytest.raises(ValueError):
        Q.decompose_ku(C.counterexample_a7(), 0)


def test_delta_map_examples():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    built = Q.delta_map(Z4, h)
    assert built.size == 3

    res = Q.decompose_ku(built, 0)
    assert res.subgroup.elements == h.elements
    assert res.factor.size == 1

    with pytest.raises(ValueError):
        Q.delta_map(Z4, G.full_subgroup(Z4))


def test_delta_map_rejects_ineligible_factors():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    # the two-chain factor is not 1-generated, so nothing generates the result
    with pytest.raises(A.NotGeneratedError):
        Q.delta_map(Z4, h, C.chain2_factor(Z4, h))
    # a 1-generated factor with a zero and several elements generates the
    # result, but the result fails the minimality verification
    pres = G.presentation(Z4, h)
    fan_u = C.maroti(pres.spec, G.trivial_subgroup(pres.spec))
    with pytest.raises(C.VerificationError):
        Q.delta_map(Z4, h, fan_u)


def test_delta_then_decompose_roundtrip_small():
    for spec in (Z4, Z6, Z2xZ2):
        for sub in G.subgroups(spec):
            if not sub.is_proper:
                continue
            built = Q.delta_map(spec, sub)
            res = Q.decompose_ku(built, 0)
            assert res.subgroup.elements == sub.elements
            assert res.factor.size == 1


def test_simplicity_reports():
    assert Q.simplicity_and_quotient_report(maroti_z2(), 0).simple
    fan = C.maroti(Z2xZ2, G.trivial_subgroup(Z2xZ2))
    report = Q.simplicity_and_quotient_report(fan, 0)
    assert report.simple and report.congruence_count == 2
    assert Q.simplicity_and_quotient_report(C.a_k(3), 0).simple


def test_simplicity_rejects_non_minimal():
    with pytest.raises(ValueError):
        Q.simplicity_and_quotient_report(C.counterexample_a7(), 0)


def test_grammar_parse_and_format():
    qi = Q.parse_quasi_identity("g0(x)=x -> x = x^y", Z2)
    assert qi.variables == ("x", "y")
    assert Q.format_quasi_identity(qi) == "g0(x) = x -> x = x ^ y"

    powered = Q.parse_quasi_identity("g0^2(x) = x -> x = x ^ y", Z4)
    (s, t), = powered.premises
    assert s == Q.Term({((2,), "x")})

    no_premises = Q.parse_quasi_identity("-> x ^ y = y ^ x", Z2)
    assert no_premises.premises == ()
    s, t = no_premises.conclusion
    assert s == t  # meets are sets, so both sides normalize identically

    multi = Q.parse_quasi_identity("g0(x)=x & g1(y)=y -> x ^ y = x", Z2xZ2)
    assert len(multi.premises) == 2

    negative_power = Q.parse_quasi_identity("g0^-1(x) = x -> x = x ^ y", Z4)
    (s, t), = negative_power.premises
    assert s == Q.Term({((3,), "x")})

    nested = Q.parse_quasi_identity("-> g0(g0(x)) = g0^2(x)", Z4)
    s, t = nested.conclusion
    assert s == t


def test_grammar_roundtrip_through_formatter():
    texts = [
        "g0(x) = x -> x = x ^ y",
        "-> x ^ y = y ^ x",
        "g0^2(x) ^ x = x -> x = x ^ y",
    ]
    for text in texts:
        qi = Q.parse_quasi_identity(text, Z4)
        again = Q.parse_quasi_identity(Q.format_quasi_identity(qi), Z4)
        assert again == qi


def test_grammar_errors():
    with pytest.raises(Q.QuasiIdentitySyntaxError):
        Q.parse_quasi_identity("x = y", Z2)  # no implication
    with pytest.raises(Q.QuasiIdentitySyntaxError):
        Q.parse_quasi_identity("-> x =", Z2)
    with pytest.raises(Q.QuasiIdentitySyntaxError):
        Q.parse_quasi_identity("-> g7(x) = x", Z2)  # generator out of range
    with pytest.raises(Q.QuasiIdentitySyntaxError):
        Q.parse_quasi_identity("-> x ? y = x", Z2)
    # premises are parsed before the conclusion, and trailing tokens are
    # named with the part they end, as written
    for text, message in [
        (" x = y y & x = ) -> x = y )", "trailing tokens in 'x = y y '"),
        ("x = x & x = ) -> x = y )", "unexpected token ')'"),
        ("x = x & -> x = y", "unexpected end of term"),
        ("x = x -> x = y )", "trailing tokens in ' x = y )'"),
    ]:
        with pytest.raises(Q.QuasiIdentitySyntaxError, match=f"^{re.escape(message)}$"):
            Q.parse_quasi_identity(text, Z2)
    assert Q.parse_quasi_identity("  -> x = x", Z2).premises == ()


def test_grammar_nesting_depth_is_capped():
    shallow = "-> " + "(" * 50 + "x" + ")" * 50 + " = x"
    assert Q.parse_quasi_identity(shallow, Z2).variables == ("x",)
    for depth in (Q.MAX_TERM_DEPTH, 2000):
        with pytest.raises(Q.QuasiIdentitySyntaxError):
            Q.parse_quasi_identity("-> " + "(" * depth + "x" + ")" * depth + " = x", Z2)
        with pytest.raises(Q.QuasiIdentitySyntaxError):
            Q.parse_quasi_identity("-> x = " + "g0(" * depth + "x" + ")" * depth, Z2)


# Quasi-identities for the differential test, written for generator g0 only
# so that they parse over every group: no premises, several premises,
# premises that bind only early variables, conclusions that bind only early
# variables, generator powers, sides that both hold earlier variables, and
# sides with two pairs on their last variable.
DIFFERENTIAL_QIS = (
    "-> x ^ y = y ^ x",
    "-> x ^ y = x",
    "-> g0^2(x) = x",
    "x ^ y = y -> x = y",
    "x ^ y = x & y ^ z = y -> x ^ z = x",
    "x ^ y = x -> g0(x) ^ g0(y) = g0(x)",
    "g0(x) = x -> x = x ^ y",
    "g0^2(x) ^ x = x -> x = x ^ y",
    "g0^-1(x) = x & x ^ y = y -> g0(y) = y",
    "y ^ z = y -> x = g0(x)",
    "x ^ g0(y) = x & z = z -> g0^3(x ^ z) ^ y = x ^ y",
    "x ^ (y ^ z) = z -> (g0(x) ^ y) ^ z = z",
    "-> x ^ z = y ^ z",
    "x ^ y ^ g0(y) = x -> x ^ y = x",
    "x ^ y ^ g0(y) = x -> x ^ g0(y) = x",
)


def _coset_tower(group, subs):
    """Levels of coset partitions above a zero: ``subs`` runs from the bottom
    level up, each subgroup containing the next.  Two cosets meet at the
    deepest level where one coset holds both representatives."""
    levels = [G.cosets(group, sub) for sub in subs]
    nodes = [(depth, block) for depth, blocks in enumerate(levels) for block in blocks]
    index = {node: i for i, node in enumerate(nodes)}
    bottom = len(nodes)
    block_at = [{g: b for b in blocks for g in b} for blocks in levels]

    def meet(one, two):
        (d1, b1), (d2, b2) = one, two
        for depth in range(min(d1, d2), -1, -1):
            if block_at[depth][b1[0]] == block_at[depth][b2[0]]:
                return index[(depth, block_at[depth][b1[0]])]
        return bottom

    table = [[meet(u, v) for v in nodes] + [bottom] for u in nodes] + [[bottom] * (bottom + 1)]
    action = []
    for i in range(group.rank):
        step = G.elementary(group, i)
        action.append(
            [index[(d, block_at[d][G.mul(group, b[0], step)])] for d, b in nodes] + [bottom]
        )
    carrier = [f"{d}:{G.format_element(b[0])}" for d, b in nodes] + ["o"]
    return A.FSemilattice(group, carrier, table, action)


def _holds_outcome(check, algebra, qi):
    try:
        return check(algebra, qi)
    except ValueError as exc:
        return type(exc), str(exc)


def test_holds_quasi_identity_matches_reference():
    rng = random.Random(20121)
    a7 = C.counterexample_a7()
    cases = [(a7.group, A.subalgebra_generated(a7, x)[0]) for x in range(a7.size)]
    for orders in ([2], [3], [4], [2, 2], [6], [8]):
        group = G.make_group(orders)
        subs = G.subgroups(group)
        cases += [(group, C.maroti(group, sub)) for sub in subs]
        cases += [
            (group, _coset_tower(group, [big, small]))
            for big, small in itertools.permutations(subs, 2)
            if set(small.elements) < set(big.elements)
        ]
        cases += [(group, t) for t in random_tables(rng, group, 20)]
        cases += [(group, t) for t in random_semilattices(rng, group, 10, max_size=10)]
    cases.append((C.a_k(3).group, C.a_k(3)))
    # Past 64 elements: P+(C7), 127 elements, where the three-variable texts
    # are refused, and the 69-element subalgebra of P+(C8) generated by
    # {0;1;3}, with every text but transitivity, whose reference scan of all
    # 69^3 valuations takes about 0.4 s.
    p7 = C.free_one_generated(G.make_group([7]))
    p8 = C.free_one_generated(G.make_group([8]))
    s69 = A.subalgebra_generated(p8, p8.carrier.index("{0;1;3}"))[0]
    cases += [(p7.group, p7), (s69.group, s69)]
    outcomes = set()
    refused = too_many = 0
    for group, algebra in cases:
        A.check_shape(algebra)
        for text in DIFFERENTIAL_QIS:
            qi = Q.parse_quasi_identity(text, group)
            got = _holds_outcome(Q.holds_quasi_identity, algebra, qi)
            if refusal(algebra):
                assert got == refusal(algebra), (algebra, text)
                refused += 1
                continue
            if algebra.size ** len(qi.variables) > Q.MAX_VALUATIONS:
                assert got == (A.CarrierLimitError, f"127^3 valuations exceed {Q.MAX_VALUATIONS}")
                too_many += 1
                continue
            if algebra is s69 and text == "x ^ y = x & y ^ z = y -> x ^ z = x":
                continue
            assert got == _holds_outcome(reference_holds_quasi_identity, algebra, qi), (algebra, text)
            outcomes.add(got[0])
    # both verdicts occur, so witnesses were compared too; random tables
    # that fail an axiom are refused
    assert outcomes == {True, False} and refused > 500
    assert too_many == sum(len(Q.parse_quasi_identity(t, p7.group).variables) == 3 for t in DIFFERENTIAL_QIS)


def _z_by_z2_fan():
    """Six atoms (i, j), i mod 3 and j mod 2, over a zero; the infinite
    cyclic factor rotates i and the factor of order 2 flips j."""
    atoms = [(i, j) for i in range(3) for j in range(2)]
    bottom = len(atoms)
    meet = [[x if x == y else bottom for y in range(7)] for x in range(7)]
    action = [
        [atoms.index(((i + 1) % 3, j)) for i, j in atoms] + [bottom],
        [atoms.index((i, 1 - j)) for i, j in atoms] + [bottom],
    ]
    carrier = [f"{i},{j}" for i, j in atoms] + ["o"]
    return A.FSemilattice(G.make_group([0, 2]), carrier, meet, action)


def _action_cases():
    """Axiom-valid algebras: fans and their opposites, trivial and chain2
    twisted multiples, coset towers, the a7 subalgebras, a_k, a fan over
    the integers times Z2, atoms over Z in cycles of 3, 4, 5 and 7, and a
    hexagon of atoms over Z^16."""
    a7 = C.counterexample_a7()
    out = [a7] + [A.subalgebra_generated(a7, x)[0] for x in range(a7.size)]
    for spec in G.all_group_specs(8):
        subs = G.subgroups(spec)
        for sub in subs:
            fan = C.maroti(spec, sub)
            out += [fan, opposite(fan), C.two_element(spec)]
            if sub.is_proper:
                for factor in (None, C.chain2_factor(spec, sub)):
                    out.append(C.twisted_multiple(spec, sub, factor))
        out += [
            _coset_tower(spec, [big, small])
            for big, small in itertools.permutations(subs, 2)
            if set(small.elements) < set(big.elements)
        ]
    out += [C.a_k(k) for k in range(1, 7)] + [_z_by_z2_fan()]
    out += [atom_fan_over_z([3, 4, 5, 7]), rotated_hexagon_fan(16)]
    return out


def _coordinates(rng, rank):
    """Unreduced coordinates: the zero vector, 30 random ones in [-20, 20]^rank
    and three large ones."""
    small = [tuple(rng.randint(-20, 20) for _ in range(rank)) for _ in range(30)]
    large = [(10**12 + 5,) * rank, (-(10**9) - 1,) * rank, tuple(range(10**6, 10**6 + rank))]
    return [(0,) * rank] + small + large


def test_act_matches_reference():
    # the algebras of ``_action_cases``, the 61 elements over Z whose
    # generator has order 1,021,020, and random tables
    rng = random.Random(4242)
    cases = _action_cases() + [atom_fan_over_z([3, 4, 5, 7, 11, 13, 17])]
    odd = 0
    for orders in ([2], [3], [4], [2, 2], [0], [2, 3], [0, 2]):
        group = G.make_group(orders)
        for table in random_tables(rng, group, 15):
            ps = table.action
            commuting = all(perm_compose(p, q) == perm_compose(q, p) for p in ps for q in ps)
            dividing = all(k >= 1 and k % A.perm_order(p) == 0 for p, k in zip(ps, orders))
            odd += not commuting and not dividing
            cases.append(table)
    assert odd > 0
    for algebra in cases:
        orders = [reference_perm_order(p) for p in algebra.action]
        for g in _coordinates(rng, algebra.group.rank):
            # the reference steps through c mod the order, so a residue of
            # 97 or more is cut below 97, keeping c's multiple of the order;
            # only the atom fans over Z have generators of order above 97
            g = tuple(c - c % m + c % m % 97 for c, m in zip(g, orders))
            want = tuple(reference_act(algebra, g, x) for x in range(algebra.size))
            assert tuple(A.act(algebra, g, x) for x in range(algebra.size)) == want, (algebra, g)
            assert A.element_action(algebra, g) == want, (algebra, g)


def _stabilizer_outcome(build, algebra, a):
    try:
        sub = build(algebra, a)
    except G.NotASubgroupError as exc:
        return str(exc)
    return sub.elements


def test_stabilizer_matches_reference_on_non_commuting_tables():
    # random shape-valid tables, whose generator permutations mostly do not
    # commute, nor does their order divide the factor's, are refused with
    # the axiom they fail; on random semilattices and the few valid random
    # tables, the stabilizer from the coordinate-wise images, with or
    # without a table handed in, is the reference's
    rng = random.Random(5150)
    cases = []
    for orders in ([2], [4], [6], [2, 2], [2, 3], [3, 4], [2, 2, 2]):
        cases += random_tables(rng, G.make_group(orders), 40)
        cases += random_semilattices(rng, G.make_group(orders), 15)
    cases += [t for _, t in invariant_tables(rng, 90) if t.group.is_finite]
    non_commuting = refused = compared = 0
    for algebra in cases:
        ps = algebra.action
        non_commuting += any(perm_compose(p, q) != perm_compose(q, p) for p in ps for q in ps)
        table = G.AdditionTable(algebra.group)
        if refusal(algebra):
            with pytest.raises(A.InvalidAlgebraError, match=re.escape(refusal(algebra)[1])):
                Q.stabilizer(algebra, 0, table)
            refused += 1
            continue
        for a in range(algebra.size):
            want = _stabilizer_outcome(reference_stabilizer, algebra, a)
            assert _stabilizer_outcome(Q.stabilizer, algebra, a) == want, (algebra, a)
            got = _stabilizer_outcome(lambda alg, x: Q.stabilizer(alg, x, table), algebra, a)
            assert got == want, (algebra, a)
            compared += 1
    assert non_commuting > 50 and refused > 250 and compared > 300


def test_stabilizer_refuses_a_table_for_another_group():
    group = G.make_group([6])
    fan = C.maroti(group, G.trivial_subgroup(group))
    with pytest.raises(ValueError, match="the addition table codes C2xC2, not C6"):
        Q.stabilizer(fan, 0, G.AdditionTable(G.make_group([2, 2])))
    # a table over a span codes part of the group only
    c4 = G.make_group([4])
    fan = C.maroti(c4, G.subgroup_from_elements(c4, [(0,), (2,)]))
    with pytest.raises(ValueError, match="the addition table codes a span, not the whole of C4"):
        Q.stabilizer(fan, 0, G.AdditionTable(c4, [(2,)]))


def test_stabilizer_matches_reference_on_fans_and_random_semilattices_up_to_32():
    # every element of every fan over a group of order <= 32, and of random
    # semilattices: the coded stabilizer is the reference's with a fresh
    # table, and with a table whose subgroups are enumerated, as
    # ``verify_bijection`` reads it
    rng = random.Random(3271)
    compared = 0
    for spec in G.all_group_specs(32):
        table = G.AdditionTable(spec)
        subs = G.subgroups(spec, table)
        cases = [C.maroti(spec, sub, table) for sub in subs]
        cases += random_semilattices(rng, spec, 2, max_size=12)
        for algebra in cases:
            for a in range(algebra.size):
                want = reference_stabilizer(algebra, a)
                assert Q.stabilizer(algebra, a) == want, (algebra, a)
                assert Q.stabilizer(algebra, a, table) == want, (algebra, a)
                compared += 1
    assert compared > 9000, compared


def test_generated_by_matches_reference_closure():
    # ``subalgebra_generated``, which reads the closure of ``derive`` in
    # place of ``generated_by``'s leak-checked one, returns the subset and
    # the induced algebra of the verbatim ``generated_by`` on every valid
    # table; a random table that fails an axiom is refused.  The a_k put
    # derive's forward moves against the reference's two-way ones on cycles
    # of lengths 1 to 6 under an infinite cyclic factor
    rng = random.Random(977)
    built = refused = 0
    for orders in ([2], [4], [2, 2], [0], [2, 3]):
        group = G.make_group(orders)
        tables = random_tables(rng, group, 30)
        if group.is_finite:
            tables += random_semilattices(rng, group, 10)
        else:
            tables += [C.a_k(k) for k in range(1, 7)]
        for table in tables:
            if refusal(table):
                with pytest.raises(A.InvalidAlgebraError, match=re.escape(refusal(table)[1])):
                    A.subalgebra_generated(table, 0)
                refused += 1
                continue
            for seed in range(table.size):
                sub, embedding = A.subalgebra_generated(table, seed)
                assert embedding == reference_closure(table, seed, table.action)
                assert (sub, embedding) == reference_generated_by(table, seed, group, table.action)
                built += 1
    assert built > 100 and refused > 100


def _minimality_outcome(check, algebra, a):
    try:
        return check(algebra, a)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)


def test_is_minimal_free_matches_reference(monkeypatch):
    # one injective replay of the generator's derivation per element, with
    # the orbit skip, leaves verdict, counterexample and checked as the
    # element-by-element scan with a subalgebra closure and two extensions
    # has them, on every valid algebra; ``tested`` lists the elements the
    # fast scan really replays: one per orbit of nonzero elements decided
    # up to the verdict, its least, with the orbits found by the reference
    # search, so an orbit read off the replay too small would show.  A table
    # that fails an axiom is refused
    tested = []
    replay = Q.replay
    monkeypatch.setattr(
        Q, "replay", lambda derivation, dst, b: tested.append(b) or replay(derivation, dst, b)
    )
    rng = random.Random(2718)
    cases = [(None, algebra) for algebra in _action_cases()]
    cases += [(None, algebra) for algebra in fans_and_multiples(16) if algebra.group.order() > 8]
    cases += [(None, algebra) for algebra in free_quotients(5)]
    for orders in ([2], [4], [2, 2], [0], [2, 3]):
        cases += [(None, table) for table in random_tables(rng, G.make_group(orders), 20)]
        if orders != [0]:
            cases += [("random", t) for t in random_semilattices(rng, G.make_group(orders), 20)]
    cases += invariant_tables(rng, 240)
    skipped = dict.fromkeys([None, "random", 0, 1, 2], 0)
    verdicts = set()
    refused = 0
    for kind, algebra in cases:
        least = [min(orbit) for orbit in reference_orbits(algebra)]
        for a in range(algebra.size):
            tested.clear()
            got = _minimality_outcome(Q.is_minimal_free, algebra, a)
            if refusal(algebra):
                assert got == refusal(algebra), (algebra, a)
                refused += 1
                continue
            assert got == _minimality_outcome(reference_is_minimal_free, algebra, a), (algebra, a)
            if isinstance(got, Q.MinimalityVerdict):
                verdicts.add(got.minimal)
                skipped[kind] += got.checked - len(tested)
                bottom = A.zero(algebra)
                decided = [b for b in range(algebra.size) if b != bottom][: got.checked]
                assert tested == [b for b in decided if least[b] == b], (algebra, a)
    assert verdicts == {True, False} and refused > 500
    # valid algebras, built or drawn at random, skip elements
    assert skipped[None] > 1000 and skipped["random"] > 20, skipped


def test_separating_quasi_identity_matches_reference():
    # the one-pass scan returns the pair the pairwise search returns, and
    # raises its errors with the same messages, on every valid algebra; a
    # table that fails an axiom is refused
    rng = random.Random(1618)
    cases = [C.a_k(3)] + [algebra for _, algebra in invariant_tables(rng, 600)]
    for orders in ([1], [2], [4], [2, 2], [0], [2, 3], [0, 2]):
        cases += random_tables(rng, G.make_group(orders), 200)
        if 0 not in orders:
            cases += random_semilattices(rng, G.make_group(orders), 30)
    outcomes = []
    for algebra in cases:
        for a in range(algebra.size):
            got = _minimality_outcome(Q.separating_quasi_identity, algebra, a)
            if refusal(algebra):
                assert got == refusal(algebra), (algebra, a)
            else:
                assert got == _minimality_outcome(reference_separating_quasi_identity, algebra, a)
            # a QuasiIdentity is a tuple too, so it is told apart first
            outcomes.append(Q.QuasiIdentity if isinstance(got, Q.QuasiIdentity) else got[0])
    kinds = {kind: outcomes.count(kind) for kind in set(outcomes)}
    # found pairs, trivially acted algebras, one-element algebras,
    # non-generators and refused tables
    assert set(kinds) == {Q.QuasiIdentity, ValueError, A.NotGeneratedError, A.InvalidAlgebraError}
    assert min(kinds.values()) > 20 and len(outcomes) > 6000, kinds
