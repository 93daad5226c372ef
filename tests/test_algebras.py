import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fslat import algebras as A
from fslat import cli
from fslat import constructions as C
from fslat import groups as G
from fslat.quasivar import eval_term
from oracles import (
    congruences_by_exhaustion,
    is_congruence_direct,
    normal_form_subalgebra,
    reference_congruences,
    reference_cover_edges,
    reference_extension_map,
    reference_hom_extend,
    reference_is_isomorphic_1gen,
    reference_act,
    reference_perm_order,
    reference_principal_congruence,
    reference_validate_axioms,
    witness_violates,
)
from tables import (
    atom_fan_over_z,
    commutative_idempotent_tables,
    fans_and_multiples,
    free_quotients,
    invariant_meet,
    invariant_tables,
    opposite,
    powers_of,
    random_semilattices,
    random_tables,
    refusal,
)

Z2 = G.make_group([2])
Z4 = G.make_group([4])
Z2xZ2 = G.make_group([2, 2])


def maroti_z2():
    return C.maroti(Z2, G.trivial_subgroup(Z2))


def maroti_z4_h():
    return C.maroti(Z4, G.subgroup_from_elements(Z4, [(0,), (2,)]))


def fan5():
    return C.maroti(Z2xZ2, G.trivial_subgroup(Z2xZ2))


def swap_meet_entry(algebra, x, y, value):
    meet = [list(row) for row in algebra.meet]
    meet[x][y] = value
    return A.FSemilattice(algebra.group, algebra.carrier, meet, algebra.action)


def test_validate_accepts_constructions():
    for algebra in (maroti_z2(), maroti_z4_h(), fan5(), C.a_k(3), C.counterexample_a7()):
        report = A.validate_axioms(algebra)
        assert report.ok, report


def test_validate_meet_mutation_named_with_witness():
    base = maroti_z2()
    bad = swap_meet_entry(base, 0, 1, 0)
    report = A.validate_axioms(bad)
    assert not report.ok
    assert report.axiom.startswith("meet-")
    assert witness_violates(bad, report.axiom, report.witness)


def test_validate_non_automorphism_action():
    base = fan5()
    # transpose an atom with the zero inside one generator's permutation
    perm = list(base.action[0])
    z = base.size - 1
    perm[0], perm[z] = perm[z], perm[0]
    bad = A.FSemilattice(base.group, base.carrier, base.meet, (tuple(perm), base.action[1]))
    report = A.validate_axioms(bad)
    assert not report.ok
    assert report.axiom.startswith("action-")
    assert witness_violates(bad, report.axiom, report.witness)


def test_validate_huge_factor_order():
    # the order check reads cycle lengths, so the factor order's size costs nothing
    swap = ((1, 0, 2),)
    meet = [[0, 2, 2], [2, 1, 2], [2, 2, 2]]
    even = A.FSemilattice(G.make_group([10**12]), ("a", "b", "o"), meet, swap)
    assert A.validate_axioms(even).ok
    odd = A.FSemilattice(G.make_group([10**12 + 1]), ("a", "b", "o"), meet, swap)
    report = A.validate_axioms(odd)
    assert (report.ok, report.axiom, report.witness) == (False, "action-order", (0, 0))


def cycle_fan(lengths, order):
    """Atoms above a zero, over the cyclic group of the given order, with
    the generator permuting the atoms in cycles of the given lengths."""
    atoms = sum(lengths)
    perm, start = [], 0
    for length in lengths:
        perm += [start + (i + 1) % length for i in range(length)]
        start += length
    meet = [[x if x == y else atoms for y in range(atoms + 1)] for x in range(atoms + 1)]
    carrier = [f"a{i}" for i in range(atoms)] + ["o"]
    return A.FSemilattice(G.make_group([order]), carrier, meet, [perm + [atoms]])


def test_validate_matches_reference():
    # the associativity certificate, and the row and cover checks before
    # each element loop, return the report of the plain scans: 5,000
    # commutative idempotent tables reach the certificate and make it both
    # pass and fail.  The action-order check by cycle lengths returns the
    # report of the loop that composes p^(k mod ord p), and perm_order, the
    # lcm of the cycle lengths, the order the cycle walk finds; cycle fans
    # and fans over a group of the wrong order reach that check, the random
    # tables mostly stop earlier
    rng = random.Random(4242)
    cases = [t for _, t in invariant_tables(rng, 300)]
    for orders in ([1], [2], [3], [4], [2, 2], [0], [6], [0, 2]):
        cases += random_tables(rng, G.make_group(orders), 60)
    for lengths in ([2, 3], [3, 2], [4, 6, 1], [1, 5, 3, 2]):
        cases += [cycle_fan(lengths, order) for order in range(1, 31)]
    cases += [cycle_fan([2, 17], order) for order in (17, 34, 51, 68)]
    for spec in G.all_group_specs(8):
        for sub in G.subgroups(spec):
            fan = C.maroti(spec, sub)
            for shift in (-1, 1, 2):
                orders = [max(k + shift, 0) for k in spec.orders]
                cases.append(A.FSemilattice(G.make_group(orders), fan.carrier, fan.meet, fan.action))
    # atoms in cycles of lengths 2, 3, ..., 17 over a group of order their
    # lcm minus 1: the loop composes 510,509 permutations
    cases.append(cycle_fan([2, 3, 5, 7, 11, 13, 17], 510509))
    lattice_tables = commutative_idempotent_tables(rng, 5000)
    axioms = []
    for algebra in cases + lattice_tables:
        report = A.validate_axioms(algebra)
        assert report == reference_validate_axioms(algebra), algebra
        assert [A.perm_order(p) for p in algebra.action] == [
            reference_perm_order(p) for p in algebra.action
        ]
        axioms.append(report.axiom)
    assert axioms.count("action-order") > 50 and axioms.count(None) > 50
    certificate = [A.validate_axioms(t).axiom == "meet-associativity" for t in lattice_tables]
    assert certificate.count(True) > 1000 and certificate.count(False) > 1000


def test_shape_errors_are_separate():
    base = maroti_z2()
    with pytest.raises(A.ShapeError):
        A.validate_axioms(A.FSemilattice(base.group, base.carrier, base.meet[:-1], base.action))
    with pytest.raises(A.ShapeError):
        A.validate_axioms(
            A.FSemilattice(base.group, base.carrier, base.meet, ((0, 0, 0),))
        )
    with pytest.raises(A.ShapeError):
        A.validate_axioms(
            A.FSemilattice(base.group, ("x", "x", "o"), base.meet, base.action)
        )
    # the first entry out of range or not an int is named
    for bad, named in ((3, "3"), (-1, "-1"), (True, "True"), (1.0, "1.0"), ([1], "[1]")):
        meet = [list(row) for row in base.meet]
        meet[1][2] = bad
        with pytest.raises(A.ShapeError, match=f"meet entry {re.escape(named)} is not an index below 3"):
            A.validate_axioms(A.FSemilattice(base.group, base.carrier, meet, base.action))
    # labels and permutations are tested whole by their type sets: a bool,
    # a float or a string in a permutation fails it, and the first label
    # that is not a string is named; str and int subclasses other than bool pass
    for entry in (True, 1.0, "1"):
        with pytest.raises(A.ShapeError, match="^action table is not a carrier permutation$"):
            A.check_shape(A.FSemilattice(base.group, base.carrier, base.meet, ((entry, 0, 2),)))
    for label in (1, None, True):
        with pytest.raises(A.ShapeError, match=f"^carrier label {label!r} is not a string$"):
            A.check_shape(A.FSemilattice(base.group, ("a", label, label), base.meet, base.action))

    class Label(str):
        pass

    class Index(int):
        pass

    carrier = tuple(map(Label, base.carrier))
    A.check_shape(A.FSemilattice(base.group, carrier, base.meet, (tuple(map(Index, base.action[0])),)))


def test_perm_order_matches_reference_on_random_permutations():
    rng = random.Random(6464)
    perms = []
    for n in range(65):
        perms += [tuple(range(n)), tuple((i + 1) % n for i in range(n))]
        perms += [tuple(rng.sample(range(n), n)) for _ in range(5)]
    orders = [A.perm_order(p) for p in perms]
    assert orders == [reference_perm_order(p) for p in perms]
    # identities have order 1 and a single n-cycle has order n
    assert orders[::7] == [1] * 65 and orders[1::7] == [max(n, 1) for n in range(65)]


def test_zero_atoms_leq():
    fan = maroti_z4_h()
    assert fan.carrier[A.zero(fan)] == "o"
    one = A.FSemilattice(Z2, ("e",), ((0,),), ((0,),))
    assert A.zero(one) == 0
    a7 = C.counterexample_a7()
    assert {a7.carrier[x] for x in A.atoms(a7)} == {"p", "q"}
    assert all(A.leq(fan, A.zero(fan), x) for x in range(fan.size))


def test_cover_edges_match_reference():
    # the covers read off the down-sets are the edges of the cubic scan on
    # every valid algebra, and an invalid table is refused
    rng = random.Random(1729)
    a7 = C.counterexample_a7()
    cases = fans_and_multiples(16) + free_quotients(4) + [C.a_k(k) for k in range(1, 7)]
    cases += [a7] + [A.subalgebra_generated(a7, x)[0] for x in range(a7.size)]
    for orders in ([2], [3], [4], [2, 2], [6], [8]):
        cases += random_semilattices(rng, G.make_group(orders), 40)
    for algebra in cases:
        assert A.cover_edges(algebra) == reference_cover_edges(algebra), algebra
    invalid = [t for t in random_tables(rng, Z2, 40) if refusal(t)]
    for table in invalid:
        with pytest.raises(A.InvalidAlgebraError, match=re.escape(refusal(table)[1])):
            A.cover_edges(table)
    assert len(cases) > 800 and len(invalid) > 20


def test_cover_edges():
    fan = maroti_z4_h()
    assert len(A.cover_edges(fan)) == 2
    a7 = C.counterexample_a7()
    edges = {(a7.carrier[u], a7.carrier[v]) for u, v in A.cover_edges(a7)}
    assert edges == {
        ("o", "p"),
        ("o", "q"),
        ("p", "a0"),
        ("p", "a2"),
        ("q", "a1"),
        ("q", "a3"),
    }


def test_act_examples():
    fan = maroti_z4_h()
    h_atom = fan.index("0")
    assert A.act(fan, G.identity(Z4), h_atom) == h_atom
    assert fan.carrier[A.act(fan, (1,), h_atom)] == "1"
    z = A.zero(fan)
    for g in Z4.elements():
        assert A.act(fan, g, z) == z


def test_act_on_infinite_factor_reduces_by_permutation_order():
    ak = C.a_k(3)
    assert A.act(ak, (3,), 0) == 0
    assert A.act(ak, (-1,), 0) == 2
    assert A.act(ak, (7,), 0) == 1


def test_cycle_lists_a_point_power_by_power():
    p = (1, 2, 0, 4, 3, 5)
    assert A.cycle(p, 0) == [0, 1, 2] and A.cycle(p, 2) == [2, 0, 1]
    assert A.cycle(p, 4) == [4, 3] and A.cycle(p, 5) == [5]
    for x in range(len(p)):
        orbit, y = A.cycle(p, x), x
        for c in range(12):
            assert orbit[c % len(orbit)] == y
            y = p[y]


def test_act_on_a_generator_of_order_over_a_million(capsys, tmp_path):
    # 61 elements whose generator has order 3*4*5*7*11*13*17 = 1,021,020:
    # act and element_action walk one cycle per point, whatever the order.
    # The reference steps through each coordinate mod that order, so every
    # coordinate here is a multiple of it, huge or negative, plus a small
    # residue
    big = atom_fan_over_z([3, 4, 5, 7, 11, 13, 17])
    assert A.validate_axioms(big).ok
    order = reference_perm_order(big.action[0])
    assert order == 1_021_020
    for q, r in ((0, 1), (0, 40), (1, 0), (-1, 3), (10**12, 5), (-(10**9), 37)):
        g = (q * order + r,)
        want = tuple(reference_act(big, g, x) for x in range(big.size))
        assert tuple(A.act(big, g, x) for x in range(big.size)) == want, g
        assert A.element_action(big, g) == want, g
    small = atom_fan_over_z([3, 4, 5, 7])
    assert A.act(small, (-1,), 0) == 2 and A.act(small, (10**12,), 3) == 3
    # 10^12 is a multiple of 4, not of 3: x = 3, first on the 4-cycle, is
    # the first x whose premise holds, and y = 0 refutes x = x ^ y
    path = tmp_path / "big.json"
    path.write_text(json.dumps(A.algebra_to_dict(big)))
    qi = "g0^1000000000000(x) = x -> x = x ^ y"
    assert cli.run(["quasi", "--algebra", str(path), "--qi", qi]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is False and payload["witness"] == {"x": "3", "y": "0"}


def test_subalgebra_examples():
    fan = fan5()
    sub, emb = A.subalgebra_generated(fan, 0)
    assert sub.size == 5
    a7 = C.counterexample_a7()
    sub_p, emb_p = A.subalgebra_generated(a7, a7.index("p"))
    assert tuple(a7.carrier[i] for i in emb_p) == ("p", "q", "o")
    z = A.zero(a7)
    sub_z, _ = A.subalgebra_generated(a7, z)
    assert sub_z.size == 1


def test_singleton_subalgebra_is_zero_only():
    # in a 1-generated algebra, {d} is a subalgebra exactly when d is the zero
    for algebra, gen in ((maroti_z4_h(), 0), (C.counterexample_a7(), 0), (C.a_k(3), 0)):
        assert A.generates(algebra, gen)
        z = A.zero(algebra)
        for d in range(algebra.size):
            _, emb = A.subalgebra_generated(algebra, d)
            if len(emb) == 1:
                assert d == z
        assert len(A.subalgebra_generated(algebra, z)[1]) == 1


def test_subalgebra_matches_normal_form_oracle():
    samples = [maroti_z2(), maroti_z4_h(), fan5(), C.a_k(4), C.counterexample_a7()]
    for algebra in samples:
        assert algebra.size <= 12
        for seed in range(algebra.size):
            _, emb = A.subalgebra_generated(algebra, seed)
            assert set(emb) == normal_form_subalgebra(algebra, seed)


def test_hom_extend_swaps_atoms():
    fan = maroti_z2()
    result = A.hom_extend(fan, 0, fan, 1)
    assert result.ok
    assert result.hom.map == (1, 0, 2)
    assert A.is_homomorphism(result.hom)


def test_hom_extend_a7_onto_p_subalgebra():
    a7 = C.counterexample_a7()
    sub, emb = A.subalgebra_generated(a7, a7.index("p"))
    result = A.hom_extend(a7, 0, sub, sub.index("p"))
    assert result.ok
    assert sorted(set(result.hom.map)) == list(range(3))


def test_hom_extend_not_well_defined_with_term_witness():
    a7 = C.counterexample_a7()
    sub, _ = A.subalgebra_generated(a7, a7.index("p"))
    result = A.hom_extend(sub, sub.index("p"), a7, 0)
    assert not result.ok
    s, t = result.conflict
    assert s.variables == t.variables == ("x",)
    p_at = {"x": sub.index("p")}
    assert eval_term(sub, s, p_at) == eval_term(sub, t, p_at)
    assert eval_term(a7, s, {"x": 0}) != eval_term(a7, t, {"x": 0})


def test_hom_extend_requires_generator():
    te = C.two_element(Z2)
    with pytest.raises(A.NotGeneratedError):
        A.hom_extend(te, 1, te, 0)


@given(st.data())
@settings(max_examples=40)
def test_hom_extend_commutes_with_terms(data):
    # the canonical extension satisfies phi(s(a)) = s(b) for every unary term
    fan = maroti_z4_h()
    result = A.hom_extend(fan, 0, fan, 1)
    assert result.ok
    hom = result.hom
    elems = Z4.elements()
    members = data.draw(st.frozensets(st.sampled_from(elems), min_size=1, max_size=3))
    term = A.Term(frozenset((g, "x") for g in members))
    assert hom.map[eval_term(fan, term, {"x": 0})] == eval_term(fan, term, {"x": 1})


def test_is_isomorphic_examples():
    z4h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    t1 = G.make_transversal(Z4, z4h, [(0,), (1,)])
    t2 = G.make_transversal(Z4, z4h, [(0,), (3,)])
    b1 = C.twisted_multiple(Z4, z4h, reps=t1)
    b2 = C.twisted_multiple(Z4, z4h, reps=t2)
    iso, hom = reference_is_isomorphic_1gen(b1, 0, b2, 0)
    assert iso and A.is_homomorphism(hom)

    a7 = C.counterexample_a7()
    sub, _ = A.subalgebra_generated(a7, a7.index("p"))
    assert not reference_is_isomorphic_1gen(a7, 0, sub, sub.index("p"))[0]

    fan = maroti_z4_h()
    iso, hom = reference_is_isomorphic_1gen(fan, 0, fan, 0)
    assert iso and hom.map == tuple(range(fan.size))


def test_opposite():
    fan = maroti_z4_h()
    assert opposite(opposite(fan)) == fan
    te = C.two_element(Z4)
    assert opposite(te) == te
    iso, _ = reference_is_isomorphic_1gen(opposite(fan), 0, fan, 0)
    assert iso


def test_congruences_of_small_fan_match_exhaustive_oracle():
    fan = maroti_z2()
    congs = A.congruences(fan)
    assert len(congs) == 2
    assert congs[0].is_identity and congs[-1].is_total
    oracle = congruences_by_exhaustion(fan)
    assert sorted(c.blocks for c in congs) == sorted(oracle)


def test_congruence_method_matches_oracle_on_carriers_up_to_7():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    u, gens = C.chain2_factor(Z4, h)
    twisted_chain = C.twisted_multiple(Z4, h, u, factor_generators=gens)  # not simple
    samples = [
        maroti_z2(),
        maroti_z4_h(),
        fan5(),
        C.a_k(3),
        C.counterexample_a7(),
        twisted_chain,
    ]
    for algebra in samples:
        assert algebra.size <= 7
        congs = A.congruences(algebra)
        oracle = congruences_by_exhaustion(algebra)
        assert sorted(c.blocks for c in congs) == sorted(oracle)
        for c in congs:
            assert is_congruence_direct(algebra, c.blocks)
    assert len(A.congruences(twisted_chain)) == 4


def test_congruences_match_join_with_everything_closure():
    # joining with the principal congruences only reaches the same set as
    # joining every pair found, and every partition the plain scan accepts;
    # random tables that fail an axiom are refused
    rng = random.Random(8128)
    atoms8 = A.FSemilattice(
        G.make_group([1]),
        [str(i) for i in range(9)],
        [[i if i == j else 8 for j in range(9)] for i in range(9)],
        [tuple(range(9))],
    )
    cases = [atoms8, C.counterexample_a7(), C.a_k(5)]
    cases += [C.maroti(spec, sub) for spec in G.all_group_specs(6) for sub in G.subgroups(spec)]
    for orders in ([1], [2], [3], [2, 2], [0]):
        for _ in range(25):
            n = rng.randint(1, 5)
            meet = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            action = [rng.sample(range(n), n) for _ in orders]
            cases.append(A.FSemilattice(G.make_group(orders), [str(i) for i in range(n)], meet, action))
        if orders != [0]:
            cases += random_semilattices(rng, G.make_group(orders), 25, max_size=12)
    sizes = set()
    refused = 0
    for algebra in cases:
        if refusal(algebra):
            with pytest.raises(A.InvalidAlgebraError, match=re.escape(refusal(algebra)[1])):
                A.congruences(algebra)
            refused += 1
            continue
        congs = A.congruences(algebra)
        assert congs == reference_congruences(algebra)
        if algebra.size <= 7:
            assert sorted(c.blocks for c in congs) == sorted(congruences_by_exhaustion(algebra))
        sizes.add(len(congs))
    assert {1, 2, 3, 4, 256} <= sizes and refused > 80


def _assert_congruences_match(algebra):
    congs = A.congruences(algebra, limit=algebra.size)
    assert congs == reference_congruences(algebra), algebra
    if algebra.size <= 7:
        assert [c.blocks for c in congs] == sorted(
            congruences_by_exhaustion(algebra), key=lambda blocks: (-len(blocks), blocks)
        )
    return congs


def _is_commutative(algebra):
    meet, n = algebra.meet, algebra.size
    return all(meet[x][y] == meet[y][x] for x in range(n) for y in range(n))


def _is_lattice_table(algebra):
    """Commutative and idempotent: the tables that get the (x, x ^ y) basis."""
    return _is_commutative(algebra) and all(algebra.meet[x][x] == x for x in range(algebra.size))


def test_congruences_match_reference_on_fans_up_to_16():
    # coset fans are what ``simplicity`` is run on; each has only the two
    # trivial congruences
    counts = set()
    for spec in G.all_group_specs(16):
        for sub in G.subgroups(spec):
            counts.add(len(_assert_congruences_match(C.maroti(spec, sub))))
    assert counts == {2}


def test_congruences_match_reference_on_free_one_generated():
    for orders in ([1], [2], [3], [4], [2, 2], [5]):
        _assert_congruences_match(C.free_one_generated(G.make_group(orders)))


def _commutative_idempotent_tables(rng, count):
    """Commutative, idempotent, non-associative tables: half with random
    permutations, half acted on by powers of a permutation preserving the
    table."""
    out = []
    while len(out) < count:
        n = rng.randint(3, 6)
        s = rng.sample(range(n), n)
        orders = rng.choice([[1], [2], [3], [2, 2], [0]])
        if len(out) % 2:
            meet = invariant_meet(rng, s, commutative=True, idempotent=True)
            action = powers_of(s, len(orders))
        else:
            meet = [[None] * n for _ in range(n)]
            for x in range(n):
                meet[x][x] = x
                for y in range(x + 1, n):
                    meet[x][y] = meet[y][x] = rng.randrange(n)
            action = [rng.sample(range(n), n) for _ in orders]
        if meet is None:
            continue
        table = A.FSemilattice(G.make_group(orders), [str(i) for i in range(n)], meet, action)
        if A.validate_axioms(table).axiom == "meet-associativity":
            out.append(table)
    return out


def test_congruences_match_reference_on_random_tables(monkeypatch):
    # random semilattices, valid by construction, match the reference, and
    # ``closures`` counts the principal congruences computed, to show that
    # the (x, x ^ y) basis and the orbits skip pairs on them.  Shape-valid
    # tables of five kinds -- arbitrary; commutative and idempotent but not
    # associative; and the three kinds of ``invariant_tables``: commutative
    # with automorphic generators, mostly not idempotent; commutative with
    # random permutations; non-commutative with automorphic permutations --
    # are refused with the axiom they fail, and the few valid ones match
    closures = []
    principal = A.principal_congruence
    monkeypatch.setattr(A, "principal_congruence", lambda alg, x, y: closures.append(x) or principal(alg, x, y))
    rng = random.Random(31337)
    cases = {"arbitrary": [], "lattice": _commutative_idempotent_tables(rng, 300), 0: [], 1: [], 2: []}
    for orders in ([1], [2], [3], [2, 2], [0]):
        cases["arbitrary"] += random_tables(rng, G.make_group(orders), 40)
    for kind, table in invariant_tables(rng, 900):
        cases[kind].append(table)
    cases["valid"] = []
    for orders in ([2], [3], [4], [2, 2], [6], [2, 3]):
        cases["valid"] += random_semilattices(rng, G.make_group(orders), 50, max_size=12)
    skipping = dict.fromkeys(cases, 0)
    refused = dict.fromkeys(cases, 0)
    for name, tables in cases.items():
        for table in tables:
            if refusal(table):
                with pytest.raises(A.InvalidAlgebraError, match=re.escape(refusal(table)[1])):
                    A.congruences(table, limit=table.size)
                refused[name] += 1
                continue
            closures.clear()
            _assert_congruences_match(table)
            pairs = table.size * (table.size - 1) // 2
            skipping[name] += len(closures) < pairs
    assert all(_is_lattice_table(t) for t in cases["lattice"])
    assert sum(not _is_commutative(t) for t in cases["arbitrary"] + cases[2]) > 300
    assert sum(not _is_lattice_table(t) for t in cases[0] + cases[1]) > 300
    assert refused["lattice"] == len(cases["lattice"]) and refused["valid"] == 0
    assert all(refused[name] > 100 for name in ("arbitrary", 0, 1, 2)), refused
    assert skipping["valid"] > 150, skipping


def test_principal_congruence_matches_reference():
    rng = random.Random(4099)
    tables = [C.free_one_generated(G.make_group([4])), C.counterexample_a7(), C.a_k(4)]
    tables += random_tables(rng, G.make_group([2]), 40)
    tables += [table for _, table in invariant_tables(rng, 60)]
    for table in tables:
        for x in range(table.size):
            for y in range(table.size):
                assert A.principal_congruence(table, x, y) == reference_principal_congruence(table, x, y)


def _brute_hom_exists(src, a, dst, b):
    def consistent(f):
        for x in f:
            for y in f:
                m = src.meet[x][y]
                if m in f and f[m] != dst.meet[f[x]][f[y]]:
                    return False
            for p, q in zip(src.action, dst.action):
                if p[x] in f and f[p[x]] != q[f[x]]:
                    return False
        return True

    def extend(f):
        if len(f) == src.size:
            return True
        x = next(i for i in range(src.size) if i not in f)
        for v in range(dst.size):
            f[x] = v
            if consistent(f) and extend(f):
                return True
            del f[x]
        return False

    f = {a: b}
    return consistent(f) and extend(f)


def test_hom_extend_agrees_with_brute_force_search():
    a7 = C.counterexample_a7()
    sub_p, _ = A.subalgebra_generated(a7, a7.index("p"))
    fan = maroti_z4_h()
    cases = [(a7, 0, a7, b) for b in range(a7.size)]
    cases += [(a7, 0, sub_p, b) for b in range(sub_p.size)]
    cases += [(sub_p, 0, a7, b) for b in range(a7.size)]
    cases += [(fan, 0, fan, b) for b in range(fan.size)]
    for src, a, dst, b in cases:
        assert A.hom_extend(src, a, dst, b).ok == _brute_hom_exists(src, a, dst, b)


def _fans_opposites_and_a7(max_order):
    """Per group of order <= max_order: the fan over every subgroup and its
    opposite, plus, over C4, the counterexample a7 and every subalgebra it
    generates."""
    family = {}
    a7 = C.counterexample_a7()
    for spec in G.all_group_specs(max_order):
        algebras = family.setdefault(spec, [])
        candidates = []
        for sub in G.subgroups(spec):
            fan = C.maroti(spec, sub)
            candidates += [fan, opposite(fan)]
        if spec == a7.group:
            candidates += [A.subalgebra_generated(a7, x)[0] for x in range(a7.size)]
        for algebra in candidates:
            if algebra not in algebras:
                algebras.append(algebra)
    return family


def _hom_extend_outcome(extend, src, a, dst, b):
    try:
        result = extend(src, a, dst, b)
    except ValueError as exc:
        return type(exc)
    return result.ok, result.hom.map if result.ok else None, result.conflict


def test_hom_extend_matches_reference_on_small_groups():
    kinds = set()
    for algebras in _fans_opposites_and_a7(8).values():
        for src in algebras:
            for dst in algebras:
                for a in range(src.size):
                    for b in range(dst.size):
                        got = _hom_extend_outcome(A.hom_extend, src, a, dst, b)
                        want = _hom_extend_outcome(reference_hom_extend, src, a, dst, b)
                        assert got == want, (src, a, dst, b)
                        kinds.add(got if isinstance(got, type) else got[0])
    # the cases cover extensions, conflicts and non-generating sources
    assert kinds == {True, False, A.NotGeneratedError}


def _extension_map_outcome(extend, src, a, dst, b):
    try:
        result = extend(src, a, dst, b)
    except ValueError as exc:
        return type(exc)
    if isinstance(result, A.HomExtendResult):
        return result.hom.map if result.ok else None
    return result


def test_extension_map_matches_the_term_carrying_reference():
    # every pair of one algebra, and every pair between a7 and the
    # subalgebras it generates, where extensions clash
    a7 = C.counterexample_a7()
    a7_family = [a7] + [A.subalgebra_generated(a7, x)[0] for x in range(a7.size)]
    pairs = [(algebra, algebra) for algebra in fans_and_multiples(8)]
    pairs += [(src, dst) for src in a7_family for dst in a7_family]
    pairs.append((a7, maroti_z2()))
    kinds = set()
    for src, dst in pairs:
        for a in range(src.size):
            for b in range(dst.size):
                got = _extension_map_outcome(reference_extension_map, src, a, dst, b)
                want = _extension_map_outcome(reference_hom_extend, src, a, dst, b)
                assert got == want, (src, a, dst, b)
                kinds.add(got if got is None or isinstance(got, type) else tuple)
    assert kinds == {tuple, None, A.NotGeneratedError, ValueError}


def test_extension_from_a_generator_maps_onto_the_generated_subalgebra():
    # what one-extension free-minimality rests on: on a valid algebra, a
    # well-defined extension of a -> b from a generating a has the
    # subalgebra generated by b as its image, so it is injective exactly
    # when b generates the whole algebra.  b is a unary term u(a), and unary
    # terms commute, so every extension from a generator is well-defined;
    # many images are proper subalgebras.  The commutative kinds of
    # ``invariant_tables`` that fail an axiom are refused
    rng = random.Random(6196)
    a7 = C.counterexample_a7()
    cases = fans_and_multiples(16) + free_quotients(5) + [C.a_k(k) for k in range(1, 7)]
    cases += [a7] + [A.subalgebra_generated(a7, x)[0] for x in range(a7.size)]
    cases += [table for kind, table in invariant_tables(rng, 300) if kind < 2]
    for orders in ([2], [3], [4], [2, 2], [6], [8]):
        cases += random_semilattices(rng, G.make_group(orders), 40)
    pairs = proper = refused = 0
    for algebra in cases:
        if refusal(algebra):
            with pytest.raises(A.InvalidAlgebraError, match=re.escape(refusal(algebra)[1])):
                A.hom_extend(algebra, 0, algebra, 0)
            refused += 1
            continue
        for a in range(algebra.size):
            if not A.generates(algebra, a):
                continue
            derivation = A.derive(algebra, a)
            for b in range(algebra.size):
                pairs += 1
                result = A.hom_extend(algebra, a, algebra, b)
                assert result.ok, (algebra, a, b)
                _, embedding = A.subalgebra_generated(algebra, b)
                assert tuple(sorted(set(result.hom.map))) == embedding, (algebra, a, b)
                proper += len(embedding) < algebra.size
                # the replayed derivation is the extension, without its checks
                replayed = dict(zip(derivation[0], A.replay(derivation, algebra, b)))
                want = reference_extension_map(algebra, a, algebra, b)
                assert tuple(map(replayed.get, range(algebra.size))) == want, (algebra, a, b)
    assert pairs > 20000 and proper > 500 and refused > 150


def test_a7_congruence_and_quotient():
    a7 = C.counterexample_a7()
    congs = A.congruences(a7)
    theta_blocks = ((0,), (1,), (2,), (3,), (4, 5, 6))
    theta = next(c for c in congs if c.blocks == theta_blocks)
    q = A.quotient(a7, theta)
    assert q.size == 5
    assert A.validate_axioms(q).ok
    block_atoms = [i for i in range(q.size) if i != A.zero(q)]
    perm = q.action[0]
    orbit = {block_atoms[0]}
    x = block_atoms[0]
    for _ in range(3):
        x = perm[x]
        orbit.add(x)
    assert orbit == set(block_atoms)


def test_quotient_by_identity_and_total():
    fan = maroti_z4_h()
    congs = A.congruences(fan)
    assert A.quotient(fan, congs[0]) == fan
    assert A.quotient(fan, congs[-1]).size == 1


def test_congruence_limit():
    fan = fan5()
    with pytest.raises(A.CarrierLimitError):
        A.congruences(fan, limit=4)


@given(st.data())
@settings(max_examples=60)
def test_action_is_automorphism_law(data):
    algebra = data.draw(st.sampled_from([maroti_z4_h(), fan5(), C.a_k(4)]))
    n = algebra.size
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    if algebra.group.is_finite:
        g = data.draw(st.sampled_from(algebra.group.elements()))
    else:
        g = (data.draw(st.integers(min_value=-6, max_value=6)),)
    assert A.act(algebra, g, algebra.meet[x][y]) == algebra.meet[A.act(algebra, g, x)][A.act(algebra, g, y)]


def test_algebra_json_roundtrip():
    fan = maroti_z4_h()
    again = A.algebra_from_dict(A.algebra_to_dict(fan))
    assert again == fan
    with pytest.raises(A.ShapeError):
        A.algebra_from_dict({"group": {"orders": [2]}, "carrier": ["a"], "meet": []})
