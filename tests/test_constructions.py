import pytest

from fslat import algebras as A
from fslat import constructions as C
from fslat import groups as G
from fslat import quasivar as Q
from oracles import (
    reference_is_isomorphic_1gen,
    reference_maroti,
    reference_transversal_independence_check,
    reference_validate_axioms,
)
from tables import greatest_transversal

Z2 = G.make_group([2])
Z4 = G.make_group([4])
Z6 = G.make_group([6])
Z2xZ2 = G.make_group([2, 2])
Z2xZ4 = G.make_group([2, 4])


def test_maroti_examples():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    fan = C.maroti(Z4, h)
    assert fan.size == 3
    assert len(A.atoms(fan)) == 2

    full = C.maroti(Z4, G.full_subgroup(Z4))
    assert full.size == 2
    assert all(p == tuple(range(2)) for p in full.action)

    big = C.maroti(Z2xZ2, G.trivial_subgroup(Z2xZ2))
    assert big.size == 5
    assert len(A.atoms(big)) == 4


def test_maroti_rejects_foreign_subgroup():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    with pytest.raises(G.NotASubgroupError):
        C.maroti(Z6, h)


def test_maroti_generated_by_each_atom():
    for spec in (Z4, Z6, Z2xZ2):
        for sub in G.subgroups(spec):
            if not sub.is_proper:
                continue
            fan = C.maroti(spec, sub)
            z = A.zero(fan)
            for x in range(fan.size):
                if x != z:
                    assert A.generates(fan, x)


def test_construction_outputs_validate():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    outputs = [
        C.maroti(Z4, h),
        C.maroti(Z2xZ2, G.trivial_subgroup(Z2xZ2)),
        C.two_element(Z6),
        C.twisted_multiple(Z4, h),
        C.twisted_multiple(Z4, h, C.chain2_factor(Z4, h)),
        C.counterexample_a7(),
    ] + [C.a_k(k) for k in range(1, 9)]
    for algebra in outputs:
        assert A.validate_axioms(algebra).ok


def test_twisted_trivial_factor_is_the_coset_fan():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    tw = C.twisted_multiple(Z4, h)
    assert tw.size == 3
    iso, _ = reference_is_isomorphic_1gen(tw, 0, C.maroti(Z4, h), 0)
    assert iso


def test_twisted_chain_factor_size():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    tw = C.twisted_multiple(Z4, h, C.chain2_factor(Z4, h))
    assert tw.size == 2 * 2 + 1


def test_twisted_transversal_choice_is_irrelevant():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    t1 = G.make_transversal(Z4, h, [(0,), (1,)])
    t2 = G.make_transversal(Z4, h, [(0,), (3,)])
    b1 = C.twisted_multiple(Z4, h, reps=t1)
    b2 = C.twisted_multiple(Z4, h, reps=t2)
    iso, _ = reference_is_isomorphic_1gen(b1, 0, b2, 0)
    assert iso


def test_twisted_factor_group_mismatch_is_an_error():
    # the factor must live over the presentation's abstract form: another
    # order, an infinite group, or another shape of the same order is refused
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    klein = G.subgroup_from_elements(Z2xZ4, [(0, 0), (0, 2), (1, 0), (1, 2)])
    cases = [
        (Z4, h, G.make_group([3]), "C3", "C2"),
        (Z4, h, G.GroupSpec((0,)), "C_inf", "C2"),
        (Z2xZ4, klein, G.make_group([4]), "C4", "C2xC2"),
    ]
    for group, sub, fgroup, got, want in cases:
        wrong = A.FSemilattice(fgroup, ("u",), ((0,),), ((0,),) * fgroup.rank)
        message = f"^factor group {got} does not match the subgroup's abstract form {want}$"
        with pytest.raises(G.NotASubgroupError, match=message):
            C.twisted_multiple(group, sub, wrong)
        with pytest.raises(G.NotASubgroupError, match=message):
            Q.delta_map(group, sub, wrong)


def test_twisted_refuses_a_transversal_of_another_subgroup():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    other = G.transversal(Z4, G.trivial_subgroup(Z4))
    with pytest.raises(G.NotASubgroupError, match="^transversal does not belong to the subgroup$"):
        C.twisted_multiple(Z4, h, reps=other)
    # the check comes before the factor's: a mismatched factor is not reached
    wrong = A.FSemilattice(G.make_group([3]), ("u",), ((0,),), ((0,),))
    with pytest.raises(G.NotASubgroupError, match="^transversal does not belong"):
        C.twisted_multiple(Z4, h, wrong, other)
    with pytest.raises(G.NotASubgroupError, match="^transversal does not belong"):
        C.transversal_independence_check(Z4, h, None, G.transversal(Z4, h), other)
    # a transversal of another group's subgroup with the same elements
    triv4, triv6 = G.trivial_subgroup(Z4), G.trivial_subgroup(Z6)
    with pytest.raises(G.NotASubgroupError, match="^transversal does not belong"):
        C.twisted_multiple(Z4, triv4, reps=G.transversal(Z6, triv6))
    first, second = G.transversal(Z4, triv4), G.transversal(Z2, G.trivial_subgroup(Z2))
    with pytest.raises(G.NotASubgroupError, match="^transversal does not belong"):
        C.transversal_independence_check(Z4, triv4, None, first, second)


def test_twisted_generated_from_any_transversal_slot():
    # with a proper subgroup and a 1-generated factor, every pair over the
    # factor's generator generates the whole algebra
    h6 = G.subgroup_from_elements(Z6, [(0,), (3,)])
    pres = G.presentation(Z6, h6)
    fan_factor = C.maroti(pres.spec, G.trivial_subgroup(pres.spec))
    assert A.generates(fan_factor, 0)
    for factor in (C.trivial_factor(pres.spec), fan_factor):
        tw = C.twisted_multiple(Z6, h6, factor)
        u_size = factor.size
        for t_pos in range(len(G.transversal(Z6, h6).reps)):
            assert A.generates(tw, t_pos * u_size + 0)


def test_a_k_examples():
    one = C.a_k(1)
    assert one.size == 2
    assert one.action[0] == (0, 1)

    three = C.a_k(3)
    assert three.size == 4
    assert three.action[0] == (1, 2, 0, 3)

    with pytest.raises(ValueError):
        C.a_k(0)


def test_a_k_matches_twisted_over_finite_quotient():
    # same carrier and identical tables as the twisted multiple of the trivial
    # factor over the order-n cyclic group, after the change of groups
    for n in (2, 3, 5):
        ak = C.a_k(n)
        zn = G.make_group([n])
        tw = C.twisted_multiple(zn, G.trivial_subgroup(zn))
        assert ak.size == tw.size
        assert ak.meet == tw.meet
        assert ak.action == tw.action


def test_two_element():
    te = C.two_element(Z2)
    assert A.validate_axioms(te).ok
    assert all(p == (0, 1) for p in te.action)
    te_triv = C.two_element(G.make_group([1]))
    assert te_triv.size == 2
    # not 1-generated: the top only reaches itself
    _, emb = A.subalgebra_generated(te, 1)
    assert len(emb) == 1


def test_transversal_independence_check_examples():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    t1 = G.make_transversal(Z4, h, [(0,), (1,)])
    t2 = G.make_transversal(Z4, h, [(0,), (3,)])
    hom = C.transversal_independence_check(Z4, h, None, t1, t2)
    assert hom.is_bijective and A.is_homomorphism(hom)

    same = C.transversal_independence_check(Z4, h, None, t1, t1)
    assert same.map == tuple(range(3))

    h6 = G.subgroup_from_elements(Z6, [(0,), (3,)])
    u = C.chain2_factor(Z6, h6)
    ta = G.make_transversal(Z6, h6, [(0,), (1,), (2,)])
    tb = G.make_transversal(Z6, h6, [(3,), (1,), (5,)])
    hom6 = C.transversal_independence_check(Z6, h6, u, ta, tb)
    assert hom6.is_bijective and A.is_homomorphism(hom6)


def test_twisted_builds_validate_over_small_groups():
    for spec in G.all_group_specs(8):
        order = spec.order()
        for sub in G.subgroups(spec):
            if not 1 < sub.size < order:
                continue
            for factor in (C.trivial_factor(G.presentation(spec, sub).spec), C.chain2_factor(spec, sub)):
                built = C.twisted_multiple(spec, sub, factor)
                assert A.validate_axioms(built).ok
                assert built.size == factor.size * (order // sub.size) + 1


def test_twisted_matches_reference_up_to_16():
    # carrier, meet and action tables and the transversal-independence map
    # against the tuple-coded construction, over every proper subgroup with
    # both transversal kinds; the trivial and chain factors are acted on
    # trivially, so the subgroup's own fan is added to make k(u) move u
    builds = 0
    for spec in G.all_group_specs(16):
        for sub in G.subgroups(spec):
            if not sub.is_proper:
                continue
            kinds = [G.transversal(spec, sub), greatest_transversal(spec, sub)]
            pres = G.presentation(spec, sub)
            fan = C.maroti(pres.spec, G.trivial_subgroup(pres.spec))
            for factor in (C.trivial_factor(pres.spec), C.chain2_factor(spec, sub), fan):
                for reps, other in zip(kinds, kinds[::-1]):
                    got = C.transversal_independence_check(spec, sub, factor, reps, other)
                    want = reference_transversal_independence_check(
                        spec, sub, factor, reps, other, pres.generators
                    )
                    # source and target are the twisted multiples on reps and other
                    assert got == want
                    builds += 1
    assert builds == 1296


def test_maroti_distinct_subgroups_not_isomorphic_small():
    # the full pairwise check that verify_bijection's distinct generator
    # stabilizers stand in for
    for spec in G.all_group_specs(16):
        subs = G.subgroups(spec)
        fans = [C.maroti(spec, s) for s in subs]
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                if fans[i].size != fans[j].size:
                    continue
                assert not reference_is_isomorphic_1gen(fans[i], 0, fans[j], 0)[0]


def test_maroti_matches_reference_up_to_32():
    # blocks, carrier labels, meet and action tables against the tuple-coded
    # construction, with and without one table handed in per group
    for spec in G.all_group_specs(32):
        table = G.AdditionTable(spec)
        for sub in G.subgroups(spec, table):
            want = reference_maroti(spec, sub)
            assert C.maroti(spec, sub) == want
            assert C.maroti(spec, sub, table) == want


def test_maroti_refuses_a_table_for_another_group():
    group = G.make_group([6])
    with pytest.raises(ValueError, match="the addition table codes C4, not C6"):
        C.maroti(group, G.trivial_subgroup(group), G.AdditionTable(G.make_group([4])))
    c4 = G.make_group([4])
    with pytest.raises(ValueError, match="the addition table codes a span, not the whole of C4"):
        C.maroti(c4, G.trivial_subgroup(c4), G.AdditionTable(c4, [(2,)]))


def test_free_one_generated_translates_subsets():
    for spec in G.all_group_specs(8):
        free = C.free_one_generated(spec)
        members = [frozenset(G.parse_element(e) for e in free.label(x)[1:-1].split(";")) for x in range(free.size)]
        index = {m: x for x, m in enumerate(members)}
        for i, perm in enumerate(free.action):
            step = G.elementary(spec, i)
            assert list(perm) == [index[frozenset(G.mul(spec, g, step) for g in m)] for m in members]


def test_counterexample_a7_shape():
    a7 = C.counterexample_a7()
    assert a7.size == 7
    assert A.validate_axioms(a7).ok
    assert A.generates(a7, 0)


def test_free_one_generated():
    # P+(F): nonempty subsets of F, union as meet, generated by {0}; the
    # congruence counts were computed by the all-pairs enumeration
    pinned = {(2,): 2, (3,): 3, (4,): 7, (2, 2): 13, (5,): 11, (6,): 99}
    for orders, count in pinned.items():
        group = G.make_group(orders)
        free = C.free_one_generated(group)
        assert free.size == 2 ** group.order() - 1
        assert A.validate_axioms(free).ok
        assert free.label(0) == "{" + G.format_element(G.identity(group)) + "}"
        assert A.generates(free, 0)
        assert len(A.congruences(free, limit=free.size)) == count
    assert C.free_one_generated(Z4).label(4) == "{0;2}"
    # down-sets wider than 64 bits: 127, 255 and 511 elements
    for k in (7, 8, 9):
        assert A.validate_axioms(C.free_one_generated(G.make_group([k]))).ok
    # a commutative, idempotent fault low in P+(C8): {1} ^ {0;1} = {0}
    free = C.free_one_generated(G.make_group([8]))
    meet = [list(row) for row in free.meet]
    assert (free.label(1), free.label(2)) == ("{1}", "{0;1}")
    meet[1][2] = meet[2][1] = 0
    faulty = A.FSemilattice(free.group, free.carrier, meet, free.action)
    report = A.validate_axioms(faulty)
    assert report == reference_validate_axioms(faulty)
    assert (report.axiom, report.witness) == ("meet-associativity", (0, 1, 1))


def test_free_one_generated_refuses_large_and_infinite_groups():
    with pytest.raises(A.CarrierLimitError):
        C.free_one_generated(G.make_group([11]))
    with pytest.raises(A.CarrierLimitError):
        C.free_one_generated(G.make_group([2, 2, 3]))
    with pytest.raises(G.InfiniteGroupError):
        C.free_one_generated(G.make_group([0]))
