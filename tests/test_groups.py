import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fslat import groups as G
from oracles import (
    _closure,
    _reference_subgroup_sets,
    brute_force_subgroups,
    reference_closure_subgroup_from_elements,
    reference_cosets,
    reference_subgroup_from_elements,
    reference_subgroups,
)
from tables import greatest_transversal

Z4 = G.make_group([4])
Z6 = G.make_group([6])
Z2xZ4 = G.make_group([2, 4])


def test_make_group_examples():
    assert G.make_group([2, 2]).order() == 4
    assert G.make_group([1]).order() == 1
    assert G.make_group([0]).order() is None
    assert not G.make_group([0]).is_finite


def test_make_group_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        G.make_group([])
    with pytest.raises(ValueError):
        G.make_group([-1])


def test_mul_inv_identity_examples():
    assert G.mul(Z6, (4,), (5,)) == (3,)
    assert G.inv(Z2xZ4, (1, 3)) == (1, 1)
    assert G.mul(Z4, (3,), G.identity(Z4)) == (3,)


def test_coordinate_mismatch():
    with pytest.raises(ValueError):
        G.mul(Z4, (1, 2), (0,))
    with pytest.raises(ValueError):
        G.inv(Z4, (1, 2))


def test_infinite_factor_arithmetic():
    inf = G.make_group([0, 2])
    assert G.mul(inf, (5, 1), (-7, 1)) == (-2, 0)
    assert G.inv(inf, (3, 1)) == (-3, 1)


def test_mul_matches_the_reduced_sum():
    rng = random.Random(31)
    for orders in ([1], [5], [2, 4], [0], [0, 3], [3, 0, 2]):
        group = G.make_group(orders)
        for _ in range(50):
            a = tuple(rng.randint(-30, 30) for _ in orders)
            b = tuple(rng.randint(-30, 30) for _ in orders)
            want = G.reduce_element(group, [x + y for x, y in zip(a, b)])
            assert G.mul(group, a, b) == want


finite_specs = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3).map(
    G.make_group
)


@given(finite_specs, st.data())
@settings(max_examples=60)
def test_group_laws(group, data):
    elems = group.elements()
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    c = data.draw(st.sampled_from(elems))
    assert G.mul(group, a, b) == G.mul(group, b, a)
    assert G.mul(group, G.mul(group, a, b), c) == G.mul(group, a, G.mul(group, b, c))
    assert G.mul(group, a, G.inv(group, a)) == G.identity(group)


def test_subgroup_count_examples():
    assert len(G.subgroups(G.make_group([2, 2]))) == 5
    assert len(G.subgroups(Z6)) == 4
    assert len(G.subgroups(G.make_group([1]))) == 1


def test_subgroup_counts_match_bruteforce_up_to_16():
    for spec in G.all_group_specs(16):
        got = len(G.subgroups(spec))
        expected = len(brute_force_subgroups(spec))
        assert got == expected, f"{spec}: {got} != {expected}"


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p, n, expected", [(2, 5, 374), (2, 6, 2825), (3, 3, 28), (5, 2, 8)])
def test_subgroup_counts_match_galois_numbers(p, n, expected):
    # subgroups of C_p^n are the subspaces of F_p^n: the Galois number
    galois = sum(_gaussian_binomial(n, k, p) for k in range(n + 1))
    assert galois == expected
    assert len(G.subgroups(G.make_group([p] * n))) == galois


def test_subgroups_closed_and_lagrange():
    for spec in (G.make_group([2, 2]), Z6, Z2xZ4, G.make_group([2, 2, 3])):
        order = spec.order()
        subs = G.subgroups(spec)
        seen = set()
        for sub in subs:
            assert sub.elements not in seen
            seen.add(sub.elements)
            assert G.identity(spec) in sub.elements
            members = set(sub.elements)
            for a in members:
                for b in members:
                    assert G.mul(spec, a, G.inv(spec, b)) in members
            assert order % len(members) == 0
            assert set(_closure(spec, sub.generators)) == members


def test_subgroups_rejects_infinite():
    with pytest.raises(G.InfiniteGroupError):
        G.subgroups(G.make_group([0]))
    with pytest.raises(G.InfiniteGroupError):
        G.cosets(G.make_group([0]), G.trivial_subgroup(G.make_group([0])))


def test_cosets_examples():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    assert G.cosets(Z4, h) == [((0,), (2,)), ((1,), (3,))]
    full = G.full_subgroup(Z4)
    assert len(G.cosets(Z4, full)) == 1
    h6 = G.subgroup_from_elements(Z6, [(0,), (3,)])
    blocks = G.cosets(Z6, h6)
    assert len(blocks) == 3 and all(len(b) == 2 for b in blocks)


def test_cosets_partition_property():
    for spec in (Z2xZ4, G.make_group([2, 2, 2])):
        for sub in G.subgroups(spec):
            blocks = G.cosets(spec, sub)
            flat = [g for b in blocks for g in b]
            assert sorted(flat) == spec.elements()


def test_subgroup_validation():
    with pytest.raises(G.NotASubgroupError):
        G.subgroup_from_elements(Z4, [(1,), (3,)])
    with pytest.raises(G.NotASubgroupError):
        G.subgroup_from_elements(Z4, [(0,), (1,)])


def _subgroup_outcome(build, group, elems):
    try:
        sub = build(group, elems)
    except G.NotASubgroupError as exc:
        return str(exc)
    return sub.elements, sub.generators


def _candidate_sets(rng, group):
    """Subgroups, subgroups with one element added or removed, and random
    subsets with and without the identity, some written with unreduced
    coordinates.  Over infinite factors coordinates come from [-2, 2], and
    the subgroups are those of the finite part."""
    ranges = [range(k) if k else range(-2, 3) for k in group.orders]
    pool = list(itertools.product(*ranges))
    ident = G.identity(group)
    torsion = G.make_group([k or 1 for k in group.orders])
    subs = [list(s.elements) for s in G.subgroups(torsion)]
    sets = [[], [ident]] + subs
    for sub in subs:
        sets.append(sub + [rng.choice(pool)])
        if len(sub) > 1:
            sets.append([g for g in sub if g != rng.choice(sub[1:])])
    for _ in range(40):
        picked = rng.sample(pool, rng.randint(1, min(6, len(pool))))
        sets += [picked, picked + [ident]]
    unreduced = [tuple(c + 3 * k for c, k in zip(g, group.orders)) for g in pool]
    sets.append([ident] + rng.sample(unreduced, min(3, len(unreduced))))
    return sets


def test_subgroup_from_elements_matches_reference():
    # against the pair-by-pair version and the tuple-coded closure version;
    # over infinite factors only the torsion part is coded
    rng = random.Random(1789)
    outcomes = []
    for orders in (
        [1], [2], [4], [6], [2, 2], [2, 4], [2, 2, 2], [3, 3], [0], [0, 2], [2, 0, 3],
        [8], [2, 6], [0, 0], [4, 0],
    ):
        group = G.make_group(orders)
        for elems in _candidate_sets(rng, group):
            got = _subgroup_outcome(G.subgroup_from_elements, group, elems)
            want = _subgroup_outcome(reference_subgroup_from_elements, group, elems)
            assert got == want, (orders, elems)
            assert _subgroup_outcome(reference_closure_subgroup_from_elements, group, elems) == want
            outcomes.append(got if isinstance(got, str) else "subgroup")
    kinds = {o.split(" at ")[0] for o in outcomes}
    assert kinds == {
        "subgroup",
        "a subgroup is nonempty",
        "identity element missing",
        "not closed under inverse",
        "not closed under product",
    }


def test_addition_table_matches_mul_up_to_64():
    specs = G.all_group_specs(64) + [G.make_group(o) for o in ([0], [0, 2], [2, 0, 3], [0, 0], [4, 0])]
    for spec in specs:
        table = G.AdditionTable(spec)
        elems = table.elements
        torsion = G.make_group([k or 1 for k in spec.orders]).elements()
        assert elems == torsion
        assert all(table.index[e] == i for i, e in enumerate(elems))
        for a, x in enumerate(elems):
            row = table[a]
            assert [elems[c] for c in row] == [G.mul(spec, x, y) for y in elems], spec


def test_span_table_codes_a_subgroup_holding_the_span():
    rng = random.Random(64)
    for spec in G.all_group_specs(64):
        pool = spec.elements()
        for _ in range(3):
            span = rng.sample(pool, min(2, len(pool)))
            table = G.AdditionTable(spec, span)
            elems = table.elements
            assert elems == sorted(elems) and set(span) <= set(elems), (spec, span)
            assert all(table.index[e] == i for i, e in enumerate(elems))
            for a, x in enumerate(elems):
                assert [elems[c] for c in table[a]] == [G.mul(spec, x, y) for y in elems], (spec, span)


def test_subgroup_from_elements_codes_only_the_span():
    # without a table handed in, the search and the presentation code the
    # span of a two-element subgroup, a few kilobytes; coding all of
    # C_100000 or of C_300 x C_300 would take megabytes
    for orders, elems in (([10**5], [(0,), (50000,)]), ([300, 300], [(0, 0), (150, 150)])):
        group = G.make_group(orders)
        tracemalloc.start()
        try:
            sub = G.subgroup_from_elements(group, elems)
            pres = G.presentation(group, sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sub.elements == tuple(elems) and pres.spec == G.make_group([2])
        assert peak < 100_000, (orders, peak)


def test_table_for_another_group_is_refused():
    table = G.AdditionTable(Z4)
    with pytest.raises(ValueError, match="the addition table codes C4, not C6"):
        G.subgroups(Z6, table)


def test_span_table_is_refused_as_a_table_of_the_group():
    # AdditionTable(C4, [(2,)]) codes {0, 2} only; taken for all of C4 it
    # once gave 2 of the 3 subgroups
    span_table = G.AdditionTable(Z4, [(2,)])
    with pytest.raises(ValueError, match="the addition table codes a span, not the whole of C4"):
        G.subgroups(Z4, span_table)
    # a table is refused exactly when its span codes less than the group
    rng = random.Random(4)
    kept = refused = 0
    for spec in G.all_group_specs(32):
        pool = spec.elements()
        for _ in range(3):
            table = G.AdditionTable(spec, rng.sample(pool, min(2, len(pool))))
            if table.elements == pool:
                assert G.AdditionTable.of(spec, table) is table
                assert len(G.subgroups(spec, table)) == len(G.subgroups(spec))
                kept += 1
            else:
                with pytest.raises(ValueError, match="codes a span"):
                    G.AdditionTable.of(spec, table)
                refused += 1
    assert kept > 100 and refused > 50


def test_subgroups_and_cosets_match_reference_up_to_32():
    for spec in G.all_group_specs(32):
        subs = G.subgroups(spec)
        want = reference_subgroups(spec)
        assert [(s.elements, s.generators) for s in subs] == [(s.elements, s.generators) for s in want]
        for sub in subs:
            assert G.cosets(spec, sub) == reference_cosets(spec, sub)


def test_subgroup_sets_inside_each_universe_match_reference_up_to_16():
    # the enumeration pruned to a universe, on the whole table and on the
    # table of the universe's span, which is how ``presentation`` codes it
    cases = 0
    for spec in G.all_group_specs(16):
        for universe in _reference_subgroup_sets(spec, spec.elements()):
            want = _reference_subgroup_sets(spec, universe)
            for table in (G.AdditionTable(spec), G.AdditionTable(spec, universe)):
                sets = G._subgroup_sets(table, [table.index[e] for e in universe])
                assert {frozenset(map(table.elements.__getitem__, s)) for s in sets} == want, (spec, universe)
                cases += 1
    assert cases == 2 * 247


def test_subgroup_element_sets_match_reference_from_33_to_64():
    specs = [spec for spec in G.all_group_specs(64) if spec.order() > 32]
    assert len(specs) == 120
    for spec in specs:
        want = sorted(map(sorted, _reference_subgroup_sets(spec, spec.elements())), key=lambda s: (len(s), s))
        assert [list(sub.elements) for sub in G.subgroups(spec)] == want, spec


def test_subgroup_memo_matches_a_fresh_table_up_to_32():
    # the memo that ``subgroups`` fills answers every code set as a fresh
    # table does: the reference's subgroup for a closed set, None for any
    # other, and the identical object when the same set is asked again
    rng = random.Random(3232)
    closed = not_closed = 0
    for spec in G.all_group_specs(32):
        table = G.AdditionTable(spec)
        subs = G.subgroups(spec, table)
        codes = range(len(table.elements))
        sets = [{table.index[e] for e in sub.elements} for sub in subs]
        for _ in range(6):
            sets.append({0, *rng.sample(codes, rng.randint(0, len(codes) - 1))})
            sets.append(set(rng.sample(codes, rng.randint(1, len(codes)))))
            sets.append(set(rng.choice(sets[: len(subs)])) | {rng.choice(codes)})
        for case in sets:
            got = table.subgroup(case)
            assert table.subgroup(frozenset(case)) is got and table.subgroup(sorted(case)) is got
            assert got == G.AdditionTable(spec).subgroup(case), (spec, case)
            elems = {table.elements[c] for c in case}
            if _closure(spec, elems) == elems:
                want = reference_closure_subgroup_from_elements(spec, elems)
                assert (got.elements, got.generators) == (want.elements, want.generators)
                closed += 1
            else:
                assert got is None, (spec, case)
                not_closed += 1
    assert closed > 1400 and not_closed > 1000, (closed, not_closed)


def test_subgroup_validation_compares_sets_not_sizes():
    # {0, e1, e2, e3} has four elements, the size of a subgroup of C2^3, but
    # generates all eight
    c2_3 = G.make_group([2, 2, 2])
    elems = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(G.NotASubgroupError, match="not closed under product") as caught:
        G.subgroup_from_elements(c2_3, elems)
    assert str(caught.value) == _subgroup_outcome(reference_subgroup_from_elements, c2_3, elems)


def test_transversal_examples():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    t = G.transversal(Z4, h)
    assert t.reps == ((0,), (1,))
    alt = G.make_transversal(Z4, h, [(0,), (3,)])
    assert alt.reps == ((0,), (3,))
    full = G.full_subgroup(Z4)
    assert G.transversal(Z4, full).reps == ((0,),)


def test_transversal_not_normalized_is_still_a_transversal():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    t = greatest_transversal(Z4, h)
    blocks = G.cosets(Z4, h)
    hits = [next(i for i, b in enumerate(blocks) if r in b) for r in t.reps]
    assert sorted(hits) == list(range(len(blocks)))
    assert G.identity(Z4) not in t.reps


def test_transversal_rep_to_coset_bijection():
    for spec in (Z2xZ4, G.make_group([3, 3])):
        for sub in G.subgroups(spec):
            blocks = G.cosets(spec, sub)
            t = G.transversal(spec, sub)
            hits = [next(i for i, b in enumerate(blocks) if r in b) for r in t.reps]
            assert sorted(hits) == list(range(len(blocks)))
            assert G.identity(spec) in t.reps


def test_make_transversal_rejects_bad_reps():
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    with pytest.raises(G.NotASubgroupError):
        G.make_transversal(Z4, h, [(0,), (2,)])


def test_presentation_examples():
    full = G.full_subgroup(G.make_group([2, 2]))
    pres = G.presentation(G.make_group([2, 2]), full)
    assert sorted(pres.spec.orders) == [2, 2]
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    assert G.presentation(Z4, h).spec.orders == (2,)
    triv = G.trivial_subgroup(Z4)
    assert G.presentation(Z4, triv).spec.orders == (1,)


def test_presentation_generates_and_sizes_agree():
    for spec in (Z2xZ4, G.make_group([2, 2, 2]), G.make_group([12]), G.make_group([4, 4])):
        for sub in G.subgroups(spec):
            pres = G.presentation(spec, sub)
            assert pres.spec.order() == len(sub.elements)
            closed = _closure(spec, pres.generators)
            assert closed == set(sub.elements)
            for gen, order in zip(pres.generators, pres.spec.orders):
                assert G.element_order(spec, gen) == order


def test_all_group_specs():
    specs = G.all_group_specs(16)
    assert G.make_group([1]) in specs
    assert G.make_group([16]) in specs
    assert G.make_group([2, 2, 2, 2]) in specs
    assert len(specs) == 31
    assert all(spec.order() <= 16 for spec in specs)


def test_element_json_roundtrip():
    assert G.parse_element(G.format_element((1, 3))) == (1, 3)
    spec = G.group_from_dict(G.group_to_dict(Z2xZ4))
    assert spec == Z2xZ4
    h = G.subgroup_from_elements(Z4, [(0,), (2,)])
    assert G.subgroup_from_dict(Z4, G.subgroup_to_dict(h)).elements == h.elements
