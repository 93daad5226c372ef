import copy
import json
import random
import re
from itertools import chain

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
    reference_is_isomorphism,
    reference_act,
    reference_eval_unary,
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


def _chain_with_new_top_meets(n, meets):
    """The chain 0 < 1 < ... < n-1 over the trivial group with x ^ y = y ^ x
    set to v for each (x, y, v) in ``meets``: commutative and idempotent."""
    meet = [[min(u, v) for v in range(n)] for u in range(n)]
    for x, y, v in meets:
        meet[x][y] = meet[y][x] = v
    return A.FSemilattice(G.make_group([1]), [str(u) for u in range(n)], meet, [range(n)])


def test_associativity_witness_matches_reference_on_late_failures():
    # the witness search compares whole rows (x ^ y) ^ z and x ^ (y ^ z) per
    # pair (x, y); it must name the reference's lexicographically first
    # triple when that triple is among the last, and the first z when the
    # rows differ at several
    rng = random.Random(2121)
    cases = []
    for n in (4, 5, 8, 13, 21, 34, 60):
        chain = _chain_with_new_top_meets(n, [(n - 4, n - 2, n - 3)])
        cases.append((chain, (n - 4, n - 4, n - 2)))
        for _ in range(8):  # random meets among the top m elements
            m = rng.randint(2, min(n, 6))
            top = range(n - m, n)
            meets = [(x, y, rng.choice(top)) for x in top for y in top if x < y]
            cases.append((_chain_with_new_top_meets(n, meets), None))
    axioms = []
    for algebra, witness in cases:
        report = A.validate_axioms(algebra)
        assert report == reference_validate_axioms(algebra)
        assert witness is None or report.witness == witness
        axioms.append(report.axiom)
    # random top meets sometimes make a semilattice
    assert axioms.count("meet-associativity") > 30 and set(axioms) == {"meet-associativity", None}


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
    z = A.zero(fan)
    assert all(fan.meet[z][x] == z for x in range(fan.size))


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


def _sharing_one_table(meet):
    """Algebras over C2 on one shared table: a valid fan over the trivial
    subgroup, and three that each fail one per-algebra check."""
    base = A.FSemilattice(Z2, ("a", "b", "o"), meet, ((1, 0, 2),))
    return {
        "valid": base,
        "labels": A.FSemilattice(Z2, ("x", "x", "o"), meet, base.action),
        "automorphism": A.FSemilattice(Z2, ("p", "q", "z"), meet, ((2, 1, 0),)),
        "order": A.FSemilattice(G.make_group([3]), ("u", "v", "w"), meet, base.action),
    }


def _outcome(algebra, validate=A.validate_axioms):
    """The report of ``validate`` on ``algebra``, or its ``ShapeError`` message."""
    try:
        return validate(algebra)
    except A.ShapeError as exc:
        return str(exc)


@pytest.mark.parametrize("first", ["invalid", "valid"])
def test_algebras_on_a_shared_table_get_their_own_reports(first):
    meet = ((0, 2, 2), (2, 1, 2), (2, 2, 2))
    algebras = _sharing_one_table(meet)
    names = ["labels", "automorphism", "order", "valid"]
    if first == "valid":
        names.reverse()
    outcomes = {name: _outcome(algebras[name]) for name in names}
    assert all(algebra.meet == meet for algebra in algebras.values())
    assert outcomes == {
        "valid": A.ValidationReport(True),
        "labels": "carrier labels are not unique",
        "automorphism": A.ValidationReport(
            False, "action-automorphism", (0, 0, 1), "g0(p ^ q) != g0(p) ^ g0(q)"
        ),
        "order": A.ValidationReport(
            False, "action-order", (0, 0), "g0 applied 3 times moves u; factor order 3"
        ),
    }
    assert outcomes == {name: _outcome(algebra, reference_validate_axioms) for name, algebra in algebras.items()}
    # one meet-axiom failure, each algebra naming its witness by its own labels
    skew = ((0, 0), (1, 1))
    one = A.FSemilattice(Z2, ("a", "b"), skew, ((0, 1),))
    two = A.FSemilattice(Z2, ("s", "t"), skew, ((1, 0),))
    assert A.validate_axioms(one).detail == "a ^ b != b ^ a"
    assert A.validate_axioms(two).detail == "s ^ t != t ^ s"
    assert A.validate_axioms(two) == reference_validate_axioms(two)


def test_meet_table_of_booleans_is_a_shape_error():
    for rows in ([[True, False], [False, False]], [[0, 1], [1, True]]):
        algebra = A.FSemilattice(Z2, ("a", "b"), rows, ((0, 1),))
        for _ in range(2):  # the check raises again once the algebra caches that it is not exact
            with pytest.raises(A.ShapeError, match="^meet entry (True|False) is not an index below 2$"):
                A.validate_axioms(algebra)


@pytest.fixture
def loaded():
    """No loaded algebra kept before or after one test: its ``cache_info``."""
    A._loaded_algebra.cache_clear()
    yield A._loaded_algebra.cache_info
    A._loaded_algebra.cache_clear()


def _payload(meet, carrier=("a", "b", "o"), action=((1, 0, 2),)):
    return {"group": {"orders": [2]}, "carrier": list(carrier), "meet": meet, "action": list(action)}


def _loaded_outcome(meet):
    """The report of the loaded algebra over ``meet`` and the algebra, or its ``ShapeError`` message."""
    try:
        algebra = A.algebra_from_dict(_payload(meet))
    except A.ShapeError as exc:
        return str(exc), None
    return algebra.validation, algebra


class Index(int):
    pass


FAN_MEET = [[0, 2, 2], [2, 1, 2], [2, 2, 2]]


@pytest.mark.parametrize("exact_first", [True, False], ids=["exact-first", "other-first"])
@pytest.mark.parametrize(
    "cell, entry, outcome",
    [
        ((1, 1), True, "meet entry True is not an index below 3"),
        ((0, 0), False, "meet entry False is not an index below 3"),
        ((1, 1), 1.0, "meet entry 1.0 is not an index below 3"),
        ((2, 2), Index(2), A.ValidationReport(True)),
    ],
    ids=["true", "false", "float", "int-subclass"],
)
def test_tables_equal_under_eq_are_shared_only_when_exact(loaded, exact_first, cell, entry, outcome):
    # True, False, 1.0 and Index(2) are == to 1, 0, 1 and 2, so each other
    # payload equals the all-int one; only that one is kept, and neither
    # payload gets the other's algebra, in either load order
    x, y = cell
    other = [list(row) for row in FAN_MEET]
    other[x][y] = entry
    assert other == FAN_MEET
    loads = [FAN_MEET, other] * 2 if exact_first else [other, FAN_MEET] * 2
    outcomes = [(meet is other, _loaded_outcome(meet)) for meet in loads]
    kept = [algebra for is_other, (_, algebra) in outcomes if not is_other]
    assert kept[0] is kept[1] and loaded().currsize == 1
    assert {type(v) for v in chain.from_iterable(kept[0].meet)} == {int}
    others = [algebra for is_other, (_, algebra) in outcomes if is_other]
    assert others[0] is not others[1] or others[0] is None
    for is_other, (report, algebra) in outcomes:
        if not is_other:
            assert report == A.ValidationReport(True)
            continue
        assert report == outcome
        # an int subclass passes the shape check but is not kept
        assert algebra is None or (algebra is not kept[0] and type(algebra.meet[x][y]) is Index and not algebra.exact)


def test_loads_of_one_payload_share_one_table(loaded):
    # every fan of order <= 8, and a table that fails commutativity under two
    # labellings; each payload is loaded twice, as from a file, and the second
    # load is the first algebra, its report already cached
    payloads = [A.algebra_to_dict(C.maroti(spec, sub)) for spec in G.all_group_specs(8) for sub in G.subgroups(spec)]
    payloads += [_payload([[0, 0], [1, 1]], labels, [(0, 1)]) for labels in (("a", "b"), ("s", "t"))]
    assert len(payloads) <= A.LOADED_ROWS
    reports = []
    for data in payloads:
        text = json.dumps(data)
        one = A.algebra_from_dict(json.loads(text))
        report = one.validation
        two = A.algebra_from_dict(json.loads(text))
        assert two is one and vars(two)["validation"] is report
        plain = A.FSemilattice(one.group, one.carrier, data["meet"], one.action)
        assert report == A.validate_axioms(plain) == reference_validate_axioms(plain)
        reports.append(report)
    assert loaded()[:] == (len(payloads), len(payloads), A.LOADED_ROWS, len(payloads))
    # one failure, each algebra naming it by its own labels
    assert [report.detail for report in reports[-2:]] == ["a ^ b != b ^ a", "s ^ t != t ^ s"]


def test_a_kept_table_loaded_again_is_counted_once(loaded):
    # a payload may carry the table of a kept algebra, as
    # {**algebra_to_dict(a), "meet": a.meet} does for a loaded algebra
    data = A.algebra_to_dict(C.maroti(G.make_group([4]), G.subgroup_from_elements(G.make_group([4]), [(0,), (2,)])))
    kept = A.algebra_from_dict(data)
    assert loaded().currsize == 1
    for _ in range(2):
        assert A.algebra_from_dict({**data, "meet": kept.meet}) is kept
    assert loaded().currsize == 1 and loaded().hits == 2


def test_a_fault_in_the_registry_is_not_a_payload_error(loaded, monkeypatch):
    def broken(algebra):
        raise TypeError("registry fault")

    monkeypatch.setattr(A, "_loaded_algebra", broken)
    with pytest.raises(TypeError, match="registry fault"):
        A.algebra_from_dict(_payload(FAN_MEET))


def _chain_payload(n):
    """A payload over the trivial group whose meet table is the chain 0 < 1 < ... < n - 1."""
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    return {"group": {"orders": [1]}, "carrier": list(map(str, range(n))), "meet": meet, "action": [range(n)]}


def test_loaded_tables_leave_least_recently_used_first(loaded):
    assert A.LOADED_ROWS == 64
    # an algebra for each size 1..64, then one of size 1 again: the first is a
    # hit and becomes the most recently used, so the 65th algebra evicts size 2
    kept = [A.algebra_from_dict(_chain_payload(n)) for n in range(1, 65)]
    assert A.algebra_from_dict(_chain_payload(1)) is kept[0]
    assert loaded().currsize == 64 and loaded().hits == 1
    newcomer = A.algebra_from_dict({**_chain_payload(2), "meet": [[0, 1], [1, 1]]})
    # size 2 left for the newcomer; loaded anew, it evicts size 3
    assert A.algebra_from_dict(_chain_payload(2)) is not kept[1]
    for algebra in (kept[0], newcomer, *kept[3:]):
        assert A.algebra_from_dict(A.algebra_to_dict(algebra)) is algebra
    # an algebra of more than LOADED_ROWS elements is returned as loaded and never kept
    before = loaded()
    large = A.algebra_from_dict(_chain_payload(65))
    assert A.algebra_from_dict(_chain_payload(65)) is not large
    assert loaded()[:2] == before[:2]


@pytest.mark.parametrize("exact_first", [True, False], ids=["exact-first", "other-first"])
def test_entries_equal_under_eq_never_reach_a_memo(loaded, exact_first):
    # (True, ...) == (1, ...) == (1.0, ...), and an action or a table holding
    # True or 1.0 equals the all-int one: check_shape refuses each payload
    # with its message before the kept algebras are looked up, whether the
    # all-int algebra was kept before or after, and none is kept; an action
    # of int subclasses passes as before
    data = A.algebra_to_dict(fan5())
    x = data["action"][0].index(1)
    refused = []
    for one in (True, 1.0):
        action, meet = json.loads(json.dumps(data["action"])), json.loads(json.dumps(data["meet"]))
        action[0][x] = meet[1][1] = one
        assert action == data["action"] and meet == data["meet"]
        refused += [
            ({**data, "action": action}, "action table is not a carrier permutation"),
            ({**data, "meet": meet}, f"meet entry {one!r} is not an index below 5"),
        ]
    kept = A.algebra_from_dict(data) if exact_first else None
    for payload, message in refused:
        for _ in range(2):
            with pytest.raises(A.ShapeError, match=f"^{re.escape(message)}$"):
                A.algebra_from_dict(payload)
    assert loaded()[:2] == (0, int(exact_first))
    algebra = A.algebra_from_dict(data)
    assert algebra.validation.ok and (kept is None or algebra is kept) and loaded().currsize == 1
    subclass = {**data, "action": [list(map(Index, p)) for p in data["action"]]}
    plain = A.FSemilattice(algebra.group, algebra.carrier, algebra.meet, subclass["action"])
    assert A.algebra_from_dict(subclass).validation == reference_validate_axioms(plain) == A.ValidationReport(True)


def test_validate_matches_reference_with_warm_memos(loaded):
    # random actions over the fan tables and over random tables: each report
    # equals the reference's, axiom, witness and detail, also where a
    # permutation fails the cover, commutation or order check.  Each payload
    # is loaded twice, so the second load is the kept algebra, its report
    # cached; shuffled atoms keep the covers, shuffled points mostly do not
    rng = random.Random(5151)
    pools, tables = {}, {}
    for spec in G.all_group_specs(16):
        for sub in G.subgroups(spec):
            fan = C.maroti(spec, sub)
            pools.setdefault(fan.size, set()).update(fan.action)
            tables.setdefault(fan.size, fan.meet)
    bases = [A.FSemilattice(G.make_group([1]), [str(x) for x in range(n)], tables[n], [range(n)]) for n in tables]
    for orders in ([2], [4], [2, 2], [6]):
        bases += random_semilattices(rng, G.make_group(orders), 15)
    axioms = []
    for base in bases * 10:
        n = base.size
        pool = sorted(pools.get(n, set()) | set(base.action))
        atoms = [x for x in range(n) if x != A.zero(base)]
        action = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.6:
                action.append(rng.choice(pool))
            elif kind < 0.8 and base.meet == tables.get(n):
                shuffled = dict(zip(atoms, rng.sample(atoms, len(atoms))))
                action.append([shuffled.get(x, x) for x in range(n)])
            else:
                action.append(rng.sample(range(n), n))
        orders = [rng.choice([0, 1, 2, 3, 4, 6, 12]) for _ in action]
        algebra = A.FSemilattice(G.make_group(orders), base.carrier, base.meet, action)
        want = reference_validate_axioms(algebra)
        assert A.validate_axioms(algebra) == want, algebra
        data = A.algebra_to_dict(algebra)
        first, second = (A.algebra_from_dict(json.loads(json.dumps(data))) for _ in range(2))
        assert first.validation == want and second is first, algebra
        assert [A.perm_order(list(p)) for p in algebra.action] == list(map(reference_perm_order, algebra.action))
        axioms.append(want.axiom)
    counts = {axiom: axioms.count(axiom) for axiom in set(axioms)}
    assert set(counts) == {None, "action-automorphism", "action-commutation", "action-order"}, counts
    assert min(counts.values()) > 20, counts


def test_validate_matches_reference_on_mutated_payloads(loaded):
    # a seeded boundary differential: valid payloads with 1-3 random edits to
    # the carrier, the meet table, the action or one of their rows, each an
    # entry deleted, duplicated, swapped or replaced by a junk value or an
    # index.  The library, loaded or built directly, and the reference raise
    # the same ShapeError message or return the same report; a payload whose
    # rows are not arrays is refused as malformed
    rng = random.Random(4000)
    bases = [fan5(), maroti_z2(), maroti_z4_h(), C.a_k(3), C.counterexample_a7(), C.two_element(Z2xZ2)]
    outcomes = []
    for _ in range(2000):
        base = rng.choice(bases)
        data = json.loads(json.dumps(A.algebra_to_dict(base)))
        n = len(data["carrier"])
        for _ in range(rng.randint(1, 3)):
            table = data[rng.choices(["carrier", "meet", "action"], [1, 3, 2])[0]]
            targets = [row for row in (table, *table) if isinstance(row, list) and row]
            target = rng.choice(targets or [[None]])
            i, j, kind = rng.randrange(len(target)), rng.randrange(len(target)), rng.random()
            if kind < 0.15:
                del target[i]
            elif kind < 0.3:
                target.insert(i, copy.copy(target[i]))
            elif kind < 0.5:
                target[i], target[j] = target[j], target[i]
            else:
                junk = [None, True, False, 1.0, Index(1), "1", "o", 2**70, -1, n]
                target[i] = rng.choice(junk + [rng.randrange(n)] * 4)
        try:
            algebra = A.FSemilattice(base.group, data["carrier"], data["meet"], data["action"])
        except TypeError:
            with pytest.raises(A.ShapeError, match="^malformed algebra payload: "):
                A.algebra_from_dict(data)
            outcomes.append("malformed")
            continue
        results = [_outcome(algebra), _outcome(algebra, reference_validate_axioms),
                   _outcome(data, lambda payload: A.algebra_from_dict(payload).validation)]
        assert results[0] == results[1] == results[2], data
        outcomes.append(results[0] if isinstance(results[0], str) else results[0].axiom)
    counts = {outcome: outcomes.count(outcome) for outcome in set(outcomes)}
    assert len(counts) > 40 and min(counts[None], counts["malformed"]) > 20, counts
    assert {"meet-idempotence", "meet-commutativity", "action-automorphism", "action-order"} <= set(counts)


def test_validate_axioms_caches_no_report():
    # validate_axioms caches no report: validating a valid action and
    # actions failing the cover, commutation and order checks on one table
    # leaves each algebra its facts about the table, and no report
    fan = fan5()
    meet = [list(row) for row in fan.meet]
    actions = [fan.action, ((4, 1, 2, 3, 0), (1, 0, 3, 2, 4)), ((1, 0, 2, 3, 4), (1, 2, 0, 3, 4)),
               ((1, 2, 0, 3, 4), (0, 1, 2, 3, 4))]
    reports = []
    for action in actions * 2:
        algebra = A.FSemilattice(fan.group, fan.carrier, meet, action)
        reports.append(A.validate_axioms(algebra))
        assert reports[-1] == reference_validate_axioms(algebra) and "validation" not in vars(algebra)
        assert set(vars(algebra)) == {"exact", "down_sets", "covers"}
    assert [report.axiom for report in reports] == [
        None, "action-automorphism", "action-commutation", "action-order"
    ] * 2


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


def test_is_isomorphism_matches_reference():
    # on fans and twisted multiples of groups of order <= 8: each group
    # element's permutation (an automorphism, F being abelian), random
    # bijections and maps that repeat a point, also between two algebras
    rng = random.Random(2718)
    algebras = [
        build(spec, sub) for spec in G.all_group_specs(8) for sub in G.subgroups(spec) if sub.is_proper
        for build in (C.maroti, C.twisted_multiple)
    ]
    verdicts = []
    for source in algebras:
        n = source.size
        targets = [source] + [t for t in rng.sample(algebras, 4) if t.size == n]
        maps = [A.element_action(source, g) for g in source.group.elements()]
        maps += [tuple(rng.sample(range(n), n)) for _ in range(4)]
        maps += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)]
        for target in targets:
            for f in maps:
                hom = A.Homomorphism(source, target, f)
                verdicts.append(A.is_isomorphism(hom))
                assert verdicts[-1] == reference_is_isomorphism(hom), (source, target, f)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


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
    twisted_chain = C.twisted_multiple(Z4, h, C.chain2_factor(Z4, h))  # not simple
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
    # every clash witness is also checked by its defining property, with
    # the reference action: its terms agree at x = a in the source and
    # differ at x = b in the target
    kinds = set()
    clashes = 0
    for algebras in _fans_opposites_and_a7(8).values():
        for src in algebras:
            for dst in algebras:
                for a in range(src.size):
                    for b in range(dst.size):
                        got = _hom_extend_outcome(A.hom_extend, src, a, dst, b)
                        want = _hom_extend_outcome(reference_hom_extend, src, a, dst, b)
                        assert got == want, (src, a, dst, b)
                        kinds.add(got if isinstance(got, type) else got[0])
                        if not isinstance(got, type) and not got[0]:
                            s, t = got[2]
                            assert reference_eval_unary(src, s, a) == reference_eval_unary(src, t, a)
                            assert reference_eval_unary(dst, s, b) != reference_eval_unary(dst, t, b)
                            clashes += 1
    # the cases cover extensions, conflicts and non-generating sources
    assert kinds == {True, False, A.NotGeneratedError} and clashes > 100, clashes


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


def _derive_unabridged(algebra, a):
    """``derive`` without its early stop: every element reached is moved
    and met to the end of the order."""
    seen = {a}
    order, steps = [a], []
    for i, x in enumerate(order):
        reached = [(p[x], ("move", i, k)) for k, p in enumerate(algebra.action)]
        for z, step in reached + [(algebra.meet[x][order[j]], ("meet", i, j)) for j in range(i + 1)]:
            if z not in seen:
                seen.add(z)
                order.append(z)
                steps.append(step)
    return order, steps


def test_derive_stops_early_with_the_unabridged_result():
    # once every element is reached no step adds one, so stopping there
    # keeps the order and the steps; from a non-generating element the walk
    # runs to its end
    cases = [C.maroti(spec, sub) for spec in G.all_group_specs(16) for sub in G.subgroups(spec)]
    cases += free_quotients(5)
    generating = []
    for algebra in cases:
        for a in range(algebra.size):
            derivation = A.derive(algebra, a)
            assert derivation == _derive_unabridged(algebra, a), (algebra, a)
            generating.append(len(derivation[0]) == algebra.size)
    assert generating.count(True) > 1000 and generating.count(False) > 400


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
