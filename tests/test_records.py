"""The result records are ``typing.NamedTuple``s that keep the fields,
defaults, ``repr``, equality, hashing and immutability they had as frozen
dataclasses; four classes that need more stay dataclasses."""

import importlib
import pkgutil

import pytest

import fslat
from fslat import algebras as A
from fslat import constructions as C
from fslat import groups as G
from fslat import irrationals as I
from fslat import quasivar as Q

# Each record's fields, in order, and defaults as the frozen dataclasses
# declared them.
OLD_FIELDS = {
    A.ValidationReport: (
        ("ok", "axiom", "witness", "detail"),
        {"axiom": None, "witness": None, "detail": ""},
    ),
    A.Homomorphism: (("source", "target", "map"), {}),
    A.HomExtendResult: (("hom", "conflict"), {}),
    A.Congruence: (("algebra", "blocks"), {}),
    G.Subgroup: (("parent", "elements", "generators"), {}),
    G.Transversal: (("parent", "subgroup", "reps"), {}),
    G.SubgroupPresentation: (("spec", "generators"), {}),
    I.IdentityCertificate: (("alpha", "holds", "a", "b", "d", "a_squared", "b_squared_d"), {}),
    I.SeparationReport: (
        (
            "p",
            "q",
            "alpha_certificate",
            "beta_certificate",
            "alpha_samples",
            "beta_samples",
            "witness",
        ),
        {},
    ),
    Q.QuasiIdentity: (("premises", "conclusion", "variables"), {}),
    Q.MinimalityVerdict: (("minimal", "counterexample", "checked"), {}),
    Q.StabilizerImage: (("image", "stabilizer"), {}),
    Q.BijectionEntry: (("subgroup", "algebra_size", "is_proper", "minimal", "stabilizer_ok"), {}),
    Q.BijectionReport: (("group", "entries", "pairwise_distinct"), {}),
    Q.DecompositionResult: (
        ("subgroup", "factor", "factor_generators", "reconstruction", "iso"),
        {},
    ),
    Q.QuotientExclusion: (("blocks", "excluded", "witness"), {}),
    Q.SimplicityReport: (("congruence_count", "simple", "qi", "exclusions"), {}),
}

# Records holding a dict (a failing valuation) hash their fields, which
# raises TypeError, as the frozen dataclasses did.
UNHASHABLE = {Q.QuotientExclusion}


def _records():
    """One instance of each record, each from a library call."""
    c2x4 = G.make_group([2, 4])
    bijection = Q.verify_bijection(c2x4)
    entry = bijection.entries[1]
    sub = entry.subgroup
    fan = C.maroti(c2x4, sub)
    decomposition = Q.decompose_ku(fan, 0)
    simplicity = Q.simplicity_and_quotient_report(fan, 0)

    # a ^ b = a but b ^ a = b
    broken = A.FSemilattice(G.make_group([1]), ("a", "b"), ((0, 0), (1, 1)), ((0, 1),))
    a7 = C.counterexample_a7()
    p_sub, _ = A.subalgebra_generated(a7, a7.index("p"))
    clash = A.hom_extend(p_sub, p_sub.index("p"), a7, 0)

    # fans are simple, so the report's exclusions are empty: the exclusion
    # is built as the report builds one, on a quotient of P+(C2 x C2) that
    # fails the separating quasi-identity of the fan over {0}
    c2x2 = G.make_group([2, 2])
    qi = Q.separating_quasi_identity(C.maroti(c2x2, G.trivial_subgroup(c2x2)), 0)
    free = C.free_one_generated(c2x2)
    for cong in A.congruences(free):
        holds, witness = Q.holds_quasi_identity(A.quotient(free, cong), qi)
        if not holds:
            break
    exclusion = Q.QuotientExclusion(cong.blocks, not holds, witness)

    alpha, beta = I.sqrt_of(2), I.sqrt_of(3)
    separation = I.check_separating_identity(alpha, beta, *I.rational_between(alpha, beta), 4)
    records = [
        bijection,
        entry,
        sub,
        decomposition,
        decomposition.iso,
        simplicity,
        simplicity.qi,
        exclusion,
        A.validate_axioms(broken),
        clash,
        A.congruences(fan)[0],
        Q.is_minimal_free(fan, 0),
        Q.stabilizer_image(fan, 0),
        separation,
        separation.alpha_certificate,
        G.presentation(c2x4, sub),
        G.transversal(c2x4, sub),
    ]
    return {type(record): record for record in records}


RECORDS = _records()


def test_every_record_kind_is_drawn_from_a_call():
    assert set(RECORDS) == set(OLD_FIELDS)
    report = RECORDS[A.ValidationReport]
    assert not report.ok and report.axiom == "meet-commutativity"
    clash = RECORDS[A.HomExtendResult]
    assert not clash.ok and clash.conflict is not None
    exclusion = RECORDS[Q.QuotientExclusion]
    assert exclusion.excluded and exclusion.witness


@pytest.mark.parametrize("record", RECORDS.values(), ids=lambda r: type(r).__name__)
def test_record_keeps_its_dataclass_behaviour(record):
    kind = type(record)
    fields, defaults = OLD_FIELDS[kind]
    assert kind._fields == fields
    assert kind._field_defaults == defaults
    values = [getattr(record, name) for name in fields]
    assert repr(record) == kind.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)
    ) + ")"
    copy = kind(*values)
    assert copy == record and copy is not record
    assert copy == tuple(values)  # a NamedTuple equals the plain tuple of its fields
    if kind in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_subgroup_contains_tests_element_membership():
    sub = RECORDS[G.Subgroup]
    assert sub.elements == ((0, 0), (0, 2))
    assert all(e in sub for e in sub.elements)
    assert (0, 1) not in sub and (1, 0) not in sub
    # membership is of elements, not of the record's fields
    assert sub.parent not in sub and sub.elements not in sub


def test_only_four_classes_stay_dataclasses():
    # GroupSpec, Term and QuadraticIrrational normalise or validate in
    # __post_init__; FSemilattice keeps cached_property tables in __dict__
    found = set()
    for info in pkgutil.iter_modules(fslat.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"fslat.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if "__dataclass_fields__" in vars(value):
                    found.add(value.__name__)
    assert found == {"GroupSpec", "Term", "FSemilattice", "QuadraticIrrational"}
