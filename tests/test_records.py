"""Every record in ``fslat`` is a ``typing.NamedTuple`` that keeps the
fields, defaults, ``repr``, equality, hashing and immutability it had as a
frozen dataclass.  ``GroupSpec``, ``Term``, ``QuadraticIrrational`` and
``FSemilattice`` also keep the checks and normalisation of their
constructors, and ``fslat`` imports no ``dataclasses``.  The package
re-exports nothing, so importing one module loads only what that module
uses."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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
    G.Subgroup: (("parent", "elements"), {}),
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
    Q.BijectionEntry: (("subgroup", "algebra_size", "is_proper", "minimal", "stabilizer_ok"), {}),
    Q.BijectionReport: (("group", "entries", "pairwise_distinct"), {}),
    Q.DecompositionResult: (
        ("subgroup", "factor", "reconstruction", "iso"),
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


def test_no_class_in_fslat_is_a_dataclass():
    modules = [
        importlib.import_module(f"fslat.{info.name}")
        for info in pkgutil.iter_modules(fslat.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    assert {A.FSemilattice, G.GroupSpec, A.Term, I.QuadraticIrrational} <= set(classes)
    assert [kind.__name__ for kind in classes if hasattr(kind, "__dataclass_fields__")] == []


def _fresh_stdout(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports fslat from ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    return done.stdout


def test_importing_the_cli_leaves_out_dataclasses():
    # in a fresh interpreter: pytest itself imports both modules
    code = "import sys, fslat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh_stdout(code) == "[]\n"


@pytest.mark.parametrize(
    "module, loaded",
    [("fslat", ["fslat"]), ("fslat.irrationals", ["fslat", "fslat.groups", "fslat.irrationals"])],
)
def test_importing_a_module_loads_only_what_it_uses(module, loaded):
    # in a fresh interpreter: the package re-exports nothing, so importing
    # one module leaves the others unloaded
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'fslat'))"
    assert _fresh_stdout(code) == f"{loaded}\n"


def _four():
    """One instance of each class that checks or normalises its fields."""
    group = G.make_group([2])
    fan = A.FSemilattice(group, ["a", "b", "o"], [[0, 2, 2], [2, 1, 2], [2, 2, 2]], [[1, 0, 2]])
    term = A.meet_terms(A.var("x", group), A.translate_term(group, (1,), A.var("y", group)))
    return [group, fan, term, I.QuadraticIrrational(2, -4, -6, 2)]


FOUR_REPRS = [
    "GroupSpec(orders=(2,))",
    "FSemilattice(group=GroupSpec(orders=(2,)), carrier=('a', 'b', 'o'), "
    "meet=((0, 2, 2), (2, 1, 2), (2, 2, 2)), action=((1, 0, 2),))",
    None,  # a frozenset's order is the hash order of its members
    "QuadraticIrrational(p=-1, q=2, r=3, d=2)",
]


@pytest.mark.parametrize("value, text", zip(_four(), FOUR_REPRS), ids=lambda v: type(v).__name__)
def test_checked_records_keep_their_dataclass_behaviour(value, text):
    kind = type(value)
    fields = tuple(getattr(value, name) for name in kind._fields)
    if text is None:
        text = f"{kind.__name__}(pairs={value.pairs!r})"
    assert repr(value) == text
    assert value == fields and hash(value) == hash(fields)
    copy = kind(*fields)
    assert copy == value and copy is not value and hash(copy) == hash(value)
    for name in kind._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    if kind is A.FSemilattice:
        value.extra = None  # cached facts live in the instance's __dict__
    else:
        with pytest.raises(AttributeError):
            value.extra = None


def test_constructors_normalise_their_fields():
    group, fan, term, alpha = _four()
    assert type(group.orders) is tuple and str(group) == "C2"
    assert type(fan.carrier) is tuple and type(fan.meet) is tuple and type(fan.meet[0]) is tuple
    assert type(fan.action) is tuple and type(fan.action[0]) is tuple
    assert type(term.pairs) is frozenset and term.variables == ("x", "y")
    assert A.Term([((0,), "x"), ((0,), "x")]).pairs == frozenset({((0,), "x")})
    # the sign goes to the numerator and gcd(p, q, r) = 1
    assert tuple(alpha) == (-1, 2, 3, 2) and str(alpha) == "(-1+2*sqrt:2)/3"
    assert I.QuadraticIrrational(6, 3, 9, 5) == (2, 1, 3, 5)
    assert I.QuadraticIrrational(0, -2, -2, 3) == I.sqrt_of(3) and str(I.sqrt_of(3)) == "sqrt:3"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: G.GroupSpec([]), "need at least one cyclic factor; use [1] for the trivial group"),
        (lambda: G.GroupSpec([2, -1]), "factor orders must be integers >= 0, got -1"),
        (lambda: G.make_group([True]), "factor orders must be integers >= 0, got True"),
        (lambda: G.GroupSpec((2.0,)), "factor orders must be integers >= 0, got 2.0"),
        (lambda: A.Term(frozenset()), "a term is a meet over a nonempty set of translated variables"),
        (lambda: I.QuadraticIrrational(1, 0, 1, 2), "q = 0 would make the value rational"),
        (lambda: I.QuadraticIrrational(1, 1, 0, 2), "zero denominator"),
        (lambda: I.QuadraticIrrational(0, 1, 1, 10**9 + 7), "radicand 1000000007 exceeds 1000000000"),
        (lambda: I.QuadraticIrrational(0, 1, 1, 12), "radicand 12 must be square-free and >= 2"),
        (lambda: I.sqrt_of(1), "radicand 1 must be square-free and >= 2"),
    ],
)
def test_checked_records_refuse_bad_fields(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_semilattice_tables_are_cached():
    fan = _four()[1]
    assert fan.validation.ok and fan.validation is fan.validation
    assert "validation" in vars(fan)
