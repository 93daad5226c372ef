"""Semilattices over abelian groups, with exact desk-scale verification tools."""

from .groups import (
    GroupSpec,
    Subgroup,
    SubgroupPresentation,
    Transversal,
    all_group_specs,
    cosets,
    identity,
    inv,
    make_group,
    make_transversal,
    mul,
    presentation,
    subgroup_from_elements,
    subgroups,
    transversal,
)
from .algebras import (
    Congruence,
    FSemilattice,
    Homomorphism,
    InvalidAlgebraError,
    Term,
    act,
    atoms,
    congruences,
    cover_edges,
    hom_extend,
    quotient,
    subalgebra_generated,
    validate_axioms,
    zero,
)
from .constructions import (
    a_k,
    chain2_factor,
    counterexample_a7,
    free_one_generated,
    maroti,
    transversal_independence_check,
    trivial_factor,
    twisted_multiple,
    two_element,
)
from .quasivar import (
    QuasiIdentity,
    decompose_ku,
    delta_map,
    eval_term,
    holds_quasi_identity,
    is_minimal_free,
    parse_quasi_identity,
    separating_quasi_identity,
    simplicity_and_quotient_report,
    stabilizer,
    verify_bijection,
)
from .irrationals import (
    BAlphaElement,
    QuadraticIrrational,
    check_separating_identity,
    parse_irrational,
    rational_between,
    sqrt_of,
)

__version__ = "0.1.0"
