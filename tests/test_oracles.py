"""The oracles in ``oracles.py`` compute by their own brute force: the
library names they import are data types, records, error classes and the
helpers not yet replaced, and the list may only shrink."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")

ALLOWED = {
    "fslat.algebras": {
        "Congruence", "FSemilattice", "HomExtendResult", "Homomorphism", "NotGeneratedError", "Perm", "ShapeError",
        "Term", "ValidationReport", "meet_terms", "var",
    },
    "fslat.constructions": {"VerificationError"},
    "fslat.groups": {
        "Element", "GroupSpec", "InfiniteGroupError", "NotASubgroupError", "Subgroup", "Transversal", "elementary",
        "format_element", "identity", "inv", "mul", "presentation", "reduce_element",
    },
    "fslat.irrationals": {"QuadraticIrrational", "compare_values", "compare_with_rational"},
    "fslat.quasivar": {"DecompositionResult", "MinimalityVerdict", "QuasiIdentity", "make_quasi_identity"},
}


def test_oracles_import_no_library_name_outside_the_allow_list():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, "*") for alias in node.names if alias.name.split(".")[0] == "fslat"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fslat":
            imported |= {(node.module, alias.name) for alias in node.names}
    outside = {(module, name) for module, name in imported if name not in ALLOWED.get(module, ())}
    assert not outside, sorted(outside)
    assert ("fslat.algebras", "ShapeError") in imported  # the walk sees the imports
