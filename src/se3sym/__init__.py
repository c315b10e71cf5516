"""Verification engine for the rigid-motion symmetries of the nonlinear
Poisson equation and the subalgebra classification of se(3).

Importing the package loads nothing: each exported name is looked up in its
submodule when it is first used (PEP 562), and read again on every use, so
it always is the submodule's current attribute.
"""

import importlib

# submodule -> the names exported from it; the submodules are exported too
_EXPORTS = {
    "algebra": "BASIS SE3 AlgebraElement DependentBasisError StructureConstants SubalgebraBasis "
    "TowerError X1 X2 X3 X4 X5 X6 bracket closure_check commutator_table in_span",
    "adjoint": "AdjointWord TrigPoly TrigPolyMatrix ad_matrix adjoint_closed_form adjoint_series "
    "apply_word automorphism_defect",
    "optimal": "OneDimBatch OneDimRepresentative ScrewForm canonicalize_screw classify_1d_many "
    "classify_1d_paper equivalence_search verify_2d_list verify_3d_4d",
    "jets": "JetPolynomial PointVectorField defining_equations invariance_residual "
    "second_prolongation solve_phi_for_xi",
    "solutions": "FlowResult ScalarField SourceTerm flow flow_vs_closed_form pde_residual "
    "rigid_motion transform_solution verify_invariance",
    "claims": "Claim ClaimsReport claims_report",
    "linalg": "",
    "poly": "",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
