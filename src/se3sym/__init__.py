"""Verification engine for the rigid-motion symmetries of the nonlinear
Poisson equation and the subalgebra classification of se(3)."""

from .algebra import (
    BASIS,
    SE3,
    AlgebraElement,
    DependentBasisError,
    StructureConstants,
    SubalgebraBasis,
    TowerError,
    X1,
    X2,
    X3,
    X4,
    X5,
    X6,
    bracket,
    closure_check,
    commutator_table,
    in_span,
    jacobi_defect,
)
from .adjoint import (
    AdjointWord,
    TrigPoly,
    TrigPolyMatrix,
    ad_matrix,
    adjoint_closed_form,
    adjoint_series,
    apply_word,
    automorphism_defect,
)
from .optimal import (
    OneDimBatch,
    OneDimRepresentative,
    ScrewForm,
    canonicalize_screw,
    classify_1d_many,
    classify_1d_paper,
    equivalence_search,
    verify_2d_list,
    verify_3d_4d,
)
from .jets import (
    JetPolynomial,
    PointVectorField,
    defining_equations,
    invariance_residual,
    second_prolongation,
    solve_phi_for_xi,
)
from .solutions import (
    FlowResult,
    ScalarField,
    SourceTerm,
    flow,
    flow_vs_closed_form,
    pde_residual,
    rigid_motion,
    transform_solution,
    verify_invariance,
)
from .claims import Claim, ClaimsReport, claims_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
