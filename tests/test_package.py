"""The package as a process sees it: `import se3sym` loads nothing until a
name is used, and a CLI process runs numpy's BLAS on one thread unless the
caller chose otherwise, with the same answers either way.  Plain records are
NamedTuples, so importing the package runs no generated dataclass code."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = [
    "AdjointWord", "AlgebraElement", "BASIS", "Claim", "ClaimsReport", "DependentBasisError",
    "FlowResult", "JetPolynomial", "OneDimBatch", "OneDimRepresentative", "PointVectorField",
    "SE3", "ScalarField", "ScrewForm", "SourceTerm", "StructureConstants", "SubalgebraBasis",
    "TowerError", "TrigPoly", "TrigPolyMatrix", "X1", "X2", "X3", "X4", "X5", "X6", "ad_matrix",
    "adjoint", "adjoint_closed_form", "adjoint_series", "algebra", "apply_word",
    "automorphism_defect", "bracket", "canonicalize_screw", "claims", "claims_report",
    "classify_1d_many", "classify_1d_paper", "closure_check", "commutator_table",
    "defining_equations", "equivalence_search", "flow", "flow_vs_closed_form", "in_span",
    "invariance_residual", "jets", "linalg", "optimal", "pde_residual", "poly",
    "rigid_motion", "second_prolongation", "solutions", "solve_phi_for_xi", "transform_solution",
    "verify_2d_list", "verify_3d_4d", "verify_invariance",
]  # fmt: skip


def _python(*args, threads=None, status=0):
    """Stdout of python run with se3sym on its path and OPENBLAS_NUM_THREADS
    set to threads, or left out of the environment where threads is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == status, result.stderr
    return result.stdout


def test_import_loads_no_submodule_and_no_numpy():
    out = _python(
        "-c",
        "import sys, se3sym\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('se3sym.')))",
    )
    assert out == "[]\n"


def test_exports_resolve_on_use():
    code = (
        "import se3sym\n"
        "from se3sym import claims_report\n"
        "from se3sym.claims import claims_report as original\n"
        "assert claims_report is original\n"
        "print(sorted(se3sym.__all__))\n"
        "for name in se3sym.__all__:\n"
        "    getattr(se3sym, name)\n"
        "try:\n"
        "    se3sym.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    names, error = _python("-c", code).splitlines()
    assert names == repr(EXPORTS)
    assert error == "module 'se3sym' has no attribute 'no_such_name'"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_process_runs_one_thread():
    out = _python("-c", "import se3sym.cli, os; print(len(os.listdir('/proc/self/task')))")
    assert out == "1\n"


def test_a_thread_count_set_by_the_caller_is_kept():
    out = _python("-c", "import se3sym.cli, os; print(os.environ['OPENBLAS_NUM_THREADS'])", threads="2")
    assert out == "2\n"


def test_claims_report_does_not_depend_on_blas_threads():
    # exit status 1: the report grades some published claims as discrepant
    args = ("-m", "se3sym", "check-claims", "--samples", "2000", "--seed", "42")
    assert _python(*args, threads="2", status=1) == _python(*args, status=1)



LAYERS = ("adjoint", "algebra", "claims", "cli", "jets", "linalg", "optimal", "poly", "solutions")

RECORDS = {
    "Claim", "ClaimsReport", "ClosureVerdict", "ClosureWitness", "FlowResult",
    "HyperplaneCertificate", "HyperplaneScan", "OneDimBatch", "OneDimRepresentative",
    "PhiSolutionSpace", "Prolongation", "ScalarField", "ScrewForm", "SolutionChecks",
    "SourceTerm", "StructureConstants", "SubalgebraVerdict", "TableVerdict", "TrigPolyMatrix",
}  # fmt: skip


def _classes():
    for layer in LAYERS:
        module = importlib.import_module(f"se3sym.{layer}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_only_validated_classes_are_dataclasses():
    # a dataclass execs generated methods at import; plain records are
    # NamedTuples, and a dataclass is kept only where __post_init__ validates
    dataclasses = [cls for cls in _classes() if "__dataclass_fields__" in vars(cls)]
    assert {cls.__name__ for cls in dataclasses} == {
        "AdjointWord", "AlgebraElement", "PointVectorField", "SubalgebraBasis",
    }
    for cls in dataclasses:
        assert "__post_init__" in vars(cls), cls.__qualname__
    named_tuples = {cls.__name__ for cls in _classes() if issubclass(cls, tuple)}
    assert RECORDS <= named_tuples


def test_records_are_immutable_and_compare_by_value():
    from se3sym.algebra import X1, X2, ClosureVerdict, ClosureWitness
    from se3sym.optimal import HyperplaneScan

    cases = [
        (ClosureVerdict(False, ClosureWitness(0, 4, X1)), ClosureVerdict(False, ClosureWitness(0, 4, X1)),
         ClosureVerdict(False, ClosureWitness(0, 4, X2))),
        (HyperplaneScan(5, 7, 0.25, None), HyperplaneScan(5, 7, 0.25, None),
         HyperplaneScan(5, 7, 0.5, None)),
    ]  # fmt: skip
    for record, same, other in cases:
        assert record == same and hash(record) == hash(same)
        assert record != other
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1
