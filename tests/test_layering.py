"""Module boundaries that a refactor could erode without any test failing."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stabreg

CLI = Path(__file__).resolve().parents[1] / "src" / "stabreg" / "cli.py"


def test_cli_imports_no_private_name_from_stabreg():
    private = []
    for node in ast.walk(ast.parse(CLI.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "stabreg"
        ):
            private += [alias.name for alias in node.names
                        if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


@pytest.mark.parametrize("module", ["stabreg"] + [
    f"stabreg.{info.name}" for info in pkgutil.iter_modules(stabreg.__path__)
])
def test_every_exported_name_resolves(module):
    # a stale export of a deleted name fails only at `from stabreg import *`
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


# the package's names before each module's __all__ became the one list;
# a refactor may add public names, never drop one of these
_PUBLIC_NAMES = [
    "__version__", "StabregError", "InvalidPartitionSize", "InvalidStabilityInput",
    "InvalidConfidence", "InvalidInstance", "ZeroDegreeVertex", "NotSymmetric",
    "ZeroConstraintVector", "GraphDisconnected", "ZeroRowSum", "SingularSystem",
    "NonFiniteMatrix", "ConstraintSpansNullSpace", "NotPSDKernel", "PseudoTargetUnavailable",
    "BoundDiverges", "EmptyNeighborhood", "NoFeasibleRadius", "NoSweepData", "ParseError",
    "ZeroVarianceFeature", "FullSample", "Partition", "sample_partition", "empirical_error",
    "test_error", "overall_error", "score_to_cost_stability", "enumerate_swaps", "apply_swap",
    "GraphSpec", "SpectrumSummary", "laplacian", "normalized_laplacian", "spectrum",
    "pseudo_inverse", "is_connected", "diameter", "row_normalize", "gaussian_affinity",
    "load_edge_list", "save_edge_list", "alpha", "BoundReport", "generalization_bound",
    "ConcentrationResult", "concentration_harness", "LocalEstimatorConfig", "KernelSystem",
    "QuadraticSystem", "solve_unconstrained", "stabilize", "solve_constrained",
    "gaussian_kernel", "pseudo_targets", "solve_ltr", "solve_krr_induction",
    "ltr_stability_bound", "unconstrained_score_bound", "cm_score_bound", "llreg_score_bound",
    "llreg_score_bound_spectral", "belkin_score_stability", "belkin_cost_stability",
    "beta_loc_bound", "beta_loc_gaussian", "beta_loc_invdist", "EmpiricalStabilityReport",
    "empirical_stability", "cm_lower_bound_instance", "cm_lower_bound_demo",
]


def test_package_exports_each_module_list_once_in_import_order():
    modules = ("errors", "core", "graph", "bounds", "regressors", "stability")
    want = ["__version__"]
    for name in modules:
        want += importlib.import_module(f"stabreg.{name}").__all__
    assert stabreg.__all__ == want
    assert len(set(want)) == len(want)
    assert [name for name in _PUBLIC_NAMES if name not in want] == []
