"""The library's public surface, pinned.

Each module's ``__all__`` must resolve and must match the lists below,
so that a stale export, or a helper that only the tests need, shows up as
a change to this file.  ``scolab`` re-exports six of those lists, in
order, and nothing else.  The same holds for the fields of every public
result type.  ``reporting`` only writes bytes: each CLI command builds its
own header and rows, so that module imports no other part of ``scolab``.
"""

import ast
import dataclasses
import importlib
import types
from pathlib import Path

import pytest

import scolab

MODULE_ALL = {
    "cli": ["main", "parse_and_dispatch"],
    "core": ["Rng", "as_vector", "as_matrix", "project_ball"],
    "experiments": [
        "TrackingRow", "OptimizationRow", "ExcessRow", "tracking_study", "optimization_study", "excess_risk_study", "fit_loglog_slope",
    ],
    "optimizer": ["Variant", "OptimizerConfig", "Trajectory", "run", "schedule_preset"],
    "oracle": [
        "MinimizerCertificate", "erm_minimizer", "population_minimizer", "tracking_bound",
        "fd_gradient_check",
    ],
    "problems": [
        "Dataset", "PopulationLaw", "BoundParams", "sample_dataset", "empirical_inner",
        "empirical_risk", "empirical_risk_grad", "population_risk", "compute_constants",
        "benchmark_law",
    ],
    "reporting": ["format_value", "emit_csv", "read_csv", "emit_svg"],
    "stability": [
        "StabilityEstimate", "GapReport", "make_neighbor", "coupled_run", "estimate_stability",
        "check_generalization_inequality",
    ],
    "trust_region": [],
}

# The modules whose ``__all__`` the package re-exports, in ``scolab.__all__``'s order.
PACKAGE_MODULES = ["core", "experiments", "optimizer", "oracle", "problems", "stability"]


# Every field of a public result type, in order, keyed by "module.Type".
# A field earns its place by having a reader in src/, perfbench/ or the
# acceptance criteria, or by being hashed by a sha256 pin.
RESULT_FIELDS = {
    "optimizer.Trajectory": [
        "stored_steps", "iterates", "last", "uniform_avg", "final_output",
        "tracking_sq_errors",
    ],
    "stability.StabilityEstimate": ["eps_nu", "eps_nu_se", "eps_omega", "eps_omega_se"],
    "stability.GapReport": [
        "gap_mean", "gap_se", "eps_nu", "eps_nu_se", "eps_omega", "eps_omega_se", "lip_f",
        "lip_g", "variance_term", "rhs", "combined_se", "holds",
    ],
    "problems.BoundParams": ["lip_f", "lip_g", "smooth_l", "sigma", "var_g", "d_y"],
    "oracle.MinimizerCertificate": ["x_star", "value", "method", "kkt_residual"],
    "experiments.TrackingRow": ["t", "mean_sq_error", "se", "bound"],
    "experiments.OptimizationRow": ["steps", "eta", "beta", "gap_mean", "gap_se"],
    "experiments.ExcessRow": ["n", "m", "steps", "eta", "beta", "excess_mean", "excess_se"],
}


@pytest.mark.parametrize("name", sorted(MODULE_ALL))
def test_module_all_is_pinned_and_resolves(name):
    module = importlib.import_module(f"scolab.{name}")
    assert module.__all__ == MODULE_ALL[name]
    for attr in module.__all__:
        assert hasattr(module, attr), f"scolab.{name}.{attr} does not resolve"


def test_package_exports_are_pinned():
    exported = {
        attr for attr, value in vars(scolab).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set().union(*(MODULE_ALL[name] for name in PACKAGE_MODULES))
    assert scolab.__all__ == [attr for name in PACKAGE_MODULES for attr in MODULE_ALL[name]]


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_package_exports_come_from_module_all(name):
    module = importlib.import_module(f"scolab.{name}")
    for attr in module.__all__:
        assert getattr(scolab, attr) is getattr(module, attr)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from scolab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(scolab.__all__)


def test_studies_return_the_exported_row_types():
    tracking = scolab.tracking_study(n=3, m=3, steps=4, replicates=2, log_points=2)
    optimization = scolab.optimization_study(step_grid=((4, 0.1, 0.5),), n=3, m=3, replicates=2)
    excess = scolab.excess_risk_study(size_grid=(3,), replicates=2, t_max=4)
    assert all(isinstance(row, scolab.TrackingRow) for row in tracking)
    assert all(isinstance(row, scolab.OptimizationRow) for row in optimization)
    assert all(isinstance(row, scolab.ExcessRow) for row in excess)
    assert all(isinstance(rows, list) for rows in (tracking, optimization, excess))
    assert tracking and optimization and excess


@pytest.mark.parametrize("name", sorted(RESULT_FIELDS))
def test_result_fields_are_pinned(name):
    module, attr = name.split(".")
    cls = getattr(importlib.import_module(f"scolab.{module}"), attr)
    if dataclasses.is_dataclass(cls):
        fields = [field.name for field in dataclasses.fields(cls)]
    else:
        fields = list(cls._fields)
    assert fields == RESULT_FIELDS[name]


def test_reporting_imports_no_scolab_module():
    tree = ast.parse(Path(importlib.import_module("scolab.reporting").__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert [name for name in imported if name.startswith((".", "scolab"))] == []
