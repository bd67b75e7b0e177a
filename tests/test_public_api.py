"""The library's public surface, pinned.

Each module's ``__all__`` and the names re-exported by ``scolab`` must
resolve and must match the lists below, so that a stale export, or a
helper that only the tests need, shows up as a change to this file.
"""

import importlib
import types

import pytest

import scolab

MODULE_ALL = {
    "cli": ["main", "parse_and_dispatch"],
    "core": ["Rng", "as_vector", "as_matrix", "project_ball"],
    "experiments": [
        "StudyConfig", "TrackingRow", "OptimizationRow", "ExcessRow", "TrackingStudyResult",
        "OptimizationStudyResult", "ExcessRiskStudyResult", "tracking_study",
        "optimization_study", "excess_risk_study", "fit_loglog_slope",
    ],
    "optimizer": ["Variant", "OptimizerConfig", "Trajectory", "run", "schedule_preset"],
    "oracle": [
        "MinimizerCertificate", "BoundValue", "erm_minimizer", "population_minimizer",
        "tracking_bound", "fd_gradient_check",
    ],
    "problems": [
        "Dataset", "PopulationLaw", "BoundParams", "sample_dataset", "empirical_inner",
        "empirical_risk", "empirical_risk_grad", "population_risk", "compute_constants",
        "benchmark_law",
    ],
    "reporting": [
        "format_value", "emit_csv", "read_csv", "emit_svg", "trajectory_rows",
        "TRAJECTORY_HEADER", "STABILITY_HEADER",
    ],
    "stability": [
        "CoupledResult", "StabilityEstimate", "GapReport", "make_neighbor", "coupled_run",
        "estimate_stability", "check_generalization_inequality",
    ],
}

PACKAGE_EXPORTS = {
    "core": {"Rng", "project_ball"},
    "experiments": {
        "ExcessRiskStudyResult", "OptimizationStudyResult", "StudyConfig", "TrackingStudyResult",
        "excess_risk_study", "fit_loglog_slope", "optimization_study", "tracking_study",
    },
    "optimizer": {"OptimizerConfig", "Trajectory", "Variant", "run", "schedule_preset"},
    "oracle": {
        "BoundValue", "MinimizerCertificate", "erm_minimizer", "fd_gradient_check",
        "population_minimizer", "tracking_bound",
    },
    "problems": {
        "BoundParams", "Dataset", "PopulationLaw", "benchmark_law", "compute_constants",
        "empirical_inner", "empirical_risk", "empirical_risk_grad", "population_risk",
        "sample_dataset",
    },
    "stability": {
        "CoupledResult", "GapReport", "StabilityEstimate", "check_generalization_inequality",
        "coupled_run", "estimate_stability", "make_neighbor",
    },
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
    assert exported == set().union(*PACKAGE_EXPORTS.values())


@pytest.mark.parametrize("name", sorted(PACKAGE_EXPORTS))
def test_package_exports_come_from_module_all(name):
    module = importlib.import_module(f"scolab.{name}")
    for attr in PACKAGE_EXPORTS[name]:
        assert attr in module.__all__
        assert getattr(scolab, attr) is getattr(module, attr)
