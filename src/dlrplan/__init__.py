"""Robust corrective-control reserve planning for grids with dynamic line rating.

The names below load their module on first use, so importing the
package (or ``dlrplan.cli``) loads no numpy: ``cli.main`` can still set
the thread variables that ``DLRPLAN_THREADS`` asks for.
"""

import importlib

_EXPORTS = {
    "affine_policy": ("AffinePolicy", "PolicyProcurement", "export_policy", "policy_action",
                      "procure_affine", "select_y"),
    "errors": ("CapacityError", "DlrPlanError", "InfeasibleError", "InputError",
               "NumericalError", "UncoveredRealizationError"),
    "evaluation": ("ApproachReport", "EvaluationReport", "ScenarioConfig",
                   "audit_robust_feasibility", "evaluate_scenario", "monte_carlo_eval",
                   "status_quo_cost", "sweep_flow_limits", "sweep_mu_sigma"),
    "network": ("Generator", "GridModel", "Line", "PtdfMatrices", "compute_ptdf", "flows",
                "load_grid"),
    "robust_dispatch": ("ProcurementResult", "RedispatchAction", "dc_opf", "operate_online",
                        "procure_vertex_robust"),
    "thermal": ("ConductorParams", "LineRatingSpec", "WeatherSample", "ampacity", "heat_terms",
                "rating_mw", "rating_pu"),
    "uncertainty": ("EllipsoidSet", "PolytopeSet", "RatingForecast", "build_ellipsoid",
                    "build_polytope", "chi2_quantile", "fit_forecast", "load_forecast",
                    "truncated_deficit_expectation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
