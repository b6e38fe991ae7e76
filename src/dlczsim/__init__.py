"""Simulation and analysis of a heralded photon-pair source with click detectors.

Public names load their module on first use (PEP 562), so importing the package, or a
command of `dlczsim.cli`, compiles only the modules it runs."""

import importlib

__version__ = "0.2.0"

_MODULE_OF = {   # public name -> its module, in __all__ order
    **dict.fromkeys(("DetectionConfig", "DetectionMode", "Detector", "ModelParams", "SessionSpec",
                     "TrialSchedule"), "params"),
    **dict.fromkeys(("Metrics", "Statistics", "brute_force_statistics", "click_statistics",
                     "derived_metrics", "full_metrics", "tmss_pgf"), "photon_model"),
    **dict.fromkeys(("sample_trial", "simulate_clicks"), "event_sim"),
    **dict.fromkeys(("CountTable", "accumulate_clicks", "estimate_metrics", "merge"), "correlator"),
    **dict.fromkeys(("Dataset", "DataPoint", "FitResult", "chi_from_p1", "dataset_from_csv",
                     "dataset_to_csv", "fit", "objective", "predict_curves", "residuals"),
                    "model_fit"),
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
