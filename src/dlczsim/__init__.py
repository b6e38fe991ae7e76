"""Simulation and analysis of a heralded photon-pair source with click detectors."""

__version__ = "0.2.0"

from .params import (DetectionConfig, DetectionMode, Detector, ModelParams,
                     SessionSpec, TrialSchedule)
from .photon_model import (Metrics, Statistics, brute_force_statistics,
                           click_statistics, derived_metrics, full_metrics, tmss_pgf)
from .event_sim import sample_trial, simulate_clicks
from .correlator import CountTable, accumulate_clicks, estimate_metrics, merge
from .model_fit import (Dataset, DataPoint, FitResult, chi_from_p1,
                        dataset_from_csv, dataset_to_csv, fit, objective,
                        predict_curves, residuals)

__all__ = [
    "DetectionConfig", "DetectionMode", "Detector", "ModelParams", "SessionSpec",
    "TrialSchedule", "Metrics", "Statistics", "brute_force_statistics",
    "click_statistics", "derived_metrics", "full_metrics", "tmss_pgf",
    "sample_trial", "simulate_clicks", "CountTable", "accumulate_clicks",
    "estimate_metrics", "merge", "Dataset", "DataPoint", "FitResult",
    "chi_from_p1", "dataset_from_csv", "dataset_to_csv", "fit", "objective",
    "predict_curves", "residuals",
]
