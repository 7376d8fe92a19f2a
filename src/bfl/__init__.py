"""Deterministic federated-learning simulator with generated-data filtering.

The server defends aggregation by training a small conditional generator
against the frozen global model each round, synthesizing a class-balanced
validation set from it, and dropping client updates that score poorly on
that set.  Classic robust aggregation rules and standard poisoning attacks
are included for comparison.
"""

from .aggregators import AggregatorConfig
from .attacks import AttackConfig
from .config import ConfigError, ExperimentConfig, load_config
from .data import Dataset
from .defense import DefenseConfig
from .nn import MlpModel, SgdConfig
from .orchestrator import RoundRecord, RunReport, emit_report, run_experiment

__all__ = [
    "AggregatorConfig",
    "AttackConfig",
    "ConfigError",
    "Dataset",
    "DefenseConfig",
    "ExperimentConfig",
    "MlpModel",
    "RoundRecord",
    "RunReport",
    "SgdConfig",
    "emit_report",
    "load_config",
    "run_experiment",
]

__version__ = "0.1.0"
