"""Adaptive phase estimation in a vacuum-seeded twin-beam interferometer.

The simulator covers the full chain: exact twin-pair coefficient tables,
photon-number and bound-saturating detection models, grid-based Bayesian
posteriors, adaptive feedback protocols, and seeded ensemble campaigns
benchmarked against the quantum Cramer-Rao, Heisenberg, and shot-noise
limits.

The package exports what the CLI, the scripts and the README examples use,
plus the SU11Error family; everything else is imported from its module.
"""
from ._version import __version__
from .analysis import benchmarks, quantum_fisher
from .checks import run_verify
from .ensemble import (
    CampaignConfig,
    CellStats,
    DEFAULT_MASTER_SEED,
    ThresholdRow,
    TrialSummary,
    run_campaign,
    threshold_scan,
)
from .errors import (
    CampaignError,
    DegenerateRowError,
    DerivativeCheckError,
    SU11Error,
    TruncationError,
    WorkerError,
)
from .measurement import make_model, outcome_of_code, outcome_probabilities
from .posterior import PhaseGrid
from .protocols import (
    MODE_FIXED,
    MODE_LADDER,
    MODE_OPTIMAL,
    ProtocolConfig,
    run_trial,
    scheme_for_mode,
)

__all__ = [
    "__version__",
    "CampaignConfig",
    "CampaignError",
    "CellStats",
    "DEFAULT_MASTER_SEED",
    "DegenerateRowError",
    "DerivativeCheckError",
    "MODE_FIXED",
    "MODE_LADDER",
    "MODE_OPTIMAL",
    "PhaseGrid",
    "ProtocolConfig",
    "SU11Error",
    "ThresholdRow",
    "TrialSummary",
    "TruncationError",
    "WorkerError",
    "benchmarks",
    "make_model",
    "outcome_of_code",
    "outcome_probabilities",
    "quantum_fisher",
    "run_campaign",
    "run_trial",
    "run_verify",
    "scheme_for_mode",
    "threshold_scan",
]
