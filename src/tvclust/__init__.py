"""Clustering through truncated posterior mixtures.

The package implements one algorithm family around a shared free-energy
objective: classic k-means, exact EM for Gaussian mixtures, the nearest-C'
truncated variant, lazy k-means, and the hard-assignment rule for general
weighted mixtures, together with the diagnostics (distortion, free energy,
log-likelihood, and their exact gap) that tie them together.
"""

from .data import Dataset, GeneratorSpec, generate, load_csv, make_rng, save_csv
from .diagnostics import (
    TraceRecord,
    appendix_forms,
    free_energy_entropy_form,
    free_energy_kmeans,
    free_energy_trunc,
    kl_gap,
    log_likelihood,
    objective_j,
    trace_violations,
)
from .engine import (
    ALGORITHMS,
    FitResult,
    RunConfig,
    em_gmm_step,
    kmeans_step,
    lazy_step,
    m_step_general,
    m_step_iso,
    run,
    seed_dsquared,
    seed_uniform,
    sigma_pi_step,
    tvem_step,
)
from .errors import ConfigurationError, NumericError, ParseError
from .harness import ExperimentSpec, emit, load_trace, run_experiment
from .models import (
    GeneralGMM,
    IsotropicGMM,
    Responsibilities,
    binary_responsibilities,
    load_model,
    log_joints,
    logsumexp,
    model_from_snapshot,
    model_to_snapshot,
    responsibilities_exact,
    save_model,
    sigma2_floor,
    squared_distances,
)
from .truncation import (
    lazy_reassign,
    select_nearest,
    sigma_pi_scores,
    truncated_responsibilities,
)

__version__ = "0.1.0"
