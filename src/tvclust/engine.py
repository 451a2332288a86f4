"""Seeding, M-steps, iteration kernels, and the convergence loop.

Each algorithm pairs a selection rule, which picks every point's
truncation set K^(n) (the E-step), with the M-step of one model family:

    algorithm       selection rule                        M-step family
    kmeans          nearest center                        isotropic
    kmeans_cprime   nearest C' centers                    isotropic
    lazy_kmeans     lazy switch of a carried singleton    isotropic
    em_gmm          none (exact posteriors)               general
    sigma_pi        singleton at the score argmin         general

k-means still updates the shared variance each iteration; it never feeds
back into the mean path, whose updates are variance-independent for
singleton sets.  All five kernels return ``(resp, model|means, events)``:
the posteriors, whose ``resp.support`` is K^(n), the new model (means for
``kmeans_step``) and any reseed events, so ``run`` has one dispatch and
records every iteration through one path.

Each iteration of ``run`` builds one N x C matrix: squared distances for
the isotropic family, log-joints for the general one.  The trace record of
iteration t builds it for the new model; the E-step of iteration t + 1
(``_e_step``) reads the same matrix and hands its posteriors to the kernel,
which then runs only the M-step.  Iteration 1 uses the initial state's
posteriors.

A run converges once the truncation sets (or hard shadow labels for exact
EM) stop changing and the largest relative parameter change drops below
``tol``.  Every iteration appends a TraceRecord; the restricted-sum free
energy recorded there is non-decreasing for every kernel (empty-cluster
reseeds of the general model are the only event that may break this, and
they are flagged in the record).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, make_rng
from .diagnostics import TraceRecord, free_energy_trunc, log_likelihood, objective_j
from .errors import ConfigurationError, NumericError
from .models import (
    GeneralGMM,
    IsotropicGMM,
    Responsibilities,
    _points_of,
    binary_responsibilities,
    log_joints,
    regularize_covariances,
    responsibilities_exact,
    sigma2_floor,
    squared_distances,
)
from .truncation import (
    lazy_reassign,
    select_nearest,
    sigma_pi_scores,
    truncated_responsibilities,
)

# Point-cluster pairs per row block of the weighted sums in ``_iso_means``,
# which bounds its temporary at _BLOCK x D values.
_BLOCK = 1 << 14

ALGORITHMS = ("kmeans", "em_gmm", "kmeans_cprime", "lazy_kmeans", "sigma_pi")
SEEDINGS = ("uniform", "dsquared")


@dataclass(frozen=True)
class RunConfig:
    """Complete, validated description of one fitting run."""

    algorithm: str
    c: int
    c_prime: int | None = None
    epsilon: float | None = None
    seeding: str = "dsquared"
    max_iters: int = 200
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.c < 1:
            raise ConfigurationError("c must be >= 1")
        if self.algorithm == "kmeans_cprime":
            if self.c_prime is None:
                raise ConfigurationError("kmeans_cprime requires c_prime")
            if not 1 <= self.c_prime <= self.c:
                raise ConfigurationError("c_prime must be in [1, c]")
        elif self.c_prime is not None:
            raise ConfigurationError(f"{self.algorithm} does not take c_prime")
        if self.algorithm == "lazy_kmeans":
            if self.epsilon is None:
                raise ConfigurationError("lazy_kmeans requires epsilon")
            if self.epsilon < 0:
                raise ConfigurationError("epsilon must be >= 0")
        elif self.epsilon is not None:
            raise ConfigurationError(f"{self.algorithm} does not take epsilon")
        if self.seeding not in SEEDINGS:
            raise ConfigurationError(f"unknown seeding {self.seeding!r}")
        if self.max_iters < 0:
            raise ConfigurationError("max_iters must be >= 0")
        if not self.tol >= 0:
            raise ConfigurationError("tol must be >= 0")

    def to_dict(self):
        return asdict(self)


@dataclass
class FitResult:
    """Final model and posteriors plus the per-iteration trace."""

    model: IsotropicGMM | GeneralGMM
    responsibilities: Responsibilities
    trace: list[TraceRecord] = field(default_factory=list)
    reason: str = "max_iters"


# ---------------------------------------------------------------------------
# seeding


def seed_uniform(dataset, c, rng):
    """c distinct data points drawn uniformly without replacement."""
    points = _points_of(dataset)
    n = points.shape[0]
    if not 1 <= c <= n:
        raise ConfigurationError(f"need 1 <= c <= N, got c={c}, N={n}")
    idx = rng.choice(n, size=c, replace=False)
    return points[idx].copy()


def seed_dsquared(dataset, c, rng, initial=None):
    """Distance-squared weighted seeding.

    The first center is uniform (or forced via ``initial``); each further
    center is a data point drawn with probability proportional to its
    squared distance to the nearest center chosen so far.  If all remaining
    mass is zero (duplicate data), falls back to a uniform draw among the
    indices not yet chosen.  Raises ``NumericError`` if the squared
    distances overflow, so the mass is not finite.
    """
    points = _points_of(dataset)
    n = points.shape[0]
    if not 1 <= c <= n:
        raise ConfigurationError(f"need 1 <= c <= N, got c={c}, N={n}")
    chosen = np.empty(c, dtype=np.int64)
    chosen[0] = int(rng.integers(n)) if initial is None else int(initial)
    min_d2 = squared_distances(dataset, points[chosen[:1]])[:, 0]
    for k in range(1, c):
        total = float(min_d2.sum())
        if not np.isfinite(total):
            raise NumericError(f"seeding mass {total} is not finite (overflow)")
        if total > 0.0:
            idx = int(rng.choice(n, p=min_d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(n), chosen[:k])
            idx = int(remaining[rng.integers(remaining.size)])
        chosen[k] = idx
        min_d2 = np.minimum(
            min_d2, squared_distances(dataset, points[idx : idx + 1])[:, 0]
        )
    return points[chosen].copy()


# ---------------------------------------------------------------------------
# M-steps


def _worst_fit(points, resp, means, empty):
    """Move the ``empty`` clusters' means onto the worst-fit data points.

    The k-th empty cluster lands on the point with the k-th largest
    distance to its currently assigned (new) center.  Returns the new means
    and one event per move.
    """
    if empty.size == 0:
        return means, []
    diff = points - means[resp.hard_labels()]
    order = np.argsort(-np.einsum("nd,nd->n", diff, diff), kind="stable")
    means = means.copy()
    events = []
    for k, cl in enumerate(empty):
        idx = int(order[min(k, order.size - 1)])
        means[cl] = points[idx]
        events.append(f"reseeded empty cluster {cl} at point {idx}")
    return means, events


def _iso_means(points, resp):
    """Weighted means, with zero-mass clusters reseeded by ``_worst_fit``.

    Zero-mass clusters sit outside every truncation set, so the reseed
    leaves the recorded free energy of the isotropic models untouched.  The
    weighted sums are accumulated in blocks of rows, in point order, so no
    (N, K, D) temporary is built.
    """
    n, d = points.shape
    c = resp.n_clusters
    mass = np.zeros(c)
    np.add.at(mass, resp.support.ravel(), resp.weights.ravel())
    wsum = np.zeros((c, d))
    block = max(1, _BLOCK // resp.support.shape[1])
    for lo in range(0, n, block):
        rows = slice(lo, lo + block)
        contrib = resp.weights[rows, :, None] * points[rows, None, :]
        np.add.at(wsum, resp.support[rows].ravel(), contrib.reshape(-1, d))
    means = np.zeros((c, d))
    nonempty = mass > 0.0
    means[nonempty] = wsum[nonempty] / mass[nonempty, None]
    return _worst_fit(points, resp, means, np.flatnonzero(~nonempty))


def m_step_iso(dataset, resp):
    """Weighted mean update, then the shared-variance update with new means.

    sigma2 = (1/(D N)) sum_n sum_c q_c^(n) |y^(n) - mu_c^new|^2 = J/(D N),
    clamped at the data-derived floor.  Returns the model and any reseed
    events.
    """
    points = _points_of(dataset)
    n, d = points.shape
    means, events = _iso_means(points, resp)
    sigma2 = max(objective_j(points, resp, means) / (d * n), sigma2_floor(dataset))
    return IsotropicGMM(means, sigma2), events


def m_step_general(dataset, resp):
    """Weighted means, scatter covariances and mixing weights.

    Covariances are normalized by responsibility mass, symmetrized, and
    ridge-regularized once.  Zero-mass clusters keep weight 0 and fall back
    to the global mean and covariance; reviving them is the caller's policy.
    """
    points = _points_of(dataset)
    n, d = points.shape
    c = resp.n_clusters
    w = resp.dense()
    mass = w.sum(axis=0)
    nonempty = mass > 0.0
    means = np.zeros((c, d))
    wsum = w.T @ points
    means[nonempty] = wsum[nonempty] / mass[nonempty, None]
    gmean = points.mean(axis=0)
    means[~nonempty] = gmean
    covs = np.empty((c, d, d))
    for k in range(c):
        diff = points - means[k]
        covs[k] = np.einsum("nd,ne->de", w[:, k, None] * diff, diff)
    covs[nonempty] /= mass[nonempty, None, None]
    if np.any(~nonempty):
        centered = points - gmean
        covs[~nonempty] = (centered.T @ centered) / n
    covs = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
    covs = regularize_covariances(covs)
    weights = mass / n
    weights = weights / weights.sum()
    return GeneralGMM(weights, means, covs)


def _m_step_general_revived(points, resp, prev):
    """``m_step_general``, then revive its zero-weight clusters.

    A revived cluster is centered on a worst-fit point, keeps its covariance
    from ``prev``, and receives weight 1/N (other weights rescaled).  Unlike
    the isotropic case this rescaling can lower the recorded free energy,
    so the event is always traced.
    """
    model = m_step_general(points, resp)
    empty = np.flatnonzero(model.weights == 0.0)
    if empty.size == 0:
        return model, []
    n = points.shape[0]
    means, events = _worst_fit(points, resp, model.means, empty)
    covs = model.covs.copy()
    covs[empty] = prev.covs[empty]
    weights = model.weights * (1.0 - empty.size / n)
    weights[empty] = 1.0 / n
    return GeneralGMM(weights / weights.sum(), means, covs), events


# ---------------------------------------------------------------------------
# iteration kernels


def kmeans_step(dataset, means):
    """One Lloyd iteration: nearest-center assignment, then mean update.

    No variance is involved anywhere on this path.  Returns the binary
    assignments, the new means, and any reseed events.
    """
    points = _points_of(dataset)
    means = _points_of(means)
    labels = select_nearest(points, means, 1)[:, 0]
    resp = binary_responsibilities(labels, means.shape[0])
    new_means, events = _iso_means(points, resp)
    return resp, new_means, events


def tvem_step(dataset, model, c_prime, resp=None):
    """Full variational iteration: nearest-C' sets, sparse posteriors, M-step.

    The recorded free energy never decreases across this step.  With
    c_prime = 1 the mean path coincides with ``kmeans_step``; with
    c_prime = C it is one exact EM iteration for the isotropic model.
    Like every kernel below, it takes this iteration's posteriors as
    ``resp`` when the caller has them already (``run`` does) and then only
    runs the M-step.
    """
    if resp is None:
        sets = select_nearest(dataset, model.means, c_prime)
        resp = truncated_responsibilities(dataset, model, sets)
    new_model, events = m_step_iso(dataset, resp)
    return resp, new_model, events


def lazy_step(dataset, model, epsilon, sets, resp=None):
    """Lazy reassignment of ``sets`` (the last support), then k-means updates."""
    if resp is None:
        labels = lazy_reassign(dataset, model.means, epsilon, sets)[:, 0]
        resp = binary_responsibilities(labels, model.c)
    new_model, events = m_step_iso(dataset, resp)
    return resp, new_model, events


def em_gmm_step(dataset, model, resp=None):
    """One exact EM iteration for the general weighted mixture."""
    points = _points_of(dataset)
    if resp is None:
        resp = responsibilities_exact(dataset, model)
    new_model, events = _m_step_general_revived(points, resp, model)
    return resp, new_model, events


def _score_argmin(dataset, model, lj=None):
    """Binary posteriors on the singleton set at each point's minimal score."""
    labels = np.argmin(sigma_pi_scores(dataset, model, lj), axis=1)
    return binary_responsibilities(labels, model.c)


def sigma_pi_step(dataset, model, resp=None):
    """Hard assignment by minimal score, then the general-model M-step.

    The score argmin is a full singleton-set E-step for the general model;
    equal weights with identical isotropic covariances reduce it to the
    nearest-center rule.
    """
    points = _points_of(dataset)
    if resp is None:
        resp = _score_argmin(dataset, model)
    new_model, events = _m_step_general_revived(points, resp, model)
    return resp, new_model, events


# ---------------------------------------------------------------------------
# the loop


def _param_vector(model):
    if isinstance(model, IsotropicGMM):
        return np.concatenate([model.means.ravel(), [model.sigma2]])
    return np.concatenate(
        [model.weights, model.means.ravel(), model.covs.ravel()]
    )


def _rel_change(old, new):
    a = _param_vector(old)
    b = _param_vector(new)
    return float(np.max(np.abs(b - a))) / max(1.0, float(np.max(np.abs(a))))


def _set_key(resp, exact):
    """What ``n_changed`` compares: each point's sorted set, or its hard
    shadow label for exact EM.  ``run`` carries the last one."""
    return resp.hard_labels()[:, None] if exact else np.sort(resp.support, axis=1)


def _matrix(dataset, model):
    """The one N x C matrix an iteration builds, for ``model``: squared
    distances to the means for the isotropic family, log-joints for the
    general one."""
    if isinstance(model, IsotropicGMM):
        return squared_distances(dataset, model.means)
    return log_joints(dataset, model)


def _joints(dataset, model, dist):
    """Log-joints from ``dist = _matrix(dataset, model)``, elementwise."""
    return log_joints(dataset, model, dist) if isinstance(model, IsotropicGMM) else dist


def _e_step(dataset, model, config, dist, last):
    """The configured selection rule's posteriors at ``model``, read off
    ``dist = _matrix(dataset, model)``.  Lazy k-means keeps the support of
    ``last``, the posteriors (or index matrix) it starts from.

    Nearest-C' and lazy selection rank squared distances, not log-joints,
    so ties break as the distances say.
    """
    if config.algorithm == "lazy_kmeans":
        labels = lazy_reassign(dataset, model.means, config.epsilon, last, dist)
        return binary_responsibilities(labels[:, 0], model.c)
    if config.algorithm == "em_gmm":
        return responsibilities_exact(dataset, model, dist)
    if config.algorithm == "sigma_pi":
        return _score_argmin(dataset, model, dist)
    sets = select_nearest(dataset, model.means, config.c_prime or 1, dist)
    return truncated_responsibilities(dataset, model, sets, _joints(dataset, model, dist))


def _record(iteration, dataset, model, resp, dist, exact, n_changed, events):
    points = _points_of(dataset)
    n, d = points.shape
    lj = _joints(dataset, model, dist)
    j = objective_j(points, resp, model.means)
    ll = log_likelihood(dataset, model, lj)
    f = ll if exact else free_energy_trunc(dataset, model, resp, lj)
    return TraceRecord(
        iteration=iteration,
        J=j,
        F=f,
        L=ll,
        gap=ll - f,
        sigma2=model.sigma2 if isinstance(model, IsotropicGMM) else j / (d * n),
        n_changed=n_changed,
        events=list(events),
    )


def _initial_state(dataset, config, rng):
    """Seeded model, its ``_matrix`` and the posteriors of its E-step."""
    points = dataset.points
    n, d = points.shape
    seed = seed_uniform if config.seeding == "uniform" else seed_dsquared
    means0 = seed(dataset, config.c, rng)
    d2 = squared_distances(dataset, means0)
    nearest1 = select_nearest(dataset, means0, 1, d2)
    sigma2_0 = max(
        objective_j(points, nearest1[:, 0], means0) / (d * n),
        sigma2_floor(dataset),
    )
    if not np.isfinite(sigma2_0):
        raise NumericError(f"initial sigma2 {sigma2_0} is not finite (overflow)")
    if config.algorithm in ("em_gmm", "sigma_pi"):
        covs0 = np.broadcast_to(sigma2_0 * np.eye(d), (config.c, d, d)).copy()
        model = GeneralGMM(np.full(config.c, 1.0 / config.c), means0, covs0)
        dist = _matrix(dataset, model)
    else:
        model = IsotropicGMM(means0, sigma2_0)
        dist = d2
    return model, dist, _e_step(dataset, model, config, dist, nearest1)


def _kernel(dataset, model, config, resp):
    """The configured kernel, handed this iteration's posteriors ``resp``."""
    if config.algorithm == "lazy_kmeans":
        return lazy_step(dataset, model, config.epsilon, resp.support, resp)
    if config.algorithm == "em_gmm":
        return em_gmm_step(dataset, model, resp)
    if config.algorithm == "sigma_pi":
        return sigma_pi_step(dataset, model, resp)
    return tvem_step(dataset, model, config.c_prime or 1, resp)


def run(dataset, config):
    """Iterate the configured kernel until convergence or max_iters.

    Deterministic given (dataset, config).  The trace holds one record per
    iteration plus an initial record for the seeded state; numeric failures
    are annotated on the trace and re-raised.  Data whose squared distances
    overflow raise ``NumericError`` before the first record.

    Each iteration builds one N x C matrix (``_matrix``): the record of
    iteration t builds it for the new model, and the E-step of iteration
    t + 1 reads the same matrix.  Iteration 1's E-step is the initial
    state's, which already ran on the seeded model.
    """
    if not isinstance(dataset, Dataset):
        dataset = Dataset(np.asarray(dataset))
    if config.c > dataset.n:
        raise ConfigurationError(
            f"c={config.c} exceeds the number of data points N={dataset.n}"
        )
    rng = make_rng(config.seed)
    # Only exact EM records F = L and counts hard labels (C' = C is dense too).
    exact = config.algorithm == "em_gmm"
    model, dist, resp = _initial_state(dataset, config, rng)
    key = _set_key(resp, exact)
    trace = [_record(0, dataset, model, resp, dist, exact, dataset.n, [])]
    reason = "max_iters"
    new_resp = resp
    for it in range(1, config.max_iters + 1):
        try:
            if it > 1:
                new_resp = _e_step(dataset, model, config, dist, resp)
            dist = None  # its last reader was the E-step; free it before the next
            _, new_model, events = _kernel(dataset, model, config, new_resp)
            new_key = _set_key(new_resp, exact)
            n_changed = int(np.sum(np.any(key != new_key, axis=1)))
            rel = _rel_change(model, new_model)
            model, resp, key = new_model, new_resp, new_key
            dist = _matrix(dataset, model)
            trace.append(_record(it, dataset, model, resp, dist, exact, n_changed, events))
        except NumericError as exc:
            trace[-1].events.append(f"numeric failure at iteration {it}: {exc}")
            exc.trace = trace
            raise
        if n_changed == 0 and rel < config.tol:
            reason = "converged"
            break
    return FitResult(model, resp, trace, reason)
