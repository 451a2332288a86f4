"""Seeding, M-steps, iteration kernels, and the convergence loop.

Each algorithm pairs a selection rule, which picks every point's
truncation set K^(n) (the E-step), with the M-step of one model family.
One table, ``_PAIRS``, holds the pairing and the parameter each algorithm
takes; the algorithm name is looked up nowhere else:

    algorithm       selection rule                        M-step family
    kmeans          nearest center                        isotropic
    kmeans_cprime   nearest C' centers                    isotropic
    lazy_kmeans     lazy switch of a carried singleton    isotropic
    em_gmm          full (exact posteriors)               general
    sigma_pi        nearest singleton, ranked by score    general

k-means still updates the shared variance each iteration; it never feeds
back into the mean path, whose updates are variance-independent for
singleton sets.  Both M-steps return ``(model, events, J)``: the new
model, any reseed events and the J of the posteriors around the new means.
Every kernel but ``kmeans_step`` hands its rule's posteriors to
``tvem_step``, which runs the M-step of the model's family, and returns
``(resp, model, events, J)``, where ``resp.support`` is K^(n);
``kmeans_step``, the variance-free Lloyd reference, returns ``(resp,
means, events)``.  ``_nearest`` alone ranks the clusters of the nearest
rule, for the E-step and for ``tvclust audit``.

In the M-step each mean is the posterior-weighted average of the data for
both families, so one routine, ``_weighted_means``, computes it for
``m_step_iso``, ``m_step_general`` and ``kmeans_step`` from the dense
posteriors each builds once.  It alone decides which clusters are empty
(mass below the smallest normal float) and reseeds them at worst-fit
points.  ``m_step_general`` adds only what the general family has of its
own: the other clusters' scatter covariances, their ridge, the mixing
weights, and the covariance and weight of each revived empty cluster.
Following the paper's claim (B), a truncated posterior touches only the C'
clusters of each point's set, so a scatter over a support narrower than C
sums only the rows whose set holds the cluster, O(N C' D^2); a support of
width C keeps the dense per-cluster ``einsum`` whose summation order a
golden trace pins.
``_shared_variance`` is sigma2 = J/(D N) for the seeded model and for
``m_step_iso``, whose J is ``objective_j``.  ``m_step_general`` takes J
from the scatter sums it builds anyway, J = sum_k tr(sum_n q_nk (y_n -
mu_k)(y_n - mu_k)^T), the direct-difference form of the same sum.

Each iteration of ``run`` builds its matrices once (``_matrices``): the
log-joints, plus the squared distances they come from for the isotropic
family.  The trace record of iteration t builds them for the new model;
the E-step of iteration t + 1 reads only that pair and hands its
posteriors to ``tvem_step``, which runs the M-step of the model's family.
Iteration 1 uses the initial state's posteriors.  The record's J is the
one the M-step returned; only the initial record calls ``objective_j``.

A run converges once the truncation sets (or hard shadow labels for exact
EM) stop changing and the largest relative parameter change drops below
``tol``.  Every iteration appends a TraceRecord; the restricted-sum free
energy recorded there is non-decreasing for every kernel, with two
exceptions in the general family.  A revival of an empty cluster may lower
it, and the record flags the event.  The relative covariance ridge may
lower it, unflagged, under ``tvem_step`` on a ``GeneralGMM`` with C' > 1
once a cluster's scatter is singular but not zero.  ``run`` never takes
that path: its general-family algorithms use singleton sets (sigma_pi) or
exact posteriors (em_gmm).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .data import Dataset, make_rng
from .diagnostics import TraceRecord, free_energy_trunc, log_likelihood, objective_j
from .errors import ConfigurationError, NumericError, check_count, check_real
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

# algorithm -> (selection rule, M-step family, the parameter it takes).  It
# holds names, not functions, so every call goes through module globals.
_PAIRS = {
    "kmeans": ("nearest", "iso", None),
    "em_gmm": ("full", "general", None),
    "kmeans_cprime": ("nearest", "iso", "c_prime"),
    "lazy_kmeans": ("lazy", "iso", "epsilon"),
    "sigma_pi": ("nearest", "general", None),
}
ALGORITHMS = tuple(_PAIRS)
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
        """Validate every field and store the numbers as plain Python
        ``int``/``float``, so ``to_dict`` is JSON-ready for numpy scalars."""
        if self.algorithm not in _PAIRS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        store = partial(object.__setattr__, self)
        store("c", check_count("c", self.c, 1))
        takes = _PAIRS[self.algorithm][2]
        for name in ("c_prime", "epsilon"):
            given = getattr(self, name) is not None
            if given != (name == takes):
                verb = "does not take" if given else "requires"
                raise ConfigurationError(f"{self.algorithm} {verb} {name}")
        if self.c_prime is not None:
            store("c_prime", check_count("c_prime", self.c_prime, 1))
            if self.c_prime > self.c:
                raise ConfigurationError("c_prime must be in [1, c]")
        if self.epsilon is not None:
            store("epsilon", check_real("epsilon", self.epsilon))
        if self.seeding not in SEEDINGS:
            raise ConfigurationError(f"unknown seeding {self.seeding!r}")
        for name in ("max_iters", "seed"):
            store(name, check_count(name, getattr(self, name), 0))
        store("tol", check_real("tol", self.tol))

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


def _seeding_points(dataset, c):
    """The points to seed ``c`` centers from and N; raises
    ``ConfigurationError`` unless ``c`` is a count with ``1 <= c <= N``."""
    points = _points_of(dataset)
    n = points.shape[0]
    if check_count("c", c, 1) > n:
        raise ConfigurationError(f"need 1 <= c <= N, got c={c}, N={n}")
    return points, n


def seed_uniform(dataset, c, rng):
    """c distinct data points drawn uniformly without replacement."""
    points, n = _seeding_points(dataset, c)
    idx = rng.choice(n, size=c, replace=False)
    return points[idx].copy()


def seed_dsquared(dataset, c, rng, initial=None):
    """Distance-squared weighted seeding.

    The first center is uniform, or the point of index ``initial`` (a count
    below N); each further center is a data point drawn with probability
    proportional to its squared distance to the nearest center chosen so
    far.  If all remaining mass is zero (duplicate data), falls back to a
    uniform draw among the indices not yet chosen.  Raises
    ``NumericError`` if the squared distances overflow, so the mass is not
    finite.
    """
    points, n = _seeding_points(dataset, c)
    chosen = [int(rng.integers(n)) if initial is None else check_count("initial", initial, 0)]
    if chosen[0] >= n:
        raise ConfigurationError(f"need 0 <= initial < N, got initial={initial}, N={n}")
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
        chosen.append(idx)
        min_d2 = np.minimum(
            min_d2, squared_distances(dataset, points[idx : idx + 1])[:, 0]
        )
    return points[chosen].copy()


# ---------------------------------------------------------------------------
# M-steps

_BLOCK = 256  # rows per block of the M-steps' weighted sums


def _blocked_tdot(a, b):
    """``a.T @ b`` as the sum of the products of fixed blocks of ``_BLOCK``
    rows, added in block order, so it does not depend on the BLAS thread
    count."""
    out = a[:_BLOCK].T @ b[:_BLOCK]
    for i in range(_BLOCK, a.shape[0], _BLOCK):
        out += a[i : i + _BLOCK].T @ b[i : i + _BLOCK]
    return out


def _worst_fit(points, resp, means, empty):
    """Move the ``empty`` clusters' means, in place, onto worst-fit points.

    The k-th empty cluster lands on the point with the k-th largest
    distance to its currently assigned (new) center.  Returns one event per
    move.
    """
    if empty.size == 0:
        return []
    diff = points - means[resp.hard_labels()]
    order = np.argsort(-np.einsum("nd,nd->n", diff, diff), kind="stable")
    events = []
    for k, cl in enumerate(empty):
        idx = int(order[min(k, order.size - 1)])
        means[cl] = points[idx]
        events.append(f"reseeded empty cluster {cl} at point {idx}")
    return events


def _weighted_means(points, resp, w):
    """The mean update of both families: ``(mass, means, empty, events)``.

    ``w`` is ``resp.dense()``.  ``mass`` holds each cluster's summed
    posteriors and ``means`` the posterior-weighted averages of the points.
    The weighted sums are ``_blocked_tdot(w, points)``, so the means do not
    depend on the BLAS thread count.  A cluster is empty when its mass is
    below the smallest normal float: a subnormal mass keeps too few
    significant bits to carry a mean or a covariance.  ``empty`` lists those clusters, which
    ``_worst_fit`` reseeds, one event each.  Their posteriors sum to less
    than that float, so the isotropic models' recorded free energy cannot
    visibly move.
    """
    mass = w.sum(axis=0)
    wsum = _blocked_tdot(w, points)
    kept = mass >= np.finfo(float).tiny
    means = np.zeros_like(wsum)
    means[kept] = wsum[kept] / mass[kept, None]
    empty = np.flatnonzero(~kept)
    return mass, means, empty, _worst_fit(points, resp, means, empty)


def _shared_variance(dataset, j):
    """sigma2 = J/(D N), clamped at the data-derived floor.  Raises
    ``NumericError`` if J overflows."""
    n, d = _points_of(dataset).shape
    sigma2 = max(j / (d * n), sigma2_floor(dataset))
    if not np.isfinite(sigma2):
        raise NumericError(f"sigma2 {sigma2} is not finite (overflow)")
    return sigma2


def m_step_iso(dataset, resp):
    """Weighted mean update, then the shared-variance update with new means.

    sigma2 = (1/(D N)) sum_n sum_c q_c^(n) |y^(n) - mu_c^new|^2 = J/(D N),
    clamped at the data-derived floor, with J from ``objective_j``.
    Returns the model, any reseed events and J.
    """
    points = _points_of(dataset)
    _, means, _, events = _weighted_means(points, resp, resp.dense())
    j = objective_j(points, resp, means)
    return IsotropicGMM(means, _shared_variance(dataset, j)), events, j


def m_step_general(dataset, resp, prev):
    """Weighted means, scatter covariances and mixing weights.

    The means, and the set of empty clusters with their reseeded means,
    come from ``_weighted_means``, as for the isotropic family.  The other
    clusters' scatter sums S_k = sum_n q_nk (y_n - mu_k)(y_n - mu_k)^T give
    J = sum_k tr(S_k); their covariances are S_k normalized by
    responsibility mass, symmetrized, and ridge-regularized once.  An empty
    cluster is revived with its covariance from ``prev`` and weight 1/N
    (other weights rescaled); unlike the isotropic reseed this can lower
    the recorded free energy, so the event is always traced.  Returns the
    model, any revival events and J.

    A support narrower than C (sigma_pi's singletons) costs O(N C' D^2):
    each cluster's scatter sums only the rows whose support holds it, as
    ``_blocked_tdot`` products in ascending row order, and one stable sort
    of the support groups the rows by cluster.  A support of width C (exact
    EM) keeps one dense ``einsum`` per cluster over all N rows, because
    ``tests/golden/dup_em_gmm.jsonl`` pins that summation order: on its
    duplicate-heavy data the blocked products move F by more than the
    fixture's tolerance.
    """
    points = _points_of(dataset)
    n, d = points.shape
    w = resp.dense()
    mass, means, empty, events = _weighted_means(points, resp, w)
    covs = np.zeros((resp.n_clusters, d, d))
    kept = np.delete(np.arange(resp.n_clusters), empty)
    width = resp.support.shape[1]
    if width == resp.n_clusters:
        for k in kept:
            diff = points - means[k]
            covs[k] = np.einsum("nd,ne->de", w[:, k, None] * diff, diff)
    else:
        # The support's entries grouped by cluster, rows ascending in each.
        order = np.argsort(resp.support, axis=None, kind="stable")
        rows = order // width
        q = resp.weights.ravel()[order]
        ends = np.cumsum(np.bincount(resp.support.ravel(), minlength=resp.n_clusters))
        for k in kept:
            at = slice(ends[k - 1] if k else 0, ends[k])
            diff = points[rows[at]] - means[k]
            covs[k] = _blocked_tdot(q[at, None] * diff, diff)
    j = float(np.trace(covs, axis1=1, axis2=2).sum())
    covs[kept] /= mass[kept, None, None]
    covs = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
    covs = regularize_covariances(covs)
    weights = mass / n
    weights = weights / weights.sum()
    if empty.size:
        covs[empty] = prev.covs[empty]
        weights = weights * (1.0 - empty.size / n)
        weights[empty] = 1.0 / n
        weights = weights / weights.sum()
    return GeneralGMM(weights, means, covs), events, j


# ---------------------------------------------------------------------------
# iteration kernels


def kmeans_step(dataset, means):
    """One Lloyd iteration: nearest-center assignment, then mean update.

    No variance is involved anywhere on this path.  Returns the binary
    assignments, the new means, and any reseed events.
    """
    points = _points_of(dataset)
    means = _points_of(means)
    labels = select_nearest(squared_distances(dataset, means), 1)[:, 0]
    resp = binary_responsibilities(labels, means.shape[0])
    _, new_means, _, events = _weighted_means(points, resp, resp.dense())
    return resp, new_means, events


def tvem_step(dataset, model, c_prime, resp=None):
    """Full variational iteration: nearest-C' sets, sparse posteriors, and
    the M-step of the model's family.

    The recorded free energy never decreases across this step, but at a
    general-model revival, or, on a ``GeneralGMM`` with c_prime > 1, where
    the covariance ridge of a singular but nonzero scatter lowers it with no
    event (``run`` does not take that path).  With c_prime = 1 the mean path
    coincides with ``kmeans_step``; with c_prime = C it is one exact EM
    iteration for the isotropic model.  Given this iteration's posteriors
    as ``resp`` (``run``, ``lazy_step`` and ``em_gmm_step`` pass them), it
    runs only the M-step.  Returns ``(resp, model, events, J)``.
    """
    if resp is None:
        resp = _e_step("nearest", *_matrices(dataset, model), c_prime, None, None)
    if isinstance(model, IsotropicGMM):
        return (resp, *m_step_iso(dataset, resp))
    return (resp, *m_step_general(dataset, resp, model))


def lazy_step(dataset, model, epsilon, sets):
    """Lazy reassignment of ``sets`` (the last support), then the M-step of
    the model's family (``tvem_step``)."""
    resp = _e_step("lazy", *_matrices(dataset, model), None, epsilon, sets)
    return tvem_step(dataset, model, None, resp)


def em_gmm_step(dataset, model):
    """One exact EM iteration: exact posteriors, then the M-step of the
    model's family (``tvem_step``), so an ``IsotropicGMM`` gets the
    isotropic one."""
    return tvem_step(dataset, model, None, responsibilities_exact(log_joints(dataset, model)))


def sigma_pi_step(dataset, model):
    """Hard assignment by minimal score, then the general-model M-step.

    The score argmin is a full singleton-set E-step for the general model;
    equal weights with identical isotropic covariances reduce it to the
    nearest-center rule.
    """
    return tvem_step(dataset, model, 1)


# ---------------------------------------------------------------------------
# the loop


def _rel_change(old, new):
    """Largest change of any model parameter (every attribute of the model),
    relative to the largest old parameter (at least 1)."""
    a, b = (np.concatenate([np.ravel(v) for v in vars(m).values()]) for m in (old, new))
    return float(np.max(np.abs(b - a))) / max(1.0, float(np.max(np.abs(a))))


def _set_key(resp, rule):
    """What ``n_changed`` compares: each point's sorted set, or its hard
    shadow label for exact EM.  ``run`` carries the last one."""
    return resp.hard_labels()[:, None] if rule == "full" else np.sort(resp.support, axis=1)


def _matrices(dataset, model):
    """``(d2, lj)`` at ``model``: the squared distances to the means (None
    for the general family) and the log-joints, built from them."""
    d2 = squared_distances(dataset, model.means) if isinstance(model, IsotropicGMM) else None
    return d2, log_joints(dataset, model, d2)


def _nearest(d2, lj, c_prime=1):
    """The ``nearest`` rule's (N, C') index sets at the model whose
    ``_matrices`` are ``(d2, lj)``: the C' nearest centers by squared
    distance for the isotropic family, and the lowest-scoring clusters
    (``sigma_pi_scores``) for the general one, so ties break as those
    matrices say."""
    return select_nearest(d2 if d2 is not None else sigma_pi_scores(lj), c_prime)


def _e_step(rule, d2, lj, c_prime, epsilon, last):
    """The posteriors of selection ``rule`` at the model whose
    ``_matrices`` are ``(d2, lj)``, read off those matrices alone.

    ``full`` gives the exact posteriors.  ``lazy`` keeps the support of
    ``last``, the posteriors (or index matrix) it starts from, unless a
    center is closer by the epsilon factor.  ``nearest`` takes the sets of
    ``_nearest``.
    """
    if rule == "full":
        return responsibilities_exact(lj)
    if rule == "lazy":
        sets = lazy_reassign(d2, epsilon, last)
    else:
        sets = _nearest(d2, lj, c_prime or 1)
    return truncated_responsibilities(lj, sets)


def _record(iteration, dataset, model, resp, lj, j, n_changed, events):
    """The trace record of ``model`` and the posteriors ``resp`` that made
    it, with ``lj`` the log-joints at ``model``.  F sums each point's
    joints over its support for every rule; over exact EM's support, every
    cluster in index order, that sum is L's, bit for bit, so the gap is 0.

    ``j`` is the J of ``resp`` around the model's means that the M-step
    returned: ``objective_j`` for the isotropic family, and
    sum_k tr(sum_n q_nk (y_n - mu_k)(y_n - mu_k)^T) of the scatter sums for
    the general one, whose record reports sigma2 = J/(D N).
    """
    n, d = _points_of(dataset).shape
    ll = log_likelihood(lj)
    f = free_energy_trunc(lj, resp)
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
    """Seeded model, its ``_matrices`` and the posteriors of its E-step."""
    seed = seed_uniform if config.seeding == "uniform" else seed_dsquared
    means0 = seed(dataset, config.c, rng)
    d2 = squared_distances(dataset, means0)
    nearest1 = select_nearest(d2, 1)
    sigma2_0 = _shared_variance(dataset, objective_j(dataset, nearest1[:, 0], means0))
    rule, family, _ = _PAIRS[config.algorithm]
    if family == "iso":
        model = IsotropicGMM(means0, sigma2_0)
    else:
        d = means0.shape[1]
        covs0 = np.broadcast_to(sigma2_0 * np.eye(d), (config.c, d, d)).copy()
        model = GeneralGMM(np.full(config.c, 1.0 / config.c), means0, covs0)
        d2 = None
    lj = log_joints(dataset, model, d2)
    resp = _e_step(rule, d2, lj, config.c_prime, config.epsilon, nearest1)
    return model, d2, lj, resp


def run(dataset, config):
    """Iterate the configured selection rule and M-step until convergence
    or max_iters.

    Deterministic given (dataset, config).  The trace holds one record per
    iteration plus an initial record for the seeded state; numeric failures
    are annotated on the trace and re-raised.  Data whose squared distances
    overflow raise ``NumericError`` before the first record.

    Each iteration builds its matrices once (``_matrices``): the record of
    iteration t builds them for the new model, and the E-step of iteration
    t + 1 reads the same pair.  Iteration 1's E-step is the initial
    state's, which already ran on the seeded model.
    """
    if not isinstance(dataset, Dataset):
        dataset = Dataset(np.asarray(dataset))
    rng = make_rng(config.seed)
    rule = _PAIRS[config.algorithm][0]
    model, d2, lj, resp = _initial_state(dataset, config, rng)
    key = _set_key(resp, rule)
    j = objective_j(dataset, resp, model.means)
    trace = [_record(0, dataset, model, resp, lj, j, dataset.n, [])]
    reason = "max_iters"
    new_resp = resp
    for it in range(1, config.max_iters + 1):
        try:
            if it > 1:
                new_resp = _e_step(rule, d2, lj, config.c_prime, config.epsilon, resp)
            d2 = lj = None  # their last reader was the E-step; free them
            _, new_model, events, j = tvem_step(dataset, model, config.c_prime, new_resp)
            new_key = _set_key(new_resp, rule)
            n_changed = int(np.sum(np.any(key != new_key, axis=1)))
            rel = _rel_change(model, new_model)
            model, resp, key = new_model, new_resp, new_key
            d2, lj = _matrices(dataset, model)
            trace.append(_record(it, dataset, model, resp, lj, j, n_changed, events))
        except NumericError as exc:
            trace[-1].events.append(f"numeric failure at iteration {it}: {exc}")
            exc.trace = trace
            raise
        if n_changed == 0 and rel < config.tol:
            reason = "converged"
            break
    return FitResult(model, resp, trace, reason)
