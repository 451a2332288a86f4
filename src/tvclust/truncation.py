"""Per-point truncation sets and the criteria that update them.

The truncation sets K^(n), the clusters allowed to carry posterior mass,
form one (N, C') int64 index matrix: the posteriors' ``support``.  Three
update criteria are provided:

* nearest-C' selection (full variational E-step; optimal for the isotropic
  equal-weight model),
* lazy reassignment, which switches a point's single cluster only when the
  best alternative is closer by a factor 1/(1+epsilon) (partial E-step,
  carried across iterations),
* the weight/covariance-aware score for general mixtures, which ranks
  clusters by Mahalanobis distance plus log-determinant minus twice the
  log weight.

Ties are always broken toward the smallest cluster index so that degenerate
inputs stay reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .models import (
    Responsibilities,
    _index_sets,
    _points_of,
    log_joints,
    logsumexp,
    squared_distances,
)


def select_nearest(dataset, means, c_prime):
    """The C' centers with smallest Euclidean distance per point.

    For fixed model parameters this choice maximizes the truncated free
    energy over all admissible truncation configurations.  Returns an owned
    (N, C') copy, nearest first, so the (N, C) argsort is freed at once.
    """
    points = _points_of(dataset)
    means = _points_of(means)
    if not 1 <= c_prime <= means.shape[0]:
        raise ConfigurationError(
            f"c_prime must be in [1, {means.shape[0]}], got {c_prime}"
        )
    d2 = squared_distances(points, means)
    return np.argsort(d2, axis=1, kind="stable")[:, :c_prime].copy()


def lazy_reassign(dataset, means, epsilon, sets):
    """Move a point to the globally nearest center only if
    (1 + epsilon) * dist(new) < dist(current); otherwise keep the current set.

    Returns the updated copy of the (N, 1) matrix ``sets``.  Every switch
    strictly decreases the distance, so each one increases the truncated
    free energy.  Only defined for singleton sets; combining the lazy rule
    with C' > 1 has no agreed semantics and is rejected.
    """
    if epsilon < 0:
        raise ConfigurationError("epsilon must be nonnegative")
    sets = _index_sets(sets, len(means))
    if sets.shape[1] != 1:
        raise ConfigurationError(
            "lazy reassignment is only defined for c_prime = 1"
        )
    points = _points_of(dataset)
    d2 = squared_distances(points, means)
    current = sets[:, 0]
    best = np.argmin(d2, axis=1)
    rows = np.arange(points.shape[0])
    switch = (1.0 + epsilon) * np.sqrt(d2[rows, best]) < np.sqrt(d2[rows, current])
    return np.where(switch, best, current)[:, None]


def sigma_pi_scores(dataset, model):
    """Selection scores (N, C) for general mixtures; lower is better.

    score = |y - mu_c|^2_{Sigma_c} + log|2 pi Sigma_c| - 2 log pi_c,
    i.e. exactly -2 times the log joint, so the argmin per row picks the
    maximum-joint cluster (the hard selection) and swapping a set member
    for a lower-scoring cluster increases the general-model free energy.
    """
    return -2.0 * log_joints(_points_of(dataset), model)


def truncated_responsibilities(dataset, model, sets):
    """Posterior renormalized over each point's truncation set.

    q_c^(n) is proportional to the joint on K^(n), row n of ``sets`` and of
    the returned support, and zero elsewhere, normalized per point with
    max-shifted log-sum-exp.  Singleton sets give exactly binary weights;
    full sets reproduce the dense posterior.
    """
    points = _points_of(dataset)
    sets = _index_sets(sets, model.c)
    lj = log_joints(points, model)
    sub = np.take_along_axis(lj, sets, axis=1)
    weights = np.exp(sub - logsumexp(sub, axis=1)[:, None])
    weights = weights / weights.sum(axis=1, keepdims=True)
    return Responsibilities(sets, weights, model.c)
