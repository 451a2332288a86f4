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


def select_nearest(dataset, means, c_prime, d2=None):
    """The C' centers with smallest Euclidean distance per point.

    For fixed model parameters this choice maximizes the truncated free
    energy over all admissible truncation configurations.  ``d2`` is
    ``squared_distances(dataset, means)``, computed unless given.  Returns
    an owned (N, C') matrix, nearest first, ties toward the smaller index:
    the first C' columns of a stable argsort of ``d2``.  The fast unstable
    argsort is used instead, and only rows with a tie among their C' + 1
    nearest are sorted stably again.
    """
    c = _points_of(means).shape[0]
    if not 1 <= c_prime <= c:
        raise ConfigurationError(f"c_prime must be in [1, {c}], got {c_prime}")
    if d2 is None:
        d2 = squared_distances(dataset, means)
    if c_prime == 1:
        return np.argmin(d2, axis=1)[:, None]
    order = np.argsort(d2, axis=1)[:, : c_prime + 1]
    top = np.take_along_axis(d2, order, axis=1)
    tied = np.flatnonzero(np.any(top[:, 1:] == top[:, :-1], axis=1))
    if tied.size:
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, : c_prime + 1]
    return order[:, :c_prime].copy()


def lazy_reassign(dataset, means, epsilon, sets, d2=None):
    """Move a point to the globally nearest center only if
    (1 + epsilon) * dist(new) < dist(current); otherwise keep the current set.

    ``sets`` is an (N, 1) index matrix, or posteriors whose support is one;
    returns its updated copy as an (N, 1) matrix.  Every switch
    strictly decreases the distance, so each one increases the truncated
    free energy.  Only defined for singleton sets; combining the lazy rule
    with C' > 1 has no agreed semantics and is rejected.  ``d2`` is
    ``squared_distances(dataset, means)``, computed unless given.
    """
    if epsilon < 0:
        raise ConfigurationError("epsilon must be nonnegative")
    n = _points_of(dataset).shape[0]
    sets = _index_sets(sets, len(means), n)
    if sets.shape[1] != 1:
        raise ConfigurationError(
            "lazy reassignment is only defined for c_prime = 1"
        )
    if d2 is None:
        d2 = squared_distances(dataset, means)
    current = sets[:, 0]
    best = np.argmin(d2, axis=1)
    rows = np.arange(n)
    switch = (1.0 + epsilon) * np.sqrt(d2[rows, best]) < np.sqrt(d2[rows, current])
    return np.where(switch, best, current)[:, None]


def sigma_pi_scores(dataset, model, lj=None):
    """Selection scores (N, C) for general mixtures; lower is better.

    score = |y - mu_c|^2_{Sigma_c} + log|2 pi Sigma_c| - 2 log pi_c,
    i.e. exactly -2 times the log joint, so the argmin per row picks the
    maximum-joint cluster (the hard selection) and swapping a set member
    for a lower-scoring cluster increases the general-model free energy.
    ``lj`` is ``log_joints(dataset, model)``, computed unless given.
    """
    if lj is None:
        lj = log_joints(dataset, model)
    return -2.0 * lj


def truncated_responsibilities(dataset, model, sets, lj=None):
    """Posterior renormalized over each point's truncation set.

    q_c^(n) is proportional to the joint on K^(n), row n of ``sets`` and of
    the returned support, and zero elsewhere, normalized per point with
    max-shifted log-sum-exp.  Singleton sets give exactly binary weights;
    full sets reproduce the dense posterior.  ``lj`` is
    ``log_joints(dataset, model)``, computed unless given.
    """
    sets = _index_sets(sets, model.c, _points_of(dataset).shape[0])
    if lj is None:
        lj = log_joints(dataset, model)
    sub = np.take_along_axis(lj, sets, axis=1)
    weights = np.exp(sub - logsumexp(sub, axis=1)[:, None])
    weights = weights / weights.sum(axis=1, keepdims=True)
    return Responsibilities._on_checked(sets, weights, model.c)
