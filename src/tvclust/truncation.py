"""Per-point truncation sets and the criteria that update them.

The truncation sets K^(n), the clusters allowed to carry posterior mass,
form one (N, C') int64 index matrix: the posteriors' ``support``.  It is
column-major (Fortran order), as are the log-joints gathered on it and the
posteriors built from them, so numpy runs every per-point max, sum and
normalisation over K^(n) as C' vectorised passes over the N points rather
than N reductions of C' values each.  Three update criteria are provided:

* nearest-C' selection (full variational E-step; optimal for the isotropic
  equal-weight model),
* lazy reassignment, which switches a point's single cluster only when the
  best alternative is closer by a factor 1/(1+epsilon) (partial E-step,
  carried across iterations),
* the weight/covariance-aware score for general mixtures, which ranks
  clusters by Mahalanobis distance plus log-determinant minus twice the
  log weight.

Each function reads the (N, C) matrix it is given, the squared distances
``d2`` or the log-joints ``lj`` (``models.log_joints``), and takes N and C
from its shape; none of them builds a matrix.  Ties are always broken
toward the smallest cluster index so that degenerate inputs stay
reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .models import _index_sets, _posteriors


def select_nearest(d2, c_prime):
    """The C' columns of smallest rank per row of ``d2``.

    ``d2`` is any (N, C) rank matrix: the squared distances to the means,
    where this choice maximizes the truncated free energy of the isotropic
    model over all admissible truncation configurations, or
    ``sigma_pi_scores(lj)`` for the general model.  Returns an owned,
    column-major (N, C') matrix, lowest first, ties toward the smaller
    index: the first C' columns of a stable argsort of ``d2``.  It is built
    by C' passes of ``argmin``, which returns the first minimum, each
    filling one column.  The first pass reads
    ``d2`` itself; each later one masks the previous pick to ``inf`` in a
    copy, made once, so C' = 1 copies nothing.  A row whose pick is not
    finite (fewer than C' finite entries, or a NaN, which ``argmin`` picks
    first) is sorted stably instead.
    """
    n, c = d2.shape
    if not 1 <= c_prime <= c:
        raise ConfigurationError(f"c_prime must be in [1, {c}], got {c_prime}")
    work = d2
    rows = np.arange(n)
    order = np.empty((n, c_prime), dtype=np.int64, order="F")
    finite = np.ones(n, dtype=bool)
    for j in range(c_prime):
        if j:
            work = work if j > 1 else np.array(d2, dtype=np.float64)
            work[rows, order[:, j - 1]] = np.inf
        order[:, j] = np.argmin(work, axis=1)
        finite &= np.isfinite(work[rows, order[:, j]])
    redo = np.flatnonzero(~finite)
    if redo.size:
        order[redo] = np.argsort(d2[redo], axis=1, kind="stable")[:, :c_prime]
    return order


def lazy_reassign(d2, epsilon, sets):
    """Move a point to the globally nearest center only if
    (1 + epsilon) * dist(new) < dist(current); otherwise keep the current set.

    ``d2`` is the (N, C) matrix of squared distances to the means.  ``sets``
    is an (N, 1) index matrix, or posteriors whose support is one; returns
    its updated copy as an (N, 1) matrix.  Every switch strictly decreases
    the distance, so each one increases the truncated free energy.  Only
    defined for singleton sets; combining the lazy rule with C' > 1 has no
    agreed semantics and is rejected.
    """
    if not epsilon >= 0:
        raise ConfigurationError("epsilon must be nonnegative")
    n, c = d2.shape
    sets = _index_sets(sets, c, n)
    if sets.shape[1] != 1:
        raise ConfigurationError("lazy reassignment is only defined for c_prime = 1")
    current = sets[:, 0]
    best = select_nearest(d2, 1)[:, 0]
    rows = np.arange(n)
    # An infinite or huge epsilon overflows, or gives inf * 0 = NaN at a
    # point on its centre; neither compares below, so no point switches.
    with np.errstate(over="ignore", invalid="ignore"):
        switch = (1.0 + epsilon) * np.sqrt(d2[rows, best]) < np.sqrt(d2[rows, current])
    return np.where(switch, best, current)[:, None]


def sigma_pi_scores(lj):
    """Selection scores (N, C) for general mixtures; lower is better.

    score = |y - mu_c|^2_{Sigma_c} + log|2 pi Sigma_c| - 2 log pi_c,
    i.e. exactly -2 times the log joints ``lj``, so the argmin per row picks
    the maximum-joint cluster (the hard selection) and swapping a set member
    for a lower-scoring cluster increases the general-model free energy.
    """
    return -2.0 * lj


def truncated_responsibilities(lj, sets):
    """Posterior renormalized over each point's truncation set.

    q_c^(n) is proportional to the joint ``lj[n, c]`` on K^(n), row n of
    ``sets`` and of the returned support, and zero elsewhere, normalized per
    point with max-shifted log-sum-exp.  Singleton sets give exactly binary
    weights; full sets reproduce the dense posterior.
    """
    n, c = lj.shape
    sets = _index_sets(sets, c, n)
    return _posteriors(np.take_along_axis(lj, sets, axis=1), sets, c)
