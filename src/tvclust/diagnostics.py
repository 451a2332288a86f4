"""Objectives and the identities linking them.

All quantities are in nats; likelihood and free energies are normalized per
data point, while the distortion objective J is an unnormalized sum of
squared distances.  The closed forms for the hard-assignment case hold
under the post-iteration convention: assignments come from the E-step of an
iteration, means from that iteration's M-step, and the shared variance is
the weighted mean squared residual around those new means divided by D.
Under that convention

    J = D * N * sigma2,
    F = -log(C) - (D/2) log(2 pi e sigma2),
    L = F + gap,   gap = D/2 + (1/N) sum_n log sum_c exp(-d_nc^2 / (2 sigma2))

with gap >= 0, shrinking to zero as the assigned cluster dominates.

The bounds of any model, ``free_energy_trunc`` and ``log_likelihood``, are
functions of the (N, C) log-joints ``models.log_joints(dataset, model)``
alone, so one matrix serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import (
    Responsibilities,
    _index_sets,
    _points_of,
    binary_responsibilities,
    logsumexp,
    sigma2_floor,
    squared_distances,
)

_LOG_2PI_E = math.log(2.0 * math.pi) + 1.0


@dataclass
class TraceRecord:
    """Diagnostics of one iteration, serializable to a JSON line."""

    iteration: int
    J: float
    F: float
    L: float
    gap: float
    sigma2: float
    n_changed: int
    events: list[str] = field(default_factory=list)

    def to_dict(self):
        return {
            "iter": self.iteration,
            "J": self.J,
            "F": self.F,
            "L": self.L,
            "gap": self.gap,
            "sigma2": self.sigma2,
            "n_changed": self.n_changed,
            "events": list(self.events),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            iteration=int(d["iter"]),
            J=float(d["J"]),
            F=float(d["F"]),
            L=float(d["L"]),
            gap=float(d["gap"]),
            sigma2=float(d["sigma2"]),
            n_changed=int(d["n_changed"]),
            events=list(d.get("events", [])),
        )


def _as_responsibilities(assignments, n_clusters):
    if isinstance(assignments, Responsibilities):
        return assignments
    return binary_responsibilities(np.asarray(assignments), n_clusters)


def objective_j(dataset, assignments, means):
    """Responsibility-weighted sum of squared distances to the means.

    With hard assignments this is the classic distortion
    sum_n sum_c s_c^(n) |y^(n) - mu_c|^2; weighted rows generalize it so
    that J = D * N * sigma2 also holds for non-binary posteriors.  The
    (N, K) residuals are taken directly, one support column at a time.
    """
    points = _points_of(dataset)
    means = _points_of(means)
    resp = _as_responsibilities(assignments, means.shape[0])
    sq = np.empty(resp.support.shape)
    for k in range(sq.shape[1]):
        diff = points - means[resp.support[:, k]]
        sq[:, k] = np.einsum("nd,nd->n", diff, diff)
    return float(np.sum(resp.weights * sq))


def free_energy_trunc(lj, sets):
    """(1/N) sum_n log sum_{c in K^(n)} p(c, y^(n)), K^(n) = row n of ``sets``.

    ``lj`` holds the (N, C) log-joints log p(c, y^(n)); ``sets`` may be the
    posteriors themselves, whose support is K^(n).
    """
    n, c = lj.shape
    sub = np.take_along_axis(lj, _index_sets(sets, c, n), axis=1)
    return float(np.mean(logsumexp(sub, axis=1)))


def free_energy_kmeans(c, d, sigma2):
    """Closed form -log(C) - (D/2) log(2 pi e sigma2) for hard assignments.

    Evaluated with sigma2 taken from the same iteration that produced the
    assignments and means, it equals the restricted-sum free energy of the
    singleton truncation exactly.
    """
    return -math.log(c) - 0.5 * d * (_LOG_2PI_E + math.log(sigma2))


def log_likelihood(lj):
    """Per-point log-likelihood (1/N) sum_n log sum_c p(c, y^(n)), read off
    the (N, C) log-joints ``lj``."""
    return float(np.mean(logsumexp(lj, axis=1)))


def kl_gap(dataset, model, assignments):
    """Closed-form difference between log-likelihood and the hard free energy.

    gap = D/2 + (1/N) sum_n log sum_c exp(-|y^(n)-mu_c|^2 / (2 sigma2)),
    with sigma2 recomputed from the given assignments and the model means
    (floored like the fitting loop).  This is the KL divergence between the
    truncated and exact posteriors; it is nonnegative whenever sigma2
    satisfies the post-iteration convention, and zero for C = 1.
    """
    resp = _as_responsibilities(assignments, model.c)
    labels = resp.hard_labels()
    d2 = squared_distances(dataset, model.means)
    n, d = _points_of(dataset).shape
    sigma2 = max(
        float(d2[np.arange(n), labels].sum()) / (d * n), sigma2_floor(dataset)
    )
    return 0.5 * d + float(np.mean(logsumexp(-d2 / (2.0 * sigma2), axis=1)))


def free_energy_entropy_form(dataset, resp, sigma2):
    """Hard-assignment closed form plus the mean entropy of the posteriors.

    F = -log(C) - (D/2) log(2 pi e sigma2) + (1/N) sum_n H(q^(n)), using
    0 log 0 = 0.  Binary posteriors contribute zero entropy, recovering the
    hard-assignment form.  Equals the restricted-sum free energy whenever
    the supplied q and sigma2, with the means they came with, are a fixed
    point of the iteration; away from the fixed point it is a lower bound
    (the posteriors at the new parameters differ from q).
    """
    points = _points_of(dataset)
    n, d = points.shape
    w = resp.weights
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log(w), 0.0)
    mean_entropy = float(-np.sum(terms) / n)
    return free_energy_kmeans(resp.n_clusters, d, sigma2) + mean_entropy


def appendix_forms(dataset, assignments, means):
    """The distortion-based forms (F, L, gap) with sigma2 replaced by J/(D N).

    F = -log(C) - (D/2) log((2 pi e / (D N)) J)
    gap = D/2 + (1/N) sum_n log sum_c exp(-(D N / 2) d_nc^2 / J)
    L = F + gap

    C is the number of rows of ``means``.  J is floored at
    D * N * sigma2_floor so exact-fit data stays finite.
    The bound L >= F holds because the gap is nonnegative.
    """
    means = _points_of(means)
    resp = _as_responsibilities(assignments, means.shape[0])
    n, d = _points_of(dataset).shape
    j = objective_j(dataset, resp, means)
    j_eff = max(j, d * n * sigma2_floor(dataset))
    f = free_energy_kmeans(means.shape[0], d, j_eff / (d * n))
    d2 = squared_distances(dataset, means)
    gap = 0.5 * d + float(
        np.mean(logsumexp(-(0.5 * d * n) * d2 / j_eff, axis=1))
    )
    return f, f + gap, gap
