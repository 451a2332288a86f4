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

``trace_violations`` states once the invariants every trace of ``run``
keeps, for every selection rule and both model families, each by name:

    finite    J, F, L, gap and sigma2 are finite
    bound     L - F >= -BOUND_ATOL
    gap       gap >= -BOUND_ATOL
    identity  |L - F - gap| <= BOUND_ATOL
    monotone  F_t >= F_{t-1} - F_RTOL * max(1, |F_{t-1}|)
    sigma2    sigma2 = max(J/(D N), sigma2_floor) within SIGMA2_RTOL
              relative, from iteration 1 on (the seeded sigma2 of record 0
              comes from the hard labels, not from the record's posteriors)

A record with a non-finite value is checked for nothing else, and the next
record's F is compared with the last finite one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import check_count, check_real
from .models import (
    Responsibilities,
    _index_sets,
    _means_of,
    _points_of,
    binary_responsibilities,
    logsumexp,
    sigma2_floor,
    squared_distances,
)

_LOG_2PI_E = math.log(2.0 * math.pi) + 1.0

F_RTOL = 1e-9
BOUND_ATOL = 1e-10
SIGMA2_RTOL = 1e-12

Violation = namedtuple("Violation", "iteration invariant margin flagged")


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
        """The JSON line's dict: ``iteration`` as ``"iter"``, first, then the
        other fields in declaration order, ``events`` as a new list."""
        d = asdict(self)
        return {"iter": d.pop("iteration"), **d}

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


def _as_responsibilities(assignments, n_clusters, n):
    """``assignments``, posteriors or hard labels, as posteriors over
    ``n_clusters`` clusters; raises ``ConfigurationError`` unless they have
    ``n`` rows, one per point."""
    if not isinstance(assignments, Responsibilities):
        assignments = binary_responsibilities(assignments, n_clusters)
    _index_sets(assignments, n_clusters, n)
    return assignments


def objective_j(dataset, assignments, means):
    """Responsibility-weighted sum of squared distances to the means.

    With hard assignments this is the classic distortion
    sum_n sum_c s_c^(n) |y^(n) - mu_c|^2; weighted rows generalize it so
    that J = D * N * sigma2 also holds for non-binary posteriors.  The
    (N, K) residuals are taken directly, one support column at a time.  The
    weighted residuals are summed as one C-ordered array, whatever the
    posteriors' layout, so J's summation order is that of the row-major
    (N, K) products.
    """
    points = _points_of(dataset)
    means = _means_of(means, points.shape[1])
    resp = _as_responsibilities(assignments, means.shape[0], points.shape[0])
    sq = np.empty(resp.support.shape)
    for k in range(sq.shape[1]):
        diff = points - means[resp.support[:, k]]
        sq[:, k] = np.einsum("nd,nd->n", diff, diff)
    return float(np.sum(np.multiply(resp.weights, sq, order="C")))


def free_energy_trunc(lj, sets):
    """(1/N) sum_n log sum_{c in K^(n)} p(c, y^(n)), K^(n) = row n of ``sets``.

    ``lj`` holds the (N, C) log-joints log p(c, y^(n)); ``sets`` may be the
    posteriors themselves, whose support is K^(n).  The gather on the
    column-major sets is column-major too, so each point's log-sum-exp
    runs as K passes over N.
    """
    n, c = lj.shape
    sub = np.take_along_axis(lj, _index_sets(sets, c, n), axis=1)
    return float(np.mean(logsumexp(sub, axis=1)))


def free_energy_kmeans(c, d, sigma2):
    """Closed form -log(C) - (D/2) log(2 pi e sigma2) for hard assignments.

    Evaluated with sigma2 taken from the same iteration that produced the
    assignments and means, it equals the restricted-sum free energy of the
    singleton truncation exactly.  Raises ``ConfigurationError`` unless C
    is a count of at least 1 and sigma2 is positive and finite.
    """
    return _hard_free_energy(check_count("c", c, 1), d, check_real("sigma2", sigma2, positive=True))


def _hard_free_energy(c, d, sigma2):
    """``free_energy_kmeans`` unchecked: ``appendix_forms`` passes an
    overflowed J's infinite sigma2 through to an infinite F, which
    ``tvclust audit`` reports as a ``NumericError``."""
    return -math.log(c) - 0.5 * d * (_LOG_2PI_E + math.log(sigma2))


def log_likelihood(lj):
    """Per-point log-likelihood (1/N) sum_n log sum_c p(c, y^(n)), read off
    the (N, C) log-joints ``lj``."""
    return float(np.mean(logsumexp(lj, axis=1)))


def kl_gap(dataset, model, assignments):
    """Closed-form difference between log-likelihood and the hard free energy.

    The gap of ``appendix_forms``, claim (A)'s identity
    gap = D/2 + (1/N) sum_n log sum_c exp(-(D N / 2) d_nc^2 / J),
    with d_nc^2 the squared distances to the model means and J the
    distortion of the hard labels of ``assignments`` around them (floored
    like the fitting loop's sigma2 = J/(D N)).  This is the KL divergence
    between the truncated and exact posteriors; it is nonnegative whenever
    sigma2 satisfies the post-iteration convention, and zero for C = 1.
    """
    d2 = squared_distances(dataset, model.means)
    labels = _as_responsibilities(assignments, model.c, d2.shape[0]).hard_labels()
    return appendix_forms(dataset, d2, float(d2[np.arange(d2.shape[0]), labels].sum()))[2]


def free_energy_entropy_form(dataset, resp, sigma2):
    """Hard-assignment closed form plus the mean entropy of the posteriors.

    F = -log(C) - (D/2) log(2 pi e sigma2) + (1/N) sum_n H(q^(n)), using
    0 log 0 = 0.  Binary posteriors contribute zero entropy, recovering the
    hard-assignment form.  Equals the restricted-sum free energy whenever
    the supplied q and sigma2, with the means they came with, are a fixed
    point of the iteration; away from the fixed point it is a lower bound
    (the posteriors at the new parameters differ from q).  sigma2 is
    checked as by ``free_energy_kmeans``.
    """
    n, d = _points_of(dataset).shape
    _index_sets(resp, resp.n_clusters, n)
    w = np.ascontiguousarray(resp.weights)  # sum in row-major order
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log(w), 0.0)
    mean_entropy = float(-np.sum(terms) / n)
    return free_energy_kmeans(resp.n_clusters, d, sigma2) + mean_entropy


def appendix_forms(dataset, d2, j):
    """The distortion-based forms (F, L, gap) with sigma2 replaced by J/(D N).

    F = -log(C) - (D/2) log((2 pi e / (D N)) J)
    gap = D/2 + (1/N) sum_n log sum_c exp(-(D N / 2) d_nc^2 / J)
    L = F + gap

    ``d2`` is the (N, C) matrix of squared distances d_nc^2 to the C means
    and ``j`` the distortion J of an assignment to them (``objective_j``).
    J is floored at D * N * sigma2_floor so exact-fit data stays finite.
    The bound L >= F holds because the gap is nonnegative.
    """
    n, c = d2.shape
    d = _points_of(dataset).shape[1]
    j_eff = max(j, d * n * sigma2_floor(dataset))
    f = _hard_free_energy(c, d, j_eff / (d * n))
    with np.errstate(invalid="ignore"):  # an overflowed J gives inf / inf
        gap = 0.5 * d + float(np.mean(logsumexp(-(0.5 * d * n) * d2 / j_eff, axis=1)))
    return f, f + gap, gap


def trace_violations(records, dataset):
    """The invariants of the module docstring that ``records`` break.

    ``records`` are ``TraceRecord``s of one fit of ``dataset`` (from
    ``run``, a ``NumericError``'s ``.trace`` or ``harness.load_trace``).
    Returns one ``Violation(iteration, invariant, margin, flagged)`` per
    broken invariant, in record order: ``margin`` is the checked quantity
    (L - F, gap, L - F - gap, F_t - F_{t-1}, sigma2's relative error, or the
    first non-finite value) and ``flagged`` whether the record has events.
    """
    n, d = _points_of(dataset).shape
    floor = sigma2_floor(dataset)
    out, prev = [], -math.inf  # no F bound on the first finite record
    for rec in records:
        bad = [v for v in (rec.J, rec.F, rec.L, rec.gap, rec.sigma2) if not math.isfinite(v)]
        checks = [("finite", bad[0] if bad else 0.0, not bad)]
        if not bad:
            bound, want = rec.L - rec.F, max(rec.J / (d * n), floor)
            rel = (rec.sigma2 - want) / want
            checks += [
                ("bound", bound, bound >= -BOUND_ATOL),
                ("gap", rec.gap, rec.gap >= -BOUND_ATOL),
                ("identity", bound - rec.gap, abs(bound - rec.gap) <= BOUND_ATOL),
                ("monotone", rec.F - prev, rec.F >= prev - F_RTOL * max(1.0, abs(prev))),
                ("sigma2", rel, rec.iteration < 1 or abs(rel) <= SIGMA2_RTOL),
            ]
            prev = rec.F
        out += [Violation(rec.iteration, name, margin, bool(rec.events))
                for name, margin, ok in checks if not ok]
    return out
