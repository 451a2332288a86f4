"""Mixture model containers, log densities, and exact posteriors.

Two model families are supported:

* ``IsotropicGMM``: equally weighted components sharing one spherical
  variance, p(c) = 1/C and p(y|c) = N(y; mu_c, sigma2 * I).
* ``GeneralGMM``: per-component weight pi_c, mean mu_c and full covariance
  Sigma_c.

All mixture sums are evaluated in log space with max shifting so that the
small-variance regime does not underflow.  Squared distances take the GEMM
form on mean-centred data and the general model whitens through inverse
Cholesky factors, so no (N, C, D) temporary is built.  ``log_joints`` may
be given the squared distances it is built from, and
``responsibilities_exact`` reads the log-joints alone, which lets one
iteration of the fitting loop build each of its N x C matrices once.

Every matrix a dataset or model keeps (points, means) is converted and
checked by ``_matrix_of`` alone, and ``_SNAPSHOTS`` alone says which fields
each family's snapshot holds and in which order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericError, ParseError, check_real

_LOG_2PI = math.log(2.0 * math.pi)

# Relative ridge added to covariance matrices produced by M-steps; keeps
# near-degenerate scatter matrices factorizable without perturbing
# user-supplied positive definite covariances at evaluation time.
COV_RIDGE = 1e-6


def logsumexp(a, axis=-1):
    """Max-shifted log(sum(exp(a))) along ``axis``; safe for -inf entries."""
    a = np.asarray(a, dtype=np.float64)
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    shifted = a - amax
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(shifted, axis=axis))
    return out + np.squeeze(amax, axis=axis)


def _points_of(dataset):
    """Accept either a Dataset or a raw array of points (1-D means D = 1)."""
    points = getattr(dataset, "points", dataset)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    return points


def _centre(points):
    """``(centre, y, yy)``: the data mean, ``y = points - centre`` and the
    squared row norms of ``y``, all read-only."""
    centre = points.mean(axis=0)
    y = points - centre
    yy = np.einsum("nd,nd->n", y, y)
    for arr in (centre, y, yy):
        arr.setflags(write=False)
    return centre, y, yy


def _frame(points):
    """The centred frame of ``points``; a ``Dataset`` makes its own once."""
    frame = getattr(points, "centred", None)
    return frame if frame is not None else _centre(_points_of(points))


def squared_distances(points, means):
    """Pairwise squared Euclidean distances, shape (N, C).

    GEMM form |y|^2 - 2 y.mu + |mu|^2 in the frame of the data centred on
    their mean, so large offsets do not cancel; a ``Dataset`` centres its
    points once and keeps them.  Rounding can leave a true zero slightly
    negative, so the result is clamped at 0.  Overflowing data give inf or
    NaN entries, which callers report as a ``NumericError``.
    """
    centre, y, yy = _frame(points)
    mu = _points_of(means) - centre
    with np.errstate(over="ignore", invalid="ignore"):
        out = y @ mu.T
        out *= -2.0
        out += yy[:, None]
        out += np.einsum("cd,cd->c", mu, mu)
    return np.maximum(out, 0.0, out=out)


def sigma2_floor(points):
    """Smallest admissible shared variance for the given data.

    Defined as 1e-12 times the mean squared norm of the mean-centered data,
    with an absolute guard so that degenerate single-point data still yields
    a positive floor (a zero variance would make every log density infinite).
    """
    msq = float(np.mean(_frame(points)[2]))
    return max(1e-12 * msq, float(np.finfo(np.float64).tiny))


def _as_readonly(arr, dtype=np.float64, order="C"):
    """A read-only copy of ``arr`` in memory ``order``: the one conversion of
    every array a dataset, model or posterior keeps.  Points, means and
    covariances are C-ordered; an index matrix is column-major (``"F"``)
    and its posteriors keep the layout they were built in (``"K"``), so
    that each per-point reduction over a truncation set runs as C' passes
    over N."""
    out = np.array(arr, dtype=dtype, order=order)
    out.setflags(write=False)
    return out


def _matrix_of(arr, name, rows):
    """``arr`` as a read-only 2-D float matrix (1-D means one column);
    raises ``ConfigurationError`` unless it is non-empty and finite.  The
    one check of a dataset's points and of either family's means;
    ``rows`` names the row count in the message (``"N"``, ``"C"``)."""
    out = _as_readonly(_points_of(arr))
    if out.ndim != 2 or out.size == 0:
        raise ConfigurationError(f"{name} must be a non-empty {rows} x D matrix")
    if not np.all(np.isfinite(out)):
        raise ConfigurationError(f"{name} must be finite")
    return out


class _Mixture:
    """Shape accessors shared by both model families."""

    @property
    def c(self):
        return self.means.shape[0]

    @property
    def d(self):
        return self.means.shape[1]


@dataclass(frozen=True)
class IsotropicGMM(_Mixture):
    """Equally weighted isotropic mixture: C means plus one shared variance."""

    means: np.ndarray  # (C, D)
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "means", _matrix_of(self.means, "means", "C"))
        object.__setattr__(self, "sigma2", check_real("sigma2", float(self.sigma2), positive=True))


@dataclass(frozen=True)
class GeneralGMM(_Mixture):
    """Weighted mixture with full per-component covariances."""

    weights: np.ndarray  # (C,)
    means: np.ndarray  # (C, D)
    covs: np.ndarray  # (C, D, D)

    def __post_init__(self):
        object.__setattr__(self, "means", _matrix_of(self.means, "means", "C"))
        weights = _as_readonly(np.atleast_1d(self.weights))
        covs = _as_readonly(self.covs)
        if covs.ndim != 3 or covs.shape[1] != covs.shape[2]:
            raise ConfigurationError("covs must have shape (C, D, D)")
        if weights.shape != (self.c,) or covs.shape != (self.c, self.d, self.d):
            raise ConfigurationError("weights, means and covs disagree on C or D")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ConfigurationError("weights must be nonnegative and finite")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise ConfigurationError(f"weights must sum to 1, got {weights.sum()!r}")
        if not np.all(np.isfinite(covs)):
            raise ConfigurationError("covs must be finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "covs", covs)


def _index_sets(support, c, n=None):
    """Read-only, column-major int64 copy of an (N, K) index matrix whose
    rows hold 1 to C distinct indices in [0, C), with ``n`` rows when ``n``
    is given; raises ``ConfigurationError`` otherwise.  Distinctness is
    checked column by column, each against the columns before it: K - 1
    comparisons of (N, k) blocks, with no (N, C) buffer.

    A ``Responsibilities`` over C clusters stands for its support, which was
    checked when it was built, so it is not checked again.
    """
    if isinstance(support, Responsibilities) and support.n_clusters == c:
        support = support.support
    else:
        support = _as_readonly(getattr(support, "support", support), dtype=np.int64, order="F")
        if support.ndim != 2 or not 1 <= support.shape[1] <= c:
            raise ConfigurationError(
                f"index sets must be an (N, K) matrix, 1 <= K <= {c}"
            )
        if np.any(support < 0) or np.any(support >= c):
            raise ConfigurationError(f"cluster indices must lie in [0, {c})")
        for k in range(1, support.shape[1]):
            if np.any(support[:, :k] == support[:, k, None]):
                raise ConfigurationError("cluster indices must be distinct per point")
    if n is not None and support.shape[0] != n:
        raise ConfigurationError(
            f"index sets have {support.shape[0]} rows for {n} points"
        )
    return support


@dataclass(frozen=True)
class Responsibilities:
    """Per-point cluster distribution with explicit support.

    ``support[n]``, the truncation set K^(n), lists the clusters carrying
    mass for point n and ``weights[n]`` the matching probabilities (each
    row sums to 1).  Hard assignments use a single column of weight 1;
    dense posteriors list every cluster.  A truncated support and its
    weights are column-major, so a sum over each point's set is C' passes
    over N; exact EM's broadcast support keeps C-ordered weights.
    """

    support: np.ndarray  # (N, K) int64
    weights: np.ndarray  # (N, K) float64
    n_clusters: int

    def __post_init__(self):
        self._set(_index_sets(self.support, self.n_clusters), self.weights)

    def _set(self, support, weights):
        weights = _as_readonly(weights, order="K")
        if support.shape != weights.shape:
            raise ConfigurationError("support and weights must share shape (N, K)")
        # Written so that a NaN weight fails both checks.
        if not np.all(weights >= 0.0):
            raise ConfigurationError("responsibility weights must be nonnegative")
        if not np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12):
            raise ConfigurationError("responsibility rows must sum to 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self):
        return self.support.shape[0]

    def dense(self):
        """Full (N, C) responsibility matrix with zeros off support."""
        out = np.zeros((self.n, self.n_clusters))
        np.put_along_axis(out, self.support, self.weights, axis=1)
        return out

    def hard_labels(self):
        """Index of the highest-weight cluster per point (ties: first)."""
        pick = np.argmax(self.weights, axis=1)
        return self.support[np.arange(self.n), pick]


def binary_responsibilities(labels, n_clusters):
    """Hard assignments as a one-column ``Responsibilities``."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 1)
    return Responsibilities(labels, np.ones_like(labels, dtype=np.float64), n_clusters)


def log_joints(points, model, d2=None):
    """Matrix of log p(c, y^(n)) with shape (N, C) for either model family.

    For the isotropic model the entry is -log C - (D/2) log(2 pi sigma2)
    - d2 / (2 sigma2), with ``d2`` the squared distances to the means
    (computed unless given).  For the general model it is log pi_c
    - (1/2) log|2 pi Sigma_c| - (1/2) |L_c^{-1} (y - mu_c)|^2, L_c the
    Cholesky factor of Sigma_c.  All C factors and their D x D inverses
    come from one batched ``cholesky`` and one batched ``solve``; the
    covariance itself is never inverted.  Each cluster then whitens its
    residuals with one product by its inverse factor.  Raises
    ``NumericError`` naming the first cluster whose covariance is not
    positive definite.
    """
    if isinstance(model, IsotropicGMM):
        if d2 is None:
            d2 = squared_distances(points, model.means)
        norm = -math.log(model.c) - 0.5 * model.d * math.log(
            2.0 * math.pi * model.sigma2
        )
        out = d2 / (2.0 * model.sigma2)
        return np.subtract(norm, out, out=out)
    points = _points_of(points)
    n, d = points.shape
    try:
        chol = np.linalg.cholesky(model.covs)
    except np.linalg.LinAlgError:
        for c in range(model.c):
            try:
                np.linalg.cholesky(model.covs[c])
            except np.linalg.LinAlgError:
                raise NumericError(
                    f"covariance of cluster {c} is not positive definite"
                ) from None
        raise
    inv = np.linalg.solve(chol, np.broadcast_to(np.eye(d), chol.shape))
    logdet = d * _LOG_2PI + 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    out = np.empty((n, model.c))
    for c in range(model.c):
        z = (points - model.means[c]) @ inv[c].T
        out[:, c] = logw[c] - 0.5 * (np.einsum("nd,nd->n", z, z) + logdet[c])
    return out


def _posteriors(sub, support, n_clusters):
    """The posteriors over ``support``, an index matrix that ``_index_sets``
    has checked, from ``sub``, the log-joints gathered on it: each row's
    max-shifted softmax, in the memory layout of ``sub``.  Every selection
    rule builds its posteriors here."""
    weights = np.exp(sub - logsumexp(sub, axis=1)[:, None])
    weights = weights / weights.sum(axis=1, keepdims=True)
    resp = object.__new__(Responsibilities)
    object.__setattr__(resp, "n_clusters", n_clusters)
    resp._set(support, weights)
    return resp


def responsibilities_exact(lj):
    """Dense posterior p(c | y^(n)) for every point, read off the (N, C)
    log-joints ``lj``.  The support, every cluster in index order, is a
    read-only broadcast view of ``arange(C)``, not an N x C copy."""
    return _posteriors(lj, np.broadcast_to(np.arange(lj.shape[1]), lj.shape), lj.shape[1])


def regularize_covariances(covs):
    """Add the relative ridge lambda = COV_RIDGE * trace(S)/D to each matrix."""
    covs = np.array(covs, dtype=np.float64)
    d = covs.shape[-1]
    lam = COV_RIDGE * np.trace(covs, axis1=-2, axis2=-1) / d
    return covs + lam[:, None, None] * np.eye(d)


# Each snapshot kind: its model class and its fields, in snapshot order
# (after ``"kind"``).
_SNAPSHOTS = {
    "iso": (IsotropicGMM, ("means", "sigma2")),
    "general": (GeneralGMM, ("means", "weights", "covs")),
}


def model_to_snapshot(model):
    """JSON-ready dict for either model family: its kind, then the fields
    ``_SNAPSHOTS`` lists for it, arrays as nested lists."""
    for kind, (cls, names) in _SNAPSHOTS.items():
        if isinstance(model, cls):
            return {"kind": kind, **{n: np.asarray(getattr(model, n)).tolist() for n in names}}
    raise TypeError(f"not a mixture model: {model!r}")


def model_from_snapshot(snapshot):
    """The model a snapshot dict describes, built from the fields
    ``_SNAPSHOTS`` lists for its kind; the model's class checks them."""
    for kind, (cls, names) in _SNAPSHOTS.items():
        if snapshot.get("kind") == kind:
            return cls(**{name: snapshot[name] for name in names})
    raise ConfigurationError(f"unknown model kind {snapshot.get('kind')!r}")


def save_model(model, path):
    Path(path).write_text(json.dumps(model_to_snapshot(model)), encoding="utf-8")


def load_model(path):
    """The model in a snapshot file.  A file that is not a snapshot raises
    ``ParseError``; a snapshot of an invalid model, ``ConfigurationError``."""
    try:
        return model_from_snapshot(json.loads(Path(path).read_text(encoding="utf-8")))
    except ConfigurationError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"{path}: not a model snapshot: {exc!r}") from None
