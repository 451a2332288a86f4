import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tvclust import (Dataset, GeneratorSpec, free_energy_kmeans, generate, logsumexp, run,
                     trace_violations)

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def random_instance(seed, n_max=50, c_max=6, d_max=3):
    """Random points plus random means, for property tests."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    c = int(rng.integers(2, c_max + 1))
    d = int(rng.integers(1, d_max + 1))
    points = rng.normal(size=(n, d))
    means = rng.normal(size=(c, d))
    return points, means


def log_density_iso(y, c, model):
    """Oracle for log N(y; mu_c, sigma2 * I): the sum of the D univariate
    normal log densities, one coordinate at a time."""
    var = model.sigma2
    return sum(
        -0.5 * math.log(2.0 * math.pi * var) - (yi - mi) ** 2 / (2.0 * var)
        for yi, mi in zip(np.ravel(y).tolist(), model.means[c].tolist())
    )


def log_joints_loop(points, model):
    """Oracle for the general ``log_joints``: each cluster factorises its
    own covariance, inverts its factor, whitens freshly allocated
    residuals and fills its column, one cluster after another."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    out = np.empty((n, model.c))
    eye = np.eye(d)
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    for c in range(model.c):
        chol = np.linalg.cholesky(model.covs[c])
        z = (points - model.means[c]) @ np.linalg.solve(chol, eye).T
        maha = np.einsum("nd,nd->n", z, z)
        logdet = d * math.log(2.0 * math.pi) + 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, c] = logw[c] - 0.5 * (logdet + maha)
    return out


def _gather_rows(lj, sets):
    """C-ordered gather of ``lj`` on the index matrix ``sets``."""
    return np.ascontiguousarray(np.take_along_axis(lj, np.ascontiguousarray(sets), axis=1))


def posteriors_rows(lj, sets):
    """Oracle for the truncated posteriors as row-major code computes them:
    the gather, its log-sum-exp and the normalising sum all reduce each
    C-ordered row on its own."""
    sub = _gather_rows(lj, sets)
    w = np.exp(sub - logsumexp(sub, axis=1)[:, None])
    return w / w.sum(axis=1, keepdims=True)


def free_energy_rows(lj, sets):
    """Oracle for the truncated free energy over C-ordered rows."""
    return float(np.mean(logsumexp(_gather_rows(lj, sets), axis=1)))


def _column_sum(a):
    """Each row's sum, added left to right one column at a time."""
    total = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        total = total + a[:, k]
    return total


def _logsumexp_columns(sub):
    amax = np.max(sub, axis=1, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(_column_sum(np.exp(sub - amax))) + amax[:, 0]


def posteriors_columns(lj, sets):
    """Oracle for the truncated posteriors with every per-point sum taken
    sequentially over the set's columns."""
    sub = np.take_along_axis(lj, sets, axis=1)
    w = np.exp(sub - _logsumexp_columns(sub)[:, None])
    return w / _column_sum(w)[:, None]


def free_energy_columns(lj, sets):
    """Oracle for the truncated free energy with column-sequential sums."""
    return float(np.mean(_logsumexp_columns(np.take_along_axis(lj, sets, axis=1))))


def objective_j_rows(points, support, weights, means):
    """Oracle for J over an explicit support: the weighted squared
    residuals summed as one C-ordered (N, K) array."""
    sq = np.empty(support.shape)
    for k in range(sq.shape[1]):
        diff = points - means[support[:, k]]
        sq[:, k] = np.einsum("nd,nd->n", diff, diff)
    return float(np.sum(np.ascontiguousarray(weights) * sq))


def entropy_form_rows(points, weights, n_clusters, sigma2):
    """Oracle for ``free_energy_entropy_form``: the hard closed form plus
    the entropy terms summed as one C-ordered (N, K) array."""
    n, d = points.shape
    w = np.ascontiguousarray(weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log(w), 0.0)
    return free_energy_kmeans(n_clusters, d, sigma2) + float(-np.sum(terms) / n)


def blob_dataset(seed, c_true=4, per_cluster_n=40, box=10.0, gen_sigma=1.0):
    """Uniform-center blob benchmark used across the suite."""
    spec = GeneratorSpec(
        kind="uniform",
        c_true=c_true,
        per_cluster_n=per_cluster_n,
        gen_sigma=gen_sigma,
        domain_box=((0.0, box), (0.0, box)),
        seed=seed,
    )
    return generate(spec)


def fit_violations(dataset, config):
    """``run`` the fit; return its result and the ``trace_violations`` of its trace."""
    result = run(dataset, config)
    return result, trace_violations(result.trace, dataset)


def count_calls(monkeypatch, module_name, name, counted=lambda *args: True):
    """Wrap ``name`` in every tvclust module holding it; return the count list."""
    original = getattr(sys.modules[f"tvclust.{module_name}"], name)
    calls = []

    def counting(*args, **kwargs):
        if counted(*args):
            calls.append(1)
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("tvclust") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def four_points():
    return Dataset([0.0, 1.0, 3.0, 4.0])
