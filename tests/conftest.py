import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tvclust import Dataset, GeneratorSpec, generate

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
