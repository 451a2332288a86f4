"""Golden traces: every algorithm reproduces its recorded trace.

The fixture under ``tests/golden/`` holds one JSON-lines trace per case,
recorded once and never re-recorded to make this test pass.  Iteration
numbers, ``n_changed`` and ``events`` must match exactly; ``J``, ``F``,
``L``, ``gap`` and ``sigma2`` must match to a relative tolerance of 1e-10
(absolute below magnitude 1), the tolerance the benchmark's reference
check uses.

Every fixture also keeps the trace invariants of
``diagnostics.trace_violations``, checked on the recorded file itself.

Two datasets are covered: a uniform-box blob set (dsquared seeding) and a
duplicate-heavy set (uniform seeding) whose coinciding seeds empty
clusters, so isotropic reseeds, general-model revivals and a numeric
failure all appear in the fixture.

To record the fixture of a newly added case: ``PYTHONPATH=src python
tests/test_golden.py`` (files that already exist are left alone).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tvclust import (Dataset, GeneratorSpec, NumericError, RunConfig, emit, generate, load_trace,
                     run, trace_violations)

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-10
EXACT = ("iter", "n_changed", "events")
FLOATS = ("J", "F", "L", "gap", "sigma2")

EXTRA = {
    "kmeans": {},
    "kmeans_cprime": {"c_prime": 2},
    "lazy_kmeans": {"epsilon": 0.1},
    "em_gmm": {},
    "sigma_pi": {},
}


def uniform_box():
    spec = GeneratorSpec(
        kind="uniform",
        c_true=5,
        per_cluster_n=30,
        gen_sigma=1.0,
        domain_box=((0.0, 10.0), (0.0, 10.0)),
        seed=11,
    )
    return generate(spec)


def duplicates():
    """Six tight groups of four jittered points, each group's first point
    repeated four more times exactly."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(0.0, 10.0, size=(6, 2))
    jitter = centres[np.repeat(np.arange(6), 4)] + 0.01 * rng.normal(size=(24, 2))
    return Dataset(np.vstack([jitter, np.repeat(jitter[::4], 4, axis=0)]))


DATASETS = {
    "uniform": (uniform_box, dict(c=5, seeding="dsquared", seed=0)),
    "dup": (duplicates, dict(c=10, seeding="uniform", seed=2)),
}

# (dataset, algorithm, config overrides).  The C' = C case has a dense
# support like exact EM, yet records n_changed from its sets and F from the
# restricted sum; the last case ends in a numeric failure, whose partial
# trace is recorded as it is annotated.
CASES = [(name, alg, {}) for name in DATASETS for alg in EXTRA] + [
    ("uniform", "kmeans_cprime", {"c_prime": 5}),
    ("dup", "sigma_pi", {"seed": 0}),
]


def _case_id(name, alg, overrides):
    return f"{name}_{alg}" + "".join(f"_{k}{v}" for k, v in overrides.items())


def _trace(name, alg, overrides):
    make, kwargs = DATASETS[name]
    kwargs = dict(kwargs, max_iters=25, **EXTRA[alg])
    kwargs.update(overrides)
    try:
        return run(make(), RunConfig(algorithm=alg, **kwargs)).trace
    except NumericError as exc:
        return exc.trace


def _golden(case):
    path = GOLDEN / f"{_case_id(*case)}.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("case", CASES, ids=lambda c: _case_id(*c))
def test_trace_matches_golden(case):
    want = _golden(case)
    got = [rec.to_dict() for rec in _trace(*case)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in EXACT:
            assert g[key] == w[key], (g["iter"], key)
        for key in FLOATS:
            tol = RTOL * max(1.0, abs(w[key]))
            assert abs(g[key] - w[key]) <= tol, (g["iter"], key)


@pytest.mark.parametrize("case", CASES, ids=lambda c: _case_id(*c))
def test_golden_trace_keeps_the_invariants(case):
    trace = load_trace(GOLDEN / f"{_case_id(*case)}.jsonl")
    assert trace_violations(trace, DATASETS[case[0]][0]()) == []


def test_fixture_covers_reseeds_revivals_and_failure():
    def events(*case):
        return [e for rec in _golden(case) for e in rec["events"]]

    assert any("reseeded" in e for e in events("dup", "kmeans", {}))
    assert any("reseeded" in e for e in events("dup", "sigma_pi", {}))
    assert any("numeric failure" in e for e in events("dup", "sigma_pi", {"seed": 0}))


if __name__ == "__main__":
    # Writes only cases that have no fixture file yet; a recorded trace is
    # never rewritten.
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDEN / f"{_case_id(*case)}.jsonl"
        if not path.exists():
            emit(_trace(*case), path)
