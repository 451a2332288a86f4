import math

import numpy as np
import pytest

from tvclust import (
    Dataset,
    IsotropicGMM,
    Responsibilities,
    RunConfig,
    appendix_forms,
    binary_responsibilities,
    free_energy_entropy_form,
    free_energy_kmeans,
    free_energy_trunc,
    kl_gap,
    kmeans_step,
    log_joints,
    log_likelihood,
    m_step_iso,
    objective_j,
    run,
    select_nearest,
    squared_distances,
)

from conftest import blob_dataset

# frozen closed-form values for the {0,1,3,4} instance after one iteration
# (means (0.5, 3.5), split assignment, sigma2 = 0.25)
F_FOUR = -1.4189385332046727
GAP_FOUR = 3.0721156145663286e-06
L_FOUR = F_FOUR + GAP_FOUR


def four_point_post_iteration():
    ds = Dataset([0.0, 1.0, 3.0, 4.0])
    resp, means, _ = kmeans_step(ds, np.array([[0.0], [4.0]]))
    model, _ = m_step_iso(ds, resp)
    state = resp.support
    return ds, resp, model, state


class TestObjectiveJ:
    def test_exact_fit_is_zero(self):
        ds = Dataset([[0.0], [4.0]])
        resp = binary_responsibilities([0, 1], 2)
        assert objective_j(ds, resp, np.array([[0.0], [4.0]])) == 0.0

    def test_four_point_value(self):
        ds, resp, model, _ = four_point_post_iteration()
        assert objective_j(ds, resp, model.means) == pytest.approx(1.0, abs=1e-15)

    def test_accepts_plain_labels(self):
        ds = Dataset([0.0, 1.0, 3.0, 4.0])
        j = objective_j(ds, [0, 0, 1, 1], np.array([[0.5], [3.5]]))
        assert j == pytest.approx(1.0, abs=1e-15)

    def test_distortion_variance_identity(self):
        # J = D * N * sigma2 when sigma2 comes from the same assignments/means
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(60, 3)))
        means = rng.normal(size=(4, 3))
        for _ in range(5):
            resp, means, _ = kmeans_step(ds, means)
            model, _ = m_step_iso(ds, resp)
            j = objective_j(ds, resp, model.means)
            assert abs(j - ds.n * ds.d * model.sigma2) <= 1e-12


class TestFreeEnergyTrunc:
    def test_full_sets_equal_likelihood(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(20, 2)))
        model = IsotropicGMM(rng.normal(size=(3, 2)), 0.7)
        state = select_nearest(squared_distances(ds.points, model.means), 3)
        lj = log_joints(ds, model)
        assert free_energy_trunc(lj, state) == pytest.approx(
            log_likelihood(lj), abs=1e-12
        )

    def test_single_cluster_closed_form(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(15, 2)))
        model = IsotropicGMM(np.zeros((1, 2)), 0.9)
        state = select_nearest(squared_distances(ds.points, model.means), 1)
        expected = -0.5 * 2 * math.log(2 * math.pi * 0.9) - float(
            np.sum(ds.points**2)
        ) / (2 * 0.9 * ds.n)
        assert free_energy_trunc(log_joints(ds, model), state) == pytest.approx(expected, rel=1e-12)

    def test_four_point_value(self):
        ds, _, model, state = four_point_post_iteration()
        assert free_energy_trunc(log_joints(ds, model), state) == pytest.approx(F_FOUR, abs=1e-12)


class TestFreeEnergyKmeans:
    def test_log_term_vanishes(self):
        sigma2 = 1.0 / (2.0 * math.pi * math.e)
        assert free_energy_kmeans(2, 1, sigma2) == pytest.approx(
            -math.log(2.0), abs=1e-15
        )

    def test_quarter_variance_value(self):
        assert free_energy_kmeans(2, 1, 0.25) == pytest.approx(F_FOUR, abs=1e-15)

    def test_doubling_c_lowers_by_log_two(self):
        a = free_energy_kmeans(3, 2, 0.7)
        b = free_energy_kmeans(6, 2, 0.7)
        assert a - b == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_restricted_sum_post_iteration(self):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.normal(size=(30, 2)))
        means = rng.normal(size=(3, 2))
        for _ in range(4):
            resp, means, _ = kmeans_step(ds, means)
            model, _ = m_step_iso(ds, resp)
            state = resp.support
            closed = free_energy_kmeans(3, 2, model.sigma2)
            assert free_energy_trunc(log_joints(ds, model), state) == pytest.approx(
                closed, abs=1e-12
            )


class TestLogLikelihood:
    def test_unit_peak(self):
        ds = Dataset([[0.0]])
        model = IsotropicGMM(np.array([[0.0]]), 1.0 / (2.0 * math.pi))
        assert log_likelihood(log_joints(ds, model)) == pytest.approx(0.0, abs=1e-15)

    def test_four_point_value(self):
        ds, _, model, _ = four_point_post_iteration()
        assert log_likelihood(log_joints(ds, model)) == pytest.approx(L_FOUR, abs=1e-12)

    def test_dominates_free_energy_for_any_truncation(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(25, 2)))
        model = IsotropicGMM(rng.normal(size=(4, 2)), 0.6)
        lj = log_joints(ds, model)
        ll = log_likelihood(lj)
        for cp in (1, 2, 3, 4):
            state = select_nearest(squared_distances(ds.points, model.means), cp)
            assert ll >= free_energy_trunc(lj, state) - 1e-12


class TestKlGap:
    def test_single_cluster_is_zero(self):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.normal(size=(12, 3)))
        labels = np.zeros(12, dtype=int)
        mean = ds.points.mean(axis=0, keepdims=True)
        sigma2 = float(np.sum((ds.points - mean) ** 2)) / (3 * 12)
        model = IsotropicGMM(mean, sigma2)
        assert abs(kl_gap(ds, model, labels)) <= 1e-12

    def test_four_point_value(self):
        ds, resp, model, _ = four_point_post_iteration()
        assert kl_gap(ds, model, resp) == pytest.approx(GAP_FOUR, rel=1e-9)

    def test_identity_with_likelihood_and_closed_form(self):
        ds, resp, model, _ = four_point_post_iteration()
        lhs = log_likelihood(log_joints(ds, model)) - free_energy_kmeans(2, 1, model.sigma2)
        assert abs(lhs - kl_gap(ds, model, resp)) <= 1e-10

    def test_positive_when_other_terms_contribute(self):
        ds = Dataset([[0.0], [1.0]])
        resp, means, _ = kmeans_step(ds, np.array([[0.1], [0.9]]))
        model, _ = m_step_iso(ds, resp)
        assert kl_gap(ds, model, resp) > 0.0


class TestEntropyForm:
    def test_binary_reduces_to_closed_form(self):
        ds, resp, model, _ = four_point_post_iteration()
        value = free_energy_entropy_form(ds, resp, model.means, model.sigma2)
        assert value == pytest.approx(
            free_energy_kmeans(2, 1, model.sigma2), abs=1e-15
        )

    def test_uniform_pairs_add_log_two(self):
        ds = Dataset([0.0, 1.0, 3.0, 4.0])
        support = np.tile(np.array([0, 1]), (4, 1))
        weights = np.full((4, 2), 0.5)
        resp = Responsibilities(support, weights, 2)
        value = free_energy_entropy_form(ds, resp, np.array([[0.5], [3.5]]), 0.25)
        assert value - free_energy_kmeans(2, 1, 0.25) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_matches_restricted_sum_at_converged_state(self):
        ds = blob_dataset(6, c_true=3, per_cluster_n=20)
        cfg = RunConfig(algorithm="kmeans_cprime", c=3, c_prime=2, seed=4, tol=1e-12)
        res = run(ds, cfg)
        assert res.reason == "converged"
        value = free_energy_entropy_form(
            ds, res.responsibilities, res.model.means, res.model.sigma2
        )
        direct = free_energy_trunc(log_joints(ds, res.model), res.responsibilities.support)
        assert abs(value - direct) <= 1e-9

    def test_wider_sets_raise_free_energy_at_fixed_parameters(self):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.normal(size=(30, 2)))
        model = IsotropicGMM(rng.normal(size=(4, 2)), 0.8)
        lj = log_joints(ds, model)
        d2 = squared_distances(ds.points, model.means)
        f1 = free_energy_trunc(lj, select_nearest(d2, 1))
        f2 = free_energy_trunc(lj, select_nearest(d2, 2))
        assert f2 >= f1


class TestAppendixForms:
    def test_matches_direct_form_on_four_points(self):
        ds, resp, model, _ = four_point_post_iteration()
        f, l, gap = appendix_forms(ds, resp, model.means, 2)
        assert f == pytest.approx(free_energy_kmeans(2, 1, 0.25), abs=1e-12)
        assert l == pytest.approx(L_FOUR, abs=1e-12)
        assert gap == pytest.approx(GAP_FOUR, rel=1e-9)

    def test_exact_fit_stays_finite(self):
        ds = Dataset([[0.0], [4.0]])
        f, l, gap = appendix_forms(ds, [0, 1], np.array([[0.0], [4.0]]), 2)
        assert math.isfinite(f) and math.isfinite(l)

    def test_bound_holds_on_random_post_iteration_states(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(6, 40))
            c = int(rng.integers(2, 5))
            ds = Dataset(rng.normal(size=(n, 2)))
            means = ds.points[rng.choice(n, c, replace=False)]
            resp, new_means, _ = kmeans_step(ds, means)
            f, l, gap = appendix_forms(ds, resp, new_means, c)
            assert l >= f - 1e-10
            assert gap >= -1e-10

    def test_three_way_agreement_post_iteration(self):
        rng = np.random.default_rng(15)
        ds = Dataset(rng.normal(size=(35, 2)))
        means = rng.normal(size=(3, 2))
        for _ in range(5):
            resp, means, _ = kmeans_step(ds, means)
            model, _ = m_step_iso(ds, resp)
            state = resp.support
            direct = free_energy_trunc(log_joints(ds, model), state)
            closed = free_energy_kmeans(3, 2, model.sigma2)
            via_j, _, _ = appendix_forms(ds, resp, model.means, 3)
            assert abs(direct - closed) <= 1e-9
            assert abs(closed - via_j) <= 1e-9


class TestTightnessTrend:
    def test_gap_shrinks_with_separation(self):
        # same noise for every separation; only the center distance grows
        rng = np.random.default_rng(19)
        noise = rng.normal(size=(120, 2))
        labels = np.repeat([0, 1], 60)
        gaps = []
        for sep in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]:
            centers = np.array([[0.0, 0.0], [sep, 0.0]])
            ds = Dataset(centers[labels] + noise)
            means = centers.copy()
            for _ in range(20):
                resp, means, _ = kmeans_step(ds, means)
            model, _ = m_step_iso(ds, resp)
            gaps.append(kl_gap(ds, model, resp))
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-12
