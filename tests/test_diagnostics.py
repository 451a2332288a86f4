import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tvclust import (
    Dataset,
    IsotropicGMM,
    Responsibilities,
    RunConfig,
    TraceRecord,
    appendix_forms,
    binary_responsibilities,
    emit,
    free_energy_entropy_form,
    free_energy_kmeans,
    free_energy_trunc,
    kl_gap,
    kmeans_step,
    load_trace,
    log_joints,
    log_likelihood,
    m_step_iso,
    objective_j,
    responsibilities_exact,
    run,
    select_nearest,
    sigma2_floor,
    squared_distances,
    trace_violations,
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
    model, _, _ = m_step_iso(ds, resp)
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
            model, _, _ = m_step_iso(ds, resp)
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
            model, _, _ = m_step_iso(ds, resp)
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

    def test_equals_free_energy_over_the_exact_posteriors_bit_for_bit(self):
        # exact EM's record takes F over the exact posteriors' support, every
        # cluster in index order, and reports gap = L - F = 0.0 exactly
        for seed in range(4):
            lj = np.random.default_rng(seed).normal(size=(20000, 50))
            assert free_energy_trunc(lj, responsibilities_exact(lj)) == log_likelihood(lj)


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
        model, _, _ = m_step_iso(ds, resp)
        assert kl_gap(ds, model, resp) > 0.0

    def test_is_the_appendix_forms_gap_bit_for_bit(self):
        # on 18 of these 40 sets the gap's sigma2 form rounds differently
        # from its J form, so a second formula shows here
        for seed in range(40):
            ds = Dataset(np.random.default_rng(seed).uniform(size=(200, 3)))
            model = IsotropicGMM(ds.points[:5], 1.0)
            d2 = squared_distances(ds, model.means)
            labels = select_nearest(d2, 1)[:, 0]
            j = float(d2[np.arange(ds.n), labels].sum())
            assert kl_gap(ds, model, labels) == appendix_forms(ds, d2, j)[2]


class TestEntropyForm:
    def test_binary_reduces_to_closed_form(self):
        ds, resp, model, _ = four_point_post_iteration()
        value = free_energy_entropy_form(ds, resp, model.sigma2)
        assert value == pytest.approx(
            free_energy_kmeans(2, 1, model.sigma2), abs=1e-15
        )

    def test_uniform_pairs_add_log_two(self):
        ds = Dataset([0.0, 1.0, 3.0, 4.0])
        support = np.tile(np.array([0, 1]), (4, 1))
        weights = np.full((4, 2), 0.5)
        resp = Responsibilities(support, weights, 2)
        value = free_energy_entropy_form(ds, resp, 0.25)
        assert value - free_energy_kmeans(2, 1, 0.25) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_matches_restricted_sum_at_converged_state(self):
        ds = blob_dataset(6, c_true=3, per_cluster_n=20)
        cfg = RunConfig(algorithm="kmeans_cprime", c=3, c_prime=2, seed=4, tol=1e-12)
        res = run(ds, cfg)
        assert res.reason == "converged"
        value = free_energy_entropy_form(ds, res.responsibilities, res.model.sigma2)
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
        f, l, gap = appendix_forms(
            ds, squared_distances(ds, model.means), objective_j(ds, resp, model.means)
        )
        assert f == pytest.approx(free_energy_kmeans(2, 1, 0.25), abs=1e-12)
        assert l == pytest.approx(L_FOUR, abs=1e-12)
        assert gap == pytest.approx(GAP_FOUR, rel=1e-9)

    def test_exact_fit_stays_finite(self):
        ds = Dataset([[0.0], [4.0]])
        f, l, gap = appendix_forms(ds, squared_distances(ds, ds.points), 0.0)
        assert math.isfinite(f) and math.isfinite(l)

    def test_overflowed_j_gives_an_infinite_f(self):
        # tvclust audit reports a non-finite F as a numeric error, so the
        # closed form must not reject the infinite sigma2 of an overflowed J
        ds = Dataset([[0.0], [4.0]])
        f, l, _ = appendix_forms(ds, squared_distances(ds, ds.points), math.inf)
        assert f == l == -math.inf

    def test_bound_holds_on_random_post_iteration_states(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(6, 40))
            c = int(rng.integers(2, 5))
            ds = Dataset(rng.normal(size=(n, 2)))
            means = ds.points[rng.choice(n, c, replace=False)]
            resp, new_means, _ = kmeans_step(ds, means)
            f, l, gap = appendix_forms(
                ds, squared_distances(ds, new_means), objective_j(ds, resp, new_means)
            )
            assert l >= f - 1e-10
            assert gap >= -1e-10

    def test_three_way_agreement_post_iteration(self):
        rng = np.random.default_rng(15)
        ds = Dataset(rng.normal(size=(35, 2)))
        means = rng.normal(size=(3, 2))
        for _ in range(5):
            resp, means, _ = kmeans_step(ds, means)
            model, _, _ = m_step_iso(ds, resp)
            state = resp.support
            direct = free_energy_trunc(log_joints(ds, model), state)
            closed = free_energy_kmeans(3, 2, model.sigma2)
            via_j, _, _ = appendix_forms(
                ds, squared_distances(ds, model.means), objective_j(ds, resp, model.means)
            )
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
            model, _, _ = m_step_iso(ds, resp)
            gaps.append(kl_gap(ds, model, resp))
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-12


class TestTraceRecord:
    def test_to_dict_is_the_trace_line_format(self):
        events = ["reseeded empty cluster 1 at point 3"]
        out = TraceRecord(2, 1.5, -2.0, -1.75, 0.25, 0.125, 3, events).to_dict()
        assert list(out) == ["iter", "J", "F", "L", "gap", "sigma2", "n_changed", "events"]
        assert out["events"] == events and out["events"] is not events
        assert json.dumps(out) == (
            '{"iter": 2, "J": 1.5, "F": -2.0, "L": -1.75, "gap": 0.25, "sigma2": 0.125, '
            '"n_changed": 3, "events": ["reseeded empty cluster 1 at point 3"]}'
        )


BLOBS = blob_dataset(4)


def _five_iterations(algorithm, **extra):
    cfg = RunConfig(algorithm=algorithm, c=4, seed=2, max_iters=5, tol=0.0, **extra)
    return tuple(run(BLOBS, cfg).trace)


CPRIME = _five_iterations("kmeans_cprime", c_prime=2)
SIGMA_PI = _five_iterations("sigma_pi")

REVIVED = ["revived empty cluster 1 at point 7"]

# id: (the fit's trace, changes to record 2 given it and record 1, the
# (invariant, margin, flagged) expected at iteration 2, or None for a trace
# that passes)
BREAKS = {
    "clean": (CPRIME, lambda r, p: {}, None),
    "F falls": (CPRIME, lambda r, p: dict(F=p.F - 1.0, L=p.F - 1.0 + r.gap),
                ("monotone", -1.0, False)),
    "F falls at an event": (CPRIME, lambda r, p: dict(F=p.F - 1.0, L=p.F - 1.0 + r.gap,
                                                      events=REVIVED), ("monotone", -1.0, True)),
    "L below F": (CPRIME, lambda r, p: dict(L=r.F - 1.5e-10, gap=-0.6e-10),
                  ("bound", -1.5e-10, False)),
    "negative gap": (CPRIME, lambda r, p: dict(L=r.F - 0.6e-10, gap=-1.5e-10),
                     ("gap", -1.5e-10, False)),
    "gap off L - F": (CPRIME, lambda r, p: dict(gap=r.gap + 1e-9), ("identity", -1e-9, False)),
    "NaN F": (CPRIME, lambda r, p: dict(F=math.nan), ("finite", math.nan, False)),
    "infinite J": (CPRIME, lambda r, p: dict(J=math.inf), ("finite", math.inf, False)),
    "sigma2 off its J": (CPRIME, lambda r, p: dict(sigma2=r.sigma2 * (1.0 + 1e-9)),
                         ("sigma2", 1e-9, False)),
    "floored sigma2 at J = 0": (CPRIME, lambda r, p: dict(J=0.0, sigma2=sigma2_floor(BLOBS)),
                                None),
    "general sigma2 doubled": (SIGMA_PI, lambda r, p: dict(sigma2=2.0 * r.sigma2),
                               ("sigma2", 1.0, False)),
}


class TestTraceViolations:
    @pytest.mark.parametrize("fit,change,want", BREAKS.values(), ids=list(BREAKS))
    def test_one_change_breaks_one_named_invariant(self, fit, change, want):
        trace = list(fit)
        trace[2] = replace(trace[2], **change(trace[2], trace[1]))
        got = trace_violations(trace, BLOBS)
        if want is None:
            assert got == []
        else:
            name, margin, flagged = want
            assert got == [(2, name, pytest.approx(margin, rel=1e-6, abs=1e-15, nan_ok=True),
                            flagged)]

    def test_loaded_trace_and_raw_points_give_the_same_verdict(self, tmp_path):
        trace = list(CPRIME)
        trace[3] = replace(trace[3], sigma2=trace[3].sigma2 * 2.0)
        emit(trace, tmp_path / "t.jsonl")
        want = trace_violations(trace, BLOBS)
        assert [v.invariant for v in want] == ["sigma2"]
        assert trace_violations(load_trace(tmp_path / "t.jsonl"), BLOBS.points) == want
