import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tvclust import (
    ConfigurationError,
    GeneralGMM,
    IsotropicGMM,
    free_energy_trunc,
    lazy_reassign,
    log_joints,
    logsumexp,
    responsibilities_exact,
    select_nearest,
    sigma_pi_scores,
    squared_distances,
    truncated_responsibilities,
)

from conftest import random_instance


class TestSelectNearest:
    def test_unique_nearest(self):
        d2 = squared_distances(np.array([[2.0]]), np.array([[0.0], [3.0], [10.0]]))
        state = select_nearest(d2, 1)
        assert state.tolist() == [[1]]

    def test_full_set_ordered_by_distance(self):
        d2 = squared_distances(np.array([[2.0]]), np.array([[0.0], [3.0], [10.0]]))
        state = select_nearest(d2, 3)
        assert state.tolist() == [[1, 0, 2]]

    def test_tie_breaks_to_smallest_index(self):
        state = select_nearest(squared_distances(np.array([[0.0]]), np.array([[-1.0], [1.0]])), 1)
        assert state.tolist() == [[0]]

    def test_c_prime_bounds(self):
        means = np.array([[0.0], [1.0]])
        with pytest.raises(ConfigurationError):
            select_nearest(squared_distances(np.array([[0.0]]), means), 0)
        with pytest.raises(ConfigurationError):
            select_nearest(squared_distances(np.array([[0.0]]), means), 3)

    @given(seed=st.integers(0, 5_000), c_prime=st.integers(1, 4))
    def test_matches_sorted_distances(self, seed, c_prime):
        points, means = random_instance(seed, n_max=12, c_max=6, d_max=3)
        c_prime = min(c_prime, means.shape[0])
        d2 = squared_distances(points, means)
        state = select_nearest(d2, c_prime)
        for i in range(points.shape[0]):
            chosen = d2[i, state[i]]
            others = np.delete(d2[i], state[i])
            assert np.all(np.diff(chosen) >= 0)  # nearest first
            if others.size:
                assert chosen.max() <= others.min()


class TestLazyReassign:
    def test_no_switch_when_improvement_too_small(self):
        # current distance 1.4, best new 1.0, eps 0.5: 1.5 > 1.4 keeps current
        points = np.array([[0.0]])
        means = np.array([[1.4], [1.0]])
        state = np.array([[0]])
        out = lazy_reassign(squared_distances(points, means), 0.5, state)
        assert out.tolist() == [[0]]

    def test_switch_when_improvement_large_enough(self):
        # current distance 1.6, best new 1.0, eps 0.5: 1.5 < 1.6 switches
        points = np.array([[0.0]])
        means = np.array([[1.6], [1.0]])
        state = np.array([[0]])
        out = lazy_reassign(squared_distances(points, means), 0.5, state)
        assert out.tolist() == [[1]]

    def test_zero_epsilon_matches_nearest_selection(self):
        points, means = random_instance(21, n_max=30)
        start = np.random.default_rng(5).integers(
            0, means.shape[0], size=(len(points), 1)
        )
        d2 = squared_distances(points, means)
        lazy = lazy_reassign(d2, 0.0, start)
        nearest = select_nearest(d2, 1)
        assert np.array_equal(lazy, nearest)

    def test_rejects_wide_sets(self):
        points = np.array([[0.0]])
        means = np.array([[0.0], [1.0], [2.0]])
        d2 = squared_distances(points, means)
        state = select_nearest(d2, 2)
        with pytest.raises(ConfigurationError):
            lazy_reassign(d2, 0.1, state)

    def test_rejects_negative_epsilon(self):
        points = np.array([[0.0]])
        state = np.array([[0]])
        with pytest.raises(ConfigurationError):
            lazy_reassign(squared_distances(points, np.array([[0.0], [1.0]])), -0.1, state)

    def test_rejects_nan_epsilon(self):
        # a NaN factor never switches, so it would freeze every set silently
        points = np.array([[0.0], [10.0]])
        means = np.array([[0.0], [10.0]])
        with pytest.raises(ConfigurationError):
            lazy_reassign(squared_distances(points, means), float("nan"), np.array([[1], [0]]))


class TestSigmaPiScore:
    def test_variance_and_weight_aware_selection(self):
        # point at the first mean, but the tighter second cluster wins
        model = GeneralGMM(
            np.array([0.5, 0.5]),
            np.array([[0.0], [0.5]]),
            np.array([[[4.0]], [[0.25]]]),
        )
        s0, s1 = sigma_pi_scores(log_joints([[0.0]], model))[0]
        assert s0 == pytest.approx(
            math.log(8.0 * math.pi) + 2.0 * math.log(2.0), abs=1e-12
        )
        assert s1 == pytest.approx(
            1.0 + math.log(0.5 * math.pi) + 2.0 * math.log(2.0), abs=1e-12
        )
        assert s1 < s0

    def test_reduces_to_nearest_for_shared_isotropic(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(25, 2))
        means = rng.normal(size=(4, 2))
        model = GeneralGMM(
            np.full(4, 0.25),
            means,
            np.broadcast_to(0.3 * np.eye(2), (4, 2, 2)).copy(),
        )
        scores = sigma_pi_scores(log_joints(points, model))
        nearest = select_nearest(squared_distances(points, means), 1)[:, 0]
        assert np.array_equal(np.argmin(scores, axis=1), nearest)

    def test_global_weight_scale_shifts_scores_equally(self):
        # the weight enters as -2 log(pi_c): doubling every weight before
        # normalization shifts each score by the same -2 log 2
        rng = np.random.default_rng(8)
        means = rng.normal(size=(3, 2))
        covs = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
        model = GeneralGMM(np.array([0.2, 0.3, 0.5]), means, covs)
        y = rng.normal(size=2)
        scores = sigma_pi_scores(log_joints(y[None, :], model))[0]
        d2 = squared_distances(y[None, :], means)[0]
        doubled = np.array(
            [
                d2[c] + math.log((2.0 * math.pi) ** 2 * 1.0) - 2.0 * math.log(2.0 * w)
                for c, w in enumerate([0.2, 0.3, 0.5])
            ]
        )
        diff = scores - doubled
        assert np.allclose(diff, diff[0], atol=1e-12)
        assert np.argmin(scores) == np.argmin(doubled)

    def test_swap_toward_lower_score_raises_general_free_energy(self):
        rng = np.random.default_rng(17)
        points = rng.normal(size=(6, 2))
        model = GeneralGMM(
            np.array([0.5, 0.3, 0.2]),
            rng.normal(size=(3, 2)),
            np.broadcast_to(0.8 * np.eye(2), (3, 2, 2)).copy(),
        )
        lj = log_joints(points, model)
        scores = sigma_pi_scores(lj)
        sets = np.full((6, 1), 2, dtype=np.int64)
        f0 = free_energy_trunc(lj, sets)
        for i in range(6):
            for cand in range(3):
                if cand == 2:
                    continue
                new = sets.copy()
                new[i, 0] = cand
                f1 = free_energy_trunc(lj, new)
                if scores[i, cand] < scores[i, 2]:
                    assert f1 > f0
                else:
                    assert f1 <= f0


class TestTruncatedResponsibilities:
    def test_singleton_sets_are_exactly_binary(self):
        points, means = random_instance(31)
        for sigma2 in (1e-6, 1.0, 1e6):
            model = IsotropicGMM(means, sigma2)
            state = select_nearest(squared_distances(points, means), 1)
            resp = truncated_responsibilities(log_joints(points, model), state)
            assert np.all(resp.weights == 1.0)

    def test_two_term_softmax_values(self):
        model = IsotropicGMM(np.array([[0.0], [1.0]]), 0.5)
        state = np.array([[0, 1]])
        resp = truncated_responsibilities(log_joints(np.array([[0.0]]), model), state)
        p = 1.0 / (1.0 + math.exp(-1.0))
        assert resp.weights[0, 0] == pytest.approx(p, abs=1e-12)
        assert resp.weights[0, 1] == pytest.approx(1.0 - p, abs=1e-12)

    def test_full_sets_match_exact_posteriors(self):
        points, means = random_instance(44)
        model = IsotropicGMM(means, 0.4)
        lj = log_joints(points, model)
        state = select_nearest(squared_distances(points, means), means.shape[0])
        sparse = truncated_responsibilities(lj, state).dense()
        exact = responsibilities_exact(lj).dense()
        assert np.max(np.abs(sparse - exact)) <= 1e-12

    @given(seed=st.integers(0, 5_000))
    def test_support_and_row_sums(self, seed):
        points, means = random_instance(seed, n_max=15)
        c = means.shape[0]
        cp = int(np.random.default_rng(seed).integers(1, c + 1))
        model = IsotropicGMM(means, 0.7)
        state = select_nearest(squared_distances(points, means), cp)
        resp = truncated_responsibilities(log_joints(points, model), state)
        assert np.allclose(resp.weights.sum(axis=1), 1.0, atol=1e-12)
        dense = resp.dense()
        off_support = np.ones_like(dense, dtype=bool)
        np.put_along_axis(off_support, state, False, axis=1)
        assert np.all(dense[off_support] == 0.0)

    def test_rejects_foreign_state(self):
        model = IsotropicGMM(np.array([[0.0], [1.0]]), 1.0)
        state = np.array([[3]])
        with pytest.raises(ConfigurationError):
            truncated_responsibilities(log_joints(np.array([[0.0]]), model), state)



BAD_INDEX_SETS = {
    "at_c": [[2]],
    "beyond_c": [[5]],
    "negative": [[-1]],
    "repeated": [[1, 1]],
    "not_2d": [0],
}
INDEX_CONSUMERS = {
    "truncated_responsibilities": lambda y, model, sets: truncated_responsibilities(
        log_joints(y, model), sets
    ),
    "free_energy_trunc": lambda y, model, sets: free_energy_trunc(log_joints(y, model), sets),
    "lazy_reassign": lambda y, model, sets: lazy_reassign(
        squared_distances(y, model.means), 0.1, sets
    ),
}


@pytest.mark.parametrize("consumer", INDEX_CONSUMERS)
@pytest.mark.parametrize("bad", BAD_INDEX_SETS)
def test_bad_index_matrix_is_configuration_error(consumer, bad):
    # C = 2: every index matrix must be 2-D with distinct entries in [0, 2)
    model = IsotropicGMM(np.array([[0.0], [1.0]]), 1.0)
    with pytest.raises(ConfigurationError):
        INDEX_CONSUMERS[consumer](np.array([[0.0]]), model, np.array(BAD_INDEX_SETS[bad]))

@pytest.mark.parametrize("consumer", INDEX_CONSUMERS)
def test_index_matrix_row_count_must_match_points(consumer):
    # three points, a two-row index matrix
    model = IsotropicGMM(np.array([[0.0], [1.0]]), 1.0)
    points = np.array([[0.0], [0.5], [1.0]])
    with pytest.raises(ConfigurationError, match="2 rows for 3 points"):
        INDEX_CONSUMERS[consumer](points, model, np.array([[0], [1]]))


@pytest.mark.parametrize("c_prime", [1, 2, 3, 5])
def test_select_nearest_is_stable_argsort_under_ties(c_prime):
    # integer grid points and centres: many exactly tied distances
    rng = np.random.default_rng(8)
    points = rng.integers(0, 4, size=(300, 2)).astype(float)
    means = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    d2 = squared_distances(points, means)
    want = np.argsort(d2, axis=1, kind="stable")[:, :c_prime]
    assert np.array_equal(select_nearest(d2, c_prime), want)


class TestSingleSwapMonotonicity:
    """Exhaustive single-swap checks of the free-energy selection criterion."""

    @pytest.mark.parametrize("seed", range(6))
    def test_swap_increases_iff_distance_decreases(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        c = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        points = rng.normal(size=(n, d))
        means = rng.normal(size=(c, d))
        d2 = squared_distances(points, means)
        # keep every joint representable so swaps register in float
        model = IsotropicGMM(means, float(d2.max()) / 20.0 + 0.05)
        cp = int(rng.integers(1, c))
        sets = np.array([rng.choice(c, size=cp, replace=False) for _ in range(n)])
        state = sets
        lj = log_joints(points, model)
        f0 = free_energy_trunc(lj, state)
        for i in range(n):
            for a in sets[i]:
                for b in range(c):
                    if b in sets[i]:
                        continue
                    new_sets = sets.copy()
                    new_sets[i, np.where(new_sets[i] == a)[0][0]] = b
                    f1 = free_energy_trunc(lj, new_sets)
                    if d2[i, b] < d2[i, a]:
                        assert f1 > f0
                    else:
                        assert f1 <= f0


class TestNearestSelectionOptimality:
    def test_small_exhaustive_enumeration(self):
        rng = np.random.default_rng(27)
        points = rng.normal(size=(3, 2))
        means = rng.normal(size=(3, 2))
        model = IsotropicGMM(means, 0.5)
        lj = log_joints(points, model)
        best = -np.inf
        for config in itertools.product(
            itertools.combinations(range(3), 2), repeat=3
        ):
            sets = np.array(config)
            val = float(np.mean(logsumexp(np.take_along_axis(lj, sets, axis=1))))
            best = max(best, val)
        chosen = free_energy_trunc(lj, select_nearest(squared_distances(points, means), 2))
        assert chosen == pytest.approx(best, abs=1e-12)
        assert chosen >= best - 1e-12
