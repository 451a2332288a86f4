import numpy as np
import pytest

from tvclust import (
    ConfigurationError,
    Dataset,
    GeneralGMM,
    IsotropicGMM,
    NumericError,
    RunConfig,
    binary_responsibilities,
    em_gmm_step,
    free_energy_trunc,
    kmeans_step,
    lazy_step,
    log_joints,
    m_step_general,
    m_step_iso,
    make_rng,
    objective_j,
    responsibilities_exact,
    run,
    seed_dsquared,
    seed_uniform,
    select_nearest,
    sigma2_floor,
    sigma_pi_scores,
    sigma_pi_step,
    squared_distances,
    truncated_responsibilities,
    tvem_step,
)
from tvclust.data import GeneratorSpec, generate
from tvclust.models import COV_RIDGE, regularize_covariances

from conftest import blob_dataset, count_calls, fit_violations


class TestRunConfig:
    def test_kmeans_cprime_requires_c_prime(self):
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="kmeans_cprime", c=3)
        RunConfig(algorithm="kmeans_cprime", c=3, c_prime=2)

    def test_c_prime_rejected_elsewhere(self):
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="kmeans", c=3, c_prime=1)

    def test_lazy_requires_epsilon(self):
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="lazy_kmeans", c=3)
        RunConfig(algorithm="lazy_kmeans", c=3, epsilon=0.0)

    def test_epsilon_rejected_elsewhere(self):
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="em_gmm", c=3, epsilon=0.1)

    @pytest.mark.parametrize("param", ["c_prime", "epsilon"])
    @pytest.mark.parametrize(
        "algorithm", ["kmeans", "em_gmm", "kmeans_cprime", "lazy_kmeans", "sigma_pi"]
    )
    def test_parameter_table(self, algorithm, param):
        valid = {"c_prime": 2, "epsilon": 0.1}
        takes = {"kmeans_cprime": "c_prime", "lazy_kmeans": "epsilon"}.get(algorithm)
        kwargs = {takes: valid[takes]} if takes else {}
        if param == takes:
            RunConfig(algorithm=algorithm, c=3, **kwargs)
            del kwargs[param]
            message = f"{algorithm} requires {param}"
        else:
            kwargs[param] = valid[param]
            message = f"{algorithm} does not take {param}"
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            RunConfig(algorithm=algorithm, c=3, **kwargs)

    def test_bad_values(self):
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="nope", c=3)
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="kmeans", c=0)
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="kmeans", c=3, seeding="magic")
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="kmeans", c=3, max_iters=-1)
        with pytest.raises(ConfigurationError):
            RunConfig(algorithm="kmeans_cprime", c=3, c_prime=4)
        with pytest.raises(ConfigurationError, match="epsilon must be >= 0"):
            RunConfig(algorithm="lazy_kmeans", c=3, epsilon=float("nan"))
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            RunConfig(algorithm="kmeans", c=3, seed=-1)
        with pytest.raises(ConfigurationError, match="tol must be >= 0"):
            RunConfig(algorithm="kmeans", c=3, tol=float("nan"))


class TestSeeding:
    def test_uniform_exhaustive_is_permutation(self):
        points = np.array([[0.0], [1.0], [3.0]])
        means = seed_uniform(points, 3, make_rng(0))
        assert sorted(means.ravel().tolist()) == [0.0, 1.0, 3.0]

    def test_uniform_deterministic(self):
        points = np.arange(10.0)[:, None]
        a = seed_uniform(points, 4, make_rng(42))
        b = seed_uniform(points, 4, make_rng(42))
        assert np.array_equal(a, b)

    def test_uniform_rejects_too_many(self):
        with pytest.raises(ConfigurationError):
            seed_uniform(np.array([[0.0]]), 2, make_rng(0))

    def test_uniform_frequency_law(self):
        points = np.array([[0.0], [1.0], [3.0]])
        rng = make_rng(7)
        counts = np.zeros(3)
        trials = 10_000
        for _ in range(trials):
            value = seed_uniform(points, 1, rng)[0, 0]
            counts[[0.0, 1.0, 3.0].index(value)] += 1
        assert np.all(np.abs(counts / trials - 1.0 / 3.0) < 0.02)

    def test_dsquared_deterministic_two_points(self):
        points = np.array([[0.0], [3.0]])
        for seed in range(20):
            means = seed_dsquared(points, 2, make_rng(seed), initial=0)
            assert means.ravel().tolist() == [0.0, 3.0]

    def test_dsquared_duplicate_fallback(self):
        points = np.zeros((5, 2))
        means = seed_dsquared(points, 2, make_rng(3))
        assert np.array_equal(means, np.zeros((2, 2)))

    def test_dsquared_rejects_too_many(self):
        with pytest.raises(ConfigurationError):
            seed_dsquared(np.array([[0.0]]), 2, make_rng(0))


class TestMStepIso:
    def test_hand_computed_split(self, four_points):
        resp = binary_responsibilities([0, 0, 1, 1], 2)
        model, events, _ = m_step_iso(four_points, resp)
        assert np.allclose(model.means, [[0.5], [3.5]], atol=0)
        assert model.sigma2 == pytest.approx(0.25, abs=1e-15)
        assert events == []

    def test_uniform_responsibilities_collapse_to_global_mean(self, four_points):
        support = np.tile(np.arange(2), (4, 1))
        weights = np.full((4, 2), 0.5)
        from tvclust import Responsibilities

        model, _, _ = m_step_iso(four_points, Responsibilities(support, weights, 2))
        assert np.allclose(model.means, 2.0, atol=1e-15)

    def test_singleton_clusters_hit_floor(self):
        ds = Dataset([[0.0], [10.0]])
        model, _, _ = m_step_iso(ds, binary_responsibilities([0, 1], 2))
        assert model.sigma2 == sigma2_floor(ds.points)

    def test_empty_cluster_reseeded_at_worst_point(self):
        ds = Dataset([[0.0], [0.5], [9.0]])
        resp = binary_responsibilities([0, 0, 0], 2)  # cluster 1 unused
        model, events, _ = m_step_iso(ds, resp)
        assert len(events) == 1 and "cluster 1" in events[0]
        # farthest point from the merged mean is the outlier at 9
        assert model.means[1, 0] == 9.0


class TestMStepGeneral:
    def test_singleton_zero_scatter(self):
        ds = Dataset([[0.0], [5.0]])
        resp = binary_responsibilities([0, 1], 2)
        prev = GeneralGMM(np.full(2, 0.5), np.zeros((2, 1)), np.ones((2, 1, 1)))
        model, events, _ = m_step_general(ds, resp, prev)
        assert np.allclose(model.weights, [0.5, 0.5])
        assert np.array_equal(model.covs, np.zeros((2, 1, 1)))
        assert events == []

    def test_all_mass_on_one_cluster(self):
        ds = Dataset([[0.0, 0.0], [2.0, 2.0], [0.0, 2.0], [2.0, 0.0]])
        resp = binary_responsibilities([1, 1, 1, 1], 3)
        prev = GeneralGMM(
            np.full(3, 1.0 / 3.0),
            np.zeros((3, 2)),
            np.array([2.0, 3.0, 5.0])[:, None, None] * np.eye(2),
        )
        model, events, _ = m_step_general(ds, resp, prev)
        assert np.allclose(model.means[1], [1.0, 1.0])
        # every point is sqrt(2) from the mean, so the stable worst-fit
        # order is the point order: clusters 0 and 2 land on points 0 and 1
        assert model.means[0].tolist() == [0.0, 0.0]
        assert model.means[2].tolist() == [2.0, 2.0]
        assert np.array_equal(model.covs[[0, 2]], prev.covs[[0, 2]])
        assert model.weights.tolist() == [0.25, 0.5, 0.25]
        assert events == [
            "reseeded empty cluster 0 at point 0",
            "reseeded empty cluster 2 at point 1",
        ]

    def test_covariances_symmetric(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(60, 3))
        model0 = GeneralGMM(
            np.full(2, 0.5),
            rng.normal(size=(2, 3)),
            np.broadcast_to(np.eye(3), (2, 3, 3)).copy(),
        )
        resp = responsibilities_exact(log_joints(points, model0))
        model, _, _ = m_step_general(points, resp, model0)
        for cov in model.covs:
            assert np.max(np.abs(cov - cov.T)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_means_equal_isotropic_means(self, k):
        # the same posteriors give both families the same means, bit for
        # bit, on K-wide sets of a general model with equal weights and
        # shared isotropic covariances, at an offset where rounding shows
        rng = np.random.default_rng(0)
        ds = Dataset(1e5 + rng.uniform(0.0, 10.0, size=(3000, 3)))
        gen = GeneralGMM(
            np.full(6, 1.0 / 6.0),
            ds.points[:6].copy(),
            np.broadcast_to(4.0 * np.eye(3), (6, 3, 3)).copy(),
        )
        lj = log_joints(ds, gen)
        resp = truncated_responsibilities(lj, select_nearest(sigma_pi_scores(lj), k))
        assert np.array_equal(
            m_step_general(ds, resp, gen)[0].means, m_step_iso(ds, resp)[0].means
        )

    @pytest.mark.parametrize("c_prime", [1, 2, 3])
    def test_support_only_scatter_matches_dense(self, c_prime):
        # cluster 0 holds most rows, from every column of the sets; with
        # c_prime = 3 every cluster is in every point's set, at a column
        # that varies by point, so each group holds all N rows.  At an
        # offset of 1e3 a changed summation order shows in the bits
        rng = np.random.default_rng(11)
        centres = 1e3 + np.array([[0.0, 0.0, 0.0], [6.0, 6.0, 6.0], [0.0, 6.0, 0.0]])
        points = np.vstack([c + rng.normal(size=(m, 3)) for c, m in zip(centres, (640, 90, 70))])
        gen = GeneralGMM(np.full(3, 1.0 / 3.0), centres, np.broadcast_to(np.eye(3), (3, 3, 3)).copy())
        lj = log_joints(points, gen)
        resp = truncated_responsibilities(lj, select_nearest(sigma_pi_scores(lj), c_prime))
        assert np.count_nonzero(resp.support == 0) > 2 * 256
        model, events, _ = m_step_general(points, resp, gen)
        # the dense reference: one einsum per cluster over all N rows
        w = resp.dense()
        want = np.empty((3, 3, 3))
        for k in range(3):
            diff = points - model.means[k]
            want[k] = np.einsum("nd,ne->de", w[:, k, None] * diff, diff) / w[:, k].sum()
        want = regularize_covariances(0.5 * (want + np.transpose(want, (0, 2, 1))))
        assert events == []
        assert np.max(np.abs(model.covs - want) / np.abs(want).max(axis=(1, 2))[:, None, None]) <= 1e-12

    def test_exact_posteriors_scatter_bit_for_bit_as_the_dense_einsum(self):
        # exact EM's groups are all N rows in order, so the scatter sums
        # the values of a dense per-cluster einsum in its order, and J and
        # the covariances keep their bits, at an offset where rounding shows
        rng = np.random.default_rng(5)
        points = 1e4 + rng.normal(scale=3.0, size=(900, 3))
        a = rng.normal(size=(4, 3, 3))
        gen = GeneralGMM(np.full(4, 0.25), points[:4].copy(), a @ np.transpose(a, (0, 2, 1)) + np.eye(3))
        resp = responsibilities_exact(log_joints(points, gen))
        model, events, j = m_step_general(points, resp, gen)
        w = resp.dense()
        mass = w.sum(axis=0)
        want = np.empty((4, 3, 3))
        for k in range(4):
            diff = points - model.means[k]
            want[k] = np.einsum("nd,ne->de", w[:, k, None] * diff, diff)
        assert events == []
        assert j.hex() == float(np.trace(want, axis1=1, axis2=2).sum()).hex()
        want /= mass[:, None, None]
        want = regularize_covariances(0.5 * (want + np.transpose(want, (0, 2, 1))))
        assert np.array_equal(model.covs, want)


class TestMStepJ:
    """Each M-step returns the J of its posteriors around its new means,
    which ``run`` records instead of calling ``objective_j`` again."""

    @staticmethod
    def _posteriors(seed, c, k):
        # K-wide sets (K = C: dense) of a general model at an offset where
        # a changed summation order shows in the last bits
        rng = np.random.default_rng(seed)
        ds = Dataset(1e4 + rng.normal(scale=3.0, size=(700, 3)))
        a = rng.normal(size=(c, 3, 3))
        gen = GeneralGMM(
            np.full(c, 1.0 / c), ds.points[:c].copy(), a @ np.transpose(a, (0, 2, 1)) + np.eye(3)
        )
        lj = log_joints(ds, gen)
        return ds, gen, truncated_responsibilities(lj, select_nearest(sigma_pi_scores(lj), k))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_iso_j_is_objective_j_bit_for_bit(self, seed, k):
        ds, _, resp = self._posteriors(seed, 5, k)
        model, _, j = m_step_iso(ds, resp)
        assert j.hex() == objective_j(ds, resp, model.means).hex()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_general_j_is_the_trace_of_the_scatter_sums(self, seed, k):
        ds, gen, resp = self._posteriors(seed, 5, k)
        model, events, j = m_step_general(ds, resp, gen)
        assert events == []
        assert j == pytest.approx(objective_j(ds, resp, model.means), rel=1e-13, abs=0)

    def test_general_j_with_a_revived_cluster(self):
        points = Dataset([[0.0], [1.0], [2.0], [6.0]])
        prev = GeneralGMM(
            np.array([0.5, 0.25, 0.25]),
            np.array([[1.0], [1e3], [2e3]]),
            np.array([[[1.0]], [[1e-2]], [[3e-2]]]),
        )
        resp, model, events, j = em_gmm_step(points, prev)
        assert len(events) == 2
        assert j == pytest.approx(objective_j(points, resp, model.means), rel=1e-13, abs=0)


class TestGeneralRevival:
    """Zero-weight clusters after a general-model M-step are revived."""

    # Clusters 1 and 2 sit far outside the data with a tiny covariance, so
    # both the exact posterior (by underflow) and the hard score give them
    # zero mass; the M-step then puts all mass on cluster 0 (mean 2.25).
    points = Dataset([[0.0], [1.0], [2.0], [6.0]])
    prev = GeneralGMM(
        np.array([0.5, 0.25, 0.25]),
        np.array([[1.0], [1e3], [2e3]]),
        np.array([[[1.0]], [[1e-2]], [[3e-2]]]),
    )

    @pytest.mark.parametrize(
        "step",
        [
            em_gmm_step,
            sigma_pi_step,
            pytest.param(
                lambda points, prev: m_step_general(
                    points, binary_responsibilities([0, 0, 0, 0], 3), prev
                ),
                id="m_step_general",
            ),
        ],
    )
    def test_revived_at_worst_fit_points_with_previous_covariance(self, step):
        model, events = step(self.points, self.prev)[-3:-1]
        # distances to the new mean 2.25: 2.25, 1.25, 0.25, 3.75, so the
        # first empty cluster lands on point 3 and the second on point 0
        assert model.means[1, 0] == 6.0
        assert model.means[2, 0] == 0.0
        assert model.means[0, 0] == pytest.approx(2.25, abs=1e-12)
        assert model.covs[1, 0, 0] == self.prev.covs[1, 0, 0]
        assert model.covs[2, 0, 0] == self.prev.covs[2, 0, 0]
        assert model.weights[1] == pytest.approx(0.25, abs=1e-15)
        assert model.weights[2] == pytest.approx(0.25, abs=1e-15)
        assert model.weights[0] == pytest.approx(0.5, abs=1e-15)
        assert float(model.weights.sum()) == pytest.approx(1.0, abs=1e-15)
        assert events == [
            "reseeded empty cluster 1 at point 3",
            "reseeded empty cluster 2 at point 0",
        ]


class TestSubnormalMass:
    """A cluster whose mass is positive but below the smallest normal float
    is empty for both families: reseeded, and revived in the general one."""

    # Exact or nearest-2 posteriors give the far cluster 1 a mass of ~2e-320.
    ds = Dataset(np.random.default_rng(0).uniform(0.0, 1.0, size=(5000, 1)))

    def _reseeded_at(self, resp, events):
        assert 0.0 < resp.dense()[:, 1].sum() < np.finfo(float).tiny
        assert len(events) == 1
        prefix = "reseeded empty cluster 1 at point "
        assert events[0].startswith(prefix)
        return self.ds.points[int(events[0][len(prefix):])]

    def test_general_cluster_revived(self):
        prev = GeneralGMM([0.5, 0.5], [[0.5], [39.5]], np.ones((2, 1, 1)))
        resp, model, events, _ = em_gmm_step(self.ds, prev)
        assert model.means[1].tolist() == self._reseeded_at(resp, events).tolist()
        assert model.covs[1, 0, 0] == prev.covs[1, 0, 0]
        assert model.weights[1] == 1.0 / self.ds.n
        # the next E-step factorizes every covariance: no NumericError
        em_gmm_step(self.ds, model)

    def test_isotropic_cluster_reseeded(self):
        model = IsotropicGMM([[0.5], [39.5]], 1.0)
        resp, new_model, events, _ = tvem_step(self.ds, model, 2)
        assert new_model.means[1].tolist() == self._reseeded_at(resp, events).tolist()


class TestKmeansStep:
    def test_hand_computed(self, four_points):
        resp, means, events = kmeans_step(four_points, np.array([[0.0], [4.0]]))
        assert resp.hard_labels().tolist() == [0, 0, 1, 1]
        assert means.tolist() == [[0.5], [3.5]]

    def test_fixpoint(self, four_points):
        _, means, _ = kmeans_step(four_points, np.array([[0.5], [3.5]]))
        assert means.tolist() == [[0.5], [3.5]]

    def test_objective_strictly_decreases_until_fixpoint(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(40, 2)))
        means = rng.normal(size=(4, 2))
        prev_j = None
        for _ in range(50):
            resp, new_means, _ = kmeans_step(ds, means)
            j = objective_j(ds, resp, new_means)
            if prev_j is not None:
                if np.array_equal(new_means, means):
                    assert j == prev_j
                    break
                assert j < prev_j
            prev_j = j
            means = new_means


class TestTvemStep:
    def test_cprime_one_matches_kmeans_means(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ds = Dataset(rng.normal(size=(30, 2)))
            means = rng.normal(size=(3, 2))
            model = IsotropicGMM(means, float(rng.uniform(0.01, 5.0)))
            resp, new_model, _, _ = tvem_step(ds, model, 1)
            k_resp, k_means, _ = kmeans_step(ds, means)
            assert np.array_equal(resp.hard_labels(), k_resp.hard_labels())
            assert np.max(np.abs(new_model.means - k_means)) <= 1e-12

    def test_cprime_full_matches_exact_em_iteration(self):
        rng = np.random.default_rng(9)
        ds = Dataset(rng.normal(size=(25, 2)))
        model = IsotropicGMM(rng.normal(size=(4, 2)), 0.8)
        resp, new_model, _, _ = tvem_step(ds, model, 4)
        exact = responsibilities_exact(log_joints(ds.points, model))
        assert np.max(np.abs(resp.dense() - exact.dense())) <= 1e-12
        ref_model, _, _ = m_step_iso(ds, exact)
        assert np.max(np.abs(new_model.means - ref_model.means)) <= 1e-12
        assert new_model.sigma2 == pytest.approx(ref_model.sigma2, rel=1e-12)

    def test_single_cluster(self, four_points):
        model = IsotropicGMM(np.array([[1.0]]), 2.0)
        resp, new_model, _, _ = tvem_step(four_points, model, 1)
        assert np.all(resp.weights == 1.0)
        assert new_model.means[0, 0] == pytest.approx(2.0, abs=1e-15)
        # mean squared deviation around the global mean, divided by D
        msd = float(np.mean((four_points.points - 2.0) ** 2))
        assert new_model.sigma2 == pytest.approx(msd, rel=1e-15)

    def test_mean_path_independent_of_sigma2(self):
        rng = np.random.default_rng(12)
        ds = Dataset(rng.normal(size=(50, 2)))
        means = rng.normal(size=(4, 2))
        reference = []
        model = IsotropicGMM(means, 1.0)
        for _ in range(5):
            resp, model, _, _ = tvem_step(ds, model, 1)
            reference.append((resp.hard_labels().copy(), model.means.copy()))
        perturbed = []
        model = IsotropicGMM(means, 1.0)
        for i in range(5):
            # overwrite the variance with garbage between iterations
            model = IsotropicGMM(model.means, float(rng.uniform(1e-6, 1e6)))
            resp, model, _, _ = tvem_step(ds, model, 1)
            perturbed.append((resp.hard_labels().copy(), model.means.copy()))
        for (la, ma), (lb, mb) in zip(reference, perturbed):
            assert np.array_equal(la, lb)
            assert np.array_equal(ma, mb)

    def test_general_model_keeps_its_family(self):
        ds = blob_dataset(3, c_true=3, per_cluster_n=20)
        model = GeneralGMM(
            np.full(3, 1.0 / 3.0),
            ds.points[:3],
            np.broadcast_to(np.eye(2), (3, 2, 2)).copy(),
        )
        for c_prime in (1, 2, 3):
            resp, new_model, _, _ = tvem_step(ds, model, c_prime)
            assert isinstance(new_model, GeneralGMM)
            assert resp.support.shape == (ds.n, c_prime)

    @pytest.mark.parametrize("c_prime", [1, 2, 3])
    def test_general_free_energy_monotone(self, c_prime):
        """F never decreases over ``tvem_step`` on a general model, except
        at a step that revives a cluster or leaves one whose scatter is
        singular (smallest covariance eigenvalue under ten ridges).  Such a
        covariance rests on the ridge alone, which moves it off the
        M-step's optimum by more than a rounding error; a run whose scatter
        reaches exactly zero stops with ``NumericError``."""
        checked = 0
        for seed in range(25):
            ds = blob_dataset(seed, c_true=5, per_cluster_n=20)
            idx = np.random.default_rng(seed).choice(ds.n, 5, replace=False)
            model = GeneralGMM(
                np.full(5, 0.2),
                ds.points[idx],
                np.broadcast_to(np.eye(2), (5, 2, 2)).copy(),
            )
            prev = None
            for _ in range(30):
                try:
                    resp, model, events, _ = tvem_step(ds, model, c_prime)
                    f = free_energy_trunc(log_joints(ds, model), resp)
                except NumericError:
                    break
                ridge = COV_RIDGE * np.trace(model.covs, axis1=1, axis2=2) / 2
                singular = np.any(np.linalg.eigvalsh(model.covs)[:, 0] < 10 * ridge)
                if prev is not None and not events and not singular:
                    assert f >= prev - 1e-9 * max(1.0, abs(prev)), (seed, prev, f)
                    checked += 1
                prev = f
        assert checked > 600  # of the 25 * 29 step pairs


class TestLazyStep:
    def test_zero_epsilon_reproduces_kmeans(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(40, 2)))
        means = rng.normal(size=(4, 2))
        model = IsotropicGMM(means, 1.0)
        state = select_nearest(squared_distances(ds.points, means), 1)
        resp, new_model, _, _ = lazy_step(ds, model, 0.0, state)
        k_resp, k_means, _ = kmeans_step(ds, means)
        assert np.array_equal(resp.hard_labels(), k_resp.hard_labels())
        assert np.array_equal(new_model.means, k_means)

    def test_huge_epsilon_freezes_partition(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.normal(size=(30, 2)))
        means = rng.normal(size=(3, 2))
        state = select_nearest(squared_distances(ds.points, means), 1)
        model = IsotropicGMM(means, 1.0)
        frozen_labels = state[:, 0]
        resp, new_model, _, _ = lazy_step(ds, model, 1e12, state)
        assert np.array_equal(resp.support, state)
        # means become the centroids of the frozen partition in one step
        for c in range(3):
            members = ds.points[frozen_labels == c]
            if len(members):
                assert np.allclose(new_model.means[c], members.mean(axis=0))

    def test_single_reassignment_decreases_objective(self):
        # five points, one of them just past the lazy threshold
        points = Dataset([[0.0], [0.2], [3.0], [3.2], [1.4]])
        means = np.array([[0.1], [3.1]])
        state_sets = np.array([[0], [0], [1], [1], [1]])  # point 4 parked at 1
        model = IsotropicGMM(means, 1.0)
        state_before = binary_responsibilities(state_sets[:, 0], 2)
        j_before = objective_j(points, state_before, means)
        resp, new_model, _, _ = lazy_step(points, model, 0.2, state_sets)
        assert resp.support[4, 0] == 0  # reassigned
        j_after = objective_j(points, resp, new_model.means)
        # brute-force check with plain loops
        brute = 0.0
        for i, pt in enumerate(points.points[:, 0]):
            c = int(resp.support[i, 0])
            brute += (pt - new_model.means[c, 0]) ** 2
        assert j_after == pytest.approx(brute, rel=1e-12)
        assert j_after < j_before


class TestSigmaPiStep:
    def test_reduces_to_kmeans_for_shared_isotropic(self):
        rng = np.random.default_rng(14)
        ds = Dataset(rng.normal(size=(40, 2)))
        means = rng.normal(size=(4, 2))
        model = GeneralGMM(
            np.full(4, 0.25),
            means,
            np.broadcast_to(0.5 * np.eye(2), (4, 2, 2)).copy(),
        )
        resp, new_model, _, _ = sigma_pi_step(ds, model)
        k_resp, _, _ = kmeans_step(ds, means)
        assert np.array_equal(resp.hard_labels(), k_resp.hard_labels())

    def test_variance_weight_aware_assignment(self):
        model = GeneralGMM(
            np.array([0.5, 0.5]),
            np.array([[0.0], [0.5]]),
            np.array([[[4.0]], [[0.25]]]),
        )
        ds = Dataset([[0.0], [0.4]])
        resp, _, _, _ = sigma_pi_step(ds, model)
        assert resp.hard_labels()[0] == 1  # tighter cluster wins despite mu_0 = y

    def test_recovers_labels_from_ground_truth(self):
        spec = GeneratorSpec(
            kind="uniform",
            c_true=2,
            per_cluster_n=10,
            gen_sigma=0.3,
            domain_box=((0.0, 20.0), (0.0, 20.0)),
            seed=42,
        )
        ds = generate(spec)
        true_means = np.array(
            [ds.points[ds.labels == c].mean(axis=0) for c in range(2)]
        )
        model = GeneralGMM(
            np.full(2, 0.5),
            true_means,
            np.broadcast_to(0.09 * np.eye(2), (2, 2, 2)).copy(),
        )
        resp, _, _, _ = sigma_pi_step(ds, model)
        assert np.array_equal(resp.hard_labels(), ds.labels)


class TestEmGmmStep:
    def test_increases_likelihood(self):
        from tvclust import log_likelihood

        ds = blob_dataset(1, c_true=3, per_cluster_n=30)
        rng = np.random.default_rng(0)
        idx = rng.choice(ds.n, 3, replace=False)
        model = GeneralGMM(
            np.full(3, 1.0 / 3.0),
            ds.points[idx],
            np.broadcast_to(np.eye(2), (3, 2, 2)).copy(),
        )
        prev = log_likelihood(log_joints(ds.points, model))
        for _ in range(10):
            _, model, _, _ = em_gmm_step(ds, model)
            cur = log_likelihood(log_joints(ds.points, model))
            assert cur >= prev - 1e-9 * max(1.0, abs(prev))
            prev = cur

    def test_isotropic_model_gets_the_isotropic_m_step(self):
        # the M-step follows the model's family, as in tvem_step
        ds = blob_dataset(2, c_true=3, per_cluster_n=30)
        model = IsotropicGMM(ds.points[:3], 1.5)
        resp, new, events, j = em_gmm_step(ds, model)
        exact = responsibilities_exact(log_joints(ds, model))
        want = m_step_iso(ds, exact)
        assert isinstance(new, IsotropicGMM)
        assert np.array_equal(resp.weights, exact.weights)
        assert np.array_equal(new.means, want[0].means)
        assert (new.sigma2, events, j) == (want[0].sigma2, want[1], want[2])


class TestRun:
    def test_four_point_fixpoint_in_two_iterations(self, four_points):
        # find a seed whose uniform draw picks the outer points {0, 4}
        chosen_seed = None
        for seed in range(50):
            means = seed_uniform(four_points.points, 2, make_rng(seed))
            if sorted(means.ravel().tolist()) == [0.0, 4.0]:
                chosen_seed = seed
                break
        assert chosen_seed is not None
        cfg = RunConfig(algorithm="kmeans", c=2, seeding="uniform", seed=chosen_seed)
        res = run(four_points, cfg)
        assert res.reason == "converged"
        assert res.trace[-1].iteration <= 2
        assert sorted(res.model.means.ravel().tolist()) == [0.5, 3.5]

    def test_max_iters_zero_gives_initial_record_only(self, four_points):
        for algorithm, extra in [
            ("kmeans", {}),
            ("em_gmm", {}),
            ("kmeans_cprime", {"c_prime": 2}),
            ("lazy_kmeans", {"epsilon": 0.1}),
            ("sigma_pi", {}),
        ]:
            cfg = RunConfig(algorithm=algorithm, c=2, max_iters=0, seed=1, **extra)
            res = run(four_points, cfg)
            assert len(res.trace) == 1
            assert res.trace[0].iteration == 0
            assert res.reason == "max_iters"

    def test_deterministic_traces(self):
        ds = blob_dataset(3)
        cfg = RunConfig(algorithm="kmeans_cprime", c=4, c_prime=2, seed=11)
        a = run(ds, cfg)
        b = run(ds, cfg)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.to_dict() == rb.to_dict()

    @pytest.mark.parametrize("algorithm,extra", [("kmeans_cprime", {"c_prime": 2}),
                                                 ("em_gmm", {})])
    def test_raw_array_same_trace_as_dataset(self, algorithm, extra):
        ds = blob_dataset(6)
        cfg = RunConfig(algorithm=algorithm, c=4, seed=3, max_iters=10, **extra)
        a = run(ds, cfg)
        b = run(np.array(ds.points), cfg)
        assert [r.to_dict() for r in a.trace] == [r.to_dict() for r in b.trace]
        assert np.array_equal(a.model.means, b.model.means)

    def test_c_larger_than_n_rejected(self, four_points):
        with pytest.raises(ConfigurationError):
            run(four_points, RunConfig(algorithm="kmeans", c=5))

    @pytest.mark.parametrize(
        "algorithm,extra",
        [
            ("kmeans", {}),
            ("kmeans_cprime", {"c_prime": 2}),
            ("lazy_kmeans", {"epsilon": 0.2}),
            ("em_gmm", {}),
            ("sigma_pi", {}),
        ],
    )
    def test_free_energy_monotone_smoke(self, algorithm, extra):
        ds = blob_dataset(8)
        cfg = RunConfig(algorithm=algorithm, c=4, seed=5, max_iters=40, **extra)
        assert fit_violations(ds, cfg)[1] == []

    def test_trace_gap_consistency(self):
        ds = blob_dataset(4)
        assert fit_violations(ds, RunConfig(algorithm="kmeans", c=4, seed=2))[1] == []


# ROADMAP item 5: the 1/3 posteriors put the new means about an ulp off the
# data, so J leaves 0, sigma2 leaves its floor and F falls from 353.28 to
# 26.59 with no event.  The fix of that item must remove these markers.
_COLLAPSED_FALL = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5: F falls with no event on collapsed data",
)


class TestCollapsedData:
    """24 copies of one value at C = 3: only a flagged record may fall or break an invariant."""

    @pytest.mark.parametrize(
        "algorithm,extra",
        [
            ("kmeans", {}),
            pytest.param("kmeans_cprime", {"c_prime": 3}, marks=_COLLAPSED_FALL),
            pytest.param("em_gmm", {}, marks=_COLLAPSED_FALL),
        ],
    )
    def test_free_energy_falls_only_at_an_event(self, algorithm, extra):
        cfg = RunConfig(
            algorithm=algorithm, c=3, seeding="uniform", max_iters=2, tol=0.0, **extra
        )
        res, found = fit_violations(Dataset(np.full((24, 1), 1000.0)), cfg)
        assert len(res.trace) == 3
        assert [v for v in found if not v.flagged] == []
        assert all(c.F >= p.F or c.events for p, c in zip(res.trace, res.trace[1:]))


class TestNumericFailure:
    def test_degenerate_singletons_annotate_trace(self):
        # every cluster collapses to one point, so the stored zero-scatter
        # covariances cannot be factorized at the next evaluation
        ds = Dataset([[0.0], [1.0], [5.0]])
        cfg = RunConfig(
            algorithm="sigma_pi", c=3, seeding="uniform", seed=0, max_iters=10
        )
        from tvclust import NumericError

        with pytest.raises(NumericError) as exc:
            run(ds, cfg)
        trace = exc.value.trace
        assert trace is not None and len(trace) >= 1
        assert any("numeric failure at iteration 1" in e for e in trace[-1].events)


class TestOneDimensionalGeneralModels:
    @pytest.mark.parametrize("algorithm,extra", [("em_gmm", {}), ("sigma_pi", {})])
    def test_two_well_separated_lines(self, algorithm, extra):
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(0, 0.5, 40), rng.normal(6, 0.8, 40)])
        ds = Dataset(pts)
        cfg = RunConfig(algorithm=algorithm, c=2, seed=1, max_iters=50, **extra)
        res, found = fit_violations(ds, cfg)
        assert res.reason == "converged"
        means = np.sort(res.model.means.ravel())
        assert abs(means[0] - 0.0) < 0.4
        assert abs(means[1] - 6.0) < 0.4
        assert found == []


ALL_ALGORITHMS = [
    ("kmeans", {}),
    ("kmeans_cprime", {"c_prime": 2}),
    ("lazy_kmeans", {"epsilon": 0.1}),
    ("em_gmm", {}),
    ("sigma_pi", {}),
]


class TestOneMatrixPerIteration:
    """``run`` builds its matrices once per iteration: squared distances and
    the log-joints built from them for the isotropic family, general
    log-joints for the general one, plus the seeding's and the initial
    state's."""

    @pytest.mark.parametrize("seeding", ["uniform", "dsquared"])
    @pytest.mark.parametrize("algorithm,extra", ALL_ALGORITHMS)
    def test_builds_per_iteration(self, monkeypatch, algorithm, extra, seeding):
        ds = blob_dataset(4)
        c = 4
        dist = count_calls(monkeypatch, "models", "squared_distances")
        general = count_calls(
            monkeypatch, "models", "log_joints", lambda y, model, *rest: hasattr(model, "covs")
        )
        iso = count_calls(
            monkeypatch, "models", "log_joints", lambda y, model, *rest: not hasattr(model, "covs")
        )
        cfg = RunConfig(
            algorithm=algorithm, c=c, seeding=seeding, max_iters=6, tol=0.0, seed=1, **extra
        )
        iterations = len(run(ds, cfg).trace) - 1
        assert iterations == 6
        seeding_calls = c if seeding == "dsquared" else 0
        if algorithm in ("em_gmm", "sigma_pi"):
            # iso distances only for seeding and the initial variance
            assert len(dist) == seeding_calls + 1
            assert len(general) == 1 + iterations
            assert len(iso) == 0
        else:
            assert len(dist) == seeding_calls + 1 + iterations
            assert len(general) == 0
            assert len(iso) == 1 + iterations

    @pytest.mark.parametrize("algorithm,extra", ALL_ALGORITHMS)
    def test_support_checked_at_most_once_per_iteration(self, monkeypatch, algorithm, extra):
        from tvclust.models import Responsibilities

        def checks(max_iters):
            calls = count_calls(
                monkeypatch, "models", "_index_sets",
                lambda support, *rest: not isinstance(support, Responsibilities),
            )
            cfg = RunConfig(algorithm=algorithm, c=4, max_iters=max_iters, tol=0.0, seed=2, **extra)
            run(blob_dataset(5), cfg)
            monkeypatch.undo()
            return len(calls)

        assert checks(6) - checks(1) <= 5


class TestRecordBounds:
    """Every rule's record sums the joints over its support.  Under the
    ``full`` rule the support is every cluster in index order, so that sum
    is L's, bit for bit, and the gap is exactly 0."""

    def test_em_gmm_record_takes_f_from_l(self):
        cfg = RunConfig(algorithm="em_gmm", c=4, max_iters=6, tol=0.0, seed=1)
        trace = run(blob_dataset(4), cfg).trace
        assert all(rec.gap == 0.0 for rec in trace)

    def test_full_width_cprime_sums_its_support(self, monkeypatch):
        # C' = C has a dense but permuted support, so it keeps the restricted sum
        calls = count_calls(monkeypatch, "diagnostics", "free_energy_trunc")
        cfg = RunConfig(algorithm="kmeans_cprime", c=4, c_prime=4, max_iters=6, tol=0.0, seed=1)
        trace = run(blob_dataset(4), cfg).trace
        assert len(calls) == len(trace)
