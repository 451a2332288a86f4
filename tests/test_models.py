import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tvclust import (
    ConfigurationError,
    GeneralGMM,
    GeneratorSpec,
    IsotropicGMM,
    NumericError,
    Responsibilities,
    binary_responsibilities,
    free_energy_entropy_form,
    free_energy_trunc,
    kl_gap,
    kmeans_step,
    log_joints,
    logsumexp,
    m_step_general,
    m_step_iso,
    model_from_snapshot,
    model_to_snapshot,
    objective_j,
    responsibilities_exact,
    squared_distances,
    truncated_responsibilities,
    tvem_step,
)

from conftest import log_density_iso, log_joints_loop

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-50, max_value=50
)


class TestLogSumExp:
    def test_matches_direct_computation(self):
        x = np.array([0.1, -0.3, 2.0])
        assert np.isclose(logsumexp(x), math.log(np.sum(np.exp(x))))

    def test_handles_large_values(self):
        x = np.array([1000.0, 1000.0])
        assert np.isclose(logsumexp(x), 1000.0 + math.log(2.0))

    def test_handles_neg_inf(self):
        x = np.array([-np.inf, 0.0])
        assert logsumexp(x) == 0.0
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_axis(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = logsumexp(x, axis=1)
        assert np.allclose(out, [math.log(2.0), 1.0 + math.log(2.0)])


class TestIsotropicDensity:
    def test_zero_at_mean_with_unit_peak(self):
        model = IsotropicGMM(np.array([[0.0]]), 1.0 / (2.0 * math.pi))
        assert log_density_iso([0.0], 0, model) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_value(self):
        # -(1/2) log(pi) - 1 for y=0, mu=1, sigma2=0.5 in one dimension
        model = IsotropicGMM(np.array([[1.0]]), 0.5)
        expected = -0.5 * math.log(math.pi) - 1.0
        assert log_density_iso([0.0], 0, model) == pytest.approx(expected, abs=1e-14)

    @given(
        y=finite_floats,
        mu=finite_floats,
        shift=finite_floats,
        sigma2=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_translation_invariance(self, y, mu, shift, sigma2):
        a = log_density_iso([y], 0, IsotropicGMM(np.array([[mu]]), sigma2))
        b = log_density_iso(
            [y + shift], 0, IsotropicGMM(np.array([[mu + shift]]), sigma2)
        )
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_sigma2_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            IsotropicGMM(np.array([[0.0]]), 0.0)


class TestGeneralJoint:
    def test_isotropic_reduction(self):
        rng = np.random.default_rng(0)
        means = rng.normal(size=(3, 2))
        sigma2 = 0.7
        iso = IsotropicGMM(means, sigma2)
        gen = GeneralGMM(
            np.full(3, 1.0 / 3.0),
            means,
            np.broadcast_to(sigma2 * np.eye(2), (3, 2, 2)).copy(),
        )
        y = rng.normal(size=2)
        for c in range(3):
            expected = math.log(1.0 / 3.0) + log_density_iso(y, c, iso)
            got = log_joints(y[None, :], gen)[0, c]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_closed_form_value(self):
        # log(0.5) - (1/2) log(8 pi) for y=0, mu=0, cov=4, weight=0.5
        model = GeneralGMM(
            np.array([0.5, 0.5]),
            np.array([[0.0], [10.0]]),
            np.array([[[4.0]], [[4.0]]]),
        )
        expected = math.log(0.5) - 0.5 * math.log(8.0 * math.pi)
        assert log_joints([[0.0]], model)[0, 0] == pytest.approx(expected, abs=1e-13)

    def test_inflating_covariance_decreases_value_at_mean(self):
        base = np.array([[[1.0, 0.2], [0.2, 2.0]]])
        small = GeneralGMM(np.array([1.0]), np.zeros((1, 2)), base)
        big = GeneralGMM(np.array([1.0]), np.zeros((1, 2)), 3.0 * base)
        y = np.zeros(2)
        assert log_joints(y[None, :], big)[0, 0] < log_joints(y[None, :], small)[0, 0]

    def test_non_positive_definite_raises(self):
        model = GeneralGMM(
            np.array([1.0]),
            np.zeros((1, 2)),
            np.array([[[1.0, 2.0], [2.0, 1.0]]]),  # indefinite
        )
        with pytest.raises(NumericError):
            log_joints(np.zeros((1, 2)), model)

    def test_weights_must_normalize(self):
        with pytest.raises(ConfigurationError):
            GeneralGMM(np.array([0.5, 0.3]), np.zeros((2, 1)), np.ones((2, 1, 1)))

    @pytest.mark.parametrize(
        "means", [np.float64(1.0), np.ones((1, 1, 1)), np.zeros((0, 1))],
        ids=["scalar", "3d", "empty"],
    )
    @pytest.mark.parametrize(
        "build", [lambda m: IsotropicGMM(m, 1.0), lambda m: GeneralGMM([1.0], m, [[[1.0]]])],
        ids=["iso", "general"],
    )
    def test_malformed_means_are_config_errors(self, build, means):
        with pytest.raises(ConfigurationError, match="means must be a non-empty C x D matrix"):
            build(means)


class TestExactResponsibilities:
    def test_single_component_is_exactly_one(self):
        model = IsotropicGMM(np.array([[1.0, 2.0]]), 0.3)
        points = np.random.default_rng(1).normal(size=(7, 2))
        resp = responsibilities_exact(log_joints(points, model))
        assert np.all(resp.weights == 1.0)
        assert resp.support.shape == (7, 1)

    def test_two_component_softmax(self):
        model = IsotropicGMM(np.array([[0.0], [1.0]]), 0.5)
        resp = responsibilities_exact(log_joints(np.array([[0.0]]), model))
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert resp.dense()[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_equidistant_symmetry(self):
        model = IsotropicGMM(np.array([[-1.0], [1.0]]), 0.8)
        resp = responsibilities_exact(log_joints(np.array([[0.0]]), model))
        assert np.allclose(resp.dense()[0], [0.5, 0.5], atol=1e-15)

    @given(seed=st.integers(0, 10_000))
    def test_rows_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        n, c, d = 6, 4, 2
        model = IsotropicGMM(rng.normal(size=(c, d)), float(rng.uniform(0.05, 2.0)))
        resp = responsibilities_exact(log_joints(rng.normal(size=(n, d)), model))
        w = resp.dense()
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_stable_under_extreme_scale(self):
        # squared distances over sigma2 above 1e4 for every cluster
        model = IsotropicGMM(np.array([[200.0], [-200.0]]), 1.0)
        resp = responsibilities_exact(log_joints(np.array([[0.0], [50.0]]), model))
        w = resp.dense()
        assert np.all(np.isfinite(w))
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_general_matches_isotropic_path(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(40, 3))
        means = rng.normal(size=(5, 3))
        sigma2 = 0.6
        iso = IsotropicGMM(means, sigma2)
        gen = GeneralGMM(
            np.full(5, 0.2),
            means,
            np.broadcast_to(sigma2 * np.eye(3), (5, 3, 3)).copy(),
        )
        a = responsibilities_exact(log_joints(points, iso)).dense()
        b = responsibilities_exact(log_joints(points, gen)).dense()
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_support_is_a_read_only_broadcast_of_every_cluster(self):
        lj = np.random.default_rng(4).normal(size=(500, 7))
        support = responsibilities_exact(lj).support
        assert support.strides[0] == 0
        assert not support.flags.writeable
        assert np.array_equal(support, np.tile(np.arange(7), (500, 1)))


class TestResponsibilitiesContainer:
    def test_binary_helper(self):
        resp = binary_responsibilities([2, 0, 1], 3)
        assert resp.support.shape == (3, 1)
        assert np.array_equal(resp.hard_labels(), [2, 0, 1])
        dense = resp.dense()
        assert dense.shape == (3, 3)
        assert np.array_equal(dense.sum(axis=1), [1.0, 1.0, 1.0])

    def test_rejects_bad_rows(self):
        with pytest.raises(ConfigurationError):
            Responsibilities(
                np.array([[0, 0]]), np.array([[0.5, 0.5]]), 3
            )  # duplicate support
        with pytest.raises(ConfigurationError):
            Responsibilities(
                np.array([[0, 1]]), np.array([[0.7, 0.7]]), 3
            )  # does not sum to one
        with pytest.raises(ConfigurationError):
            Responsibilities(np.array([[5]]), np.array([[1.0]]), 3)  # out of range
        with pytest.raises(ConfigurationError, match="share shape"):
            Responsibilities(np.array([[0, 1]]), np.array([[1.0]]), 3)
        with pytest.raises(ConfigurationError, match="nonnegative"):
            Responsibilities(np.array([[0, 1]]), np.array([[1.5, -0.5]]), 3)

    def test_rejects_nan_weights(self):
        # both checks compare so that NaN fails them
        with pytest.raises(ConfigurationError, match="nonnegative"):
            Responsibilities(np.array([[0], [1]]), np.array([[np.nan], [1.0]]), 2)
        with pytest.raises(ConfigurationError, match="sum to 1"):
            Responsibilities(np.array([[0, 1]]), np.array([[1.0, np.inf]]), 2)


class TestSnapshots:
    def test_iso_round_trip(self):
        model = IsotropicGMM(np.array([[0.5, -1.0], [2.0, 3.0]]), 0.125)
        back = model_from_snapshot(model_to_snapshot(model))
        assert isinstance(back, IsotropicGMM)
        assert np.array_equal(back.means, model.means)
        assert back.sigma2 == model.sigma2

    def test_general_round_trip(self):
        model = GeneralGMM(
            np.array([0.25, 0.75]),
            np.array([[0.0], [1.0]]),
            np.array([[[1.0]], [[2.0]]]),
        )
        back = model_from_snapshot(model_to_snapshot(model))
        assert isinstance(back, GeneralGMM)
        assert np.array_equal(back.covs, model.covs)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            model_from_snapshot({"kind": "mystery"})

    def test_json_text_keeps_its_key_order(self):
        """Model files, audit reports and experiment summaries hold these
        dicts; their text, key order included, is part of the format."""
        iso = IsotropicGMM(np.array([[0.5, -1.0], [2.0, 3.0]]), 0.1)
        general = GeneralGMM([0.25, 0.75], [[0.0], [1.0]], [[[1.0]], [[2.0]]])
        cases = [
            (model_to_snapshot(iso),
             '{"kind": "iso", "means": [[0.5, -1.0], [2.0, 3.0]], "sigma2": 0.1}'),
            (model_to_snapshot(general),
             '{"kind": "general", "means": [[0.0], [1.0]], "weights": [0.25, 0.75], '
             '"covs": [[[1.0]], [[2.0]]]}'),
            (GeneratorSpec("grid", c_true=4, spacing=3.0).to_dict(),
             '{"kind": "grid", "c_true": 4, "per_cluster_n": 100, "gen_sigma": 1.0, '
             '"spacing": 3.0, "domain_box": null, "seed": 0, "model": null}'),
            (GeneratorSpec("uniform", c_true=2, domain_box=((0, 1), (-2.5, 4))).to_dict(),
             '{"kind": "uniform", "c_true": 2, "per_cluster_n": 100, "gen_sigma": 1.0, '
             '"spacing": null, "domain_box": [[0.0, 1.0], [-2.5, 4.0]], "seed": 0, '
             '"model": null}'),
            (GeneratorSpec("explicit-gmm", c_true=2, seed=7, model=general).to_dict(),
             '{"kind": "explicit-gmm", "c_true": 2, "per_cluster_n": 100, "gen_sigma": 1.0, '
             '"spacing": null, "domain_box": null, "seed": 7, "model": {"kind": "general", '
             '"means": [[0.0], [1.0]], "weights": [0.25, 0.75], "covs": [[[1.0]], [[2.0]]]}}'),
        ]
        for value, text in cases:
            assert json.dumps(value) == text


def test_squared_distances_matches_loops():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(5, 3))
    means = rng.normal(size=(4, 3))
    d2 = squared_distances(points, means)
    for i in range(5):
        for j in range(4):
            assert d2[i, j] == pytest.approx(
                float(np.sum((points[i] - means[j]) ** 2)), rel=1e-12
            )


def _broadcast_d2(points, means):
    diff = points[:, None, :] - means[None, :, :]
    return np.einsum("ncd,ncd->nc", diff, diff)


class TestSquaredDistancesGemm:
    """The centred GEMM form against the direct (N, C, D) broadcast."""

    @pytest.mark.parametrize("offset", [0.0, 1e5, 1e8])
    def test_matches_broadcast_oracle(self, offset):
        rng = np.random.default_rng(3)
        points = offset + rng.uniform(0.0, 16.0, size=(200, 16))
        means = offset + rng.uniform(0.0, 16.0, size=(30, 16))
        d2 = squared_distances(points, means)
        want = _broadcast_d2(points, means)
        # error of |y|^2 - 2 y.mu + |mu|^2 on data centred to spread ~16
        assert np.allclose(d2, want, rtol=1e-12, atol=1e-12 * 16.0 * 16.0**2)

    def test_dataset_frame_matches_array(self):
        from tvclust import Dataset

        rng = np.random.default_rng(4)
        ds = Dataset(1e5 + rng.normal(size=(50, 3)))
        means = ds.points[:7] + 0.5
        assert np.array_equal(squared_distances(ds, means), squared_distances(ds.points, means))

    def test_one_dimension(self):
        points = np.array([[0.0], [1.0], [3.0], [-2.5]])
        means = np.array([[1.0], [-1.0]])
        assert np.allclose(squared_distances(points, means), _broadcast_d2(points, means))
        assert squared_distances(points[:, 0], means[:, 0]).shape == (4, 2)

    @pytest.mark.parametrize("offset", [0.0, 1e5, 1e8])
    def test_nonnegative_where_a_mean_is_a_point(self, offset):
        rng = np.random.default_rng(5)
        points = offset + rng.normal(scale=3.0, size=(100, 5))
        d2 = squared_distances(points, points[::7])
        assert np.all(d2 >= 0.0)
        rows = np.arange(0, 100, 7)
        assert np.all(d2[rows, np.arange(rows.size)] <= 1e-12 * 9.0 * 5 * 16)


def test_general_log_joints_match_per_point_solve():
    rng = np.random.default_rng(6)
    c, d = 4, 3
    a = rng.normal(size=(c, d, d))
    covs = a @ np.transpose(a, (0, 2, 1)) + 0.1 * np.eye(d)
    weights = rng.random(c)
    model = GeneralGMM(weights / weights.sum(), 50.0 + rng.normal(size=(c, d)), covs)
    points = 50.0 + rng.normal(scale=2.0, size=(40, d))
    lj = log_joints(points, model)
    for n in range(points.shape[0]):
        for k in range(c):
            diff = points[n] - model.means[k]
            maha = float(diff @ np.linalg.solve(covs[k], diff))
            _, logdet = np.linalg.slogdet(2.0 * math.pi * covs[k])
            want = math.log(model.weights[k]) - 0.5 * (logdet + maha)
            assert lj[n, k] == pytest.approx(want, rel=1e-10, abs=1e-10)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    d=st.integers(1, 20),
    c=st.integers(1, 40),
    offset=st.sampled_from([0.0, 1e3, 1e5]),
)
def test_general_log_joints_match_the_per_cluster_loop_bit_for_bit(seed, n, d, c, offset):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(c, d, d))
    covs = a @ np.transpose(a, (0, 2, 1)) + 1e-3 * np.eye(d)
    weights = rng.random(c)
    weights[rng.random(c) < 0.2] = 0.0  # log weight -inf
    weights = weights / weights.sum() if weights.sum() > 0 else np.full(c, 1.0 / c)
    model = GeneralGMM(weights, offset + rng.normal(size=(c, d)), covs)
    points = offset + rng.normal(scale=3.0, size=(n, d))
    got, want = log_joints(points, model), log_joints_loop(points, model)
    assert got.tobytes() == want.tobytes()


def test_first_cluster_without_a_cholesky_factor_is_named():
    covs = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    covs[1] = [[1.0, 2.0], [2.0, 1.0]]  # indefinite
    covs[3] = -np.eye(2)
    model = GeneralGMM(np.full(5, 0.2), np.zeros((5, 2)), covs)
    with pytest.raises(NumericError, match="^covariance of cluster 1 is not positive definite$"):
        log_joints(np.zeros((3, 2)), model)


class TestZeroWeightComponents:
    def test_zero_weight_gets_zero_responsibility_and_infinite_score(self):
        from tvclust import responsibilities_exact, sigma_pi_scores

        model = GeneralGMM(
            np.array([0.0, 1.0]),
            np.array([[0.0], [1.0]]),
            np.array([[[1.0]], [[1.0]]]),
        )
        resp = responsibilities_exact(log_joints(np.array([[0.0], [0.9]]), model))
        assert np.all(resp.dense()[:, 0] == 0.0)
        scores = sigma_pi_scores(log_joints(np.array([[0.0]]), model))
        assert scores[0, 0] == np.inf
        assert np.isfinite(scores[0, 1])

    def test_sparse_kind_label(self):
        resp = Responsibilities(
            np.array([[0, 2]]), np.array([[0.25, 0.75]]), 4
        )
        assert resp.support.shape == (1, 2)
        assert resp.dense().tolist() == [[0.25, 0.0, 0.75, 0.0]]



# Where posteriors, labels or means meet the data: 4 points in two
# dimensions, two clusters.
_PTS = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 6.0]])
_MEANS = np.array([[0.0, 0.5], [5.0, 5.5]])
_ISO = IsotropicGMM(_MEANS, 1.0)
_LJ = log_joints(_PTS, _ISO)
_ONE_COL, _THREE_COL = np.zeros((2, 1)), np.zeros((2, 3))
_THREE_ROWS = binary_responsibilities([0, 0, 1], 2)
_DIM = "^model dimension {} does not match data dimension 2$"
_INTS = "^cluster indices must be integers$"
_ROWS = "^index sets have 3 rows for 4 points$"
_MATRIX = "^means must be a non-empty C x D matrix$"
_D2 = "^squared distances have shape \\({}, {}\\), not \\(4, 2\\)$"


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: log_joints(_PTS, IsotropicGMM([[0.0], [5.0]], 1.0)), _DIM.format(1),
                 id="iso log_joints, 1 column"),
    pytest.param(lambda: log_joints(_PTS, GeneralGMM([0.5, 0.5], _ONE_COL, np.ones((2, 1, 1)))),
                 _DIM.format(1), id="general log_joints, 1 column"),
    pytest.param(lambda: squared_distances(_PTS, _THREE_COL), _DIM.format(3),
                 id="squared_distances, 3 columns"),
    pytest.param(lambda: kmeans_step(_PTS, _ONE_COL), _DIM.format(1), id="kmeans_step, 1 column"),
    pytest.param(lambda: tvem_step(_PTS, IsotropicGMM(_ONE_COL, 1.0), 1), _DIM.format(1),
                 id="tvem_step, 1 column"),
    pytest.param(lambda: objective_j(_PTS, [0, 0, 1, 1], _ONE_COL), _DIM.format(1),
                 id="objective_j, 1 column"),
    pytest.param(lambda: objective_j(_PTS, [0, 0, 1, 1], _THREE_COL), _DIM.format(3),
                 id="objective_j, 3 columns"),
    pytest.param(lambda: objective_j(_PTS, [0.9, 0.9, 1.9, 1.9], _MEANS), _INTS,
                 id="objective_j, float labels"),
    pytest.param(lambda: objective_j(_PTS, ["0", "0", "1", "1"], _MEANS), _INTS,
                 id="objective_j, string labels"),
    pytest.param(lambda: truncated_responsibilities(_LJ, [[0.9], [0.9], [1.2], [1.2]]), _INTS,
                 id="truncated_responsibilities, float sets"),
    pytest.param(lambda: free_energy_trunc(_LJ, [[True], [True], [False], [False]]), _INTS,
                 id="free_energy_trunc, bool sets"),
    pytest.param(lambda: binary_responsibilities([0.0, 1.0], 2), _INTS,
                 id="binary_responsibilities, float labels"),
    pytest.param(lambda: objective_j(_PTS, [0, 0, 1], _MEANS), _ROWS, id="objective_j, 3 labels"),
    pytest.param(lambda: m_step_iso(_PTS, _THREE_ROWS), _ROWS, id="m_step_iso, 3 rows"),
    pytest.param(lambda: m_step_general(_PTS, _THREE_ROWS, GeneralGMM(
        [0.5, 0.5], _MEANS, np.stack([np.eye(2)] * 2))), _ROWS, id="m_step_general, 3 rows"),
    pytest.param(lambda: tvem_step(_PTS, _ISO, 1, _THREE_ROWS), _ROWS, id="tvem_step, 3 rows"),
    pytest.param(lambda: kl_gap(_PTS, _ISO, [0, 0, 1]), _ROWS, id="kl_gap, 3 labels"),
    pytest.param(lambda: free_energy_entropy_form(_PTS, _THREE_ROWS, 1.0), _ROWS,
                 id="free_energy_entropy_form, 3 rows"),
    pytest.param(lambda: squared_distances(_PTS, 5.0), _MATRIX, id="squared_distances, scalar"),
    pytest.param(lambda: objective_j(_PTS, [0, 0, 1, 1], 5.0), _MATRIX, id="objective_j, scalar"),
    pytest.param(lambda: squared_distances(_PTS, np.zeros((2, 2, 1))), _MATRIX,
                 id="squared_distances, (2, 2, 1)"),
    pytest.param(lambda: squared_distances(_PTS, np.zeros((2, 1, 1))), _MATRIX,
                 id="squared_distances, (2, 1, 1)"),
    pytest.param(lambda: kmeans_step(_PTS, np.zeros((2, 2, 1))), _MATRIX,
                 id="kmeans_step, (2, 2, 1)"),
    pytest.param(lambda: log_joints(_PTS, _ISO, np.zeros((3, 2))), _D2.format(3, 2),
                 id="iso log_joints, 3-row d2"),
    pytest.param(lambda: log_joints(_PTS, _ISO, np.zeros((4, 3))), _D2.format(4, 3),
                 id="iso log_joints, 3-column d2"),
])
def test_inputs_that_do_not_fit_the_data_are_configuration_errors(call, message):
    with pytest.raises(ConfigurationError, match=message) as err:
        call()
    assert type(err.value) is ConfigurationError
