import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tvclust import (
    ConfigurationError,
    Dataset,
    GeneratorSpec,
    IsotropicGMM,
    ParseError,
    generate,
    load_csv,
    save_csv,
)


class TestDataset:
    def test_one_dimensional_input_becomes_column(self):
        ds = Dataset([0.0, 1.0, 3.0, 4.0])
        assert ds.points.shape == (4, 1)
        assert ds.n == 4 and ds.d == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            Dataset([[0.0], [np.nan]])
        with pytest.raises(ConfigurationError):
            Dataset([[np.inf, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.empty((0, 2)))

    def test_labels_validated(self):
        Dataset([[0.0], [1.0]], labels=[0, 1])
        with pytest.raises(ConfigurationError):
            Dataset([[0.0], [1.0]], labels=[0, -1])
        with pytest.raises(ConfigurationError):
            Dataset([[0.0], [1.0]], labels=[0])

    def test_points_are_immutable(self):
        ds = Dataset([[0.0], [1.0]])
        with pytest.raises(ValueError):
            ds.points[0, 0] = 5.0


class TestGeneratorSpec:
    def test_grid_requires_square_c_true(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="grid", c_true=24, per_cluster_n=10)

    def test_uniform_requires_box(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="uniform", c_true=4, per_cluster_n=10)

    def test_bad_kind(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="blobs", c_true=4, per_cluster_n=10)

    def test_bad_counts(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="grid", c_true=0, per_cluster_n=10)
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="grid", c_true=4, per_cluster_n=0)
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="grid", c_true=4, per_cluster_n=5, gen_sigma=0.0)


class TestGenerate:
    def test_grid_25_clusters(self):
        spec = GeneratorSpec(kind="grid", c_true=25, per_cluster_n=100, seed=1)
        ds = generate(spec)
        assert ds.n == 2500
        assert ds.d == 2
        assert len(np.unique(ds.labels)) == 25

    def test_degenerate_single_cluster(self):
        spec = GeneratorSpec(
            kind="grid", c_true=1, per_cluster_n=1, gen_sigma=1e-9, seed=0
        )
        ds = generate(spec)
        assert ds.n == 1
        assert np.all(np.abs(ds.points) < 6e-9)

    def test_uniform_deterministic(self):
        spec = GeneratorSpec(
            kind="uniform",
            c_true=4,
            per_cluster_n=50,
            domain_box=((0.0, 10.0), (0.0, 10.0)),
            seed=7,
        )
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_grid_spacing_default_four_sigma(self):
        spec = GeneratorSpec(
            kind="grid", c_true=4, per_cluster_n=2000, gen_sigma=0.5, seed=3
        )
        ds = generate(spec)
        # cluster 1 is the second grid node, one spacing along the second axis
        center = ds.points[ds.labels == 1].mean(axis=0)
        assert np.allclose(center, [0.0, 2.0], atol=0.1)

    def test_empirical_centers_close_to_truth(self):
        spec = GeneratorSpec(
            kind="grid", c_true=4, per_cluster_n=10000, gen_sigma=1.0, seed=11
        )
        ds = generate(spec)
        spacing = 4.0
        side = 2
        for c in range(4):
            true_center = np.array([spacing * (c // side), spacing * (c % side)])
            emp = ds.points[ds.labels == c].mean(axis=0)
            assert np.all(np.abs(emp - true_center) < 0.05)

    def test_explicit_gmm_kind(self):
        model = IsotropicGMM(np.array([[0.0], [100.0]]), 0.5)
        spec = GeneratorSpec(
            kind="explicit-gmm", c_true=2, per_cluster_n=200, model=model, seed=5
        )
        ds = generate(spec)
        assert ds.n == 400
        assert abs(ds.points[ds.labels == 1].mean() - 100.0) < 0.5

    def test_explicit_gmm_requires_model(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="explicit-gmm", c_true=2, per_cluster_n=10)


class TestCsv:
    def test_round_trip_identity(self, tmp_path, four_points):
        path = tmp_path / "data.csv"
        save_csv(four_points, path)
        back = load_csv(path)
        assert np.array_equal(back.points, four_points.points)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_header_detected_and_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        ds = load_csv(path)
        assert ds.n == 2
        assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="line 1"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "only.csv"
        path.write_text("x,y\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1.0,2.0\ninf,0.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_labels_sidecar_round_trip(self, tmp_path):
        ds = Dataset([[0.0], [1.0], [2.0]], labels=[0, 0, 1])
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        assert (tmp_path / "d.csv.labels").exists()
        back = load_csv(path)
        assert np.array_equal(back.labels, ds.labels)

    def test_lf_line_endings(self, tmp_path):
        ds = Dataset([[0.5, 1.5]])
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    @given(
        rows=st.lists(
            st.lists(
                st.floats(
                    allow_nan=False,
                    allow_infinity=False,
                    min_value=-1e100,
                    max_value=1e100,
                ),
                min_size=2,
                max_size=2,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip_bit_exact(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        ds = Dataset(np.asarray(rows))
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.points, ds.points)


def test_uniform_empty_box_axis_rejected():
    with pytest.raises(ConfigurationError):
        GeneratorSpec(
            kind="uniform",
            c_true=2,
            per_cluster_n=5,
            domain_box=((0.0, 10.0), (3.0, 3.0)),
        )


@pytest.mark.parametrize(
    "axis", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (-1e308, 1e308)]
)
def test_uniform_box_must_be_finite_with_finite_width(axis):
    # numpy's uniform draw overflows on an infinite box or width
    with pytest.raises(ConfigurationError):
        GeneratorSpec(kind="uniform", c_true=2, per_cluster_n=5, domain_box=((0.0, 1.0), axis))


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        GeneratorSpec(kind="grid", c_true=4, per_cluster_n=5, seed=-1)


def test_grid_spacing_must_be_positive():
    with pytest.raises(ConfigurationError):
        GeneratorSpec(kind="grid", c_true=4, per_cluster_n=5, spacing=-1.0)
