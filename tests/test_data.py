import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tvclust import (
    ConfigurationError,
    Dataset,
    GeneralGMM,
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
        labels = Dataset([[0.0], [1.0]], labels=np.array([1, 0], dtype=np.uint8)).labels
        assert labels.dtype == np.int64 and labels.tolist() == [1, 0]
        with pytest.raises(ConfigurationError):
            Dataset([[0.0], [1.0]], labels=[0, -1])
        with pytest.raises(ConfigurationError):
            Dataset([[0.0], [1.0]], labels=[0])

    @pytest.mark.parametrize(
        "labels", [[0.5, 1.7], [0.0, 1.0], ["a", "b"], [False, True], [None, None], [1j, 0j]]
    )
    def test_labels_must_be_integers(self, labels):
        with pytest.raises(ConfigurationError, match="^labels must be one integer per point$"):
            Dataset([[0.0], [1.0]], labels=labels)

    def test_points_are_immutable(self):
        ds = Dataset([[0.0], [1.0]])
        with pytest.raises(ValueError):
            ds.points[0, 0] = 5.0

    def test_points_and_labels_are_c_ordered_copies(self):
        # the layout of the input never reaches the fits' summation order
        points = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        labels = np.array([0, 1, 0, 1])
        ds = Dataset(points, labels)
        assert ds.points.flags["C_CONTIGUOUS"] and not np.shares_memory(ds.points, points)
        assert not np.shares_memory(ds.labels, labels) and not ds.labels.flags.writeable

    def test_points_of_a_dataset_are_its_points(self):
        ds = Dataset([[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(Dataset(ds).points, ds.points)


class TestGeneratorSpec:
    def test_counts_default_to_the_grid_benchmark(self):
        spec = GeneratorSpec(kind="grid")
        assert (spec.c_true, spec.per_cluster_n) == (25, 100)

    def test_grid_requires_square_c_true(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="grid", c_true=24, per_cluster_n=10)

    def test_uniform_requires_box(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="uniform", c_true=4, per_cluster_n=10)

    def test_bad_kind(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="blobs", c_true=4, per_cluster_n=10)

    def test_c_true_must_match_model(self):
        model = IsotropicGMM(np.array([[0.0], [100.0]]), 0.5)
        with pytest.raises(ConfigurationError, match="c_true must match"):
            GeneratorSpec(kind="explicit-gmm", c_true=3, per_cluster_n=10, model=model)

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

    def test_explicit_general_gmm_kind(self):
        model = GeneralGMM(
            np.array([0.5, 0.5]),
            np.array([[0.0, 0.0], [50.0, 0.0]]),
            np.array([[[1.0, 0.5], [0.5, 1.0]], [[2.0, 0.0], [0.0, 0.5]]]),
        )
        spec = GeneratorSpec(
            kind="explicit-gmm", c_true=2, per_cluster_n=300, model=model, seed=5
        )
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert a.points.shape == (600, 2)
        for c in range(2):
            pts = a.points[a.labels == c]
            assert np.all(np.abs(pts.mean(axis=0) - model.means[c]) < 0.3)
            assert np.all(np.abs(np.cov(pts.T) - model.covs[c]) < 0.4)

    def test_explicit_gmm_requires_model(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(kind="explicit-gmm", c_true=2, per_cluster_n=10)


def _iso_model():
    return IsotropicGMM(np.array([[0.0, 1.0, 2.0], [5.0, -1.0, 1e5]]), 2.0)


def _general_model():
    return GeneralGMM(
        np.array([0.3, 0.7]),
        np.array([[0.0, 0.0], [50.0, 0.0]]),
        np.array([[[1.0, 0.5], [0.5, 1.0]], [[2.0, 0.0], [0.0, 0.5]]]),
    )


def _reference_draw(kind, seed, n):
    """The draws ``generate`` must make, written out: ``default_rng(seed)``,
    the uniform kind's means first, then one block per cluster in index
    order."""
    rng = np.random.default_rng(seed)
    if kind == "grid":  # c_true 4, spacing 2.0, gen_sigma 0.5
        means = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0], [2.0, 2.0]])
        blocks = [m + 0.5 * rng.standard_normal((n, 2)) for m in means]
    elif kind == "uniform":  # c_true 3, box (0, 10) x (1e5, 1e5 + 1), gen_sigma 0.25
        means = rng.uniform([0.0, 1e5], [10.0, 1e5 + 1.0], size=(3, 2))
        blocks = [m + 0.25 * rng.standard_normal((n, 2)) for m in means]
    elif kind == "explicit-iso":
        model = _iso_model()
        blocks = [m + math.sqrt(model.sigma2) * rng.standard_normal((n, 3)) for m in model.means]
    else:
        model = _general_model()
        blocks = [rng.multivariate_normal(m, cov, size=n, method="cholesky")
                  for m, cov in zip(model.means, model.covs)]
    return np.vstack(blocks), np.repeat(np.arange(len(blocks)), n)


@pytest.mark.parametrize("kind", ["grid", "uniform", "explicit-iso", "explicit-general"])
@pytest.mark.parametrize("seed", [0, 17])
def test_generate_makes_the_reference_draws(kind, seed):
    n = 7
    spec = {
        "grid": dict(kind="grid", c_true=4, spacing=2.0, gen_sigma=0.5),
        "uniform": dict(kind="uniform", c_true=3, gen_sigma=0.25,
                        domain_box=((0.0, 10.0), (1e5, 1e5 + 1.0))),
        "explicit-iso": dict(kind="explicit-gmm", c_true=2, model=_iso_model()),
        "explicit-general": dict(kind="explicit-gmm", c_true=2, model=_general_model()),
    }[kind]
    ds = generate(GeneratorSpec(per_cluster_n=n, seed=seed, **spec))
    points, labels = _reference_draw(kind, seed, n)
    assert np.array_equal(ds.points, points)
    assert np.array_equal(ds.labels, labels)


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

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n7,8\n")
        (tmp_path / "bom.csv.labels").write_bytes(b"\xef\xbb\xbf0\n0\n1\n1\n")
        ds = load_csv(path)
        assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(ds.labels, [0, 0, 1, 1])

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


def _row_loop_points(path):
    """The reference reader ``load_csv`` must agree with: the whole file,
    line by line, each line's width checked and then its cells parsed in
    order, raising on the first bad line."""
    lines = path.read_text(encoding="utf-8").split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("line 1: empty file")

    def row(line, lineno):
        values = []
        for cell in line.split(","):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric value {cell.strip()!r}") from None
            if not math.isfinite(v):
                raise ParseError(f"line {lineno}: non-finite value {cell.strip()!r}")
            values.append(v)
        return values

    try:
        row(lines[0], 1)
        start = 0
    except ParseError:
        start = 1
    if start >= len(lines):
        raise ParseError("line 2: no data rows after header")
    width = len(lines[start].split(","))
    rows = []
    for i in range(start, len(lines)):
        got = len(lines[i].split(","))
        if got != width:
            raise ParseError(f"line {i + 1}: expected {width} fields, got {got}")
        rows.append(row(lines[i], i + 1))
    return np.array(rows, dtype=np.float64)


# id -> (width, rows, {file line: replacement text}, line ending, message or
# None for a file that parses).  The bad lines sit past the first 1024 and
# 2048 lines, where an earlier reader split the file into blocks.
_CSV_CASES = {
    "bad_cell_second_block": (3, 2500, {1500: "1.0,abc,2.0"}, "\n",
                              "line 1500: non-numeric value 'abc'"),
    "blank_line_mid_file": (3, 2500, {1100: ""}, "\n", "line 1100: expected 3 fields, got 1"),
    "ragged_after_1024": (3, 2500, {1030: "1,2,3,4"}, "\n", "line 1030: expected 3 fields, got 4"),
    "parse_error_before_ragged": (3, 2500, {1500: "x,1,2", 1600: "1,2"}, "\n",
                                  "line 1500: non-numeric value 'x'"),
    "ragged_before_parse_error": (3, 2500, {2049: "1,2", 2050: "x,1,2"}, "\n",
                                  "line 2049: expected 3 fields, got 2"),
    "nan_cell": (3, 2500, {1200: "nan,1,2"}, "\n", "line 1200: non-finite value 'nan'"),
    "inf_cell_first_block": (3, 2500, {7: "1, -inf ,2"}, "\n", "line 7: non-finite value '-inf'"),
    "overflowing_cell": (3, 2500, {2100: "1,2,1e400"}, "\n", "line 2100: non-finite value '1e400'"),
    "crlf": (3, 2500, {}, "\r\n", None),
    "crlf_bad_cell": (3, 2500, {1500: "1,oops,2"}, "\r\n", "line 1500: non-numeric value 'oops'"),
    "crlf_ragged": (3, 2500, {2000: "1,2"}, "\r\n", "line 2000: expected 3 fields, got 2"),
    "nan_first_row_is_header": (2, 1500, {1: "nan,nan"}, "\n", None),
    "whitespace_and_signs": (3, 1100, {5: " +1.5 ,\t-0.0,1_000", 1030: "1e-320,  2 ,3e5"}, "\n", None),
    "whole_blocks": (2, 2048, {}, "\n", None),
    "width1": (1, 2500, {}, "\n", None),
    "width1_bad_cell": (1, 2500, {1500: "abc"}, "\n", "line 1500: non-numeric value 'abc'"),
    "width1_blank_line": (1, 2500, {1100: ""}, "\n", "line 1100: non-numeric value ''"),
    "width1_inf": (1, 2500, {2400: "inf"}, "\n", "line 2400: non-finite value 'inf'"),
}


@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_block_reader_matches_row_loop(case, tmp_path):
    width, n, edits, eol, message = _CSV_CASES[case]
    rng = np.random.default_rng(len(case))
    lines = [",".join(map(repr, row)) for row in (1e3 * rng.normal(size=(n, width))).tolist()]
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    path = tmp_path / "d.csv"
    path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
    if message is None:
        assert np.array_equal(load_csv(path).points, _row_loop_points(path))
        return
    for reader in (load_csv, _row_loop_points):
        with pytest.raises(ParseError) as err:
            reader(path)
        assert str(err.value) == message


def test_block_reader_skips_the_row_loop_on_good_blocks(tmp_path, monkeypatch):
    import tvclust.data

    calls = []
    row = tvclust.data._parse_row
    monkeypatch.setattr(tvclust.data, "_parse_row", lambda *a: calls.append(a) or row(*a))
    path = tmp_path / "d.csv"
    save_csv(Dataset(np.arange(6000.0).reshape(3000, 2)), path)
    assert load_csv(path).n == 3000
    assert len(calls) == 1  # the header test of line 1


# Cells on which ``np.loadtxt`` and ``float`` can disagree: separators
# U+001C-U+001F (``loadtxt`` strips them), non-ASCII digits and ``1_0``
# (``float`` takes them), blank cells and lines (``loadtxt`` skips blank
# lines), embedded CR, comment and quote characters, non-finite values.
_ODD_CELLS = st.one_of(
    st.sampled_from([
        "", " ", "\t", "nan", "-inf", "inf", "1e400", "1e-320", "1_0", "\u0661", "\uff11",
        "\u0661\u0662.5", "#", "1#2", '"1"', "'1'", "1\r", "\r1", "1\r2", "1\x1c", "\x1f2",
        " 1\x1e", "\x1d", " +.5 ", "-0", "0x10", "1e5",
    ]),
    st.text(alphabet="0123456789.-+e _\t\r#\"',\x1c\x1d\x1e\x1f\u0661\uff11", max_size=5),
)
_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
)


@st.composite
def _csv_texts(draw):
    """Rows of numbers with up to two odd cells and a blank line put in."""
    width = draw(st.integers(1, 3))
    cells = st.lists(_NUMBER_CELLS, min_size=width, max_size=width)
    rows = draw(st.lists(cells, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, width - 1))] = draw(_ODD_CELLS)
    for _ in range(draw(st.integers(0, 1))):
        blank = draw(st.sampled_from(["", " ", "\t", "\r", "\x1c"]))
        rows.insert(draw(st.integers(0, len(rows))), [blank])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(map(",".join, rows)) + draw(st.sampled_from(["", eol, eol + eol]))


@given(text=_csv_texts())
@example(text="1\n2\x1c\n")
@example(text="1,2\n3,\x1f4\n")
@example(text="1\n\u0661\n")
@example(text="1\n\uff11\n")
@example(text="1\n1_0\n")
@example(text="1\n\n2\n")
@example(text="1\n \n2\n")
@example(text="1\n2\r3\n")
@example(text="1\n#2\n")
@example(text='1\n"2"\n')
@example(text="1,\n2,\n")
@example(text="1\nnan\n")
@example(text="1,2\n3,-inf\n")
@example(text="1,2\r\n3,4\r\n")
@example(text="5\n")
def test_reader_accepts_exactly_what_the_row_loop_accepts(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = _row_loop_points(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert str(err.value) == str(exc)
        return
    got = load_csv(path).points
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "kind,field",
    [("grid", "domain_box"), ("grid", "model"), ("uniform", "spacing"), ("uniform", "model"),
     ("explicit-gmm", "spacing"), ("explicit-gmm", "domain_box")],
)
def test_kind_rejects_a_field_it_does_not_read(kind, field):
    fields = {
        "grid": {"c_true": 4},
        "uniform": {"c_true": 4, "domain_box": ((0.0, 1.0), (0.0, 1.0))},
        "explicit-gmm": {"c_true": 2, "model": _iso_model()},
    }[kind]
    fields[field] = {"spacing": 3.0, "domain_box": ((0.0, 1.0),), "model": _iso_model()}[field]
    with pytest.raises(ConfigurationError, match=f"{kind} kind does not take {field}"):
        GeneratorSpec(kind=kind, per_cluster_n=5, **fields)


def test_uniform_empty_box_axis_rejected():
    with pytest.raises(ConfigurationError):
        GeneratorSpec(
            kind="uniform",
            c_true=2,
            per_cluster_n=5,
            domain_box=((0.0, 10.0), (3.0, 3.0)),
        )


@pytest.mark.parametrize(
    "axis", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (-1e308, 1e308), (0.0, 1j)]
)
def test_uniform_box_must_be_finite_with_finite_width(axis):
    # numpy's uniform draw overflows on an infinite box or width
    with pytest.raises(ConfigurationError):
        GeneratorSpec(kind="uniform", c_true=2, per_cluster_n=5, domain_box=((0.0, 1.0), axis))


@pytest.mark.parametrize(
    "box", [((0.0,),), ((0.0, 1.0, 2.0),), (("0", "1"),), ((0.0, "1"),), ((None, 1.0),), (0.0,)]
)
def test_uniform_box_axes_must_be_pairs_of_numbers(box):
    with pytest.raises(ConfigurationError, match="^domain_box axes must be"):
        GeneratorSpec(kind="uniform", c_true=1, per_cluster_n=5, domain_box=box)


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        GeneratorSpec(kind="grid", c_true=4, per_cluster_n=5, seed=-1)


def test_grid_spacing_must_be_positive():
    with pytest.raises(ConfigurationError):
        GeneratorSpec(kind="grid", c_true=4, per_cluster_n=5, spacing=-1.0)
