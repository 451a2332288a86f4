"""Datasets, seeded synthetic generators, and CSV I/O.

Random generation uses numpy's PCG64 bit generator throughout
(``np.random.default_rng``); every generated dataset is a pure function of
its spec (including the seed), so runs and traces reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError, check_count, check_real
from .models import GeneralGMM, IsotropicGMM, _as_readonly, _centre, _matrix_of, model_to_snapshot

GENERATOR_KINDS = ("grid", "uniform", "explicit-gmm")


def make_rng(seed):
    """The package-wide PRNG: PCG64 seeded deterministically."""
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class Dataset:
    """Immutable N x D matrix of observations with optional true labels."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", _matrix_of(self.points, "points", "N"))
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype.kind not in "iu" or labels.shape != (self.n,):
                raise ConfigurationError("labels must be one integer per point")
            labels = _as_readonly(labels, dtype=np.int64)
            if np.any(labels < 0):
                raise ConfigurationError("labels must be nonnegative")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    @cached_property
    def centred(self):
        """``(centre, points - centre, squared row norms)``, centred on the
        mean: the frame ``models.squared_distances`` works in, made once."""
        return _centre(self.points)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic clustering benchmark.

    Kinds:
      * ``grid``: c_true cluster centers on a square 2-D grid (c_true must be
        a perfect square); spacing defaults to 4 * gen_sigma, which keeps
        neighboring clusters well separated.
      * ``uniform``: centers drawn uniformly inside ``domain_box``.
      * ``explicit-gmm``: per_cluster_n draws from each component of an
        explicitly supplied mixture ``model``.

    ``spacing``, ``domain_box`` and ``model`` are read by one kind each;
    giving one to another kind is a ``ConfigurationError``.
    """

    kind: str
    c_true: int = 25
    per_cluster_n: int = 100
    gen_sigma: float = 1.0
    spacing: float | None = None
    domain_box: tuple[tuple[float, float], ...] | None = None
    seed: int = 0
    model: IsotropicGMM | GeneralGMM | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigurationError(f"unknown generator kind {self.kind!r}")
        store = partial(object.__setattr__, self)
        store("c_true", check_count("c_true", self.c_true, 1))
        store("per_cluster_n", check_count("per_cluster_n", self.per_cluster_n, 1))
        store("gen_sigma", check_real("gen_sigma", self.gen_sigma, positive=True))
        store("seed", check_count("seed", self.seed, 0))
        for name, kind in (("spacing", "grid"), ("domain_box", "uniform"), ("model", "explicit-gmm")):
            if getattr(self, name) is not None and self.kind != kind:
                raise ConfigurationError(f"{self.kind} kind does not take {name}")
        if self.kind == "grid":
            side = math.isqrt(self.c_true)
            if side * side != self.c_true:
                raise ConfigurationError(
                    f"grid kind requires a perfect-square c_true, got {self.c_true}"
                )
            if self.spacing is not None:
                store("spacing", check_real("spacing", self.spacing, positive=True))
        if self.kind == "uniform":
            if self.domain_box is None:
                raise ConfigurationError("uniform kind requires domain_box")
            pairs = "domain_box axes must be (lo, hi) pairs of numbers"
            try:
                axes = [(lo, hi, hi - lo) for lo, hi in self.domain_box]
            except (TypeError, ValueError):
                raise ConfigurationError(pairs) from None
            for lo, hi, width in axes:
                if isinstance(lo, bool) or isinstance(hi, bool):
                    raise ConfigurationError(pairs)
                # a finite positive width means both bounds are finite and lo < hi
                check_real(f"domain_box axis ({lo}, {hi}) width", width, positive=True)
            store("domain_box", tuple((float(lo), float(hi)) for lo, hi, _ in axes))
        if self.kind == "explicit-gmm":
            if self.model is None:
                raise ConfigurationError("explicit-gmm kind requires a model")
            if self.c_true != self.model.c:
                raise ConfigurationError(
                    "c_true must match the component count of the supplied model"
                )

    def to_dict(self):
        """The fields in declaration order, ``domain_box`` as lists and
        ``model`` as its snapshot."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.domain_box is not None:
            d["domain_box"] = [list(ax) for ax in self.domain_box]
        if self.model is not None:
            d["model"] = model_to_snapshot(self.model)
        return d


def _components(spec, rng):
    """``(means, scale)`` of the clusters to draw from: the means, and the
    standard deviation of the isotropic draws around them, or ``None`` for
    a general model.  Only the uniform kind draws here, from ``rng``."""
    if isinstance(spec.model, GeneralGMM):
        return spec.model.means, None
    if isinstance(spec.model, IsotropicGMM):
        return spec.model.means, math.sqrt(spec.model.sigma2)
    if spec.kind == "grid":
        side = math.isqrt(spec.c_true)
        spacing = spec.spacing if spec.spacing is not None else 4.0 * spec.gen_sigma
        grid = np.arange(side, dtype=np.float64) * spacing
        ii, jj = np.meshgrid(grid, grid, indexing="ij")
        return np.column_stack([ii.ravel(), jj.ravel()]), spec.gen_sigma
    lo = np.array([ax[0] for ax in spec.domain_box])
    hi = np.array([ax[1] for ax in spec.domain_box])
    return rng.uniform(lo, hi, size=(spec.c_true, len(spec.domain_box))), spec.gen_sigma


def generate(spec):
    """Draw a labeled dataset from the spec; identical spec implies identical data.

    One generator draws every cluster's block in cluster order, after the
    uniform kind's means: ``mean + scale * standard normals`` for the grid,
    uniform and isotropic explicit kinds, ``multivariate_normal`` for a
    general model.  Draws that overflow end in ``Dataset``'s finiteness
    check, a ``ConfigurationError``.
    """
    rng = make_rng(spec.seed)
    n = spec.per_cluster_n
    with np.errstate(over="ignore", invalid="ignore"):
        means, scale = _components(spec, rng)
        blocks = []
        for c, mean in enumerate(means):
            if scale is None:
                block = rng.multivariate_normal(mean, spec.model.covs[c], size=n, method="cholesky")
            else:
                block = mean + scale * rng.standard_normal((n, means.shape[1]))
            blocks.append(block)
    return Dataset(np.vstack(blocks), np.repeat(np.arange(len(means)), n))


def _labels_path(path):
    return Path(str(path) + ".labels")


def save_csv(dataset, path):
    """One point per row, comma-separated shortest round-trip decimals, LF endings.

    When labels are present they go to a sibling ``<path>.labels`` file,
    one integer per line.
    """
    rows = np.asarray(dataset.points, dtype=np.float64).tolist()
    lines = [",".join(map(repr, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    if dataset.labels is not None:
        _labels_path(path).write_text(
            "\n".join(map(str, np.asarray(dataset.labels).tolist())) + "\n",
            encoding="utf-8",
            newline="\n",
        )


def _parse_row(cells, lineno):
    values = []
    for cell in cells:
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric value {cell.strip()!r}") from None
        if not math.isfinite(v):
            raise ParseError(f"line {lineno}: non-finite value {cell.strip()!r}")
        values.append(v)
    return values


# Separators that ``np.loadtxt`` strips from a cell and ``float`` rejects.
_LOADTXT_ONLY = "\x1c\x1d\x1e\x1f"


def _loadtxt(rows, width):
    """The data ``rows`` as an (len(rows), width) array from one
    ``np.loadtxt`` call, or ``None`` where the row loop must decide.

    ``loadtxt`` reads each cell as ``float`` does, bit for bit, but for
    three differences.  It strips U+001C to U+001F, so ``load_csv`` sends
    text holding one of them to the row loop.  It skips blank lines, so a
    result of any other shape is dropped.  It rejects cells ``float``
    accepts (non-ASCII digits, ``1_0``), so its error sends them to the row
    loop.  A non-finite value is dropped too, for the row loop to name.
    """
    try:
        values = np.loadtxt(rows, np.float64, comments=None, delimiter=",", ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rows), width) or not np.isfinite(values).all():
        return None
    return values


def _row_loop(rows, lineno, width):
    """The data ``rows``, the first at file line ``lineno``, parsed one line
    at a time; raises the ``ParseError`` of the first bad line."""
    values = []
    for i, line in enumerate(rows, lineno):
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"line {i}: expected {width} fields, got {len(cells)}")
        values.append(_parse_row(cells, i))
    return np.array(values, dtype=np.float64)


def load_csv(path):
    """Parse a CSV of points; a first row that is not all finite numbers is
    treated as a header.  A UTF-8 byte-order mark at the start of the data
    or the labels file is dropped.

    All data rows go through one ``np.loadtxt`` call (``_loadtxt``); only
    a file it cannot read exactly as the row loop would runs the row loop,
    so every ``ParseError`` names the first bad line.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("line 1: empty file")
    start = 0
    try:
        _parse_row(lines[0].split(","), 1)
    except ParseError:
        start = 1  # header row
    if start >= len(lines):
        raise ParseError("line 2: no data rows after header")
    rows = lines[start:]
    width = len(rows[0].split(","))
    points = None if any(c in text for c in _LOADTXT_ONLY) else _loadtxt(rows, width)
    if points is None:
        points = _row_loop(rows, start + 1, width)
    labels = None
    lpath = _labels_path(path)
    if lpath.exists():
        raw = [ln for ln in lpath.read_text(encoding="utf-8-sig").split("\n") if ln != ""]
        try:
            labels = np.array([int(v) for v in raw], dtype=np.int64)
        except ValueError as exc:
            raise ParseError(f"labels file {lpath}: {exc}") from None
        if labels.shape[0] != points.shape[0]:
            raise ParseError(
                f"labels file {lpath}: {labels.shape[0]} labels for {points.shape[0]} points"
            )
        if np.any(labels < 0):
            raise ParseError(f"labels file {lpath}: negative label {labels[labels < 0][0]}")
    return Dataset(points, labels)
