"""Datasets, seeded synthetic generators, and CSV I/O.

Random generation uses numpy's PCG64 bit generator throughout
(``np.random.default_rng``); every generated dataset is a pure function of
its spec (including the seed), so runs and traces reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError
from .models import GeneralGMM, IsotropicGMM, _centre, model_to_snapshot

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
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
            raise ConfigurationError("points must be a non-empty N x D matrix")
        if not np.all(np.isfinite(points)):
            raise ConfigurationError("points must be finite (no NaN/Inf)")
        points = points.copy()
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (points.shape[0],):
                raise ConfigurationError("labels must be one integer per point")
            if np.any(labels < 0):
                raise ConfigurationError("labels must be nonnegative")
            labels = labels.copy()
            labels.setflags(write=False)
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
    """

    kind: str
    c_true: int
    per_cluster_n: int
    gen_sigma: float = 1.0
    spacing: float | None = None
    domain_box: tuple[tuple[float, float], ...] | None = None
    seed: int = 0
    model: IsotropicGMM | GeneralGMM | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigurationError(f"unknown generator kind {self.kind!r}")
        if self.c_true < 1:
            raise ConfigurationError("c_true must be >= 1")
        if self.per_cluster_n < 1:
            raise ConfigurationError("per_cluster_n must be >= 1")
        if not self.gen_sigma > 0.0:
            raise ConfigurationError("gen_sigma must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.kind == "grid":
            side = math.isqrt(self.c_true)
            if side * side != self.c_true:
                raise ConfigurationError(
                    f"grid kind requires a perfect-square c_true, got {self.c_true}"
                )
            if self.spacing is not None and not self.spacing > 0.0:
                raise ConfigurationError("spacing must be positive")
        if self.kind == "uniform":
            if self.domain_box is None:
                raise ConfigurationError("uniform kind requires domain_box")
            for lo, hi in self.domain_box:
                if not all(map(math.isfinite, (lo, hi, hi - lo))):
                    raise ConfigurationError(
                        f"domain_box axis ({lo}, {hi}) must be finite with a finite width"
                    )
                if not lo < hi:
                    raise ConfigurationError(f"empty domain_box axis ({lo}, {hi})")
        if self.kind == "explicit-gmm":
            if self.model is None:
                raise ConfigurationError("explicit-gmm kind requires a model")
            if self.c_true != self.model.c:
                raise ConfigurationError(
                    "c_true must match the component count of the supplied model"
                )

    def to_dict(self):
        return {
            "kind": self.kind,
            "c_true": self.c_true,
            "per_cluster_n": self.per_cluster_n,
            "gen_sigma": self.gen_sigma,
            "spacing": self.spacing,
            "domain_box": None
            if self.domain_box is None
            else [list(ax) for ax in self.domain_box],
            "seed": self.seed,
            "model": None if self.model is None else model_to_snapshot(self.model),
        }


def _cluster_centers(spec, rng):
    if spec.kind == "grid":
        side = math.isqrt(spec.c_true)
        spacing = spec.spacing if spec.spacing is not None else 4.0 * spec.gen_sigma
        grid = np.arange(side, dtype=np.float64) * spacing
        ii, jj = np.meshgrid(grid, grid, indexing="ij")
        return np.column_stack([ii.ravel(), jj.ravel()])
    lo = np.array([ax[0] for ax in spec.domain_box])
    hi = np.array([ax[1] for ax in spec.domain_box])
    return rng.uniform(lo, hi, size=(spec.c_true, len(spec.domain_box)))


def generate(spec):
    """Draw a labeled dataset from the spec; identical spec implies identical data."""
    rng = make_rng(spec.seed)
    if spec.kind == "explicit-gmm":
        return _generate_from_model(spec, rng)
    centers = _cluster_centers(spec, rng)
    d = centers.shape[1]
    blocks = []
    labels = []
    for c, center in enumerate(centers):
        pts = center + spec.gen_sigma * rng.standard_normal((spec.per_cluster_n, d))
        blocks.append(pts)
        labels.append(np.full(spec.per_cluster_n, c, dtype=np.int64))
    return Dataset(np.vstack(blocks), np.concatenate(labels))


def _generate_from_model(spec, rng):
    model = spec.model
    blocks = []
    labels = []
    for c in range(model.c):
        if isinstance(model, IsotropicGMM):
            pts = model.means[c] + math.sqrt(model.sigma2) * rng.standard_normal(
                (spec.per_cluster_n, model.d)
            )
        else:
            pts = rng.multivariate_normal(
                model.means[c], model.covs[c], size=spec.per_cluster_n,
                method="cholesky",
            )
        blocks.append(pts)
        labels.append(np.full(spec.per_cluster_n, c, dtype=np.int64))
    return Dataset(np.vstack(blocks), np.concatenate(labels))


def _labels_path(path):
    return Path(str(path) + ".labels")


def save_csv(dataset, path):
    """One point per row, comma-separated shortest round-trip decimals, LF endings.

    When labels are present they go to a sibling ``<path>.labels`` file,
    one integer per line.
    """
    lines = [
        ",".join(repr(float(v)) for v in row) for row in np.asarray(dataset.points)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    if dataset.labels is not None:
        _labels_path(path).write_text(
            "\n".join(str(int(v)) for v in dataset.labels) + "\n",
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


def load_csv(path):
    """Parse a CSV of points; a non-numeric first row is treated as a header."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("line 1: empty file")
    start = 0
    first_cells = lines[0].split(",")
    try:
        _parse_row(first_cells, 1)
    except ParseError:
        start = 1  # header row
    if start >= len(lines):
        raise ParseError("line 2: no data rows after header")
    width = len(lines[start].split(","))
    rows = []
    for i in range(start, len(lines)):
        cells = lines[i].split(",")
        if len(cells) != width:
            raise ParseError(
                f"line {i + 1}: expected {width} fields, got {len(cells)}"
            )
        rows.append(_parse_row(cells, i + 1))
    labels = None
    lpath = _labels_path(path)
    if lpath.exists():
        raw = [ln for ln in lpath.read_text(encoding="utf-8").split("\n") if ln != ""]
        try:
            labels = np.array([int(v) for v in raw], dtype=np.int64)
        except ValueError as exc:
            raise ParseError(f"labels file {lpath}: {exc}") from None
        if labels.shape[0] != len(rows):
            raise ParseError(
                f"labels file {lpath}: {labels.shape[0]} labels for {len(rows)} points"
            )
    return Dataset(np.asarray(rows, dtype=np.float64), labels)
