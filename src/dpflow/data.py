"""Dataset ingestion, synthetic benchmark generators and evaluation
utilities (cross-validation splits, kNN downstream task, PCA projection,
dimension-wise histograms)."""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonFiniteInputError


@dataclass
class Dataset:
    X: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def load_csv(path, has_header: bool = False) -> Dataset:
    """Parse a rectangular numeric CSV; the first line is a header, and is
    skipped, when ``has_header`` is set.

    A cell is read as Python's ``float()`` reads it. The header is read with
    ``csv``; the data rows go to numpy's C parser (``_parse_plain``), which
    reads plain decimal cells with the same values. Whatever that parser
    refuses or might read differently (quoted or exotic cells, blank lines,
    ragged rows) is parsed by ``csv`` and converted cell by cell, which
    names the row and column of the first non-numeric cell. A file that is
    not valid text raises ConfigurationError.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None) if has_header else None
            header_lines = reader.line_num
            text = fh.read()
        data = _parse_plain(path, text, header_lines)
        if data is None:
            rows = list(csv.reader(io.StringIO(text, newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigurationError(f"{path}: unreadable CSV: {exc}") from None
    if has_header and header is None:
        raise ConfigurationError(f"{path}: empty file")
    if data is None:
        data = _parse_rows(path, rows, has_header)
    if not np.all(np.isfinite(data)):
        raise NonFiniteInputError(f"{path}: non-finite values")
    return Dataset(data)


def _parse_plain(path, text, header_lines):
    """The data rows by numpy's C parser, or None where its reading could
    differ from ``csv`` plus ``float()``: on any parse error, and when it
    skipped a line (it drops blank lines, which the cell-by-cell path
    rejects). ``text`` is the file after its first ``header_lines`` lines.

    The parser reads the file again line by line, so it holds no
    four-bytes-per-character copy of ``text``, as a ``StringIO`` would. In
    text mode the lines end at CR LF, CR or LF, as ``csv`` splits them.
    Cells are converted by the same correctly rounded routine as
    ``float()``, so the values agree.
    """
    if not text:
        return None
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data"
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                              skiprows=header_lines)
    except ValueError:
        return None
    lines = (text.count("\n") + text.count("\r") - text.count("\r\n")
             + (text[-1] not in "\r\n"))
    return data if data.shape[0] == lines else None


def _parse_rows(path, rows, has_header):
    """The cell-by-cell path: csv rows to an array, with the row width
    checked and the first non-numeric cell named."""
    if not rows:
        raise ConfigurationError(f"{path}: " + (
            "header but no data rows" if has_header else "empty file"))
    width = len(rows[0])
    if width == 0:
        raise ConfigurationError(f"{path}: row 1 is blank")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ConfigurationError(
                f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ConfigurationError(
                    f"{path}: non-numeric cell at row {i + 1}, "
                    f"column {j + 1}: {cell!r}") from None
    return data


def write_rows(fh, header, rows):
    """Write a CSV table to an open text file: the header row (if any) with
    csv quoting, then one line per row, each cell the ``repr`` of a Python
    int or float (for a float, the shortest text that reads back exactly).
    ``rows`` is a 2-D float array, formatted in one ``%`` operation over its
    flattened cells, or a list of rows of Python numbers."""
    if header is not None:
        csv.writer(fh, lineterminator="\n").writerow(header)
    if isinstance(rows, np.ndarray):
        # One %-format over all cells; %r is repr, so the text is the same.
        n, d = rows.shape
        line = ",".join(["%r"] * d) + "\n"
        fh.write(line * n % tuple(rows.ravel().tolist()))
        return
    fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


def save_csv(path, dataset: Dataset | np.ndarray):
    """Write the rows as a CSV table with no header."""
    if isinstance(dataset, Dataset):
        dataset = dataset.X
    with open(path, "w", newline="\n") as fh:
        write_rows(fh, None, np.atleast_2d(np.asarray(dataset, dtype=float)))


def standardize(dataset: Dataset) -> Dataset:
    """Per-feature zero mean / unit std."""
    X = dataset.X
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    if np.any(std == 0):
        bad = int(np.flatnonzero(std == 0)[0])
        raise ConfigurationError(f"column {bad} is constant")
    return Dataset((X - mean) / std)


def make_cv_splits(n: int, folds: int = 10, seed=0):
    """Independent seeded 90/10 splits, one per fold: (train_idx, test_idx)."""
    if folds < 1:
        raise ConfigurationError(f"folds must be >= 1, got {folds}")
    if n < folds:
        raise ConfigurationError("n too small for the requested folds")
    rng = np.random.default_rng(seed)
    n_test = max(1, round(n / 10))
    splits = []
    for _ in range(folds):
        perm = rng.permutation(n)
        splits.append((np.sort(perm[n_test:]), np.sort(perm[:n_test])))
    return splits


def gen_half_moons(n: int, noise_std: float = 0.1, seed=0) -> Dataset:
    """Two interleaved unit-radius semicircle arcs: the upper arc centered at
    the origin, the lower shifted by (1, -0.5); angles uniform on [0, pi]."""
    if n < 2:
        raise ConfigurationError("n must be >= 2")
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ConfigurationError(
            f"noise_std must be finite and >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    n_upper = (n + 1) // 2
    n_lower = n - n_upper
    t_up = rng.uniform(0.0, math.pi, n_upper)
    t_lo = rng.uniform(0.0, math.pi, n_lower)
    upper = np.column_stack([np.cos(t_up), np.sin(t_up)])
    lower = np.column_stack([1.0 - np.cos(t_lo), 0.5 - np.sin(t_lo)])
    pts = np.vstack([upper, lower])
    if noise_std > 0:
        pts = pts + rng.normal(0.0, noise_std, size=pts.shape)
    return Dataset(pts)


# Pinwheel noise (radial and tangential standard deviations) and the shear
# per unit radius; gaussians8 circle radius and component standard deviation.
PINWHEEL_RADIAL_STD, PINWHEEL_TANGENTIAL_STD, PINWHEEL_WARP = 0.3, 0.05, 0.25
GAUSSIANS8_RADIUS, GAUSSIANS8_STD = 2.0, 0.2


def gen_pinwheel(n: int, arms: int = 5, seed=0) -> Dataset:
    """Radial clusters at unit distance, one per arm, sheared by a rotation
    proportional to the point's radius."""
    if arms < 1:
        raise ConfigurationError(f"arms must be >= 1, got {arms}")
    if n < arms:
        raise ConfigurationError("need at least one point per arm")
    rng = np.random.default_rng(seed)
    arm = np.arange(n) % arms  # equal allocation keeps every arm populated
    r = 1.0 + PINWHEEL_RADIAL_STD * rng.standard_normal(n)
    tang = PINWHEEL_TANGENTIAL_STD * rng.standard_normal(n)
    theta = 2.0 * math.pi * arm / arms + PINWHEEL_WARP * r
    x = r * np.cos(theta) - tang * np.sin(theta)
    y = r * np.sin(theta) + tang * np.cos(theta)
    return Dataset(np.column_stack([x, y]))


def gen_gaussians8(n: int, seed=0) -> Dataset:
    """Equal-weight mixture of 8 Gaussians on a circle."""
    if n < 8:
        raise ConfigurationError("n must be >= 8")
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, 8, size=n)
    angles = 2.0 * math.pi * comp / 8.0
    centers = GAUSSIANS8_RADIUS * np.column_stack([np.cos(angles),
                                                   np.sin(angles)])
    return Dataset(centers + GAUSSIANS8_STD * rng.standard_normal((n, 2)))


# Test rows per distance block in ``knn_regress_mse``. The block's
# (rows, n_train, D-1) float64 differences and their squares then take
# 41 MB each for 27,000 training rows of 7 columns, whatever the test size.
KNN_BLOCK_ROWS = 32


def knn_regress_mse(train: Dataset, test: Dataset, k: int = 3) -> float:
    """Mean squared error predicting the last column from the others with
    k-nearest-neighbour mean aggregation (Euclidean metric; distance ties
    broken toward the lower training-row index). The distances are formed
    for ``KNN_BLOCK_ROWS`` test rows at a time; each row's are the same
    either way."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if train.dim != test.dim:
        raise ConfigurationError(
            f"train has {train.dim} columns, test has {test.dim}")
    Xtr, ytr = train.X[:, :-1], train.X[:, -1]
    Xte, yte = test.X[:, :-1], test.X[:, -1]
    if k > Xtr.shape[0]:
        raise ConfigurationError("k exceeds the training-set size")
    preds = np.empty(Xte.shape[0])
    for lo in range(0, Xte.shape[0], KNN_BLOCK_ROWS):
        block = Xte[lo:lo + KNN_BLOCK_ROWS]
        d2 = np.sum((block[:, None, :] - Xtr[None, :, :]) ** 2, axis=2)
        neighbours = np.argsort(d2, axis=1, kind="stable")[:, :k]
        preds[lo:lo + KNN_BLOCK_ROWS] = ytr[neighbours].mean(axis=1)
    return float(np.mean((preds - yte) ** 2))


def pca_project(dataset: Dataset, components: int = 2):
    """Mean-centered projection onto the top-variance orthonormal directions.

    Returns (projected (n, components), components (components, D)); each
    component's largest-magnitude entry is made positive.
    """
    X = dataset.X
    n, d = X.shape
    if components < 1:
        raise ConfigurationError(
            f"components must be >= 1, got {components}")
    if components > d:
        raise ConfigurationError("more components than dimensions")
    if n <= components:
        raise ConfigurationError("need more rows than components")
    centered = X - X.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:components]
    signs = np.sign(comps[np.arange(components),
                          np.argmax(np.abs(comps), axis=1)])
    comps = comps * signs[:, None]
    return centered @ comps.T, comps


def dimwise_histogram(dataset: Dataset, bins: int):
    """Equal-width per-dimension histograms over [min, max]; returns a list
    of (edges, counts)."""
    if bins < 1:
        raise ConfigurationError("bins must be >= 1")
    X = dataset.X
    out = []
    for j in range(X.shape[1]):
        col = X[:, j]
        lo, hi = float(col.min()), float(col.max())
        if lo == hi:
            hi = lo + 1.0
        counts, edges = np.histogram(col, bins=bins, range=(lo, hi))
        out.append((edges, counts))
    return out
