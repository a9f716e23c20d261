"""Dataset synthesis, ingestion, splitting, and training-set manipulation.

A dataset is a frozen bundle of a feature matrix with per-row class id,
ground-truth label (normal/anomaly), split tag, and a semi-supervision
flag. The ground-truth label is never rewritten: contamination moves
anomaly rows into the train split while keeping their label for audit,
and training code simply treats every train row as nominal unless its
``sad_flag`` is set.

The benchmark pipeline is: build (generate or load) -> split -> standardize
-> optional contaminate/inject_sad_labels -> train -> optional affine
perturbation of the held-out rows. Standardization is a separate step
rather than part of loading because it must use train-only statistics,
which exist only after splitting.
"""

from __future__ import annotations

import csv
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .scoring import row_blocks
from .seeding import sub_rng

TRAIN, VAL, TEST = "train", "val", "test"
NORMAL, ANOMALY = 0, 1
LABEL_COLUMN = "class"  # the class column that save_csv writes and rpo score drops
TEST_FRACTION = 0.25  # share of each source's normals that starts in test

_BLOB_SIGMA = 1.0
_MEAN_SEPARATION = 6.0  # pairwise blob-mean distance, units of sigma
_ANOMALY_MARGIN = 3.0  # min distance from any anomaly to every blob mean
_CANDIDATE_BATCH_VALUES = 2**14  # bound on a candidate batch's (candidates, k, d) distances


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable rows: features, class id, label, split tag, SAD flag."""

    X: np.ndarray  # (n, d) float64
    class_id: np.ndarray  # (n,) int64
    label: np.ndarray  # (n,) int8, NORMAL or ANOMALY
    split: np.ndarray  # (n,) str, TRAIN / VAL / TEST
    sad_flag: np.ndarray  # (n,) bool

    def __post_init__(self):
        n = self.X.shape[0]
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {self.X.shape}")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features contain NaN or infinite entries")
        for name in ("class_id", "label", "split", "sad_flag"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if not np.all(np.isin(self.label, (NORMAL, ANOMALY))):
            raise ValueError("labels must be 0 (normal) or 1 (anomaly)")
        if not np.all(np.isin(self.split, (TRAIN, VAL, TEST))):
            raise ValueError("split tags must be train, val, or test")
        for arr in (self.X, self.class_id, self.label, self.split, self.sad_flag):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def mask(self, split: str) -> np.ndarray:
        return self.split == split

    def count(self, split: str, label: int | None = None) -> int:
        m = self.mask(split)
        if label is not None:
            m = m & (self.label == label)
        return int(np.count_nonzero(m))


@dataclass(frozen=True)
class AffineSpec:
    """Post-training perturbation of held-out features.

    ``constant`` multiplies every component by ``alpha``; ``uniform_range``
    and ``standard_normal`` multiply by a random diagonal drawn once from
    the seed passed to ``affine_transform`` (a run passes its own ``affine``
    sub-seed).
    """

    mode: str = "constant"
    alpha: float = 1.0
    low: float = 0.9
    high: float = 1.1

    def __post_init__(self):
        if self.mode not in ("constant", "uniform_range", "standard_normal"):
            raise ValueError(f"unknown affine mode {self.mode!r}")
        if self.mode == "constant" and self.alpha == 0.0:
            raise ValueError("constant affine alpha must be nonzero")
        if not np.all(np.isfinite([self.alpha, self.low, self.high])):
            raise ValueError(f"affine alpha, low and high must be finite, got {self}")
        if self.low > self.high:
            raise ValueError(f"affine range [{self.low}, {self.high}] is empty")


def _dataset(X, class_id, label, split, sad_flag) -> Dataset:
    return Dataset(
        X=np.ascontiguousarray(X, dtype=np.float64),
        class_id=np.ascontiguousarray(class_id, dtype=np.int64),
        label=np.ascontiguousarray(label, dtype=np.int8),
        split=np.asarray(split, dtype="U5"),
        sad_flag=np.ascontiguousarray(sad_flag, dtype=bool),
    )


def _place_blob_means(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` means, each ``_MEAN_SEPARATION`` or more from every earlier one.

    Up to ``10_000 * k`` candidates are drawn from a box, and one is kept
    when its ``np.linalg.norm`` distance to every kept mean is at least the
    separation. Candidates are drawn and tested in batches, but the means,
    and the generator's state on return, are those of drawing and testing
    one candidate at a time: the stream is rewound to the batch's start and
    redrawn up to the candidate that completes the k means.
    """
    half_width = max(10.0, 4.0 * k)
    budget, batch = 10_000 * k, max(1, _CANDIDATE_BATCH_VALUES // (k * d))
    means = np.empty((0, d))
    while budget:
        state = rng.bit_generator.state
        candidates = rng.uniform(-half_width, half_width, size=(min(batch, budget), d))
        budget -= len(candidates)
        pending = np.flatnonzero(_clear_of(candidates, means))
        while pending.size:
            first, rest = pending[0], pending[1:]
            means = np.vstack([means, candidates[first]])
            if len(means) == k:
                rng.bit_generator.state = state
                rng.uniform(-half_width, half_width, size=(first + 1, d))
                return means
            pending = rest[_clear_of(candidates[rest], candidates[first : first + 1])]
    raise DataError(f"could not place {k} blob means {_MEAN_SEPARATION} sigma apart in d={d}")


def _clear_of(candidates: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Whether each candidate lies ``_MEAN_SEPARATION`` or more from every mean.

    Equals ``np.linalg.norm(candidate - mu) >= _MEAN_SEPARATION`` for every
    pair: the vectorized squared distances settle all pairs but those within
    a relative 1e-9 of the bound, far above their rounding, and those few
    take that exact test.
    """
    diff = candidates[:, np.newaxis, :] - means  # (candidates, means, d)
    sq = np.einsum("cmd,cmd->cm", diff, diff)
    bound = _MEAN_SEPARATION**2
    clear = sq >= bound
    for c, j in zip(*np.nonzero(np.abs(sq - bound) <= 1e-9 * bound)):
        clear[c, j] = np.linalg.norm(diff[c, j]) >= _MEAN_SEPARATION
    return clear.all(axis=1)


def generate_multimodal(k_modes: int, d: int, n_per_mode: int, anomaly_n: int, seed: int,
                        test_fraction: float = TEST_FRACTION) -> Dataset:
    """Gaussian-blob normality plus box anomalies kept clear of every blob.

    Normal rows get class ids 0..k-1 and are pre-partitioned into train and
    test; anomalies get class id k and start in the test split. Every
    anomaly is verified to lie at least 3 sigma from every blob mean.
    """
    if k_modes < 1 or d < 1 or n_per_mode < 1 or anomaly_n < 0:
        raise ValueError(
            f"invalid counts: k_modes={k_modes}, d={d}, "
            f"n_per_mode={n_per_mode}, anomaly_n={anomaly_n}"
        )
    n_test = _test_count(test_fraction, n_per_mode)
    rng = sub_rng(seed, "datagen")
    means = _place_blob_means(k_modes, d, rng)

    X_parts, class_parts, split_parts = [], [], []
    for c in range(k_modes):
        rows = means[c] + _BLOB_SIGMA * rng.standard_normal((n_per_mode, d))
        X_parts.append(rows)
        class_parts.append(np.full(n_per_mode, c))
        tags = np.full(n_per_mode, TRAIN, dtype="U5")
        if n_test:
            tags[rng.permutation(n_per_mode)[:n_test]] = TEST
        split_parts.append(tags)

    lo = means.min(axis=0) - 2.0 * _MEAN_SEPARATION
    hi = means.max(axis=0) + 2.0 * _MEAN_SEPARATION
    # batches draw the stream one candidate at a time would, within the same budget
    budget, batch = 1000 * max(anomaly_n, 1), max(1, _CANDIDATE_BATCH_VALUES // (k_modes * d))
    anomalies, accepted, drawn = np.empty((anomaly_n, d)), 0, 0
    while accepted < anomaly_n and drawn < budget:
        candidates = rng.uniform(lo, hi, size=(min(batch, budget - drawn), d))
        drawn += len(candidates)
        nearest = np.linalg.norm(means - candidates[:, None], axis=2).min(axis=1)
        clear = candidates[nearest >= _ANOMALY_MARGIN][: anomaly_n - accepted]
        anomalies[accepted : accepted + len(clear)] = clear
        accepted += len(clear)
    if accepted < anomaly_n:
        raise DataError("could not sample anomalies outside every blob core")
    X_parts.append(anomalies)
    class_parts.append(np.full(anomaly_n, k_modes))
    split_parts.append(np.full(anomaly_n, TEST, dtype="U5"))

    X = np.vstack(X_parts)
    class_id = np.concatenate(class_parts)
    label = np.where(class_id < k_modes, NORMAL, ANOMALY)
    split = np.concatenate(split_parts)
    return _dataset(X, class_id, label, split, np.zeros(len(X), dtype=bool))


@contextmanager
def _csv_reader(path):
    """The file opened as UTF-8, a ``csv.reader`` over it, and the header.

    An empty file or a blank first line fails as line 1, and a byte that is
    not UTF-8, read here or in the caller's block, fails naming its line.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise DataError(f"{path}:1: no header line")
            yield fh, reader, header
        except UnicodeDecodeError as exc:
            raise _not_utf8(path) from exc


def _not_utf8(path) -> DataError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte.

    The text layer decodes in chunks, so the decode error does not tell the
    line; the bytes are scanned again, counting CR, LF and CRLF as one line
    end each, as the ``csv`` reader over a ``newline=""`` file does.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line_no = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        byte = raw[exc.start]
        return DataError(f"{path}:{line_no}: not UTF-8: {exc.reason} (byte 0x{byte:02x})")
    return DataError(f"{path}: not UTF-8")


def csv_rows(path):
    """The header, then ``(line_no, fields)`` of each non-blank row.

    Every CSV the CLI reads comes through here: UTF-8, blank lines skipped,
    and a row whose width differs from the header's fails naming its line.
    ``line_no`` is the physical line on which the row starts, so a quoted
    field that holds a newline does not shift the lines after it.
    """
    with _csv_reader(path) as (_, reader, header):
        yield header
        end = reader.line_num
        for row in reader:
            line_no, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{line_no}: expected {len(header)} values, got {len(row)}")
            yield line_no, row


def _read_rows(path, label_column: str):
    """The row loop: ``float()`` on each feature, naming the line of the first bad one.

    Returns the feature matrix, the ``label_column`` field of each row as a
    string (None if the header has no such column) and each row's line.
    """
    rows = csv_rows(path)
    header = next(rows)
    drop = header.index(label_column) if label_column in header else None
    features, labels, line_nos = [], [], []
    for line_no, row in rows:
        if drop is not None:
            labels.append(row.pop(drop))
        try:
            features.append(list(map(float, row)))
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
        line_nos.append(line_no)
    width = len(header) - (drop is not None)
    X = np.asarray(features, dtype=np.float64).reshape(len(features), width)
    # float() accepts "nan" and "inf"
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{line_nos[int(np.argmin(finite))]}: non-finite value")
    return X, (labels if drop is not None else None), line_nos


def _load_table(fh, width: int):
    """Every row after the header as one float64 array, parsed in C by numpy.

    None where the row loop must decide instead: a value numpy declines, a
    row whose width differs from the header's, or no data rows at all
    (where ``loadtxt`` would warn). numpy rounds exactly as ``float()``
    does, and every value it accepts means the same number to ``float()``;
    ``comments=None`` keeps ``1.0#c`` from reading as ``1.0``.
    """
    for first in fh:
        if first.strip("\r\n"):
            break
    else:
        return None
    try:
        table = np.loadtxt(
            itertools.chain([first], fh),
            delimiter=",",
            comments=None,
            quotechar='"',
            dtype=np.float64,
            ndmin=2,
        )
    except ValueError:  # UnicodeDecodeError included
        return None
    return table if table.shape[1] == width else None


def _number(field: str) -> float:
    try:
        return float(field)
    except ValueError:
        return np.nan


def read_features(path, label_column: str):
    """Feature matrix and the ``label_column`` values (None if absent).

    Every column except ``label_column`` must hold a finite number; the
    first value that does not names its line. A label reads as a float, or
    as NaN where it is not a number. Values parse exactly as ``float()``
    parses them: numpy's C reader reads the file, and a file it declines is
    read again by the row loop, which also accepts what only ``float()``
    does (``1_0``, non-ASCII digits, a non-numeric label) and names a bad
    line.
    """
    with _csv_reader(path) as (fh, _, header):
        drop = header.index(label_column) if label_column in header else None
        table = _load_table(fh, len(header))
    if table is not None:
        X = table if drop is None else np.delete(table, drop, axis=1)
        if np.isfinite(X).all():
            return X, (None if drop is None else table[:, drop])
    X, labels, _ = _read_rows(path, label_column)
    return X, (None if labels is None else np.array([_number(v) for v in labels]))


_INT64_END = 2.0**63  # int64 holds the integral floats in [-_INT64_END, _INT64_END)


def _class_value(path, line_no: int, value: str) -> float:
    try:
        cid = float(value)
    except ValueError as exc:
        raise DataError(f"{path}:{line_no}: {exc}") from exc
    if not cid.is_integer():
        raise DataError(f"{path}:{line_no}: class {value!r} is not an integer")
    if not -_INT64_END <= cid < _INT64_END:
        raise DataError(f"{path}:{line_no}: class {value!r} is out of range")
    return cid


def load_csv(path, label_column: str, normal_class_ids) -> Dataset:
    """Read a feature CSV with an integer class column; features stay raw.

    Rows whose class id belongs to ``normal_class_ids`` are labeled normal
    and start in train; every other row is an anomaly and starts in test.
    Standardize after splitting, not here.
    """
    normal_ids = set(int(c) for c in normal_class_ids)
    X, classes = read_features(path, label_column)
    if classes is None:
        raise DataError(f"label column {label_column!r} missing from {path}")
    if not len(X):
        raise DataError(f"no data rows in {path}")
    integral = (classes == np.trunc(classes)) & (-_INT64_END <= classes) & (classes < _INT64_END)
    if not integral.all():
        # the row loop keeps each class as written and its line, to name the first bad one
        _, fields, line_nos = _read_rows(path, label_column)
        classes = np.array([_class_value(path, n, v) for v, n in zip(fields, line_nos)])
    class_id = classes.astype(np.int64)
    missing = normal_ids - set(class_id.tolist())
    if missing:
        raise DataError(f"unknown class id(s) {sorted(missing)} not present in {path}")
    label = np.where(np.isin(class_id, sorted(normal_ids)), NORMAL, ANOMALY)
    split = np.where(label == NORMAL, TRAIN, TEST).astype("U5")
    return _dataset(X, class_id, label, split, np.zeros(len(X), dtype=bool))


def relabel_by_normal_classes(data: Dataset, picked_class_ids) -> Dataset:
    """Redefine normality as the picked classes and reset splits/flags."""
    picked = np.asarray(sorted(int(c) for c in picked_class_ids), dtype=np.int64)
    if picked.size == 0:
        raise ValueError("picked_class_ids must be nonempty")
    label = np.where(np.isin(data.class_id, picked), NORMAL, ANOMALY).astype(np.int8)
    if not np.any(label == NORMAL):
        raise DataError(f"no rows belong to picked classes {picked.tolist()}")
    split = np.where(label == NORMAL, TRAIN, TEST).astype("U5")
    return replace(
        data,
        label=label,
        split=split,
        sad_flag=np.zeros(data.n, dtype=bool),
    )


class CountError(DataError):
    """``CountError(count, message)``: the count ``plan_counts`` calls ``count`` cannot be met."""

    count = property(lambda self: self.args[0])

    def __str__(self):
        return "{}: {}".format(*self.args)


def _test_count(test_fraction: float, n_normals: int) -> int:
    """The normals that ``test_fraction`` of ``n_normals`` moves to test."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in [0, 1), got {test_fraction}")
    return int(round(test_fraction * n_normals))


def _val_count(val_fraction: float, n_normals: int) -> int:
    """The train normals, and as many anomalies, that validation takes: at least one."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    n_val = int(round(val_fraction * n_normals))
    if n_val < 1:
        raise CountError("n_val", f"{val_fraction} of {n_normals} train normals rounds to 0")
    return n_val


def _pool_left(count: str, n: int, pool: int) -> int:
    """The test anomalies left after ``count`` draws ``n`` of ``pool``; one must stay for test."""
    if pool < n + 1:
        raise CountError(count, f"{n} test anomalies move, 1 stays for test, and {pool} are there")
    return pool - n


def _injection_count(ratio: float, n_train: int) -> int:
    # x rows added to an n-row train split make up ratio of it: x = ratio*n/(1-ratio)
    return int(round(ratio * n_train / (1.0 - ratio)))


def plan_counts(k_modes: int, n_per_mode: int, anomaly_n: int, test_fraction: float,
                val_fraction: float, contamination: float, sad_ratio: float,
                min_train: int) -> dict:
    """A synthetic seed's row counts, by the rules its drawing functions use.

    ``n_test`` normals of each mode go to test; ``n_val`` train normals, and
    as many test anomalies, to validation; ``contamination``, then
    ``sad_labels``, test anomalies to train, leaving ``n_train`` train rows,
    of which a run needs ``min_train``. A count that cannot be met raises a
    ``CountError`` naming it.
    """
    n_test = _test_count(test_fraction, n_per_mode)
    if n_test < 1:
        raise CountError("n_test", f"{test_fraction} of {n_per_mode} normals per mode rounds to 0")
    n_normals = k_modes * (n_per_mode - n_test)
    n_val = _val_count(val_fraction, n_normals)
    counts = dict(n_test=n_test, n_val=n_val)
    pool, n_train = _pool_left("val_anomalies", n_val, anomaly_n), n_normals - n_val
    for count, ratio in (("contamination", contamination), ("sad_labels", sad_ratio)):
        counts[count] = n = _injection_count(ratio, n_train)
        pool, n_train = _pool_left(count, n, pool), n_train + n
    if n_train < min_train:
        raise CountError("n_train", f"{n_train} train rows are left, and a run needs {min_train}")
    return {**counts, "n_train": n_train, "test_anomalies": pool}


def split(data: Dataset, val_fraction: float, seed: int, test_fraction: float = 0.0) -> Dataset:
    """Carve a validation split out of the training normals.

    Moves ``val_fraction`` of the train normals to validation and matches
    them one-for-one with anomalies drawn out of the test anomaly pool, so
    validation and test anomaly pools stay disjoint. ``test_fraction`` > 0
    first moves that share of train normals to test, for sources that ship
    without a canonical test partition.
    """
    if data.count(VAL) > 0:
        raise ValueError("dataset already has a validation split")
    rng = sub_rng(seed, "split")
    new_split = data.split.copy()

    train_normals = np.flatnonzero((data.split == TRAIN) & (data.label == NORMAL))
    n_test = _test_count(test_fraction, train_normals.size)
    if test_fraction > 0.0:  # draws even where n_test rounds to 0, so the stream stays put
        moved = rng.permutation(train_normals)[:n_test]
        new_split[moved] = TEST
        train_normals = np.setdiff1d(train_normals, moved)

    n_val = _val_count(val_fraction, train_normals.size)
    val_normals = rng.permutation(train_normals)[:n_val]
    new_split[val_normals] = VAL

    anomaly_pool = np.flatnonzero((new_split == TEST) & (data.label == ANOMALY))
    _pool_left("val_anomalies", n_val, anomaly_pool.size)
    val_anomalies = rng.permutation(anomaly_pool)[:n_val]
    new_split[val_anomalies] = VAL

    return replace(data, split=new_split)


def standardize(data: Dataset) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Z-score all rows using train-only statistics; returns (data, mean, std).

    Columns with ~zero spread on the train split pass through unscaled.
    """
    train_rows = data.X[data.split == TRAIN]
    if train_rows.shape[0] == 0:
        raise ValueError("cannot standardize without train rows")
    mean = train_rows.mean(axis=0)
    std = train_rows.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return replace(data, X=(data.X - mean) / std), mean, std


def contaminate(data: Dataset, ratio: float, seed: int) -> Dataset:
    """Pollute the train split with anomalies drawn from the test pool.

    Moved rows keep their anomaly label for audit; training code treats all
    train rows as nominal, which is the point of the exercise.
    """
    if not 0.0 <= ratio < 0.5:
        raise ValueError(f"contamination ratio must lie in [0, 0.5), got {ratio}")
    n_inject = _injection_count(ratio, data.count(TRAIN))
    if n_inject == 0:
        return data
    pool = np.flatnonzero((data.split == TEST) & (data.label == ANOMALY))
    _pool_left("contamination", n_inject, pool.size)
    rng = sub_rng(seed, "contaminate")
    moved = rng.permutation(pool)[:n_inject]
    new_split = data.split.copy()
    new_split[moved] = TRAIN
    return replace(data, split=new_split)


def inject_sad_labels(data: Dataset, sad_ratio: float, n_anomalous_classes: int,
                      seed: int) -> Dataset:
    """Add labeled anomalies from a few anomaly classes to the train split.

    Flagged rows make up ``sad_ratio`` of the resulting train split and are
    drawn from at most ``n_anomalous_classes`` randomly picked anomalous
    class ids.
    """
    if not 0.0 <= sad_ratio < 0.5:
        raise ValueError(f"sad_ratio must lie in [0, 0.5), got {sad_ratio}")
    if n_anomalous_classes < 1:
        raise ValueError("n_anomalous_classes must be >= 1")
    n_inject = _injection_count(sad_ratio, data.count(TRAIN))
    if n_inject == 0:
        return data
    rng = sub_rng(seed, "sad")
    pool_mask = (data.split == TEST) & (data.label == ANOMALY)
    classes = np.unique(data.class_id[pool_mask])
    picked = rng.choice(classes, size=min(n_anomalous_classes, classes.size), replace=False)
    pool = np.flatnonzero(pool_mask & np.isin(data.class_id, picked))
    _pool_left("sad_labels", n_inject, pool.size)
    moved = rng.permutation(pool)[:n_inject]
    new_split = data.split.copy()
    new_split[moved] = TRAIN
    new_sad = data.sad_flag.copy()
    new_sad[moved] = True
    return replace(data, split=new_split, sad_flag=new_sad)


def affine_transform(data: Dataset, spec: AffineSpec, seed: int) -> Dataset:
    """Scale held-out (val/test) features by a diagonal map; train untouched.

    A random diagonal is drawn from ``seed``; ``constant`` mode draws nothing.
    """
    X = data.X.copy()
    held_out = data.split != TRAIN
    if spec.mode == "constant":
        X[held_out] *= spec.alpha
    else:
        rng = sub_rng(seed, "affine")
        if spec.mode == "uniform_range":
            diag = rng.uniform(spec.low, spec.high, size=data.dim)
        else:
            diag = rng.standard_normal(data.dim)
        X[held_out] = X[held_out] * diag
    return replace(data, X=X)


def write_csv(path, header, rows) -> None:
    """The writer for text tables: a float as its repr, ``None`` as an empty field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_numbers(path, header, columns) -> None:
    """``write_csv``'s bytes for 1-D float and int ``columns``: each value's repr, by block."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for rows in row_blocks(len(columns[0])):  # map, zip and join run the rows in C
            fields = [map(repr, c[rows].tolist()) for c in columns]
            fh.write("\n".join([*map(",".join, zip(*fields)), ""]))  # "" ends the last row


def save_csv(data: Dataset, path) -> None:
    """Feature columns f0..f{d-1} then the integer ``LABEL_COLUMN`` column."""
    header = [f"f{i}" for i in range(data.dim)] + [LABEL_COLUMN]
    write_numbers(path, header, [*data.X.T, data.class_id])
