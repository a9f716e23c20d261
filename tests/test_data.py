import csv
import io
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpo import data as datamod
from rpo.data import (
    ANOMALY,
    NORMAL,
    TEST,
    TRAIN,
    VAL,
    AffineSpec,
    affine_transform,
    contaminate,
    generate_multimodal,
    inject_sad_labels,
    load_csv,
    read_features,
    relabel_by_normal_classes,
    save_csv,
    split,
    standardize,
    write_numbers,
)
from rpo.errors import DataError
from rpo.seeding import sub_rng


class TestGenerate:
    def test_single_mode_no_anomalies(self):
        ds = generate_multimodal(1, 4, n_per_mode=50, anomaly_n=0, seed=0)
        assert ds.n == 50
        assert np.all(ds.label == NORMAL)
        assert np.all(ds.class_id == 0)

    def test_three_modes_distinct_classes(self):
        ds = generate_multimodal(3, 8, n_per_mode=30, anomaly_n=20, seed=1)
        normal_classes = np.unique(ds.class_id[ds.label == NORMAL])
        assert list(normal_classes) == [0, 1, 2]

    def test_anomalies_clear_of_blob_means(self):
        ds = generate_multimodal(2, 5, n_per_mode=40, anomaly_n=60, seed=2)
        normals = ds.X[ds.label == NORMAL]
        anomalies = ds.X[ds.label == ANOMALY]
        means = np.array(
            [normals[ds.class_id[ds.label == NORMAL] == c].mean(axis=0) for c in (0, 1)]
        )
        # empirical means sit within ~0.5 sigma of the true centers, so a
        # 2.0 threshold comfortably verifies the 3-sigma generation margin
        dists = np.linalg.norm(anomalies[:, None, :] - means[None], axis=2).min(axis=1)
        assert np.all(dists >= 2.0)

    def test_deterministic(self):
        a = generate_multimodal(2, 6, 25, 15, seed=7)
        b = generate_multimodal(2, 6, 25, 15, seed=7)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.split, b.split)

    def test_initial_partition(self):
        ds = generate_multimodal(2, 4, n_per_mode=40, anomaly_n=30, seed=3)
        assert ds.count(TRAIN, ANOMALY) == 0
        assert ds.count(TEST, NORMAL) == 2 * round(0.25 * 40)
        assert ds.count(TEST, ANOMALY) == 30
        assert ds.count(VAL) == 0

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            generate_multimodal(0, 4, 10, 5, seed=0)
        with pytest.raises(ValueError):
            generate_multimodal(2, 0, 10, 5, seed=0)



def _anomaly_stream(k_modes, d, n_per_mode, seed):
    """The datagen stream where anomaly sampling starts, the box, and the normal rows."""
    rng = sub_rng(seed, "datagen")
    means = datamod._place_blob_means(k_modes, d, rng)
    X_parts, class_parts, split_parts = [], [], []
    for c in range(k_modes):
        X_parts.append(means[c] + datamod._BLOB_SIGMA * rng.standard_normal((n_per_mode, d)))
        class_parts.append(np.full(n_per_mode, c))
        tags = np.full(n_per_mode, TRAIN, dtype="U5")
        n_test = int(round(datamod.TEST_FRACTION * n_per_mode))
        if n_test:
            tags[rng.permutation(n_per_mode)[:n_test]] = TEST
        split_parts.append(tags)
    lo = means.min(axis=0) - 2.0 * datamod._MEAN_SEPARATION
    hi = means.max(axis=0) + 2.0 * datamod._MEAN_SEPARATION
    return rng, means, lo, hi, (X_parts, class_parts, split_parts)


def _generate_one_candidate_at_a_time(k_modes, d, n_per_mode, anomaly_n, seed):
    """``generate_multimodal`` as it was with its one-candidate anomaly loop: the oracle."""
    rng, means, lo, hi, (X_parts, class_parts, split_parts) = _anomaly_stream(
        k_modes, d, n_per_mode, seed
    )
    anomalies = np.empty((anomaly_n, d))
    accepted = 0
    for _ in range(1000 * max(anomaly_n, 1)):
        if accepted == anomaly_n:
            break
        candidate = rng.uniform(lo, hi, size=d)
        if np.min(np.linalg.norm(means - candidate, axis=1)) >= datamod._ANOMALY_MARGIN:
            anomalies[accepted] = candidate
            accepted += 1
    if accepted < anomaly_n:
        raise DataError("could not sample anomalies outside every blob core")
    if anomaly_n:
        X_parts.append(anomalies)
        class_parts.append(np.full(anomaly_n, k_modes))
        split_parts.append(np.full(anomaly_n, TEST, dtype="U5"))
    return np.vstack(X_parts), np.concatenate(class_parts), np.concatenate(split_parts)


def _candidate_distances(seed, count):
    """The blob-mean distance of each of the first ``count`` candidates at k = 1, d = 2."""
    rng, means, lo, hi, _ = _anomaly_stream(1, 2, 10, seed)
    return np.array([np.linalg.norm(means[0] - rng.uniform(lo, hi, size=2))
                     for _ in range(count)])


def _outcome(generate, *args):
    """The generator's (X, class_id, split) bytes, or the message of its DataError."""
    try:
        out = generate(*args)
    except DataError as exc:
        return str(exc)
    if isinstance(out, datamod.Dataset):
        out = (out.X, out.class_id, out.split)
    return tuple(a.tobytes() for a in out)


class TestAnomalySamplerOracle:
    """Candidates drawn in batches give the one-candidate loop's data, byte for byte."""

    @pytest.mark.parametrize("anomaly_n", [0, 1, 300, 1000])
    @pytest.mark.parametrize("d", [1, 2, 16, 49])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_equals_one_candidate_loop(self, k, d, anomaly_n):
        args = (k, d, 20, anomaly_n, 1000 + 7 * k + d)
        new = _outcome(generate_multimodal, *args)
        assert not isinstance(new, str)
        assert new == _outcome(_generate_one_candidate_at_a_time, *args)

    @pytest.mark.parametrize("anomaly_n", [1, 5])
    def test_no_candidate_passes_raises_the_same_error(self, monkeypatch, anomaly_n):
        monkeypatch.setattr(datamod, "_ANOMALY_MARGIN", 1e9)
        args = (2, 4, 20, anomaly_n, 3)
        with pytest.raises(DataError, match="could not sample anomalies"):
            generate_multimodal(*args)
        assert _outcome(generate_multimodal, *args) == _outcome(
            _generate_one_candidate_at_a_time, *args
        )

    @pytest.mark.parametrize("batch_values", [2, 14, datamod._CANDIDATE_BATCH_VALUES])
    def test_one_anomaly_may_be_candidate_1000_but_not_1001(self, monkeypatch, batch_values):
        # seed 1031's 1,000th candidate lies farthest from the mean of the first 1,000,
        # and seed 231's 1,001st lies farther than all of them
        monkeypatch.setattr(datamod, "_CANDIDATE_BATCH_VALUES", batch_values)
        last = _candidate_distances(1031, 1000)
        assert last[-1] == last.max()
        monkeypatch.setattr(datamod, "_ANOMALY_MARGIN", last[-1])
        assert _outcome(generate_multimodal, 1, 2, 10, 1, 1031) == _outcome(
            _generate_one_candidate_at_a_time, 1, 2, 10, 1, 1031
        )

        past = _candidate_distances(231, 1001)
        assert past[-1] > past[:-1].max()
        monkeypatch.setattr(datamod, "_ANOMALY_MARGIN", np.nextafter(past[:-1].max(), np.inf))
        with pytest.raises(DataError, match="could not sample anomalies"):
            generate_multimodal(1, 2, 10, 1, seed=231)


def _place_one_candidate_at_a_time(k, d, rng):
    """``_place_blob_means`` as it was, drawing and testing one candidate at a time: the oracle."""
    half_width = max(10.0, 4.0 * k)
    means = []
    for _ in range(10_000 * k):
        candidate = rng.uniform(-half_width, half_width, size=d)
        if all(np.linalg.norm(candidate - mu) >= datamod._MEAN_SEPARATION for mu in means):
            means.append(candidate)
            if len(means) == k:
                return np.vstack(means)
    raise DataError(
        f"could not place {k} blob means {datamod._MEAN_SEPARATION} sigma apart in d={d}"
    )


def _placement(place, k, d, seed):
    """The means' bytes and the generator's next draw, or the message of the DataError."""
    rng = sub_rng(seed, "datagen")
    try:
        means = place(k, d, rng)
    except DataError as exc:
        return str(exc)
    return means.tobytes(), rng.random(4).tobytes()


class TestBlobMeansOracle:
    """Candidates tested in batches give the one-candidate loop's means and stream."""

    @pytest.mark.parametrize("seed", [0, 1, 1017])
    @pytest.mark.parametrize("d", [1, 2, 16])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_equals_one_candidate_loop(self, k, d, seed):
        new = _placement(datamod._place_blob_means, k, d, seed)
        assert new == _placement(_place_one_candidate_at_a_time, k, d, seed)
        if k < 8 or d > 1:
            assert not isinstance(new, str)

    @pytest.mark.parametrize("batch_values", [1, 7, datamod._CANDIDATE_BATCH_VALUES])
    def test_a_distance_exactly_at_the_bound_is_kept(self, monkeypatch, batch_values):
        # the separation set to the exact norm between the first two candidates
        # keeps the second; one ulp more drops it
        monkeypatch.setattr(datamod, "_CANDIDATE_BATCH_VALUES", batch_values)
        rng = sub_rng(5, "datagen")
        first, second = rng.uniform(-10.0, 10.0, size=(2, 16))
        gap = np.linalg.norm(second - first)
        for separation in (gap, np.nextafter(gap, np.inf)):
            monkeypatch.setattr(datamod, "_MEAN_SEPARATION", separation)
            new = _placement(datamod._place_blob_means, 2, 16, 5)
            assert new == _placement(_place_one_candidate_at_a_time, 2, 16, 5)
            kept = np.frombuffer(new[0]).reshape(2, 16)[1]
            assert (kept.tobytes() == second.tobytes()) == (separation == gap)

    def test_too_many_modes_fail_fast(self):
        start = time.perf_counter()
        with pytest.raises(DataError, match=r"^could not place 50 blob means 6\.0 sigma apart in d=1$"):
            generate_multimodal(50, 1, n_per_mode=10, anomaly_n=0, seed=0)
        assert time.perf_counter() - start < 2.0


class TestSplit:
    def test_ten_percent_validation(self):
        ds = generate_multimodal(1, 4, n_per_mode=1000, anomaly_n=300, seed=4, test_fraction=0.0)
        out = split(ds, val_fraction=0.1, seed=0)
        assert out.count(TRAIN, NORMAL) == 900
        assert out.count(VAL, NORMAL) == 100
        assert out.count(VAL, ANOMALY) == 100

    def test_deterministic(self):
        ds = generate_multimodal(2, 4, 100, 80, seed=5)
        a = split(ds, 0.1, seed=3)
        b = split(ds, 0.1, seed=3)
        assert np.array_equal(a.split, b.split)

    def test_train_has_no_anomalies(self):
        ds = generate_multimodal(2, 4, 100, 80, seed=6)
        out = split(ds, 0.1, seed=1)
        assert out.count(TRAIN, ANOMALY) == 0

    def test_partition_and_disjoint_pools(self):
        ds = generate_multimodal(2, 4, 100, 80, seed=7)
        out = split(ds, 0.1, seed=2)
        assert out.n == ds.n  # every row keeps exactly one tag
        assert set(np.unique(out.split)) == {TRAIN, VAL, TEST}
        val_anom = set(np.flatnonzero((out.split == VAL) & (out.label == ANOMALY)))
        test_anom = set(np.flatnonzero((out.split == TEST) & (out.label == ANOMALY)))
        assert not val_anom & test_anom

    def test_insufficient_anomalies(self):
        ds = generate_multimodal(1, 4, n_per_mode=100, anomaly_n=3, seed=8, test_fraction=0.0)
        with pytest.raises(DataError, match="^val_anomalies: 20 test anomalies move, 1 stays "
                                            "for test, and 3 are there$"):
            split(ds, 0.2, seed=0)

    def test_test_fraction_carves_normals(self):
        ds = generate_multimodal(1, 4, n_per_mode=200, anomaly_n=100, seed=9, test_fraction=0.0)
        out = split(ds, 0.1, seed=0, test_fraction=0.25)
        assert out.count(TEST, NORMAL) == 50
        assert out.count(TRAIN, NORMAL) == 135  # 150 remaining minus 10% val
        assert out.count(VAL, NORMAL) == 15

    def test_double_split_rejected(self):
        ds = generate_multimodal(1, 4, 100, 50, seed=10)
        out = split(ds, 0.1, seed=0)
        with pytest.raises(ValueError):
            split(out, 0.1, seed=0)


class TestStandardize:
    def test_train_statistics(self):
        ds = generate_multimodal(2, 6, 100, 60, seed=11)
        ds = split(ds, 0.1, seed=0)
        out, mean, std = standardize(ds)
        train_rows = out.X[out.split == TRAIN]
        assert np.all(np.abs(train_rows.mean(axis=0)) < 1e-9)
        assert np.allclose(train_rows.var(axis=0), 1.0, atol=1e-6)
        assert mean.shape == (6,) and std.shape == (6,)

    def test_degenerate_column_passthrough(self):
        ds = generate_multimodal(1, 3, 50, 20, seed=12)
        X = ds.X.copy()
        X[:, 1] = 4.0
        ds = replace(ds, X=X)
        out, _, std = standardize(ds)
        assert std[1] == 1.0
        assert np.all(out.X[:, 1] == 0.0)


class TestContaminate:
    def _split_ds(self, seed=13):
        ds = generate_multimodal(2, 4, n_per_mode=600, anomaly_n=500, seed=seed, test_fraction=0.25)
        return split(ds, 0.1, seed=seed)

    def test_zero_ratio_identity(self):
        ds = self._split_ds()
        assert contaminate(ds, 0.0, seed=0) is ds

    def test_ratio_arithmetic(self):
        ds = self._split_ds()
        n_train = ds.count(TRAIN)
        out = contaminate(ds, 0.1, seed=0)
        injected = out.count(TRAIN) - n_train
        assert injected == round(0.1 * n_train / 0.9)
        assert injected / out.count(TRAIN) == pytest.approx(0.1, abs=0.01)

    def test_audit_labels_preserved(self):
        ds = self._split_ds()
        out = contaminate(ds, 0.05, seed=1)
        assert out.count(TRAIN, ANOMALY) == out.count(TRAIN) - ds.count(TRAIN)

    def test_only_train_changes(self):
        ds = self._split_ds()
        out = contaminate(ds, 0.05, seed=2)
        moved = ds.split != out.split
        assert np.all(out.split[moved] == TRAIN)
        assert np.array_equal(ds.X, out.X)

    def test_insufficient_pool(self):
        ds = generate_multimodal(1, 4, n_per_mode=400, anomaly_n=45, seed=14, test_fraction=0.0)
        ds = split(ds, 0.1, seed=0)  # 40 val anomalies, 5 left in test
        with pytest.raises(DataError, match="^contamination: 240 test anomalies move, 1 stays "
                                            "for test, and 5 are there$"):
            contaminate(ds, 0.4, seed=0)


class TestSadLabels:
    def _split_ds(self, seed=15):
        ds = generate_multimodal(2, 4, n_per_mode=600, anomaly_n=500, seed=seed)
        return split(ds, 0.1, seed=seed)

    def test_zero_ratio_no_flags(self):
        ds = self._split_ds()
        out = inject_sad_labels(ds, 0.0, 2, seed=0)
        assert not np.any(out.sad_flag)

    def test_flag_count_matches_ratio(self):
        ds = self._split_ds()
        n_train = ds.count(TRAIN)
        out = inject_sad_labels(ds, 0.01, 2, seed=0)
        flagged = int(np.count_nonzero(out.sad_flag))
        assert flagged == round(0.01 * n_train / 0.99)
        assert np.all(out.split[out.sad_flag] == TRAIN)

    def test_flags_confined_to_picked_classes(self):
        ds = self._split_ds()
        out = inject_sad_labels(ds, 0.05, 1, seed=1)
        flagged_classes = np.unique(out.class_id[out.sad_flag])
        assert flagged_classes.size <= 1

    def test_only_train_changes(self):
        ds = self._split_ds()
        out = inject_sad_labels(ds, 0.05, 2, seed=2)
        moved = ds.split != out.split
        assert np.all(out.split[moved] == TRAIN)

    @pytest.mark.parametrize("left", [5, 0])
    def test_insufficient_pool(self, left):
        ds = generate_multimodal(1, 4, n_per_mode=400, anomaly_n=45, seed=14, test_fraction=0.0)
        ds = split(ds, 0.1, seed=0)  # 40 val anomalies, 5 left in test
        if not left:
            ds = replace(ds, split=np.where(ds.split == TEST, VAL, ds.split))
        with pytest.raises(DataError, match=f"^sad_labels: 240 test anomalies move, 1 stays "
                                            f"for test, and {left} are there$"):
            inject_sad_labels(ds, 0.4, 2, seed=0)


class TestAffine:
    def _ds(self):
        ds = generate_multimodal(2, 5, 80, 60, seed=16)
        return split(ds, 0.1, seed=0)

    def test_identity_alpha(self):
        ds = self._ds()
        out = affine_transform(ds, AffineSpec(mode="constant", alpha=1.0), 0)
        assert np.array_equal(out.X, ds.X)

    def test_constant_scales_held_out_only(self):
        ds = self._ds()
        out = affine_transform(ds, AffineSpec(mode="constant", alpha=0.8), 0)
        train_mask = ds.split == TRAIN
        assert np.array_equal(out.X[train_mask], ds.X[train_mask])
        assert np.allclose(out.X[~train_mask], 0.8 * ds.X[~train_mask])

    def test_random_diagonal_deterministic(self):
        ds = self._ds()
        spec = AffineSpec(mode="uniform_range", low=0.9, high=1.1)
        a = affine_transform(ds, spec, 5)
        b = affine_transform(ds, spec, 5)
        assert np.array_equal(a.X, b.X)

    def test_standard_normal_mode(self):
        ds = self._ds()
        out = affine_transform(ds, AffineSpec(mode="standard_normal"), 3)
        assert out.X.shape == ds.X.shape

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            AffineSpec(mode="constant", alpha=0.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            AffineSpec(mode="sideways")


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = generate_multimodal(2, 4, 30, 20, seed=17)
        data_path = tmp_path / "data.csv"
        save_csv(ds, data_path)
        loaded = load_csv(data_path, label_column="class", normal_class_ids=(0, 1))
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.class_id, ds.class_id)
        assert np.array_equal(loaded.label, ds.label)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path, "class", (0,))

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f0,f1,class\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, "class", (0,))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,class\n1.0,2.0,0\n1.0,oops,0\n")
        with pytest.raises(DataError, match="bad.csv:3"):
            load_csv(path, "class", (0,))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_class_reports_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,class\n1.0,2.0,0\n1.0,2.0,{value}\n")
        with pytest.raises(DataError, match="bad.csv:3: "):
            load_csv(path, "class", (0,))

    def test_fractional_class_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,class\n1.0,0\n2.0,0\n3.0,0.7\n4.0,1\n")
        with pytest.raises(DataError, match="bad.csv:4: class '0.7' is not an integer"):
            load_csv(path, "class", (0,))

    def test_integral_float_class_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,class\n1.0,0.0\n2.0,1.0\n3.0,-0\n")
        assert load_csv(path, "class", (0,)).class_id.tolist() == [0, 1, 0]

    def test_missing_normal_class(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,class\n1.0,0\n2.0,1\n")
        with pytest.raises(DataError, match="unknown class id"):
            load_csv(path, "class", (7,))

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, "class", (0,))

    def test_bad_value_after_quoted_newline_names_its_line(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('f0,f1\n"1.0\n",2\n3,x\n')
        with pytest.raises(DataError) as info:
            read_features(path, "class")
        assert str(info.value) == f"{path}:4: could not convert string to float: 'x'"

    def test_class_beyond_int64_reports_line(self, tmp_path):
        path = tmp_path / "big.csv"
        lines = ["f0,class"] + [f"{i}.5,{i % 2}" for i in range(59)] + ["59.5,1e300"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as info:
            load_csv(path, "class", (0,))
        assert str(info.value) == f"{path}:61: class '1e300' is out of range"

    @pytest.mark.parametrize("value, ok", [("-9223372036854775808", True),
                                           ("9223372036854775807", False),
                                           ("9.2233720368547748e18", True)])
    def test_int64_bounds(self, tmp_path, value, ok):
        # 9223372036854775807 reads as the float 2**63, one past int64
        path = tmp_path / "d.csv"
        path.write_text(f"f0,class\n1.0,0\n2.0,{value}\n")
        if ok:
            assert load_csv(path, "class", (0,)).class_id.tolist() == [0, int(float(value))]
        else:
            with pytest.raises(DataError, match=f"d.csv:3: class '{value}' is out of range"):
                load_csv(path, "class", (0,))


def _float_or_nan(text):
    try:
        return float(text)
    except ValueError:
        return float("nan")


# CSV text, then None where both readers accept it, else the "<line>: <message>"
# both raise. The accepted cases cover what numpy's C reader parses; the
# row-loop cases cover what only float() accepts.
READER_CORPUS = {
    "blank lines": ("f0,f1,class\n\n1,2,0\n\n\n3,4,1\n\n", None),
    "crlf": ("f0,f1,class\r\n1,2,0\r\n3,4,1\r\n", None),
    "cr only": ("f0,f1,class\r1,2,0\r3,4,1\r", None),
    "quoted fields": ('f0,f1,class\n"1.5",2,"0"\n"-3" ,4,1\n', None),
    "quoted newline": ('f0,f1,class\n"1.5\n",2,0\n3,4,1\n', None),
    "spaces": ("f0,f1,class\n 1.5 ,  2,0\n", None),
    "tab": ("f0,f1,class\n\t1.5,2\t,0\n", None),
    "signs": ("f0,f1,class\n+1,-2.5e+1,0\n-0,.5,1\n", None),
    "subnormal": ("f0,f1,class\n4.9e-324,-4.9e-324,0\n", None),
    "55 digits": ("f0,f1,class\n0.1234567890123456789012345678901234567890123456789012345,1,0\n", None),
    "no final newline": ("f0,f1,class\n1,2,0", None),
    "no label column": ("f0,f1\n1,2\n3,4\n", None),
    "label first": ("class,f0,f1\n0,1,2\n1,3,4\n", None),
    "non-finite labels": ("f0,f1,class\n1,2,nan\n3,4,Infinity\n", None),
    "header only": ("f0,f1,class\n", None),
    "header and blank lines": ("f0,f1,class\n\n\r\n", None),
    "underscore digits": ("f0,f1,class\n1_0,2,0\n", None),
    "arabic-indic digit": ("f0,f1,class\n\u0661,2,0\n", None),
    "string labels": ("f0,f1,class\n1,2,normal\n3,4,anomaly\n", None),
    "long row": ("f0,f1,class\n1,2,0\n1,2,0,4\n", "3: expected 3 values, got 4"),
    "short row": ("f0,f1,class\n1,2,0\n1,2\n", "3: expected 3 values, got 2"),
    "short rows only": ("f0,f1,class\n1,2\n3,4\n", "2: expected 3 values, got 2"),
    "whitespace line": ("f0,f1,class\n1,2,0\n  \n", "3: expected 3 values, got 1"),
    "comment marker": ("f0,f1,class\n1.0#c,2,0\n", "2: could not convert string to float: '1.0#c'"),
    "empty field": ("f0,f1,class\n1,,0\n", "2: could not convert string to float: ''"),
    "1e400": ("f0,f1,class\n1,2,0\n1e400,2,0\n", "3: non-finite value"),
    "nan": ("f0,f1,class\n1,2,0\n\n1,nan,0\n", "4: non-finite value"),
    "-Infinity": ("f0,f1,class\n-Infinity,2,0\n", "2: non-finite value"),
    "bad width after a quoted newline": ('f0,f1\n"1.0\n",2\n\n3\n', "5: expected 2 values, got 1"),
}


class TestReadFeatures:
    @staticmethod
    def _agree(path):
        """read_features and the row loop give the same bytes or the same error."""
        try:
            X_ref, fields, _ = datamod._read_rows(path, "class")
        except DataError as exc:
            with pytest.raises(DataError) as info:
                read_features(path, "class")
            assert str(info.value) == str(exc)
            return str(exc)
        X, labels = read_features(path, "class")
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert X.shape == X_ref.shape and X.tobytes() == X_ref.tobytes()
        if fields is None:
            assert labels is None
        else:
            np.testing.assert_array_equal(labels, [_float_or_nan(v) for v in fields])
        return None

    @pytest.mark.parametrize("case", list(READER_CORPUS))
    def test_c_reader_agrees_with_row_loop(self, tmp_path, case):
        text, error = READER_CORPUS[case]
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert self._agree(path) == (None if error is None else f"{path}:{error}")

    # mostly numbers in rows of the header's width, so that most files reach
    # numpy's C reader and some of them hold a value only float() accepts
    _field = st.one_of(
        st.floats().map(repr),
        st.integers().map(str),
        st.sampled_from(['"1"', ' 2 ', '"3\n"', '+.5', '-0', '1_0', '1e400', 'nan', '', 'x']),
    )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.lists(_field, min_size=3, max_size=3),
                st.lists(_field, min_size=3, max_size=3),
                st.lists(_field, min_size=3, max_size=3),
                st.lists(st.text(alphabet='0123456789.e+-_ "nafI#\t\u0661', max_size=6),
                         min_size=2, max_size=4),
                st.just([]),
            ).map(",".join),
            max_size=6,
        ),
        st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_fuzzed_rows_agree_with_row_loop(self, tmp_path_factory, rows, newline):
        path = tmp_path_factory.mktemp("fuzz") / "in.csv"
        path.write_bytes(newline.join(["f0,class,f1"] + rows).encode("utf-8"))
        self._agree(path)

    def test_clean_file_skips_the_row_loop(self, tmp_path, monkeypatch):
        ds = generate_multimodal(2, 4, 30, 20, seed=17)
        path = tmp_path / "data.csv"
        save_csv(ds, path)

        def row_loop(*args):
            raise AssertionError("row loop ran on a file numpy's C reader parses")

        monkeypatch.setattr(datamod, "_read_rows", row_loop)
        X, labels = read_features(path, "class")
        assert X.tobytes() == ds.X.tobytes()
        assert labels.tolist() == ds.class_id.tolist()


def _csv_writer_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``rows``: the number writer's oracle."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


class TestWriteNumbers:
    EDGE_FLOATS = [-0.0, 5e-324, 1e-5, 1e-4, 1e16, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1, -2.5]

    @pytest.mark.parametrize("n", [0, 1, 383, 384, 767, 768, 769])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 9, size=(n, 3))
        edge = np.resize(self.EDGE_FLOATS, X.size).reshape(X.shape)
        X = np.where(rng.random(X.shape) < 0.3, edge, X)
        cid = rng.integers(-(2**62), 2**62, size=n)
        if n:
            cid[0], X[0, 0] = -(2**63), -0.0
        y = rng.standard_normal(n)
        path = tmp_path / "t.csv"
        write_numbers(path, ["a", "b", "c", "class", "y"], [*X.T, cid, y])
        rows = (x + [c, v] for x, c, v in zip(X.tolist(), cid.tolist(), y.tolist()))
        assert path.read_bytes() == _csv_writer_bytes(["a", "b", "c", "class", "y"], rows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_save_csv_equals_the_csv_writer_body_it_replaced(self, tmp_path, seed):
        ds = generate_multimodal(2, 16, 9000, 1000, seed=seed)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        header = [f"f{i}" for i in range(ds.dim)] + ["class"]
        rows = (row.tolist() + [cid] for row, cid in zip(ds.X, ds.class_id.tolist()))
        assert path.read_bytes() == _csv_writer_bytes(header, rows)


class TestRelabel:
    def test_picked_classes_become_normal(self):
        ds = generate_multimodal(3, 4, 30, 20, seed=18)
        out = relabel_by_normal_classes(ds, [1, 2])
        assert np.all((out.label == NORMAL) == np.isin(out.class_id, [1, 2]))
        assert np.all(out.split[out.label == NORMAL] == TRAIN)
        assert np.all(out.split[out.label == ANOMALY] == TEST)
