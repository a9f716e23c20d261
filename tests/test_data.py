import csv
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
    save_manifest,
    split,
    standardize,
)
from rpo.errors import DataError


def apply_manifest(data, path):
    """Restore the split tags and SAD flags that ``save_manifest`` wrote."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    assert header == ["row_index", "split", "sad_flag"]
    idx = [int(row[0]) for row in rows]
    split_tags, sad = data.split.copy(), data.sad_flag.copy()
    split_tags[idx] = [row[1] for row in rows]
    sad[idx] = [bool(int(row[2])) for row in rows]
    return replace(data, split=split_tags, sad_flag=sad)


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
        with pytest.raises(DataError, match="insufficient anomalies"):
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
        from dataclasses import replace

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
        ds = split(ds, 0.1, seed=0)  # 36 val anomalies, 9 left in test
        with pytest.raises(DataError, match="insufficient anomaly pool"):
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


class TestAffine:
    def _ds(self):
        ds = generate_multimodal(2, 5, 80, 60, seed=16)
        return split(ds, 0.1, seed=0)

    def test_identity_alpha(self):
        ds = self._ds()
        out = affine_transform(ds, AffineSpec(mode="constant", alpha=1.0))
        assert np.array_equal(out.X, ds.X)

    def test_constant_scales_held_out_only(self):
        ds = self._ds()
        out = affine_transform(ds, AffineSpec(mode="constant", alpha=0.8))
        train_mask = ds.split == TRAIN
        assert np.array_equal(out.X[train_mask], ds.X[train_mask])
        assert np.allclose(out.X[~train_mask], 0.8 * ds.X[~train_mask])

    def test_random_diagonal_deterministic(self):
        ds = self._ds()
        spec = AffineSpec(mode="uniform_range", low=0.9, high=1.1, seed=5)
        a = affine_transform(ds, spec)
        b = affine_transform(ds, spec)
        assert np.array_equal(a.X, b.X)

    def test_standard_normal_mode(self):
        ds = self._ds()
        out = affine_transform(ds, AffineSpec(mode="standard_normal", seed=3))
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
        manifest_path = tmp_path / "manifest.csv"
        save_csv(ds, data_path)
        save_manifest(ds, manifest_path)
        loaded = load_csv(data_path, label_column="class", normal_class_ids=(0, 1))
        loaded = apply_manifest(loaded, manifest_path)
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.class_id, ds.class_id)
        assert np.array_equal(loaded.label, ds.label)
        assert np.array_equal(loaded.split, ds.split)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f0,f1,class\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,class\n1.0,2.0,0\n1.0,oops,0\n")
        with pytest.raises(DataError, match="bad.csv:3"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_class_reports_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,class\n1.0,2.0,0\n1.0,2.0,{value}\n")
        with pytest.raises(DataError, match="bad.csv:3: "):
            load_csv(path)

    def test_fractional_class_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,class\n1.0,0\n2.0,0\n3.0,0.7\n4.0,1\n")
        with pytest.raises(DataError, match="bad.csv:4: class '0.7' is not an integer"):
            load_csv(path)

    def test_integral_float_class_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,class\n1.0,0.0\n2.0,1.0\n3.0,-0\n")
        assert load_csv(path).class_id.tolist() == [0, 1, 0]

    def test_missing_normal_class(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,class\n1.0,0\n2.0,1\n")
        with pytest.raises(DataError, match="unknown class id"):
            load_csv(path, normal_class_ids=(7,))

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path)

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
            load_csv(path)
        assert str(info.value) == f"{path}:61: class '1e300' is out of range"

    @pytest.mark.parametrize("value, ok", [("-9223372036854775808", True),
                                           ("9223372036854775807", False),
                                           ("9.2233720368547748e18", True)])
    def test_int64_bounds(self, tmp_path, value, ok):
        # 9223372036854775807 reads as the float 2**63, one past int64
        path = tmp_path / "d.csv"
        path.write_text(f"f0,class\n1.0,0\n2.0,{value}\n")
        if ok:
            assert load_csv(path).class_id.tolist() == [0, int(float(value))]
        else:
            with pytest.raises(DataError, match=f"d.csv:3: class '{value}' is out of range"):
                load_csv(path)


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


class TestRelabel:
    def test_picked_classes_become_normal(self):
        ds = generate_multimodal(3, 4, 30, 20, seed=18)
        out = relabel_by_normal_classes(ds, [1, 2])
        assert np.all((out.label == NORMAL) == np.isin(out.class_id, [1, 2]))
        assert np.all(out.split[out.label == NORMAL] == TRAIN)
        assert np.all(out.split[out.label == ANOMALY] == TEST)
