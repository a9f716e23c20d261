import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpo.errors import DataError
from rpo.projections import (
    DropoutSpec,
    ProjectionSet,
    apply_dropout,
    generate_projections,
    project,
)
from rpo.model_io import ScoringModel, load_model_checkpoint, save_model_checkpoint
from rpo.scoring import fit_rpo


def naive_project(X, U):
    """Triple-loop oracle for the projection contraction."""
    n, p, m = X.shape[0], U.p, U.m
    out = np.zeros((n, p, m))
    for i in range(n):
        for j in range(p):
            for k in range(m):
                out[i, j, k] = sum(U.entries[j, r, k] * X[i, r] for r in range(U.d))
    return out


class TestGenerate:
    def test_unit_norms(self):
        U = generate_projections(d=5, m=1, p=3, seed=0)
        norms = np.linalg.norm(U.entries[:, :, 0], axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_multidim_column_norms(self):
        U = generate_projections(d=6, m=3, p=4, seed=1)
        norms = np.linalg.norm(U.entries, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_shallow_scale_generation(self):
        U = generate_projections(d=784, m=1, p=1000, seed=3)
        assert U.entries.shape == (1000, 784, 1)

    def test_deterministic(self):
        a = generate_projections(d=7, m=2, p=5, seed=42)
        b = generate_projections(d=7, m=2, p=5, seed=42)
        assert np.array_equal(a.entries, b.entries)

    def test_prefix_nested_in_p(self):
        small = generate_projections(d=9, m=1, p=10, seed=5)
        large = generate_projections(d=9, m=1, p=25, seed=5)
        assert np.array_equal(large.entries[:10], small.entries)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            generate_projections(d=0, m=1, p=3, seed=0)
        with pytest.raises(ValueError):
            generate_projections(d=3, m=4, p=2, seed=0)
        with pytest.raises(ValueError):
            generate_projections(d=3, m=1, p=0, seed=0)


class TestProject:
    def test_zero_matrix(self):
        U = generate_projections(d=4, m=1, p=6, seed=2)
        out = project(np.zeros((3, 4)), U)
        assert out.shape == (3, 6, 1)
        assert np.all(out == 0.0)

    def test_axis_projection(self):
        U = ProjectionSet(entries=np.array([[[1.0], [0.0]]]))
        out = project(np.array([[3.0, 7.0]]), U)
        assert out[0, 0, 0] == 3.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_naive_oracle(self, m):
        rng = np.random.default_rng(10 + m)
        U = generate_projections(d=5, m=m, p=4, seed=9)
        X = rng.normal(size=(6, 5))
        assert np.allclose(project(X, U), naive_project(X, U), atol=1e-10)

    def test_dimension_mismatch(self):
        U = generate_projections(d=4, m=1, p=2, seed=0)
        with pytest.raises(ValueError):
            project(np.zeros((3, 5)), U)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=25)
    def test_scalar_linearity(self, a):
        rng = np.random.default_rng(3)
        U = generate_projections(d=4, m=2, p=3, seed=8)
        X = rng.normal(size=(5, 4))
        assert np.allclose(project(a * X, U), a * project(X, U), atol=1e-9)

    def test_row_reorder(self):
        rng = np.random.default_rng(4)
        U = generate_projections(d=4, m=1, p=3, seed=8)
        X = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        assert np.array_equal(project(X[perm], U), project(X, U)[perm])


class TestDropout:
    def test_zero_rates_identity(self):
        U = generate_projections(d=5, m=1, p=4, seed=0)
        assert apply_dropout(U, DropoutSpec(0.0, 0.0), 1) is U

    def test_projection_dropout_count(self):
        U = generate_projections(d=5, m=1, p=10, seed=0)
        dropped = apply_dropout(U, DropoutSpec(projections_rate=0.5), 3)
        assert dropped.p == 5
        assert dropped.d == 5 and dropped.m == 1

    def test_surviving_projections_come_from_original(self):
        U = generate_projections(d=6, m=2, p=10, seed=1)
        dropped = apply_dropout(U, DropoutSpec(projections_rate=0.3), 5)
        originals = {arr.tobytes() for arr in U.entries}
        assert all(arr.tobytes() in originals for arr in dropped.entries)

    def test_components_dropout_zeros_and_norms(self):
        d, rate = 10, 0.3
        U = generate_projections(d=d, m=1, p=6, seed=2)
        dropped = apply_dropout(U, DropoutSpec(components_rate=rate), 7)
        n_zeroed = int(np.floor(rate * d))
        vectors = dropped.entries[:, :, 0]
        for v in vectors:
            assert np.count_nonzero(v == 0.0) == n_zeroed
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-12)

    def test_components_dropout_shares_zero_pattern(self):
        U = generate_projections(d=8, m=1, p=5, seed=2)
        dropped = apply_dropout(U, DropoutSpec(components_rate=0.4), 9)
        patterns = dropped.entries[:, :, 0] == 0.0
        assert np.all(patterns == patterns[0])

    def test_floor_semantics_noop(self):
        U = generate_projections(d=5, m=1, p=3, seed=0)
        # 0.1 * 3 projections and 0.1 * 5 dims both floor to 0
        assert apply_dropout(U, DropoutSpec(0.1, 0.1), 1) is U

    def test_projection_dropout_always_leaves_one(self):
        # floor(rate * p) < p for rate < 1, so the p-channel cannot empty out
        U = generate_projections(d=5, m=1, p=3, seed=0)
        dropped = apply_dropout(U, DropoutSpec(projections_rate=0.99), 1)
        assert dropped.p == 1

    def test_degenerate_components_dropout_rejected(self):
        # axis-aligned vectors in d=2: dropping either dim zeroes one of them
        entries = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])
        U = ProjectionSet(entries=entries)
        with pytest.raises(DataError, match="degenerate dropout"):
            apply_dropout(U, DropoutSpec(components_rate=0.5), 1)

    def test_rates_must_be_below_one(self):
        with pytest.raises(ValueError):
            DropoutSpec(components_rate=1.0)
        with pytest.raises(ValueError):
            DropoutSpec(projections_rate=1.0)

    def test_fixed_mask_per_seed(self):
        U = generate_projections(d=8, m=1, p=10, seed=2)
        spec = DropoutSpec(components_rate=0.25, projections_rate=0.2)
        a = apply_dropout(U, spec, 11)
        b = apply_dropout(U, spec, 11)
        assert np.array_equal(a.entries, b.entries)


class TestSerialization:
    """Projection sets and their statistics persist only inside a scoring checkpoint."""

    def test_round_trip_bit_exact(self, tmp_path):
        X = np.random.default_rng(4).normal(size=(25, 6))
        for m in (1, 3):
            U = generate_projections(d=6, m=m, p=7, seed=13)
            stats = fit_rpo(X, U)
            path = tmp_path / f"proj_m{m}.npz"
            save_model_checkpoint(
                path, ScoringModel("rpo-mean", np.zeros(6), np.ones(6), projections=U, stats=stats)
            )
            loaded = load_model_checkpoint(path)
            assert loaded.projections.entries.shape == U.entries.shape
            assert np.array_equal(loaded.projections.entries, U.entries)
            assert np.array_equal(loaded.stats.med, stats.med)
            if m == 1:
                assert np.array_equal(loaded.stats.mad, stats.mad)
                assert loaded.stats.inv_cov is None
            else:
                assert np.array_equal(loaded.stats.inv_cov, stats.inv_cov)
                assert loaded.stats.mad is None

    def test_bad_header_rejected(self, tmp_path):
        # neither a text file nor an archive without the checkpoint members loads
        text = tmp_path / "bad.csv"
        text.write_text("1,2\n0.5\n")
        partial = tmp_path / "partial.npz"
        np.savez(partial, proj_entries=np.ones((1, 1, 1)))
        for path in (text, partial):
            with pytest.raises(DataError):
                load_model_checkpoint(path)
