import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpo
from rpo import scoring
from rpo.errors import NumericError
from rpo.projections import ProjectionSet, generate_projections, project
from rpo.scoring import (
    EPS_FLOOR,
    SCORE_BLOCK_ROWS,
    RpoStats,
    depth,
    fit_rpo,
    fit_rpo_projected,
    projected_distances,
    reduce_distances,
    score_batch,
    whiten,
    whitened_residuals,
)


def naive_fit(U, X_train, eps_floor=1e-6, ridge=1e-6):
    """Loop-over-projections oracle fit: each projection's own statistics.

    Uses plain Python floats and statistics.median so it shares nothing
    with the vectorized implementation beyond the dot-product primitive.
    Returns one (median, spread) pair per projection: the spread is the
    floored MAD for m = 1 and the inverse ridge covariance otherwise.
    """
    fitted = []
    for u in U.entries:  # (d, m)
        if U.m == 1:
            projected = [float(np.dot(u[:, 0], row)) for row in X_train]
            med = statistics.median(projected)
            dev = statistics.median([abs(t - med) for t in projected])
            fitted.append((med, max(dev, eps_floor)))
        else:
            projected = [[float(np.dot(u[:, k], row)) for k in range(U.m)] for row in X_train]
            med = [statistics.median([t[k] for t in projected]) for k in range(U.m)]
            mean = [sum(t[k] for t in projected) / len(projected) for k in range(U.m)]
            cov = np.zeros((U.m, U.m))
            for t in projected:
                r = np.array(t) - np.array(mean)
                cov += np.outer(r, r)
            cov = cov / (len(projected) - 1) + ridge * np.eye(U.m)
            fitted.append((med, np.linalg.inv(cov)))
    return fitted


def naive_score(x, U, fitted, est):
    """The oracle's outlyingness of one query ``x`` under ``naive_fit``'s statistics."""
    dists = []
    for u, (med, spread) in zip(U.entries, fitted):
        if U.m == 1:
            dists.append(abs(float(np.dot(u[:, 0], x)) - med) / spread)
        else:
            r = np.array([float(np.dot(u[:, k], x)) for k in range(U.m)]) - np.array(med)
            dists.append(float(np.sqrt(r @ spread @ r)))
    return max(dists) if est == "max" else sum(dists) / len(dists)


class TestFit:
    def test_identical_points_floor_mad(self):
        U = generate_projections(d=3, m=1, p=5, seed=0)
        X = np.tile([1.0, 2.0, 3.0], (10, 1))
        stats = fit_rpo(X, U)
        assert np.all(stats.mad == EPS_FLOOR)

    def test_symmetric_three_points(self):
        U = ProjectionSet(entries=np.array([[[1.0]]]))
        stats = fit_rpo(np.array([[-1.0], [0.0], [1.0]]), U)
        assert stats.med[0] == 0.0
        assert stats.mad[0] == 1.0

    def test_matches_per_projection_oracle(self):
        rng = np.random.default_rng(21)
        U = generate_projections(d=2, m=1, p=100, seed=4)
        X = rng.normal(size=(50, 2))
        stats = fit_rpo(X, U)
        T = X @ U.entries[:, :, 0].T
        for j in range(U.p):
            col = sorted(T[:, j])
            med = (col[24] + col[25]) / 2.0
            dev = sorted(abs(t - med) for t in T[:, j])
            mad = (dev[24] + dev[25]) / 2.0
            assert stats.med[j] == med
            assert stats.mad[j] == max(mad, EPS_FLOOR)

    def test_multidim_stats_shapes(self):
        rng = np.random.default_rng(2)
        U = generate_projections(d=5, m=2, p=7, seed=3)
        stats = fit_rpo(rng.normal(size=(30, 5)), U)
        assert stats.med.shape == (7, 2)
        assert stats.inv_chol.shape == (7, 2, 2)
        # lower triangular with a positive diagonal, so Li^T Li is positive definite
        for Li in stats.inv_chol:
            assert np.array_equal(Li, np.tril(Li))
            assert np.all(np.diag(Li) > 0)
            assert np.all(np.linalg.eigvalsh(Li.T @ Li) > 0)

    def test_empty_training_set(self):
        U = generate_projections(d=3, m=1, p=2, seed=0)
        with pytest.raises(ValueError):
            fit_rpo(np.zeros((0, 3)), U)

    @pytest.mark.parametrize("m", [1, 3])
    def test_rows_or_maps_that_do_not_fit_t_rejected(self, m):
        # a wrong X would give a wrong covariance without an error
        rng = np.random.default_rng(8)
        U = generate_projections(d=4, m=m, p=6, seed=1)
        X = rng.normal(size=(20, 4))
        T = project(X, U)
        with pytest.raises(ValueError, match=r"X must have shape \(20, 4\)"):
            fit_rpo_projected(T, X[:19], U)
        with pytest.raises(ValueError, match=r"X must have shape \(20, 4\)"):
            fit_rpo_projected(T, np.hstack([X, X[:, :1]]), U)
        with pytest.raises(ValueError, match="T holds 6 projections"):
            fit_rpo_projected(T, X, generate_projections(d=4, m=m, p=5, seed=1))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scale", [1e4, 3.16e4, 4e4, 1e5])
    def test_large_rank_one_rows_raise_or_score_finite(self, scale, seed):
        # RIDGE is an absolute 1e-6, so from rows of about this scale it no
        # longer keeps the m > 1 inverse usable; such a fit must then fail
        # loudly, never score silently
        rng = np.random.default_rng(seed)
        X = np.outer(rng.standard_normal(60), rng.standard_normal(6)) * scale
        U = generate_projections(6, 2, 200, seed)
        try:
            scores = score_batch(X, U, fit_rpo(X, U), "max")
        except NumericError as exc:
            assert "projected covariance" in str(exc)
        else:
            assert np.all(np.isfinite(scores))


class TestScore:
    def test_zero_at_all_medians(self):
        U = generate_projections(d=4, m=1, p=6, seed=1)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(21, 4))  # odd count: median is a data point
        stats = fit_rpo(X, U)
        # a point projecting exactly onto every median does not exist in
        # general; build stats by hand instead
        stats = RpoStats(med=np.zeros(6), mad=np.ones(6), inv_chol=None)
        assert score_batch(np.zeros((1, 4)), U, stats, "max")[0] == 0.0
        assert score_batch(np.zeros((1, 4)), U, stats, "mean")[0] == 0.0

    def test_two_projection_arithmetic(self):
        # normalized distances {2, 4} -> max 4, mean 3
        entries = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])
        U = ProjectionSet(entries=entries)
        stats = RpoStats(med=np.zeros(2), mad=np.ones(2), inv_chol=None)
        x = np.array([[2.0, 4.0]])
        assert score_batch(x, U, stats, "max")[0] == 4.0
        assert score_batch(x, U, stats, "mean")[0] == 3.0

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("est", ["max", "mean"])
    def test_matches_naive_oracle(self, m, est):
        rng = np.random.default_rng(31 + m)
        U = generate_projections(d=6, m=m, p=50, seed=17)
        X_train = rng.normal(size=(40, 6))
        stats = fit_rpo(X_train, U)
        queries = rng.normal(size=(5, 6))
        fitted = naive_fit(U, X_train)
        for x, got in zip(queries, score_batch(queries, U, stats, est)):
            assert got == pytest.approx(naive_score(x, U, fitted, est), abs=1e-10)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("est", ["max", "mean"])
    def test_batch_bit_equal_to_unfused_pipeline(self, m, est):
        # score_batch computes the distances inside its own projection (at
        # m > 1 its whitened residuals); the scores must not move by a bit
        rng = np.random.default_rng(7 + m)
        U = generate_projections(d=6, m=m, p=40, seed=3)
        stats = fit_rpo(rng.normal(size=(60, 6)), U)
        X = rng.normal(scale=3.0, size=(257, 6))
        expected = reduce_distances(one_call_distances(X, U, stats), est)
        assert score_batch(X, U, stats, est).tobytes() == expected.tobytes()
        if m > 1:
            # a caller that keeps the whitened maps scores the same bits
            assert score_batch(X, U, whiten(U, stats), est).tobytes() == expected.tobytes()
        if m == 1:
            T = project(X, U)
            plain = reduce_distances(np.abs(T[:, :, 0] - stats.med) / stats.mad, est)
            assert score_batch(X, U, stats, est).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("m", [1, 3])
    def test_distances_leave_projection_unmodified_without_out(self, m):
        # at m > 1 the projection the distances read is the whitened residuals
        rng = np.random.default_rng(11)
        U = generate_projections(d=6, m=m, p=40, seed=5)
        stats = fit_rpo(rng.normal(size=(60, 6)), U)
        X = rng.normal(size=(33, 6))
        head = stats if m == 1 else whiten(U, stats)
        T = project(X, U) if m == 1 else whitened_residuals(X, head)
        before = T.copy()
        projected_distances(T, head)
        assert T.tobytes() == before.tobytes()

    def test_distances_written_into_out(self):
        rng = np.random.default_rng(13)
        U = generate_projections(d=6, m=1, p=40, seed=5)
        stats = fit_rpo(rng.normal(size=(60, 6)), U)
        T = project(rng.normal(size=(33, 6)), U)
        expected = projected_distances(T, stats)
        out = T[:, :, 0]
        D = projected_distances(T, stats, out=out)
        assert D is out
        assert D.tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        U = generate_projections(d=4, m=1, p=3, seed=0)
        stats = RpoStats(med=np.zeros(3), mad=np.ones(3), inv_chol=None)
        with pytest.raises(ValueError):
            score_batch(np.zeros((1, 5)), U, stats, "max")

    def test_projection_count_mismatch(self):
        U = generate_projections(d=4, m=1, p=3, seed=0)
        stats = RpoStats(med=np.zeros(2), mad=np.ones(2), inv_chol=None)
        with pytest.raises(ValueError):
            score_batch(np.zeros((1, 4)), U, stats, "max")


def one_call_distances(X, U, stats):
    """The one-call form's distances: all rows in one projection, at m > 1 a whitened one."""
    if U.m == 1:
        return projected_distances(project(X, U), stats)
    W = whiten(U, stats)
    return projected_distances(whitened_residuals(X, W), W)


B = SCORE_BLOCK_ROWS
BLOCK_EDGE_ROWS = [1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 5 * B + 7]

# Compares blocked score_batch with the one-call form (at m > 1 through the
# whitened maps) for every shape and prints the shapes whose scores differ
# by any bit.
_ONE_CALL_ORACLE_SCRIPT = """
import json, sys
import numpy as np
from rpo.projections import generate_projections, project
from rpo.scoring import (fit_rpo, projected_distances, reduce_distances, score_batch, whiten,
                         whitened_residuals)
differ = []
for m in (1, 3):
    for p in (40, 1000):
        U = generate_projections(d=6, m=m, p=p, seed=3)
        rng = np.random.default_rng(100 * m + p)
        stats = fit_rpo(rng.normal(size=(60, 6)), U)
        head = stats if m == 1 else whiten(U, stats)
        for n in json.loads(sys.argv[1]):
            X = rng.normal(scale=3.0, size=(n, 6))
            T = project(X, U) if m == 1 else whitened_residuals(X, head)
            for est in ("max", "mean"):
                oracle = reduce_distances(projected_distances(T, head), est)
                if score_batch(X, U, stats, est).tobytes() != oracle.tobytes():
                    differ.append([m, p, n, est])
print(json.dumps(differ))
"""


# Scores each case ([layer_dims, method, rp_dim, n, seed]) with a checkpoint
# scorer, block by block, and with the whole-input form: standardize all n
# rows, one encoder pass, one-call head (at m > 1 through the whitened
# maps). Prints, per case, None when the two are equal bit for bit and
# otherwise the largest difference over the largest whole-input score.
_WHOLE_INPUT_ORACLE_SCRIPT = """
import json, sys
import numpy as np
from rpo.encoder import init_encoder
from rpo.model_io import ScoringModel
from rpo.projections import generate_projections, project
from rpo.scoring import (center_distances, fit_rpo, projected_distances, reduce_distances,
                         whiten, whitened_residuals)
gaps = []
for dims, method, rp_dim, n, seed in json.loads(sys.argv[1]):
    rng = np.random.default_rng(seed)
    enc = init_encoder(dims, rng)
    mean, std = rng.normal(size=dims[0]), rng.uniform(0.5, 2.0, size=dims[0])
    if method == "deep-svdd":
        model = ScoringModel(method, mean, std, encoder=enc, center=rng.normal(size=dims[-1]))
    else:
        U = generate_projections(d=dims[-1], m=rp_dim, p=500, seed=seed)
        stats = fit_rpo(enc.forward(rng.normal(size=(200, dims[0])))[0], U)
        model = ScoringModel(method, mean, std, encoder=enc, projections=U, stats=stats)
    X = mean + rng.normal(scale=2.0, size=(n, dims[0]))
    Z, _ = enc.forward((X - mean) / std)
    if model.center is not None:
        oracle = center_distances(Z, model.center)
    else:
        if rp_dim == 1:
            D = projected_distances(project(Z, U), stats)
        else:
            W = whiten(U, stats)
            D = projected_distances(whitened_residuals(Z, W), W)
        oracle = reduce_distances(D, model.estimator)
    got = model.score_rows(X)
    same = got.tobytes() == oracle.tobytes()
    gaps.append(None if same else float(np.max(np.abs(got - oracle)) / np.max(oracle)))
print(json.dumps(gaps))
"""

# Block-wise encoder products may round differently from one product over
# all rows at some layer shapes; the largest score difference stays within
# BLOCK_RTOL of the largest score (README "Numerics").
BLOCK_RTOL = 1e-10
ENCODER_HEADS = [("deep-svdd", 1), ("deep-rpo-max", 1), ("deep-rpo-mean", 1),
                 ("deep-rpo-max", 3), ("deep-rpo-mean", 3)]


def _run_on_one_blas_thread(script, cases):
    """Stdout of ``script`` (JSON) run on ``cases`` in a child process with one BLAS thread.

    On more BLAS threads a one-call matmul splits its rows among the threads,
    not as the blocks do, so bit equality holds on one thread only, and a
    BLAS library fixes its thread count when it loads.
    """
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(pathlib.Path(rpo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(cases)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestBlocks:
    def test_blocked_scores_equal_one_call_form_bit_for_bit(self):
        assert _run_on_one_blas_thread(_ONE_CALL_ORACLE_SCRIPT, BLOCK_EDGE_ROWS) == []

    @pytest.mark.parametrize("dims", [
        [16, 32, 16, 8],  # the synthetic protocol's encoder
        [36, 32, 16, 8],  # configs/satellite.yaml's encoder
    ])
    def test_encoder_scores_equal_whole_input_form_bit_for_bit(self, dims):
        cases = [[dims, method, rp_dim, n, seed]
                 for seed, (method, rp_dim) in enumerate(ENCODER_HEADS)
                 for n in BLOCK_EDGE_ROWS]
        assert _run_on_one_blas_thread(_WHOLE_INPUT_ORACLE_SCRIPT, cases) == [None] * len(cases)

    def test_encoder_scores_within_block_rtol_at_random_shapes(self):
        rng = np.random.default_rng(11)
        cases = []
        for seed in range(30):
            method, rp_dim = ENCODER_HEADS[seed % len(ENCODER_HEADS)]
            dims = [int(rng.integers(1, 801))] + [
                int(rng.integers(1, 65)) for _ in range(rng.integers(1, 4))]
            dims[-1] = max(dims[-1], rp_dim)
            cases.append([dims, method, rp_dim, int(rng.integers(2 * B, 5 * B)), seed])
        gaps = _run_on_one_blas_thread(_WHOLE_INPUT_ORACLE_SCRIPT, cases)
        assert max(g or 0.0 for g in gaps) <= BLOCK_RTOL

    @pytest.mark.parametrize("n", [0] + BLOCK_EDGE_ROWS)
    def test_projects_in_blocks_of_b_to_2b_minus_1_rows(self, monkeypatch, n):
        rows = []

        def counting_project(X, U):
            rows.append(X.shape[0])
            return project(X, U)

        U = generate_projections(d=4, m=1, p=8, seed=0)
        stats = fit_rpo(np.random.default_rng(0).normal(size=(30, 4)), U)
        monkeypatch.setattr(scoring, "project", counting_project)
        X = np.random.default_rng(1).normal(size=(n, 4))
        assert score_batch(X, U, stats, "max").shape == (n,)
        assert len(rows) == max(1, n // B)
        assert sum(rows) == n
        if n >= B:
            assert all(B <= r < 2 * B for r in rows)

    @pytest.mark.parametrize("m", [1, 3])
    def test_peak_memory_is_one_block_not_the_whole_projection(self, m):
        # the whole (n, p, m) projection alone would take 160 MB at m = 1
        n, d, p = 20_000, 16, 1_000
        U = generate_projections(d=d, m=m, p=p, seed=0)
        rng = np.random.default_rng(2)
        stats = fit_rpo(rng.normal(size=(200, d)), U)
        X = rng.normal(size=(n, d))
        tracemalloc.start()
        try:
            score_batch(X, U, stats, "max")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestInvariances:
    @staticmethod
    def _instance(seed, n=30, d=5, p=20):
        rng = np.random.default_rng(seed)
        U = generate_projections(d=d, m=1, p=p, seed=seed)
        X = rng.normal(size=(n, d))
        queries = rng.normal(size=(8, d))
        return U, X, queries

    @pytest.mark.parametrize("est", ["max", "mean"])
    def test_translation_invariance(self, est):
        U, X, queries = self._instance(5)
        t = np.linspace(-3, 3, X.shape[1])
        base = score_batch(queries, U, fit_rpo(X, U), est)
        shifted = score_batch(queries + t, U, fit_rpo(X + t, U), est)
        assert np.allclose(base, shifted, atol=1e-9)

    @pytest.mark.parametrize("est", ["max", "mean"])
    def test_positive_scale_invariance(self, est):
        U, X, queries = self._instance(6)
        a = 3.7
        base = score_batch(queries, U, fit_rpo(X, U), est)
        scaled = score_batch(a * queries, U, fit_rpo(a * X, U), est)
        assert np.allclose(base, scaled, atol=1e-9)

    def test_max_dominates_mean(self):
        U, X, queries = self._instance(7)
        stats = fit_rpo(X, U)
        assert np.all(
            score_batch(queries, U, stats, "max") >= score_batch(queries, U, stats, "mean")
        )

    def test_monotone_in_nested_projections(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 4))
        q = rng.normal(size=(1, 4))
        scores = []
        for p in (5, 10, 20, 40):
            U = generate_projections(d=4, m=1, p=p, seed=99)
            scores.append(score_batch(q, U, fit_rpo(X, U), "max")[0])
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_projection_permutation_invariance(self):
        U, X, queries = self._instance(9)
        perm = np.random.default_rng(1).permutation(U.p)
        U_perm = ProjectionSet(entries=U.entries[perm])
        for est in ("max", "mean"):
            assert np.allclose(
                score_batch(queries, U, fit_rpo(X, U), est),
                score_batch(queries, U_perm, fit_rpo(X, U_perm), est),
                atol=1e-12,
            )

    def test_scores_nonnegative(self):
        U, X, queries = self._instance(10)
        stats = fit_rpo(X, U)
        assert np.all(score_batch(queries, U, stats, "mean") >= 0.0)


class TestGaussianLimits:
    """Both estimators against their limits as p grows, on N(0, I) train rows.

    Every 1-D MAD then tends to Phi^-1(3/4), so ``max`` tends to the
    Stahel-Donoho outlyingness ||x|| / Phi^-1(3/4), and ``mean`` to
    ||x|| E|u_1| / Phi^-1(3/4), the mean of |u . x| over uniform directions
    u, with E|u_1| = Gamma(d/2) / (sqrt(pi) Gamma((d+1)/2)). ``max`` closes
    in on its limit slowly, since a finite set of directions misses the
    maximizing one; ``mean`` is a Monte Carlo average, so its error falls
    as 1 / sqrt(p). The band on ``mean``'s error times sqrt(p) was chosen on
    seeds 0-4 (0.43-0.72) and holds on seeds 1000-1004 (0.43-0.67).
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_mean_closes_in_on_its_limit_faster_than_max(self, seed):
        d = 16
        rng = np.random.default_rng(seed)
        X_train, queries = rng.standard_normal((2000, d)), 1.5 * rng.standard_normal((500, d))
        q = statistics.NormalDist().inv_cdf(0.75)
        e_u1 = math.gamma(d / 2) / (math.sqrt(math.pi) * math.gamma((d + 1) / 2))
        radius = np.linalg.norm(queries, axis=1)
        for p in (30, 300, 3000):
            U = generate_projections(d=d, m=1, p=p, seed=seed)
            stats = fit_rpo(X_train, U)
            max_error, mean_error = (
                np.median(np.abs(score_batch(queries, U, stats, est) / limit - 1.0))
                for est, limit in (("max", radius / q), ("mean", radius * e_u1 / q)))
            assert mean_error < max_error, p
            assert 0.25 < mean_error * math.sqrt(p) < 1.0, (p, mean_error)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("m", [2, 3])
    def test_whitened_estimators_close_in_on_their_limits(self, m, seed):
        """At m > 1 each projection's covariance tends to E_p^T E_p, so a query's
        whitened distance is the norm of x projected onto a uniform random m-dimensional
        subspace: ``max`` tends to ||x||, and ``mean`` to ||x|| times that norm's mean
        over unit x, Gamma(d/2) Gamma((m+1)/2) / (Gamma((d+1)/2) Gamma(m/2)), which is
        E|u_1| at m = 1. No consistency factor applies, and the ridge is negligible.
        The band on ``mean``'s error times sqrt(p) was chosen on seeds 0-4 (m = 2:
        0.29-0.64, m = 3: 0.22-0.58) and holds on seeds 1000-1004 (0.29-0.55, 0.23-0.55).
        """
        d = 16
        rng = np.random.default_rng(seed)
        X_train, queries = rng.standard_normal((2000, d)), 1.5 * rng.standard_normal((500, d))
        shrink = math.gamma(d / 2) * math.gamma((m + 1) / 2) / (
            math.gamma((d + 1) / 2) * math.gamma(m / 2))
        radius = np.linalg.norm(queries, axis=1)
        max_errors = []
        for p in (30, 300, 3000):
            U = generate_projections(d=d, m=m, p=p, seed=seed)
            stats = fit_rpo(X_train, U)
            max_error, mean_error = (
                np.median(np.abs(score_batch(queries, U, stats, est) / limit - 1.0))
                for est, limit in (("max", radius), ("mean", radius * shrink)))
            assert mean_error < max_error, p
            assert 0.15 < mean_error * math.sqrt(p) < 1.0, (p, mean_error)
            max_errors.append(max_error)
        assert max_errors == sorted(max_errors, reverse=True), max_errors  # max closes in too


class TestDepth:
    @pytest.mark.parametrize("o,expected", [(0.0, 1.0), (1.0, 0.5), (3.0, 0.25)])
    def test_values(self, o, expected):
        assert depth(o) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            depth(-0.5)

    @given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=1e-4, max_value=1e3))
    @settings(max_examples=50)
    def test_strictly_decreasing(self, o, delta):
        # delta stays above the float64 ulp of 1 + o so the increment is representable
        assert depth(o + delta) < depth(o)

    def test_vectorized(self):
        out = depth(np.array([0.0, 1.0, 3.0]))
        assert np.allclose(out, [1.0, 0.5, 0.25])
