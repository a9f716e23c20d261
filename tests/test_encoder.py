import numpy as np
import pytest

from rpo.encoder import (
    LEAKY_SLOPE,
    AdamState,
    Encoder,
    adam_step,
    init_adam,
    init_encoder,
)
from rpo.errors import DataError
from rpo.model_io import ScoringModel, load_model_checkpoint, save_model_checkpoint


def naive_forward(weights, slope, X):
    """Per-neuron scalar-loop oracle for the forward pass."""
    A = [list(row) for row in X]
    for layer, W in enumerate(weights):
        out = []
        for row in A:
            new_row = []
            for j in range(W.shape[1]):
                acc = 0.0
                for i in range(W.shape[0]):
                    acc += row[i] * W[i, j]
                if layer < len(weights) - 1:
                    acc = acc if acc > 0 else slope * acc
                new_row.append(acc)
            out.append(new_row)
        A = out
    return np.array(A)


def fd_gradients(enc, loss_fn, step=1e-6):
    """Central finite differences of loss_fn() over every weight entry, laid out as ``buffer``."""
    W = enc.buffer
    g = np.zeros_like(W)
    for i in range(W.size):
        original = W[i]
        W[i] = original + step
        up = loss_fn()
        W[i] = original - step
        down = loss_fn()
        W[i] = original
        g[i] = (up - down) / (2 * step)
    return g


def oracle_adam_step(weights, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                     weight_decay=0.0):
    """The earlier update, verbatim, with its decoupled decay term.

    ``state`` holds the moment lists ``m``, ``v`` and the step count ``t``.
    """
    state["t"] += 1
    t = state["t"]
    for l, (W, g) in enumerate(zip(weights, grads)):
        state["m"][l] = beta1 * state["m"][l] + (1.0 - beta1) * g
        state["v"][l] = beta2 * state["v"][l] + (1.0 - beta2) * g * g
        m_hat = state["m"][l] / (1.0 - beta1**t)
        v_hat = state["v"][l] / (1.0 - beta2**t)
        W -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * W)


def relative_error(a, b):
    """Relative 2-norm error of two flat gradients."""
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


class TestForward:
    def test_identity_single_layer(self):
        enc = Encoder([np.eye(3)])
        X = np.abs(np.random.default_rng(0).normal(size=(4, 3)))
        Z, _ = enc.forward(X)
        assert np.array_equal(Z, X)

    def test_zero_weights(self):
        enc = Encoder([np.zeros((3, 2)), np.zeros((2, 2))])
        Z, _ = enc.forward(np.ones((5, 3)))
        assert np.all(Z == 0.0)

    @pytest.mark.parametrize("dims", [[3, 2], [4, 3, 2], [3, 5, 4, 2]])
    def test_matches_scalar_loop_oracle(self, dims):
        rng = np.random.default_rng(sum(dims))
        enc = init_encoder(dims, rng)
        X = rng.normal(size=(6, dims[0]))
        Z, _ = enc.forward(X)
        assert np.allclose(Z, naive_forward(enc.weights, LEAKY_SLOPE, X), atol=1e-10)

    def test_shape_mismatch(self):
        enc = Encoder([np.eye(3)])
        with pytest.raises(ValueError):
            enc.forward(np.zeros((2, 4)))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        enc = init_encoder([4, 3, 2], rng)
        X = rng.normal(size=(7, 4))
        Z1, _ = enc.forward(X)
        Z2, _ = enc.forward(X)
        assert np.array_equal(Z1, Z2)

    def test_param_count_no_bias(self):
        enc = init_encoder([36, 32, 16, 8], np.random.default_rng(0))
        assert [W.shape for W in enc.weights] == [(36, 32), (32, 16), (16, 8)]
        assert sum(W.size for W in enc.weights) == 36 * 32 + 32 * 16 + 16 * 8


class TestFlatBuffer:
    """The weights are views of one flat buffer, and Adam's moments of two more."""

    def test_weight_writes_reach_the_buffer(self):
        enc = init_encoder([5, 4, 3], np.random.default_rng(2))
        assert enc.buffer.shape == (5 * 4 + 4 * 3,)
        assert all(np.shares_memory(W, enc.buffer) for W in enc.weights)
        enc.weights[1][2, 0] = -0.0
        enc.weights[0][4, 3] = 7.5
        assert np.signbit(enc.buffer[20 + 2 * 3]) and enc.buffer[4 * 4 + 3] == 7.5
        enc.buffer[-1] = 2.5
        assert enc.weights[1][3, 2] == 2.5
        assert enc.buffer.tobytes() == b"".join(W.tobytes() for W in enc.weights)

    def test_encoder_copies_its_input_and_keeps_its_views(self):
        W = np.eye(3)
        enc = Encoder([W, np.ones((3, 2))])
        enc.weights[0][0, 0] = 4.0
        assert W[0, 0] == 1.0
        with pytest.raises(AttributeError):
            enc.weights = [np.eye(3), np.ones((3, 2))]

    def test_adam_moments_are_views_of_flat_buffers(self):
        enc = init_encoder([5, 4, 3], np.random.default_rng(4))
        opt = init_adam(enc, learning_rate=1e-2)
        for flat in (opt.m_buffer, opt.v_buffer):
            views = enc.layer_views(flat)
            assert flat.shape == enc.buffer.shape
            assert [a.shape for a in views] == [W.shape for W in enc.weights]
            assert all(np.shares_memory(a, flat) for a in views)
        adam_step(enc, np.ones_like(enc.buffer), opt)
        m = enc.layer_views(opt.m_buffer)
        assert opt.m_buffer.tobytes() == b"".join(a.tobytes() for a in m)
        assert np.all(opt.v_buffer > 0.0)

    def test_activation_equals_the_where_form_bit_for_bit(self):
        # max(h, slope * h) and where(h > 0, h, slope * h), signed zeros,
        # infinities, NaN and subnormals included
        tiny = np.finfo(np.float64).smallest_subnormal
        H = np.array([[1.5, -1.5, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
                       -9 * tiny, 1e308, -1e308, 0.1, -0.1, -1e-320]])
        expected = np.where(H > 0, H, LEAKY_SLOPE * H)
        assert np.maximum(H, LEAKY_SLOPE * H).tobytes() == expected.tobytes()
        rng = np.random.default_rng(3)
        enc = init_encoder([4, 6, 5, 2], rng)
        _, cache = enc.forward(rng.normal(size=(9, 4)))
        for l in range(1, len(cache)):
            H = cache[l - 1] @ enc.weights[l - 1]
            assert cache[l].tobytes() == np.where(H > 0, H, LEAKY_SLOPE * H).tobytes()


class TestListCache:
    """``forward`` keeps one array per layer; ``backward`` takes each slope from it."""

    @pytest.mark.parametrize("dims", [[3, 2], [4, 3, 2], [36, 32, 16, 8]])
    def test_the_cache_holds_one_input_per_layer(self, dims):
        rng = np.random.default_rng(sum(dims) + 7)
        enc = init_encoder(dims, rng)
        X = rng.normal(size=(5, dims[0]))
        _, cache = enc.forward(X)
        assert type(cache) is list and len(cache) == len(enc.weights)
        assert cache[0] is X
        assert [A.shape for A in cache] == [(5, d) for d in dims[:-1]]

    def test_backward_equals_the_preactivation_form_on_edge_values(self):
        # the slope mask read from A, the activation of H, against the one read from
        # H itself, on the values where a mask could tell them apart. A matrix
        # product cannot give -0.0 (its sum starts at +0.0), so the cache is the
        # list a forward pass over these pre-activations would leave.
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [0.0, -0.0, tiny, -tiny, -9 * tiny, np.inf, -np.inf, np.nan, 1.5, -1.5]
        H = np.array([edges, edges[::-1]]).T
        rng = np.random.default_rng(12)
        enc = Encoder([np.eye(2), rng.normal(size=(2, 3))])
        X = rng.normal(size=(len(edges), 2))
        upstream = rng.normal(size=(len(edges), 3))
        A = np.where(H > 0, H, LEAKY_SLOPE * H)
        with np.errstate(invalid="ignore"):
            grad = enc.backward([X, A.copy()], upstream)
            G = (upstream @ enc.weights[1].T) * np.where(H > 0, 1.0, LEAKY_SLOPE)
            expected = [X.T @ G, A.T @ upstream]
        for a, b in zip(enc.layer_views(grad), expected, strict=True):
            assert a.tobytes() == b.tobytes()
        # a 1 x 1 identity first layer gives every edge value but -0.0 from a forward pass
        column = np.delete(H[:, :1], 1, axis=0)
        _, cache = Encoder([np.eye(1), np.ones((1, 1))]).forward(column)
        assert cache[1].tobytes() == np.delete(A[:, :1], 1, axis=0).tobytes()


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(1)
        enc = init_encoder([4, 3, 2], rng)
        X = rng.normal(size=(5, 4))
        _, cache = enc.forward(X)
        grad = enc.backward(cache, np.zeros((5, 2)))
        assert grad.shape == enc.buffer.shape
        assert np.all(grad == 0.0)

    def test_linear_least_squares_closed_form(self):
        rng = np.random.default_rng(2)
        W = rng.normal(size=(4, 2))
        enc = Encoder([W.copy()])
        X = rng.normal(size=(10, 4))
        Y = rng.normal(size=(10, 2))
        Z, cache = enc.forward(X)
        n = X.shape[0]
        grad, = enc.layer_views(enc.backward(cache, 2.0 * (Z - Y) / n))
        closed_form = 2.0 * X.T @ (X @ W - Y) / n
        assert np.allclose(grad, closed_form, atol=1e-12)

    @pytest.mark.parametrize("dims", [[3, 2], [4, 3, 2], [3, 4, 3, 2]])
    def test_matches_finite_differences(self, dims):
        rng = np.random.default_rng(sum(dims) + 1)
        enc = init_encoder(dims, rng)
        X = rng.normal(size=(6, dims[0]))
        target = rng.normal(size=(6, dims[-1]))

        def loss():
            Z, _ = enc.forward(X)
            return float(np.mean(np.sum((Z - target) ** 2, axis=1)))

        Z, cache = enc.forward(X)
        analytic = enc.backward(cache, 2.0 * (Z - target) / X.shape[0])
        numeric = fd_gradients(enc, loss, step=1e-5)
        assert relative_error(analytic, numeric) < 1e-4

    def test_missing_cache(self):
        enc = Encoder([np.eye(2)])
        with pytest.raises(ValueError, match="cache"):
            enc.backward(None, np.zeros((1, 2)))


class TestFlatGradient:
    """``backward`` returns one gradient laid out as ``buffer``; ``adam_step`` reads it."""

    DIMS = [[3, 2], [1, 1], [7, 5, 3], [4, 9, 1, 6], [13, 11, 7, 5, 2], [36, 32, 16, 8]]

    @pytest.mark.parametrize("dims", DIMS)
    def test_layer_views_hold_the_per_layer_products_by_bytes(self, dims):
        rng = np.random.default_rng(len(dims) * 100 + sum(dims))
        enc = init_encoder(dims, rng)
        for n in (1, 5, 33):
            Z, cache = enc.forward(rng.normal(size=(n, dims[0])))
            upstream = rng.normal(size=Z.shape)
            grad = enc.backward(cache, upstream)
            assert grad.shape == enc.buffer.shape and grad.dtype == np.float64
            assert not np.shares_memory(grad, enc.buffer)
            # each layer's product on its own: A_l^T G_l, with G_l backpropagated
            G, expected = upstream, [None] * len(enc.weights)
            for l in range(len(enc.weights) - 1, -1, -1):
                expected[l] = cache[l].T @ G
                if l > 0:
                    H = cache[l - 1] @ enc.weights[l - 1]
                    G = (G @ enc.weights[l].T) * np.where(H > 0, 1.0, LEAKY_SLOPE)
            views = enc.layer_views(grad)
            assert [a.shape for a in views] == [W.shape for W in enc.weights]
            for a, b in zip(views, expected, strict=True):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dims", DIMS)
    def test_adam_step_on_the_flat_gradient_equals_the_per_layer_oracle(self, dims):
        rng = np.random.default_rng(len(dims) * 200 + sum(dims))
        enc = init_encoder(dims, rng)
        weights = [W.copy() for W in enc.weights]
        opt = init_adam(enc, learning_rate=3e-3)
        state = {"m": [np.zeros_like(W) for W in weights],
                 "v": [np.zeros_like(W) for W in weights], "t": 0}
        for _ in range(4):
            Z, cache = enc.forward(rng.normal(size=(6, dims[0])))
            grad = enc.backward(cache, rng.normal(size=Z.shape))
            before = grad.copy()
            adam_step(enc, grad, opt)
            assert grad.tobytes() == before.tobytes()
            oracle_adam_step(weights, enc.layer_views(grad), state, lr=3e-3)
            for W, expected in zip(enc.weights, weights, strict=True):
                assert W.tobytes() == expected.tobytes()
            for flat, moments in ((opt.m_buffer, state["m"]), (opt.v_buffer, state["v"])):
                for a, b in zip(enc.layer_views(flat), moments, strict=True):
                    assert a.tobytes() == b.tobytes()

    def test_backward_refuses_a_cache_of_another_depth(self):
        rng = np.random.default_rng(11)
        _, cache = init_encoder([4, 3, 2], rng).forward(rng.normal(size=(5, 4)))
        with pytest.raises(ValueError, match="does not match this encoder"):
            init_encoder([4, 2], rng).backward(cache, np.zeros((5, 2)))


class TestAdam:
    def test_zero_grads_no_decay_keeps_weights(self):
        enc = init_encoder([3, 2], np.random.default_rng(3))
        before = [W.copy() for W in enc.weights]
        opt = init_adam(enc, learning_rate=1e-4)
        adam_step(enc, np.zeros_like(enc.buffer), opt)
        assert all(np.array_equal(a, b) for a, b in zip(before, enc.weights))

    @pytest.mark.parametrize("grads", ["random", "zero", "mixed"])
    def test_bit_equal_to_oracle(self, grads):
        # the update without a decay term equals the earlier one with
        # weight_decay=0.0 bit for bit, also on weights that hold +-0.0
        rng = np.random.default_rng(8)
        enc = init_encoder([5, 4, 3], rng)
        enc.weights[0][0, :] = 0.0
        enc.weights[0][1, :] = -0.0
        enc.weights[1][:2, :2] = [[0.0, -0.0], [-0.0, 0.0]]
        weights = [W.copy() for W in enc.weights]
        opt = init_adam(enc, learning_rate=1e-2)
        state = {"m": [np.zeros_like(W) for W in weights],
                 "v": [np.zeros_like(W) for W in weights], "t": 0}
        for step in range(6):
            grad = np.empty_like(enc.buffer)
            g = enc.layer_views(grad)
            for view, W in zip(g, weights, strict=True):
                if grads == "zero" or (grads == "mixed" and step % 2):
                    view[...] = 0.0
                else:
                    view[...] = rng.normal(size=W.shape)
            if grads == "mixed":
                g[0][0, 0] = -0.0
            adam_step(enc, grad, opt)
            oracle_adam_step(weights, g, state, lr=1e-2)
            for W, expected in zip(enc.weights, weights):
                assert W.tobytes() == expected.tobytes()
            assert opt.step == state["t"]
            for flat, moments in ((opt.m_buffer, state["m"]), (opt.v_buffer, state["v"])):
                views = enc.layer_views(flat)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(views, moments, strict=True))

    def test_descends_convex_quadratic(self):
        rng = np.random.default_rng(5)
        enc = Encoder([rng.normal(size=(3, 2))])
        X = rng.normal(size=(20, 3))
        Y = rng.normal(size=(20, 2))
        opt = init_adam(enc, learning_rate=1e-2)

        def loss():
            Z, _ = enc.forward(X)
            return float(np.mean(np.sum((Z - Y) ** 2, axis=1)))

        initial = loss()
        for _ in range(20):
            Z, cache = enc.forward(X)
            grad = enc.backward(cache, 2.0 * (Z - Y) / X.shape[0])
            adam_step(enc, grad, opt)
        assert loss() < initial

    def test_shape_mismatch(self):
        enc = init_encoder([3, 2], np.random.default_rng(6))
        opt = init_adam(enc, learning_rate=1e-4)
        with pytest.raises(ValueError, match="gradient shape"):
            adam_step(enc, np.zeros(4), opt)
        with pytest.raises(ValueError, match="gradient shape"):
            adam_step(enc, np.zeros((3, 2)), opt)


class TestCheckpoint:
    """Encoder weights persist only inside a scoring checkpoint."""

    def test_round_trip_bit_exact(self, tmp_path):
        enc = init_encoder([5, 4, 3], np.random.default_rng(7))
        path = tmp_path / "enc.npz"
        save_model_checkpoint(
            path, ScoringModel("deep-svdd", np.zeros(5), np.ones(5), encoder=enc, center=np.ones(3))
        )
        loaded = load_model_checkpoint(path).encoder
        assert loaded.layer_dims == enc.layer_dims
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, enc.weights))

    def test_round_trip_keeps_every_weight_byte(self, tmp_path):
        enc = init_encoder([6, 5, 4, 2], np.random.default_rng(9))
        enc.weights[0][0] = -0.0
        enc.weights[2][1, 1] = np.finfo(np.float64).smallest_subnormal
        path = tmp_path / "enc.npz"
        save_model_checkpoint(
            path, ScoringModel("deep-svdd", np.zeros(6), np.ones(6), encoder=enc, center=np.ones(2))
        )
        loaded = load_model_checkpoint(path).encoder
        assert loaded.buffer.tobytes() == enc.buffer.tobytes()
        for a, b in zip(loaded.weights, enc.weights, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert np.shares_memory(a, loaded.buffer)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(
            path, version=np.int64(999), method=np.str_("deep-svdd"), scaler_mean=np.zeros(2),
            scaler_std=np.ones(2), layer_dims=np.array([2, 2]), W0=np.eye(2),
            center=np.zeros(2),
        )
        with pytest.raises(DataError, match="version"):
            load_model_checkpoint(path)
