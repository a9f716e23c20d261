"""Bias-free feedforward encoder with hand-rolled reverse-mode gradients.

The encoder is deliberately minimal: dense layers without bias terms and a
leaky-rectifier activation on every hidden layer (the output layer is
linear). Bias-free layers and a non-saturating activation are the
structural conditions that keep a one-class objective from collapsing the
latent representation onto a single point, so they are enforced here
rather than left to configuration: the negative slope is the constant
``LEAKY_SLOPE``, and a checkpoint stores only the weights.

Everything is numpy float64 on purpose: forward passes are deterministic
and gradients are exact reverse-mode (validated against finite differences
in the test suite), which the benchmark determinism guarantee relies on.
Weights are persisted only as part of a scoring checkpoint (``model_io``).

The weights live in one flat float64 buffer, layer after layer in C order,
and so do Adam's two moments. ``adam_step`` then runs each of its
elementwise operations once over the whole buffer, in place and in the
per-layer update's order, so every weight and moment keeps the per-layer
update's bits; ``training.train`` snapshots and restores the best epoch's
weights with one copy of the buffer.

The hidden activation is ``np.maximum(H, LEAKY_SLOPE * H)``. For
0 < ``LEAKY_SLOPE`` < 1 it equals ``np.where(H > 0, H, LEAKY_SLOPE * H)``
bit for bit, signed zeros, infinities and NaN included: ``LEAKY_SLOPE * H``
lies between H and 0, and both forms return H itself where they agree on
the branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEAKY_SLOPE = 0.1  # the hidden activation is max(h, LEAKY_SLOPE * h)


@dataclass
class ForwardCache:
    """Intermediates of one forward pass, consumed by ``backward``."""

    inputs: list  # A_0 .. A_{L-1}, layer inputs
    preacts: list  # H_1 .. H_{L-1}, hidden pre-activations
    n_layers: int


class Encoder:
    """Stack of bias-free dense layers with leaky-rectifier hidden units.

    The weights are copied into one flat float64 buffer, ``buffer``;
    ``weights`` is a tuple of per-layer views of it.
    """

    def __init__(self, weights: list[np.ndarray]):
        if not weights:
            raise ValueError("encoder needs at least one layer")
        for i, W in enumerate(weights):
            if W.ndim != 2:
                raise ValueError(f"layer {i} weight must be 2-D, got shape {W.shape}")
            if not np.all(np.isfinite(W)):
                raise ValueError(f"layer {i} weight contains non-finite entries")
        for i in range(len(weights) - 1):
            if weights[i].shape[1] != weights[i + 1].shape[0]:
                raise ValueError(
                    f"layer {i} output dim {weights[i].shape[1]} != "
                    f"layer {i + 1} input dim {weights[i + 1].shape[0]}"
                )
        self._shapes = [W.shape for W in weights]
        self.buffer = np.empty(sum(W.size for W in weights))
        self._weights = self.layer_views(self.buffer)
        for view, W in zip(self._weights, weights):
            view[...] = W

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        """Per-layer (d_in, d_out) views of ``buffer``."""
        return self._weights

    def layer_views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-layer views of a flat array laid out as ``buffer``."""
        views = []
        start = 0
        for shape in self._shapes:
            stop = start + shape[0] * shape[1]
            views.append(flat[start:stop].reshape(shape))
            start = stop
        return tuple(views)

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [W.shape[1] for W in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def latent_dim(self) -> int:
        return self.weights[-1].shape[1]

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        """Encode rows of ``X``; returns latents and the backward cache."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(
                f"expected input shape (n, {self.input_dim}), got {X.shape}"
            )
        inputs = [X]
        preacts = []
        A = X
        for W in self.weights[:-1]:
            H = A @ W
            preacts.append(H)
            A = np.maximum(H, LEAKY_SLOPE * H)
            inputs.append(A)
        Z = A @ self.weights[-1]
        return Z, ForwardCache(inputs=inputs, preacts=preacts, n_layers=len(self.weights))

    def backward(self, cache: ForwardCache, upstream_grad: np.ndarray) -> list[np.ndarray]:
        """Exact gradients w.r.t. every weight matrix for the cached batch.

        ``upstream_grad`` is dLoss/dZ for the same batch the cache came from.
        """
        if cache is None:
            raise ValueError("missing forward cache")
        if cache.n_layers != len(self.weights):
            raise ValueError("forward cache does not match this encoder")
        G = np.asarray(upstream_grad, dtype=np.float64)
        if G.shape != (cache.inputs[0].shape[0], self.latent_dim):
            raise ValueError(
                f"upstream gradient shape {G.shape} does not match cached batch"
            )
        grads: list[np.ndarray] = [None] * len(self.weights)
        for l in range(len(self.weights) - 1, -1, -1):
            grads[l] = cache.inputs[l].T @ G
            if l > 0:
                G = G @ self.weights[l].T
                H = cache.preacts[l - 1]
                G = G * np.where(H > 0, 1.0, LEAKY_SLOPE)
        return grads


def init_encoder(layer_dims: list[int], seed_rng: np.random.Generator) -> Encoder:
    """He-style initialization scaled for the leaky rectifier."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError(f"layer_dims must list >= 2 positive sizes, got {layer_dims}")
    gain = np.sqrt(2.0 / (1.0 + LEAKY_SLOPE**2))
    weights = []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        std = gain / np.sqrt(d_in)
        weights.append(seed_rng.standard_normal((d_in, d_out)) * std)
    return Encoder(weights)


# Adam's moment decay rates and denominator guard. No weight decay is applied
# here: the training losses put the penalty ``lam * W`` in the gradient.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's first and second moments, each one flat buffer laid out as the weights.

    ``m`` and ``v`` are the per-layer views of ``m_buffer`` and ``v_buffer``.
    """

    m_buffer: np.ndarray
    v_buffer: np.ndarray
    m: tuple
    v: tuple
    learning_rate: float
    step: int = 0


def init_adam(enc: Encoder, learning_rate: float) -> AdamState:
    m_buffer = np.zeros_like(enc.buffer)
    v_buffer = np.zeros_like(enc.buffer)
    return AdamState(
        m_buffer=m_buffer,
        v_buffer=v_buffer,
        m=enc.layer_views(m_buffer),
        v=enc.layer_views(v_buffer),
        learning_rate=learning_rate,
    )


def adam_step(enc: Encoder, grads: list[np.ndarray], opt: AdamState) -> None:
    """One in-place Adam update of every weight matrix.

    The per-layer update ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g
    g``, ``W -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)``, taken
    once over the flat buffers: each operation in the same order, so each
    entry rounds as it did layer by layer.
    """
    if len(grads) != len(enc.weights):
        raise ValueError("gradient list does not match encoder layers")
    for g, W in zip(grads, enc.weights):
        if g.shape != W.shape:
            raise ValueError(f"gradient shape {g.shape} != weight shape {W.shape}")
    opt.step += 1
    t = opt.step
    g = np.concatenate(grads, axis=None)
    m, v = opt.m_buffer, opt.v_buffer
    m *= ADAM_BETA1
    term = np.multiply(g, 1.0 - ADAM_BETA1)
    m += term
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=term)
    term *= g
    v += term
    denom = np.divide(v, 1.0 - ADAM_BETA2**t, out=g)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=term)
    term /= denom
    term *= opt.learning_rate
    enc.buffer -= term
