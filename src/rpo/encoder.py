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
and so do the gradient ``backward`` returns and Adam's two moments; a
per-layer array is only a ``layer_views`` view of such a buffer.
``backward`` writes each layer's product ``A^T G`` into its view of the
gradient, with the bits of the product on its own. ``adam_step`` then runs
each of its elementwise operations once over the whole buffer, in place
and in the per-layer update's order, so every weight and moment keeps the
per-layer update's bits; ``training.train`` snapshots and restores the
best epoch's weights with one copy of the buffer.

The hidden activation is ``np.maximum(H, LEAKY_SLOPE * H)``, applied in
place over the pre-activation H, so ``forward`` keeps one array per layer:
its cache is the list of layer inputs ``[X, A_1, ..., A_{L-1}]``. For
0 < ``LEAKY_SLOPE`` < 1 the activation equals ``np.where(H > 0, H,
LEAKY_SLOPE * H)`` bit for bit, signed zeros, infinities and NaN included:
``LEAKY_SLOPE * H`` lies between H and 0, and both forms return H itself
where they agree on the branch. For the same reason ``A > 0`` holds exactly
where ``H > 0`` does, so ``backward`` takes each layer's slope mask from
its output A.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

LEAKY_SLOPE = 0.1  # the hidden activation is max(h, LEAKY_SLOPE * h)


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
        self._offsets = list(accumulate((W.size for W in weights), initial=0))
        self.buffer = np.empty(self._offsets[-1])
        self._weights = self.layer_views(self.buffer)
        for view, W in zip(self._weights, weights):
            view[...] = W

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        """Per-layer (d_in, d_out) views of ``buffer``."""
        return self._weights

    def layer_views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-layer views of a flat array laid out as ``buffer``."""
        bounds = zip(self._offsets, self._offsets[1:], self._shapes)
        return tuple([flat[start:stop].reshape(shape) for start, stop, shape in bounds])

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [W.shape[1] for W in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def latent_dim(self) -> int:
        return self.weights[-1].shape[1]

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Encode rows of ``X``; returns latents and the backward cache.

        The cache is the list of layer inputs ``[X, A_1, ..., A_{L-1}]``;
        each hidden activation overwrites its pre-activation in place.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(
                f"expected input shape (n, {self.input_dim}), got {X.shape}"
            )
        cache = [X]
        for W in self.weights[:-1]:
            H = cache[-1] @ W
            np.maximum(H, LEAKY_SLOPE * H, out=H)
            cache.append(H)
        return cache[-1] @ self.weights[-1], cache

    def backward(self, cache: list[np.ndarray], upstream_grad: np.ndarray) -> np.ndarray:
        """Exact gradient w.r.t. the weights for the cached batch, laid out as ``buffer``.

        ``upstream_grad`` is dLoss/dZ for the same batch the cache came from.
        Each layer's product ``A_l^T G_l`` is written into its view of the
        one flat gradient (``layer_views``). The slope mask of hidden layer
        l is read from its output, ``cache[l] > 0``, which holds where its
        pre-activation is > 0 (module docstring).
        """
        if cache is None or len(cache) != len(self.weights):
            raise ValueError("the forward cache is missing or does not match this encoder")
        G = np.asarray(upstream_grad, dtype=np.float64)
        if G.shape != (cache[0].shape[0], self.latent_dim):
            raise ValueError(
                f"upstream gradient shape {G.shape} does not match cached batch"
            )
        grad = np.empty_like(self.buffer)
        views = self.layer_views(grad)
        for l in range(len(self.weights) - 1, -1, -1):
            np.matmul(cache[l].T, G, out=views[l])
            if l > 0:
                G = G @ self.weights[l].T
                G *= np.where(cache[l] > 0, 1.0, LEAKY_SLOPE)
        return grad


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

    ``Encoder.layer_views`` gives a buffer's per-layer views.
    """

    m_buffer: np.ndarray
    v_buffer: np.ndarray
    learning_rate: float
    step: int = 0


def init_adam(enc: Encoder, learning_rate: float) -> AdamState:
    return AdamState(
        m_buffer=np.zeros_like(enc.buffer),
        v_buffer=np.zeros_like(enc.buffer),
        learning_rate=learning_rate,
    )


def adam_step(enc: Encoder, grad: np.ndarray, opt: AdamState) -> None:
    """One in-place Adam update of the weights from a gradient laid out as ``enc.buffer``.

    The per-layer update ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g
    g``, ``W -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)``, taken
    once over the flat buffers: each operation in the same order, so each
    entry rounds as it did layer by layer. ``grad`` is read, not written.
    """
    if grad.shape != enc.buffer.shape:
        raise ValueError(f"gradient shape {grad.shape} != weight buffer shape {enc.buffer.shape}")
    opt.step += 1
    t = opt.step
    m, v = opt.m_buffer, opt.v_buffer
    m *= ADAM_BETA1
    term = np.multiply(grad, 1.0 - ADAM_BETA1)
    m += term
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=term)
    term *= grad
    v += term
    denom = np.divide(v, 1.0 - ADAM_BETA2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=term)
    term /= denom
    term *= opt.learning_rate
    enc.buffer -= term
