"""Bias-free feedforward encoder with hand-rolled reverse-mode gradients.

The encoder is deliberately minimal: dense layers without bias terms and a
leaky-rectifier activation on every hidden layer (the output layer is
linear). Bias-free layers and a non-saturating activation are the
structural conditions that keep a one-class objective from collapsing the
latent representation onto a single point, so they are enforced here
rather than left to configuration.

Everything is numpy float64 on purpose: forward passes are deterministic
and gradients are exact reverse-mode (validated against finite differences
in the test suite), which the benchmark determinism guarantee relies on.
Weights are persisted only as part of a scoring checkpoint (``model_io``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SLOPE = 0.1


@dataclass
class ForwardCache:
    """Intermediates of one forward pass, consumed by ``backward``."""

    inputs: list  # A_0 .. A_{L-1}, layer inputs
    preacts: list  # H_1 .. H_{L-1}, hidden pre-activations
    n_layers: int


class Encoder:
    """Stack of bias-free dense layers with leaky-rectifier hidden units."""

    def __init__(self, weights: list[np.ndarray], slope: float = DEFAULT_SLOPE):
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
        self.weights = [np.asarray(W, dtype=np.float64) for W in weights]
        self.slope = float(slope)

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [W.shape[1] for W in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def latent_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def n_params(self) -> int:
        return sum(W.size for W in self.weights)

    def copy(self) -> "Encoder":
        return Encoder([W.copy() for W in self.weights], slope=self.slope)

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
            A = np.where(H > 0, H, self.slope * H)
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
                G = G * np.where(H > 0, 1.0, self.slope)
        return grads


def init_encoder(layer_dims: list[int], seed_rng: np.random.Generator,
                 slope: float = DEFAULT_SLOPE) -> Encoder:
    """He-style initialization scaled for the leaky rectifier."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError(f"layer_dims must list >= 2 positive sizes, got {layer_dims}")
    gain = np.sqrt(2.0 / (1.0 + slope**2))
    weights = []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        std = gain / np.sqrt(d_in)
        weights.append(seed_rng.standard_normal((d_in, d_out)) * std)
    return Encoder(weights, slope=slope)


@dataclass
class AdamState:
    """Adaptive-moment optimizer state with decoupled weight decay."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-6


def init_adam(enc: Encoder, learning_rate: float = 1e-4,
              weight_decay: float = 1e-6) -> AdamState:
    return AdamState(
        m=[np.zeros_like(W) for W in enc.weights],
        v=[np.zeros_like(W) for W in enc.weights],
        learning_rate=learning_rate,
        weight_decay=weight_decay,
    )


def adam_step(enc: Encoder, grads: list[np.ndarray], opt: AdamState) -> None:
    """One in-place update: Adam moments plus decoupled decay ``lr * wd * W``."""
    if len(grads) != len(enc.weights):
        raise ValueError("gradient list does not match encoder layers")
    for g, W in zip(grads, enc.weights):
        if g.shape != W.shape:
            raise ValueError(f"gradient shape {g.shape} != weight shape {W.shape}")
    opt.step += 1
    t = opt.step
    for l, (W, g) in enumerate(zip(enc.weights, grads)):
        opt.m[l] = opt.beta1 * opt.m[l] + (1.0 - opt.beta1) * g
        opt.v[l] = opt.beta2 * opt.v[l] + (1.0 - opt.beta2) * g * g
        m_hat = opt.m[l] / (1.0 - opt.beta1**t)
        v_hat = opt.v[l] / (1.0 - opt.beta2**t)
        W -= opt.learning_rate * (
            m_hat / (np.sqrt(v_hat) + opt.eps) + opt.weight_decay * W
        )
