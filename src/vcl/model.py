"""Encoder and Gaussian sampling head.

The encoder is a plain MLP over flattened inputs. The head maps an
embedding to the mean and log-variance of a diagonal Gaussian over a
lower-dimensional latent space; sampling from it goes through the
reparameterization trick so gradients reach the head parameters but
never the noise.

Parameters live in an ordered dict of named Tensors. Names are stable
across runs ("enc0.w", "enc0.b", ..., "head_mu.w", ...), which is what
the checkpoint format and the optimizer state key on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vcl.autograd import (ShapeError, Tensor, add, clamp, exp, matmul, mul,
                          relu, scale)

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


@dataclass(frozen=True)
class EncoderConfig:
    input_shape: tuple
    hidden_dims: tuple = (256, 256)
    embed_dim: int = 64

    def __post_init__(self):
        if not self.input_shape or any(d < 1 for d in self.input_shape):
            raise ValueError(f"bad input shape {self.input_shape}")
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ValueError(f"bad hidden dims {self.hidden_dims}")
        if self.embed_dim < 2:
            raise ValueError(f"embed_dim must be >= 2, got {self.embed_dim}")

    @property
    def input_dim(self) -> int:
        return int(np.prod(self.input_shape))


@dataclass(frozen=True)
class GaussianParams:
    """Batch of diagonal Gaussians: mu and logvar, both (B, D)."""

    mu: Tensor
    logvar: Tensor

    def __post_init__(self):
        if self.mu.data.shape != self.logvar.data.shape:
            raise ShapeError(
                f"mu shape {self.mu.data.shape} differs from logvar shape "
                f"{self.logvar.data.shape}")
        if self.mu.data.ndim != 2:
            raise ShapeError(f"expected (B, D) moments, got {self.mu.data.shape}")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out)).astype(np.float32)


def init_params(cfg: EncoderConfig, head_dim: int,
                seed: int) -> dict[str, Tensor]:
    """Fresh parameter dict: Glorot-uniform weights, zero biases.

    Draw order is fixed (encoder layers in order, then head hidden, mu,
    logvar), so a seed pins every parameter.
    """
    if head_dim < 1:
        raise ValueError(f"head_dim must be >= 1, got {head_dim}")
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}

    def lin(name: str, fan_in: int, fan_out: int):
        params[f"{name}.w"] = Tensor(_glorot(rng, fan_in, fan_out),
                                     requires_grad=True)
        params[f"{name}.b"] = Tensor(np.zeros(fan_out, dtype=np.float32),
                                     requires_grad=True)

    d_in = cfg.input_dim
    for i, h in enumerate(cfg.hidden_dims):
        lin(f"enc{i}", d_in, h)
        d_in = h
    lin("enc_out", d_in, cfg.embed_dim)
    lin("head_hidden", cfg.embed_dim, cfg.embed_dim)
    lin("head_mu", cfg.embed_dim, head_dim)
    lin("head_logvar", cfg.embed_dim, head_dim)
    return params


def params_fingerprint(params: dict[str, Tensor]) -> bytes:
    """Byte string identifying the exact parameter values, order included."""
    chunks = []
    for k, v in params.items():
        chunks.append(k.encode())
        chunks.append(np.ascontiguousarray(v.data).tobytes())
    return b"".join(chunks)


def _num_encoder_layers(params: dict[str, Tensor]) -> int:
    n = 0
    while f"enc{n}.w" in params:
        n += 1
    return n


def _as_batch_tensor(x, input_dim: int) -> Tensor:
    if isinstance(x, Tensor):
        if x.data.ndim != 2 or x.data.shape[1] != input_dim:
            raise ShapeError(
                f"encoder input tensor must be (B, {input_dim}), got "
                f"{x.data.shape}")
        return x
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim < 2:
        raise ShapeError(f"encoder input must be batched, got shape {arr.shape}")
    flat = arr.reshape(arr.shape[0], -1)
    if flat.shape[1] != input_dim:
        raise ShapeError(
            f"encoder input flattens to {flat.shape[1]}, expected {input_dim}")
    return Tensor(flat)


def encode(params: dict[str, Tensor], x,
           float32_gemm: bool = False) -> Tensor:
    """Forward pass through the MLP encoder; returns (B, embed_dim).
    ``float32_gemm`` is each ``matmul``'s."""
    n_layers = _num_encoder_layers(params)
    if n_layers == 0 or "enc_out.w" not in params:
        raise KeyError("params dict is missing encoder layers")
    h = _as_batch_tensor(x, params["enc0.w"].data.shape[0])
    for i in range(n_layers):
        h = relu(add(matmul(h, params[f"enc{i}.w"], float32_gemm=float32_gemm),
                     params[f"enc{i}.b"]))
    return add(matmul(h, params["enc_out.w"], float32_gemm=float32_gemm),
               params["enc_out.b"])


def gaussian_head(params: dict[str, Tensor], h: Tensor) -> GaussianParams:
    """Map embeddings to per-sample Gaussian moments.

    A shared relu layer feeds two parallel affine maps; logvar is clamped
    to [-10, 10] to keep exp() in a sane range either direction.
    """
    hidden = relu(add(matmul(h, params["head_hidden.w"]),
                      params["head_hidden.b"]))
    mu = add(matmul(hidden, params["head_mu.w"]), params["head_mu.b"])
    logvar = clamp(add(matmul(hidden, params["head_logvar.w"]),
                       params["head_logvar.b"]), LOGVAR_MIN, LOGVAR_MAX)
    return GaussianParams(mu=mu, logvar=logvar)


def reparameterize(g: GaussianParams, xi, mode: str = "std") -> Tensor:
    """Draw z = mu + scale * xi with gradients flowing to mu and logvar only.

    mode "std" uses scale = exp(0.5 * logvar), the standard deviation.
    mode "literal" uses scale = exp(logvar) instead, treating the logvar
    output channel as a log standard deviation.
    """
    if mode not in ("std", "literal"):
        raise ValueError(f"unknown reparameterization mode {mode!r}")
    if isinstance(xi, Tensor):
        xi_t = xi
    else:
        xi_t = Tensor(np.asarray(xi, dtype=g.mu.data.dtype),
                      dtype=g.mu.data.dtype)
    if xi_t.data.shape != g.mu.data.shape:
        raise ShapeError(
            f"noise shape {xi_t.data.shape} does not match moments "
            f"{g.mu.data.shape}")
    if mode == "std":
        scale_t = exp(scale(g.logvar, 0.5))
    else:
        scale_t = exp(g.logvar)
    return add(g.mu, mul(scale_t, xi_t))
