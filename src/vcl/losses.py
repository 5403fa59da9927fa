"""Loss terms for robust variational contrastive learning.

The contrastive term replaces cosine similarity with a bounded
similarity derived from the beta divergence between Gaussians centered
at the two embeddings. For squared distance d between embeddings and a
fixed bandwidth sigma0,

    beta_dist(d) = -((beta + 1) / beta) * ((2 pi sigma0^2)^(-beta/2)
                                           * exp(-beta d / (2 sigma0^2)) - 1)

which is a dissimilarity: it grows with d but saturates at
(beta + 1) / beta, so a far-away (likely outlier) negative stops pushing
once it has left the neighborhood. As beta -> 0 it converges, up to an
additive constant, to the unbounded quantity d / (2 sigma0^2)
+ 0.5 log(2 pi sigma0^2), recovering the usual log-density geometry.

Inside the softmax the similarity enters negated by default (larger
means closer, matching the cosine convention); ``sign_mode="literal"``
keeps the raw dissimilarity sign for side-by-side comparison.

Two regularizers act on the Gaussian head outputs: ``dist_similarity``
pulls the paired-view distributions together (a symmetrized divergence
through the mixture midpoint), and ``dist_normalizing`` is the KL to a
standard normal, keeping the latent space from collapsing or drifting.

Everything that participates in training returns autograd Tensors;
the scalar reference ``beta_dist_at`` computes in float64 and returns a
plain float.

On the tape the beta contrastive loss is one node over the embeddings,
from them to the mean cross-entropy, with a hand-written backward that
ends in ``kernels.pairwise_sqdist_vjp``; the cosine loss is one such
node over its Gram matrix. Each performs the float operations of the
chain of elementary ops it replaced, in the same order, so losses and
gradients are the same to the bit. The beta node keeps two (2N)^2
arrays for its backward, and builds the cotangent in one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vcl import kernels
from vcl.autograd import (DomainError, ShapeError, Tensor, add, div, exp,
                          gather_rows, log, matmul, mul, pow_scalar, record,
                          reshape, scale, sub, tmean, transpose, tsum)
from vcl.model import GaussianParams

SIGN_MODES = ("negated", "literal")


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.07
    beta: float = 0.005
    sigma0: float = 0.5
    lambda_dist: float = 1.0
    lambda_norm: float = 1.0
    sign_mode: str = "negated"
    normalize_z: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.sigma0 <= 0:
            raise ValueError(f"sigma0 must be > 0, got {self.sigma0}")
        if self.lambda_dist < 0 or self.lambda_norm < 0:
            raise ValueError("loss weights must be >= 0")
        if self.sign_mode not in SIGN_MODES:
            raise ValueError(f"sign_mode must be one of {SIGN_MODES}, "
                             f"got {self.sign_mode!r}")


@dataclass(frozen=True)
class LossBreakdown:
    l_beta: float
    l_dist: float
    l_norm: float
    total: float


# ---------------------------------------------------------------------------
# scalar reference form (float64, no tape)

def beta_dist_at(d: float, cfg: LossConfig) -> float:
    """Beta dissimilarity as a function of squared distance d.

    Uses expm1 so the tiny-beta regime keeps full relative precision:
    the bracket is exp(u) - 1 with u = -(beta/2) log(2 pi sigma0^2)
    - beta d / (2 sigma0^2), which underflows to 0 - 1e-3 territory for
    beta near 1e-6 and would lose digits to cancellation otherwise.
    """
    if d < 0:
        raise DomainError(f"squared distance must be >= 0, got {d}")
    b = float(cfg.beta)
    s2 = float(cfg.sigma0) ** 2
    u = -(b / 2.0) * math.log(2.0 * math.pi * s2) - b * d / (2.0 * s2)
    return -((b + 1.0) / b) * math.expm1(u)


# ---------------------------------------------------------------------------
# differentiable batch path

def pairwise_sq_distances(z: Tensor) -> Tensor:
    """Matrix of squared euclidean distances between rows, on the tape.

    Forward and backward are ``kernels.pairwise_sqdist`` and its VJP.
    """
    if z.data.ndim != 2:
        raise ShapeError(f"expected (n, d) embeddings, got {z.data.shape}")
    return record(kernels.pairwise_sqdist(z.data), (z,),
                  lambda g: kernels.pairwise_sqdist_vjp(z.data, g))


def _validate_partner(partner, z: Tensor) -> np.ndarray:
    """partner as int64, checked against the 2N >= 4 views stacked in z."""
    if z.data.ndim != 2 or z.data.shape[0] < 4:
        raise ShapeError(
            f"need at least 4 stacked views of shape (2N, d), got {z.data.shape}")
    n = z.data.shape[0]
    p = np.asarray(partner, dtype=np.int64)
    if p.shape != (n,):
        raise ShapeError(f"partner must have shape ({n},), got {p.shape}")
    if p.size and (p.min() < 0 or p.max() >= n):
        raise ValueError("partner indices out of range")
    idx = np.arange(n)
    if (p == idx).any():
        raise ValueError("partner map has fixed points")
    if not (p[p] == idx).all():
        raise ValueError("partner map is not an involution")
    return p


def l2_normalize_rows(z: Tensor) -> Tensor:
    """Rows scaled to unit euclidean norm; zero rows are an error."""
    sumsq = tsum(mul(z, z), axis=1)
    if (sumsq.data == 0).any():
        raise DomainError("cannot normalize a zero embedding")
    norms = pow_scalar(sumsq, 0.5)
    return mul(z, pow_scalar(reshape(norms, (z.data.shape[0], 1)), -1.0))


def _nt_xent_node(src: Tensor, logits: np.ndarray, partner: np.ndarray,
                  factors: tuple, pullback=None) -> Tensor:
    """Contrastive cross-entropy over ``logits`` as one tape node over src.

    ``logits`` is a fresh (n, n) array computed elementwise from a
    similarity matrix of ``src.data``; it is used as a buffer, by the
    forward pass and then by the backward, which builds the cotangent in
    it (a backward pass consumes its tape, so nothing reads it after).
    ``factors`` are the elementwise derivatives d logits / d similarity,
    scalars or (n, n) arrays, multiplied into the cotangent in order;
    ``pullback`` maps that cotangent to src's, and is the identity when
    src is the similarity matrix itself. Each anchor row's maximum
    (diagonal excluded) is subtracted before exponentiation; that shift
    cancels exactly in the log-sum-exp. The diagonal is removed by adding
    -inf before exp, so a NaN there still poisons the loss.

    Forward and backward do the float operations, in the same order, of
    the chain of elementary tape ops this node replaces (kept in
    tests/test_losses.py), so loss and gradient are the same to the bit;
    the backward skips the gradients of the constants (row maxima,
    diagonal gate, positive mask).
    """
    n = logits.shape[0]
    rows = np.arange(n)
    pos = logits[rows, partner]
    logits.flat[::n + 1] -= np.inf
    row_max = logits.max(axis=1)
    e = np.exp(np.subtract(logits, row_max[:, None], out=logits), out=logits)
    denom = np.sum(e, axis=1, dtype=np.float64).astype(e.dtype)
    per_row = np.log(denom) + row_max - pos
    loss = np.asarray(np.mean(per_row, dtype=np.float64)).astype(e.dtype)

    def vjp(grad):
        g_row = np.broadcast_to(grad, (n,)) / n
        g = np.multiply(e, (g_row / denom)[:, None], out=e)
        g[rows, partner] -= g_row
        for f in factors:
            g *= f
        return g if pullback is None else pullback(g)
    return record(loss, (src,), vjp)


def beta_nt_xent(z: Tensor, partner, cfg: LossConfig) -> Tensor:
    """Contrastive loss over beta dissimilarities of all view pairs.

    z stacks 2N views row-wise; partner[i] is the index of the other
    view of the same sample. Returns the mean over all 2N anchor rows.
    The tape holds one node over z (over its row-normalized copy with
    ``normalize_z``): the squared distances become the expm1 term in
    their own buffer, and the node's backward ends in the distances' VJP.
    """
    p = _validate_partner(partner, z)
    if cfg.normalize_z:
        z = l2_normalize_rows(z)
    b = float(cfg.beta)
    s2 = float(cfg.sigma0) ** 2
    slope = -b / (2.0 * s2)
    # the similarity is -beta_dist by default: fold the sign into the
    # bound (b + 1) / b, which leaves every rounding as it was
    bound = (b + 1.0) / b if cfg.sign_mode == "negated" else -(b + 1.0) / b
    inv_tau = 1.0 / float(cfg.tau)
    em1 = kernels.pairwise_sqdist(z.data)
    em1 *= slope
    em1 += np.asarray(-(b / 2.0) * math.log(2.0 * math.pi * s2),
                      dtype=z.data.dtype)
    np.expm1(em1, out=em1)
    logits = em1 * bound
    logits *= inv_tau
    em1 += 1.0  # d expm1(u) / du
    return _nt_xent_node(z, logits, p, (inv_tau, bound, em1, slope),
                         lambda g: kernels.pairwise_sqdist_vjp(z.data, g))


def nt_xent_cosine(z: Tensor, partner, tau: float) -> Tensor:
    """Plain NT-Xent on cosine similarities, the unbounded baseline."""
    p = _validate_partner(partner, z)
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    zn = l2_normalize_rows(z)
    sims = matmul(zn, transpose(zn))
    inv_tau = 1.0 / float(tau)
    return _nt_xent_node(sims, sims.data * inv_tau, p, (inv_tau,))


def dist_normalizing(g: GaussianParams) -> Tensor:
    """Mean KL from each head Gaussian to the standard normal.

    Per dimension this is -(1 + logvar - exp(logvar) - mu^2) / 2, summed
    over latent dimensions and averaged over the batch.
    """
    lv = g.logvar
    inner = sub(sub(add(lv, 1.0), exp(lv)), mul(g.mu, g.mu))
    return tmean(scale(tsum(inner, axis=1), -0.5))


def dist_similarity(g_i: GaussianParams, g_j: GaussianParams) -> Tensor:
    """Symmetric divergence between paired view distributions.

    Both directions are measured against the midpoint Gaussian with
    sigma_m = (sigma_i + sigma_j) / 2 and mu_m = (mu_i + mu_j) / 2:

        0.5 * sum_d [ log(sigma_m / sigma_i) + log(sigma_m / sigma_j)
                      + ((mu_i - mu_m)^2 + (mu_j - mu_m)^2) / (2 sigma_m^2) ]

    averaged over the batch. Zero iff the paired moments coincide. The
    variance-ratio terms that a full KL would add are left out.
    """
    if g_i.mu.data.shape != g_j.mu.data.shape:
        raise ShapeError(
            f"paired moment shapes differ: {g_i.mu.data.shape} vs "
            f"{g_j.mu.data.shape}")
    si = exp(scale(g_i.logvar, 0.5))
    sj = exp(scale(g_j.logvar, 0.5))
    sm = mul(add(si, sj), 0.5)
    mm = mul(add(g_i.mu, g_j.mu), 0.5)
    log_sm = log(sm)
    log_terms = sub(sub(scale(log_sm, 2.0), scale(g_i.logvar, 0.5)),
                    scale(g_j.logvar, 0.5))
    di = sub(g_i.mu, mm)
    dj = sub(g_j.mu, mm)
    quad = div(add(mul(di, di), mul(dj, dj)), scale(mul(sm, sm), 2.0))
    per_dim = add(log_terms, quad)
    return tmean(scale(tsum(per_dim, axis=1), 0.5))


def total_loss(z: Tensor, g: GaussianParams, partner,
               cfg: LossConfig) -> tuple[Tensor, LossBreakdown]:
    """Contrastive term plus weighted distribution regularizers.

    Returns the scalar loss on the tape together with a detached
    per-term breakdown for logging; ``beta_nt_xent`` checks the partners.
    """
    if g.mu.data.shape[0] != z.data.shape[0]:
        raise ShapeError(
            f"head batch {g.mu.data.shape[0]} does not match embeddings "
            f"{z.data.shape[0]}")
    l_beta = beta_nt_xent(z, partner, cfg)
    g_partner = GaussianParams(mu=gather_rows(g.mu, partner),
                               logvar=gather_rows(g.logvar, partner))
    l_dist = dist_similarity(g, g_partner)
    l_norm = dist_normalizing(g)
    total = add(l_beta, add(scale(l_dist, cfg.lambda_dist),
                            scale(l_norm, cfg.lambda_norm)))
    detail = LossBreakdown(l_beta=float(l_beta.data),
                           l_dist=float(l_dist.data),
                           l_norm=float(l_norm.data),
                           total=float(total.data))
    return total, detail
