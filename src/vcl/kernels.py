"""Hot numeric kernels, in numpy.

The kernels of a training step: the pairwise squared-distance matrix
and its backward pass, the batched crop and resize of the view
augmentation, and the fused AdamW parameter update. Each accumulates in
float64 and returns the storage dtype.
"""

from __future__ import annotations

import functools

import numpy as np


# rows of the distance matrix computed per pass of pairwise_sqdist
SQDIST_BLOCK = 8


def pairwise_sqdist(z: np.ndarray) -> np.ndarray:
    """Full matrix of squared euclidean distances between rows of z.

    Each entry is ``einsum("k,k->", diff, diff)`` over the storage-dtype
    differences z_i - z_j cast to float64, as in the one-shot form over
    an (n, n, d) difference tensor. Rows are computed SQDIST_BLOCK at a
    time in reused buffers instead, so memory beyond the output is
    O(n d). Only columns j >= i are computed and then mirrored: z_j - z_i
    is exactly -(z_i - z_j), so both triangles hold the same bits. No
    entry depends on the block size.
    """
    if z.ndim != 2:
        raise ValueError(f"pairwise_sqdist needs (n, d) input, got {z.shape}")
    n, d = z.shape
    out = np.empty((n, n), dtype=z.dtype)
    rows = min(SQDIST_BLOCK, n)
    diff = np.empty(rows * n * d, dtype=z.dtype)
    diff64 = np.empty(diff.shape, dtype=np.float64)
    acc = np.empty(rows * n, dtype=np.float64)
    for i in range(0, n, SQDIST_BLOCK):
        b, m = min(SQDIST_BLOCK, n - i), n - i
        dv = diff[:b * m * d].reshape(b, m, d)
        np.subtract(z[i:i + b, None, :], z[None, i:, :], out=dv)
        dv64 = diff64[:b * m * d].reshape(b, m, d)
        dv64[...] = dv
        av = acc[:b * m].reshape(b, m)
        np.einsum("ijk,ijk->ij", dv64, dv64, out=av)
        out[i:i + b, i:] = av
        out[i:, i:i + b] = av.T
    return out


def pairwise_sqdist_vjp(z: np.ndarray, gout: np.ndarray) -> np.ndarray:
    """Backward of pairwise_sqdist: grad_z[i] = 2 sum_j (g[i,j] + g[j,i]) (z_i - z_j)."""
    if gout.shape != (z.shape[0], z.shape[0]):
        raise ValueError(
            f"vjp cotangent shape {gout.shape} does not match {z.shape[0]} rows")
    g = gout.astype(np.float64)
    z64 = z.astype(np.float64)
    gs = g + g.T
    row = gs.sum(axis=1)
    out = 2.0 * (row[:, None] * z64 - gs @ z64)
    return out.astype(z.dtype)


@functools.lru_cache(maxsize=16)
def _interp_table(out_n: int, n: int) -> np.ndarray:
    """Bilinear interpolation matrices for every window of a source axis
    of length n, indexed [size - 1, start] and each (out_n, n).

    Window [start, start + size) is sampled at half-pixel centres,
    clipped to the window. Entries with start + size > n are not used.
    The table holds n^3 * out_n doubles: 0.5 MB for a 16-pixel axis.
    """
    size, start = np.divmod(np.arange(n * n), n)
    size = size[:, None] + 1
    pos = np.clip((np.arange(out_n, dtype=np.float64) + 0.5) * (size / out_n)
                  - 0.5, 0.0, size - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    i1 = np.minimum(i0 + 1, size - 1)
    w1 = pos - i0
    cols = np.arange(n)
    lo = cols == (start[:, None] + i0)[..., None]
    hi = cols == (start[:, None] + i1)[..., None]
    table = ((1 - w1)[..., None] * lo + w1[..., None] * hi).reshape(
        n, n, out_n, n)
    table.flags.writeable = False
    return table


def crop_resize(src: np.ndarray, boxes: np.ndarray, out_h: int,
                out_w: int) -> np.ndarray:
    """Crop one window per image and resize it bilinearly, as a batch.

    ``src`` is (V, C, H, W); ``boxes`` holds one integer row
    (y0, x0, h, w) per image. Crop and resize together are the separable
    linear map out = Ry · src · Rxᵀ, with per-image interpolation
    matrices over the full source. The stacked matmul computes every
    image on its own, so a row's result does not depend on the batch.
    """
    if src.ndim != 4:
        raise ValueError(f"crop_resize needs (v, c, h, w) input, got {src.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output size {out_h}x{out_w} must be positive")
    boxes = np.asarray(boxes, dtype=np.int64)
    _, _, h, w = src.shape
    if boxes.shape != (src.shape[0], 4):
        raise ValueError(f"need one (y0, x0, h, w) box per image, got "
                         f"{boxes.shape} for {src.shape[0]} images")
    corner, size = boxes[:, :2], boxes[:, 2:]
    if (corner.min(initial=0) < 0 or size.min(initial=1) < 1
            or (corner + size > (h, w)).any()):
        raise ValueError(f"crop boxes must lie inside the {h}x{w} image")
    ry = _interp_table(int(out_h), h)[size[:, 0] - 1, corner[:, 0]]
    rx = _interp_table(int(out_w), w)[size[:, 1] - 1, corner[:, 1]]
    s = src.astype(np.float64)
    out = (ry[:, None] @ s) @ rx.transpose(0, 2, 1)[:, None]
    return out.astype(src.dtype)


def bilinear_resize(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a whole (C, H, W) image: crop_resize with one full window."""
    if src.ndim != 3:
        raise ValueError(f"bilinear_resize needs (c, h, w) input, got {src.shape}")
    _, h, w = src.shape
    return crop_resize(src[None], [[0, 0, h, w]], out_h, out_w)[0]


def adamw_update(p, g, m, v, t, lr, beta1, beta2, eps, wd):
    """One decoupled-weight-decay Adam step; returns (p2, m2, v2) out of place."""
    if not (p.shape == g.shape == m.shape == v.shape):
        raise ValueError("adamw_update needs same-shape p, g, m, v")
    if t < 1:
        raise ValueError(f"step count must be >= 1, got {t}")
    p64 = p.astype(np.float64)
    g64 = g.astype(np.float64)
    m2 = beta1 * m.astype(np.float64) + (1.0 - beta1) * g64
    v2 = beta2 * v.astype(np.float64) + (1.0 - beta2) * g64 * g64
    mhat = m2 / (1.0 - beta1 ** t)
    vhat = v2 / (1.0 - beta2 ** t)
    p2 = p64 - lr * mhat / (np.sqrt(vhat) + eps) - lr * wd * p64
    return p2.astype(p.dtype), m2.astype(p.dtype), v2.astype(p.dtype)
