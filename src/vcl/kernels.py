"""Hot numeric kernels, in numpy.

The kernels of a training step: the pairwise squared-distance matrix and
its backward pass, the batched crop and resize of the view augmentation,
the fused AdamW parameter update, and the seeding of one keyed random
stream per view or sample. The numeric kernels accumulate in float64 and
return the storage dtype; only AdamW with ``float32_update`` works in
float32, straight in its outputs. ``keyed_rngs`` runs numpy's
SeedSequence hash for a whole batch of keys at once; its generators are
the ones ``np.random.default_rng`` would build, draw for draw.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence


# rows of the distance matrix computed per pass of pairwise_sqdist
SQDIST_BLOCK = 8
# side of the square tiles in which pairwise_sqdist_vjp symmetrizes
SYM_TILE = 128
# entries per float64 pass of adamw_update, and its five buffers' bytes
ADAMW_BLOCK = 8192
ADAMW_SCRATCH = 5 * 8 * ADAMW_BLOCK


def pairwise_sqdist(z: np.ndarray) -> np.ndarray:
    """Full matrix of squared euclidean distances between rows of z.

    Each entry is ``einsum("k,k->", diff, diff)`` over the storage-dtype
    differences z_i - z_j cast to float64, as in the one-shot form over
    an (n, n, d) difference tensor. Rows are computed SQDIST_BLOCK at a
    time in reused buffers instead, so memory beyond the output is
    O(n d); each difference is taken in the storage dtype and written
    straight into the float64 buffer. Only columns j >= i are computed
    and then mirrored: z_j - z_i is exactly -(z_i - z_j), so both
    triangles hold the same bits. No entry depends on the block size.
    """
    if z.ndim != 2:
        raise ValueError(f"pairwise_sqdist needs (n, d) input, got {z.shape}")
    n, d = z.shape
    out = np.empty((n, n), dtype=z.dtype)
    rows = min(SQDIST_BLOCK, n)
    diff64 = np.empty(rows * n * d, dtype=np.float64)
    acc = np.empty(rows * n, dtype=np.float64)
    for i in range(0, n, SQDIST_BLOCK):
        b, m = min(SQDIST_BLOCK, n - i), n - i
        dv64 = diff64[:b * m * d].reshape(b, m, d)
        np.subtract(z[i:i + b, None, :], z[None, i:, :], out=dv64,
                    dtype=z.dtype)
        av = acc[:b * m].reshape(b, m)
        np.einsum("ijk,ijk->ij", dv64, dv64, out=av)
        out[i:i + b, i:] = av
        out[i:, i:i + b] = av.T
    return out


def pairwise_sqdist_vjp(z: np.ndarray, gout: np.ndarray) -> np.ndarray:
    """Backward of pairwise_sqdist: grad_z[i] = 2 sum_j (g[i,j] + g[j,i]) (z_i - z_j).

    The symmetric sum g + g.T is built in float64 one band of SYM_TILE
    rows at a time, from SYM_TILE square tiles, and each band's row sums
    and product with z finish its rows of the result before the next
    band is built: the scratch is one (SYM_TILE, n) band, not (n, n).
    Each entry is the one addition of the whole-matrix form it replaced,
    with the operands in its order: g[i,j] + g[j,i] in the tiles on and
    above the diagonal, g[j,i] + g[i,j] in those below.
    """
    n = z.shape[0]
    if gout.shape != (n, n):
        raise ValueError(
            f"vjp cotangent shape {gout.shape} does not match {n} rows")
    z64 = z.astype(np.float64)
    out = np.empty(z.shape, dtype=z.dtype)
    band = np.empty((min(SYM_TILE, n), n), dtype=np.float64)
    for i in range(0, n, SYM_TILE):
        rows = slice(i, i + SYM_TILE)
        gs = band[:min(SYM_TILE, n - i)]
        for j in range(0, n, SYM_TILE):
            cols = slice(j, j + SYM_TILE)
            first, second = gout[rows, cols], gout[cols, rows].T
            if j < i:
                first, second = second, first
            np.add(first, second, out=gs[:, cols], dtype=np.float64)
        row = gs.sum(axis=1)
        # a one-row product would go to gemv and sum in another order;
        # the whole band's product keeps the last band's rows in gemm's
        prod = (band @ z64)[:len(gs)]
        out[rows] = 2.0 * (row[:, None] * z64[rows] - prod)
    return out


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


def adamw_update(p, g, m, v, t, lr, beta1, beta2, eps, wd, out=None,
                 float32_update=False):
    """One decoupled-weight-decay Adam step; returns (p2, m2, v2).

    p2 = p - lr * mhat / (sqrt(vhat) + eps) - lr * wd * p, evaluated in
    float64 in that association, with m2 = beta1 m + (1 - beta1) g and
    v2 = beta2 v + ((1 - beta2) g) g, each rounded to p's dtype. With
    ``float32_update`` the same operations run in float32 on inputs and
    constants rounded to float32; p must then be float32, and eps must
    not round to 0, which would make a zero-gradient entry 0/0. With no
    ``out`` the results go to new arrays and the inputs are not
    modified. ``out`` may only be ``(p, m, v)`` themselves, C-ordered,
    writeable and of p's dtype, for an update in place. Arrays go in flat
    runs whose scratch fills ADAMW_SCRATCH bytes: ADAMW_BLOCK entries in
    five float64 buffers, or in two when p has the work dtype (40960 for
    float32). No bits depend on the run; no entry is read once written.
    """
    if not (p.shape == g.shape == m.shape == v.shape):
        raise ValueError("adamw_update needs same-shape p, g, m, v")
    if t < 1:
        raise ValueError(f"step count must be >= 1, got {t}")
    if float32_update and p.dtype != np.float32:
        raise ValueError(f"a float32 update needs float32 p, got {p.dtype}")
    if float32_update and np.float32(eps) == 0:
        raise ValueError(f"eps {eps} rounds to 0 in float32")
    work = np.float32 if float32_update else np.float64
    if out is None:
        out = tuple(np.empty(p.shape, dtype=p.dtype) for _ in range(3))
    elif not (len(out) == 3 and all(
            o is a and a.dtype == p.dtype and a.flags.c_contiguous
            and a.flags.writeable for o, a in zip(out, (p, m, v)))):
        raise ValueError("adamw_update's out must be None or (p, m, v) "
                         "themselves, C-ordered, writeable and of p's dtype")
    block = ADAMW_SCRATCH // (work().itemsize * (2 if p.dtype == work else 5))
    if p.size <= block:
        _adamw_block(p, g, m, v, out, t, lr, beta1, beta2, eps, wd, work)
        return out
    flat = [a.reshape(-1) for a in (p, g, m, v, *out)]
    for i in range(0, p.size, block):
        blk = [a[i:i + block] for a in flat]
        _adamw_block(*blk[:4], blk[4:], t, lr, beta1, beta2, eps, wd, work)
    return out


def _adamw_block(p, g, m, v, out, t, lr, beta1, beta2, eps, wd,
                 work) -> None:
    """adamw_update on one run of entries, in dtype ``work``, which the
    Python-float constants take. If p has that dtype, m2, v2 and p2 are
    computed in ``out``, with two scratch buffers (gw, tmp); else in five
    new ones, with copies of g and p, and rounded into ``out`` at the end."""
    direct = p.dtype == work
    p2, m2, v2 = out if direct else (None, None, None)
    gin = g.astype(work, copy=not direct)
    gw = np.empty(p.shape, work) if direct else gin
    tmp = np.multiply(gin, 1.0 - beta1)
    m2 = np.multiply(m, beta1, out=m2, dtype=work)
    m2 += tmp
    np.multiply(gin, 1.0 - beta2, out=tmp)
    tmp *= gin
    v2 = np.multiply(v, beta2, out=v2, dtype=work)
    v2 += tmp
    # tmp = sqrt(vhat) + eps; gw = lr * mhat / tmp
    np.divide(v2, 1.0 - beta2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    np.divide(m2, 1.0 - beta1 ** t, out=gw)
    gw *= lr
    gw /= tmp
    if not direct:
        p2 = p = p.astype(work)
    np.multiply(p, lr * wd, out=tmp)
    np.subtract(p, gw, out=p2)
    p2 -= tmp
    if not direct:
        for o, r in zip(out, (p2, m2, v2)):
            o[...] = r


# constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_POOL_SIZE = 4


class _SeedWords(ISeedSequence):
    """Hands PCG64 its four precomputed uint64 seed words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _uint32_words(key) -> list[int]:
    """Each non-negative int split into little-endian 32-bit words, as
    SeedSequence splits its entropy (0 is one word)."""
    words = []
    for k in key:
        k = int(k)
        if k < 0:
            raise ValueError(f"key entries must be non-negative, got {k}")
        words.append(k & _MASK32)
        while k > _MASK32:
            k >>= 32
            words.append(k & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays: each call xors in a
    running constant, steps the constant by mult and multiplies by it."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> np.uint32(16))


def keyed_rngs(key, indices) -> list[np.random.Generator]:
    """One Generator per index, each equal draw for draw to
    ``np.random.default_rng(list(key) + [i])``.

    The SeedSequence entropy mixing and ``generate_state(4, uint64)`` run
    once for all indices, in uint32 array arithmetic with numpy's
    constants and loop order. Each row's four seed words then go to
    numpy's own PCG64 seeding. Every index must lie in [0, 2**32), so
    that it is exactly one entropy word.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ValueError(f"indices must be 1-d, got shape {idx.shape}")
    if idx.size == 0:
        return []
    if (idx.dtype.kind not in "iu" or idx.min() < 0
            or idx.max() > _MASK32):
        raise ValueError("indices must be integers in [0, 2**32)")
    n = idx.size
    entropy = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(key)]
    entropy.append(idx.astype(np.uint32))

    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(entropy[i_src]))

    # generate_state: eight uint32 words cycling over the pool, read as
    # four little-endian uint64
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE])
                      for i in range(2 * _POOL_SIZE)], axis=1)
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row)))
            for row in seeds]
