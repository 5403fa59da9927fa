"""Kernel stage: the four `vcl.kernels` entry points at the step's shapes.

Each kernel is called on inputs shaped like one pretrain step's: the
(2N, head_dim) latents for the pairwise distances and their backward,
a median-scale crop window resized to the crop output for the bilinear
resize, and every parameter tensor of the model for AdamW. Each output
is compared with a float64 oracle written here, independently of the
kernels module:

    kernel               oracle                        tolerance (max abs error)
    pairwise_sqdist      explicit row differences      1e-5 * max_i |z_i|^2
    pairwise_sqdist_vjp  2 sum_j gs_ij (z_i - z_j)      1e-5 * 2 max_i sum_j |gs_ij| * max|z|
    bilinear_resize      per-pixel loop                1e-6 (values lie in [0, 1])
    adamw_update         the update formula            1e-6 * max|ref| per output

where gs = g + g^T. The tolerances sit well above float32 rounding of
the results (and of a Gram-form distance in float32), and far below
any real defect.

Operation counts and bytes moved are computed from array sizes, not
measured: bytes are the operation's own inputs plus outputs at their
storage dtype, which is what an implementation must move at least.
"""

from __future__ import annotations

import math
import time

import numpy as np

from vcl import kernels

TOLERANCE = {
    "pairwise_sqdist": 1e-5,
    "pairwise_sqdist_vjp": 1e-5,
    "bilinear_resize": 1e-6,
    "adamw_update": 1e-6,
}

# rows of the explicit-difference oracles held at once, to bound memory
_CHUNK = 64

ADAMW = dict(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.01)


def sqdist_oracle(z: np.ndarray) -> np.ndarray:
    z64 = z.astype(np.float64)
    out = np.empty((z.shape[0], z.shape[0]))
    for lo in range(0, z.shape[0], _CHUNK):
        diff = z64[lo:lo + _CHUNK, None, :] - z64[None, :, :]
        out[lo:lo + _CHUNK] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def sqdist_vjp_oracle(z: np.ndarray, g: np.ndarray) -> np.ndarray:
    z64 = z.astype(np.float64)
    gs = g.astype(np.float64) + g.astype(np.float64).T
    out = np.empty(z.shape)
    for lo in range(0, z.shape[0], _CHUNK):
        diff = z64[lo:lo + _CHUNK, None, :] - z64[None, :, :]
        out[lo:lo + _CHUNK] = 2.0 * np.einsum("ij,ijk->ik",
                                              gs[lo:lo + _CHUNK], diff)
    return out


def bilinear_oracle(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-centre bilinear resize, sample positions clipped to the
    image, one output pixel at a time."""
    c, h, w = src.shape
    s = src.astype(np.float64)
    out = np.empty((c, out_h, out_w))
    for oy in range(out_h):
        y = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = math.floor(y)
        y1 = min(y0 + 1, h - 1)
        for ox in range(out_w):
            x = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = math.floor(x)
            x1 = min(x0 + 1, w - 1)
            wy, wx = y - y0, x - x0
            out[:, oy, ox] = ((1 - wy) * ((1 - wx) * s[:, y0, x0]
                                          + wx * s[:, y0, x1])
                              + wy * ((1 - wx) * s[:, y1, x0]
                                      + wx * s[:, y1, x1]))
    return out


def adamw_oracle(p, g, m, v, t, lr, beta1, beta2, eps, wd):
    p, g, m, v = (a.astype(np.float64) for a in (p, g, m, v))
    m2 = beta1 * m + (1 - beta1) * g
    v2 = beta2 * v + (1 - beta2) * g * g
    mhat = m2 / (1 - beta1 ** t)
    vhat = v2 / (1 - beta2 ** t)
    return p - lr * mhat / (np.sqrt(vhat) + eps) - lr * wd * p, m2, v2


def make_inputs(rng: np.random.Generator, views: int, head_dim: int,
                crop_side: int, crop_out: tuple, image: np.ndarray,
                param_shapes: list) -> dict:
    """Inputs at one step's shapes, drawn from ``rng``."""
    z = rng.standard_normal((views, head_dim)).astype(np.float32)
    gout = (rng.standard_normal((views, views)) / views).astype(np.float32)
    y0 = int(rng.integers(0, image.shape[1] - crop_side + 1))
    x0 = int(rng.integers(0, image.shape[2] - crop_side + 1))
    window = np.ascontiguousarray(
        image[:, y0:y0 + crop_side, x0:x0 + crop_side])
    adam = []
    for shape in param_shapes:
        p, g, m = (rng.standard_normal(shape).astype(np.float32) * k
                   for k in (0.05, 0.01, 0.001))
        v = np.abs(rng.standard_normal(shape)).astype(np.float32) * 1e-6
        adam.append((p, g, m, v))
    return {"z": z, "gout": gout, "window": window, "crop_out": crop_out,
            "adam": adam}


def _calls(inp: dict) -> dict:
    """kernel name -> (call running the kernel, check returning
    (max error, allowed error), computed flop, computed bytes)."""
    z, gout, window = inp["z"], inp["gout"], inp["window"]
    n, d = z.shape
    oh, ow = inp["crop_out"]
    c, h, w = window.shape
    adam = inp["adam"]
    size = sum(p.size for p, _, _, _ in adam)

    def check_sqdist(out):
        ref = sqdist_oracle(z)
        scale = float((z.astype(np.float64) ** 2).sum(axis=1).max())
        return _err(out, ref), TOLERANCE["pairwise_sqdist"] * scale

    def check_vjp(out):
        ref = sqdist_vjp_oracle(z, gout)
        gs = np.abs(gout.astype(np.float64) + gout.astype(np.float64).T)
        scale = 2.0 * float(gs.sum(axis=1).max()) * float(np.abs(z).max())
        return _err(out, ref), TOLERANCE["pairwise_sqdist_vjp"] * scale

    def check_resize(out):
        return _err(out, bilinear_oracle(window, oh, ow)), \
            TOLERANCE["bilinear_resize"]

    def run_adamw():
        return [kernels.adamw_update(p, g, m, v, 1, ADAMW["lr"],
                                     ADAMW["beta1"], ADAMW["beta2"],
                                     ADAMW["eps"], ADAMW["wd"])
                for p, g, m, v in adam]

    def check_adamw(outs):
        worst = 0.0
        for args, out in zip(adam, outs):
            refs = adamw_oracle(*args, 1, **ADAMW)
            for o, r in zip(out, refs):
                allowed = TOLERANCE["adamw_update"] * max(
                    float(np.abs(r).max()), 1e-30)
                worst = max(worst, _err(o, r) / allowed)
        return worst, 1.0

    return {
        "pairwise_sqdist": (lambda: kernels.pairwise_sqdist(z), check_sqdist,
                            3 * n * n * d, 4 * (n * d + n * n)),
        "pairwise_sqdist_vjp": (lambda: kernels.pairwise_sqdist_vjp(z, gout),
                                check_vjp,
                                2 * n * n * d + 3 * n * n + 3 * n * d,
                                4 * (2 * n * d + n * n)),
        "bilinear_resize": (lambda: kernels.bilinear_resize(window, oh, ow),
                            check_resize, 9 * c * oh * ow,
                            4 * (c * h * w + c * oh * ow)),
        "adamw_update": (run_adamw, check_adamw, 14 * size, 4 * 7 * size),
    }


def _err(out, ref) -> float:
    out = np.asarray(out, dtype=np.float64)
    if out.shape != ref.shape or not np.isfinite(out).all():
        return math.inf
    return float(np.abs(out - ref).max())


class KernelMismatch(Exception):
    """A kernel's output differs from its oracle beyond the tolerance."""


def verify(inp: dict, name: str) -> None:
    """Run kernel ``name`` once and compare it with its oracle."""
    call, compare, _, _ = _calls(inp)[name]
    err, allowed = compare(call())
    if not err <= allowed:
        raise KernelMismatch(
            f"{name}: max abs error {err:.3g} exceeds {allowed:.3g}")


def time_kernels(inp: dict) -> dict:
    """kernel name -> (median seconds per call, computed flop, computed bytes).

    Each kernel is called at least 3 times, then until 0.2 s have passed
    or 200 calls were made."""
    out = {}
    for name, (call, _, flop, nbytes) in _calls(inp).items():
        call()  # warm caches and allocator before timing
        times = []
        deadline = time.perf_counter() + 0.2
        while len(times) < 3 or (time.perf_counter() < deadline
                                 and len(times) < 200):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = (float(np.median(times)), flop, nbytes)
    return out
