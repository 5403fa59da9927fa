"""Stochastic two-view augmentation for contrastive pretraining.

Images are float32 channel-first (3, H, W) arrays with values in [0, 1];
every stage clamps back into that range on the way out. A view is built
by the fixed chain crop -> horizontal flip -> grayscale -> color jitter,
each stage applied with its configured probability, as in SimCLR (Chen
et al. 2020).

A view is pinned by ten parameters (see PARAMS), drawn in a fixed order
regardless of which stages end up applied: coins and factors are always
consumed. One generator draws both views of a pair with a single call.
``augment_views`` applies the chain to a whole stack of views at once,
with per-view masks and factors, and computes each view independently
of the others, so a view does not depend on the batch it is built in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vcl import kernels

_LUMA = (0.299, 0.587, 0.114)

# columns of a view's parameter row, in draw order; flip, gray and jit
# are uniform coins compared with their probabilities
PARAMS = ("scale", "cy", "cx", "flip", "gray", "jit", "brightness",
          "contrast", "saturation", "hue")


@dataclass(frozen=True)
class AugmentConfig:
    crop_scale: tuple = (0.2, 1.0)
    crop_out: tuple = (16, 16)
    flip_prob: float = 0.5
    grayscale_prob: float = 0.2
    jitter_prob: float = 0.8
    brightness: tuple = (0.6, 1.4)
    contrast: tuple = (0.6, 1.4)
    saturation: tuple = (0.6, 1.4)
    hue: tuple = (0.9, 1.1)

    def __post_init__(self):
        lo, hi = self.crop_scale
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"crop_scale must satisfy 0 < lo <= hi <= 1, "
                             f"got {self.crop_scale}")
        if len(self.crop_out) != 2 or any(d < 1 for d in self.crop_out):
            raise ValueError(f"bad crop_out {self.crop_out}")
        for name in ("flip_prob", "grayscale_prob", "jitter_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        for name in ("brightness", "contrast", "saturation", "hue"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo <= hi):
                raise ValueError(f"{name} range must satisfy 0 < lo <= hi, "
                                 f"got {getattr(self, name)}")


def check_images(x: np.ndarray, cfg: AugmentConfig) -> None:
    """Raise ValueError unless x stacks (3, H, W) images with values in
    [0, 1] and H, W at least the crop output size."""
    if x.ndim != 4 or x.shape[1] != 3:
        raise ValueError(f"augmentation needs (3, H, W) images, "
                         f"got {x.shape[1:]}")
    if x.shape[2] < cfg.crop_out[0] or x.shape[3] < cfg.crop_out[1]:
        raise ValueError(
            f"image {x.shape[1:]} smaller than crop output {cfg.crop_out}")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")


def draw_params(cfg: AugmentConfig, rngs) -> np.ndarray:
    """Parameters of two views per generator, one row per view in PARAMS
    order. Each generator draws twenty unit doubles, and all rows are
    scaled at once as low + (high - low) * u, the formula numpy's
    ``uniform`` applies, so every row equals twenty scalar
    ``uniform(low, high)`` draws in the same order."""
    bounds = np.array([cfg.crop_scale] + [(0.0, 1.0)] * 5
                      + [cfg.brightness, cfg.contrast, cfg.saturation,
                         cfg.hue], dtype=np.float64)
    low, high = np.tile(bounds, (2, 1)).T
    u = np.stack([rng.random(low.size) for rng in rngs])
    return (low + (high - low) * u).reshape(-1, len(PARAMS))


def _luma(y: np.ndarray) -> np.ndarray:
    r, g, b = _LUMA
    return r * y[:, 0] + g * y[:, 1] + b * y[:, 2]


def _clip01(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 1.0)


def _stage(y: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Views under mask take the clipped stage output; the rest keep y."""
    return np.where(mask[:, None, None, None], _clip01(out), y)


def augment_views(src: np.ndarray, params: np.ndarray,
                  cfg: AugmentConfig) -> np.ndarray:
    """Apply the view chain to a stack of images, one parameter row each.

    ``src`` is (V, 3, H, W), already checked by check_images; ``params``
    is (V, 10) in PARAMS order. The crop takes a window of scale times
    the image area, side round(dim * sqrt(scale)) and at least 1, placed
    by the fractional offsets cy and cx. Jitter applies brightness,
    contrast, saturation, then hue; all four are multiplicative around
    1.0, and a factor of exactly 1.0 skips its stage. Hue blends toward
    the image with channels cyclically rolled, direction given by the
    sign of hue - 1 and blend weight by its magnitude.
    """
    src = np.asarray(src, dtype=np.float32)
    hw = np.array(src.shape[2:])
    sides = np.maximum(1, np.rint(np.sqrt(params[:, :1]) * hw)).astype(int)
    corners = np.rint(params[:, 1:3] * (hw - sides)).astype(int)
    y = _clip01(kernels.crop_resize(src, np.hstack([corners, sides]),
                                    *cfg.crop_out))
    flip, gray, jit = (params[:, 3:6] < (cfg.flip_prob, cfg.grayscale_prob,
                                         cfg.jitter_prob)).T
    y = np.where(flip[:, None, None, None], y[..., ::-1], y)
    y = _stage(y, gray, _luma(y)[:, None])

    bright, contrast, sat, hue = (jit[:, None] & (params[:, 6:] != 1.0)).T
    f = params[:, 6:].astype(np.float32)[..., None, None, None]
    y = _stage(y, bright, y * f[:, 0])
    # the per-sample chain this replaced summed an unflipped view's luma
    # column by column, as its resize laid it out; keeping that order
    # keeps every view, and so every training run, the same bit for bit
    lum = _luma(y)
    m = np.where(flip, lum.mean(axis=(1, 2)),
                 lum.transpose(0, 2, 1).copy().mean(axis=(1, 2)))
    m = m[:, None, None, None]
    y = _stage(y, contrast, (y - m) * f[:, 1] + m)
    g = _luma(y)[:, None]
    y = _stage(y, sat, g + (y - g) * f[:, 2])
    t = params[:, 9, None, None, None] - 1.0
    a = np.minimum(1.0, np.abs(t))
    rolled = np.where(t > 0, y[:, [2, 0, 1]], y[:, [1, 2, 0]])
    y = _stage(y, hue, (1.0 - a).astype(np.float32) * y
               + a.astype(np.float32) * rolled)
    return y


def make_view_pair(x: np.ndarray, cfg: AugmentConfig,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two independently augmented views of one image.

    The image must be (3, H, W) float in [0, 1] with H, W at least the
    crop output size. The pair goes through the batched chain as a batch
    of two, so it equals the rows ``datasets.batches`` builds from the
    same generator.
    """
    src = np.asarray(x, dtype=np.float32)[None]
    check_images(src, cfg)
    views = augment_views(np.repeat(src, 2, axis=0), draw_params(cfg, [rng]),
                          cfg)
    return views[0], views[1]
