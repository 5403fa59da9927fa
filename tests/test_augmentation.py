"""View-pair augmentation pipeline, checked against a per-sample oracle."""

import math

import numpy as np
import pytest

from vcl.augmentation import (PARAMS, AugmentConfig, draw_params,
                              make_view_pair)
from vcl.datasets import GenConfig, batches, generate_synthetic

IDENTITY = AugmentConfig(crop_scale=(1.0, 1.0), flip_prob=0.0,
                         grayscale_prob=0.0, jitter_prob=0.0)
ALWAYS = AugmentConfig(flip_prob=1.0, grayscale_prob=1.0, jitter_prob=1.0)
SMALLEST_CROP = AugmentConfig(crop_scale=(1e-3, 1e-3))

# ---------------------------------------------------------------------------
# oracle: the chain one view at a time, one stage call per transform


def _luma(img):
    return 0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]


def _clip01(x):
    return np.clip(x, 0.0, 1.0)


def _crop_resize(x, scale, cy, cx, out_hw):
    _, h, w = x.shape
    side = math.sqrt(scale)
    ch = max(1, round(h * side))
    cw = max(1, round(w * side))
    y0 = round(cy * (h - ch))
    x0 = round(cx * (w - cw))
    window = x[:, y0:y0 + ch, x0:x0 + cw]
    return _clip01(_bilinear_resize(window, *out_hw))


def _bilinear_resize(src, out_h, out_w):
    """Gather form: blend the two neighbouring source pixels per axis."""
    _, h, w = src.shape
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    s = src.astype(np.float64)
    top = s[:, y0][:, :, x0] * (1 - wx) + s[:, y0][:, :, x1] * wx
    bot = s[:, y1][:, :, x0] * (1 - wx) + s[:, y1][:, :, x1] * wx
    return (top * (1 - wy) + bot * wy).astype(src.dtype)


def _hflip(x):
    return np.ascontiguousarray(x[:, :, ::-1])


def _grayscale(x):
    return _clip01(np.broadcast_to(_luma(x), x.shape).astype(x.dtype))


def _jitter(x, brightness, contrast, saturation, hue):
    y = x
    if brightness != 1.0:
        y = _clip01(y * brightness)
    if contrast != 1.0:
        m = _luma(y).mean()
        y = _clip01((y - m) * contrast + m)
    if saturation != 1.0:
        g = _luma(y)[None]
        y = _clip01(g + (y - g) * saturation)
    if hue != 1.0:
        t = hue - 1.0
        a = min(1.0, abs(t))
        rolled = np.roll(y, 1 if t > 0 else -1, axis=0)
        y = _clip01((1.0 - a) * y + a * rolled)
    return np.ascontiguousarray(y, dtype=x.dtype)


def _draw_params(cfg, rng):
    """One view's draws as ten scalar calls, in the fixed order."""
    lo, hi = cfg.crop_scale
    return {
        "scale": float(rng.uniform(lo, hi)),
        "cy": float(rng.uniform()),
        "cx": float(rng.uniform()),
        "flip": bool(rng.uniform() < cfg.flip_prob),
        "gray": bool(rng.uniform() < cfg.grayscale_prob),
        "jit": bool(rng.uniform() < cfg.jitter_prob),
        "brightness": float(rng.uniform(*cfg.brightness)),
        "contrast": float(rng.uniform(*cfg.contrast)),
        "saturation": float(rng.uniform(*cfg.saturation)),
        "hue": float(rng.uniform(*cfg.hue)),
    }


def _oracle_view(x, cfg, d):
    y = _crop_resize(x, d["scale"], d["cy"], d["cx"], cfg.crop_out)
    if d["flip"]:
        y = _hflip(y)
    if d["gray"]:
        y = _grayscale(y)
    if d["jit"]:
        y = _jitter(y, d["brightness"], d["contrast"], d["saturation"],
                    d["hue"])
    return y


def _oracle_pair(x, cfg, rng):
    return (_oracle_view(x, cfg, _draw_params(cfg, rng)),
            _oracle_view(x, cfg, _draw_params(cfg, rng)))


# ---------------------------------------------------------------------------


def _img(seed, h=16, w=16):
    return np.random.default_rng(seed).uniform(0, 1, (3, h, w)).astype(
        np.float32)


def _dataset(m=64):
    return generate_synthetic(GenConfig(m=m, seed=3))


def test_identity_config_reproduces_input():
    x = _img(0)
    v1, v2 = make_view_pair(x, IDENTITY, np.random.default_rng(1))
    assert np.array_equal(v1, x)
    assert np.array_equal(v2, x)


def test_view_pair_deterministic_and_independent():
    x = _img(2)
    cfg = AugmentConfig()
    a1, a2 = make_view_pair(x, cfg, np.random.default_rng(7))
    b1, b2 = make_view_pair(x, cfg, np.random.default_rng(7))
    assert np.array_equal(a1, b1)
    assert np.array_equal(a2, b2)
    # the two views of one call consume separate draws
    assert not np.array_equal(a1, a2)
    c1, _ = make_view_pair(x, cfg, np.random.default_rng(8))
    assert not np.array_equal(a1, c1)


def test_views_stay_in_range_and_shape():
    cfg = AugmentConfig()
    for seed in range(20):
        v1, v2 = make_view_pair(_img(seed + 10), cfg,
                                np.random.default_rng(seed))
        for v in (v1, v2):
            assert v.shape == (3, 16, 16)
            assert v.dtype == np.float32
            assert v.min() >= 0.0 and v.max() <= 1.0
            assert np.isfinite(v).all()


def test_drawn_parameters_equal_scalar_draws():
    for cfg in (AugmentConfig(), IDENTITY, ALWAYS, SMALLEST_CROP):
        for seed in range(50):
            rows = draw_params(cfg, [np.random.default_rng([seed, 1, 3])])
            rng = np.random.default_rng([seed, 1, 3])
            for row in rows:
                d = _draw_params(cfg, rng)
                p = dict(zip(PARAMS, row))
                for name in ("scale", "cy", "cx", "brightness", "contrast",
                             "saturation", "hue"):
                    assert p[name] == d[name], name
                assert (p["flip"] < cfg.flip_prob) == d["flip"]
                assert (p["gray"] < cfg.grayscale_prob) == d["gray"]
                assert (p["jit"] < cfg.jitter_prob) == d["jit"]


def _uniform_draw_params(cfg, rngs):
    """Each generator's pair as one uniform(low, high) call with array
    bounds, the form draw_params replaced."""
    bounds = np.array([cfg.crop_scale] + [(0.0, 1.0)] * 5
                      + [cfg.brightness, cfg.contrast, cfg.saturation,
                         cfg.hue], dtype=np.float64)
    low, high = np.tile(bounds, (2, 1)).T
    return np.stack([rng.uniform(low, high) for rng in rngs]).reshape(
        -1, len(PARAMS))


@pytest.mark.parametrize("n", [1, 128, 512])
def test_draw_params_is_bit_equal_to_per_stream_uniform(n):
    odd = AugmentConfig(crop_scale=(0.13, 0.97), brightness=(0.3, 2.7),
                        contrast=(1e-3, 1e3), saturation=(0.5, 0.5),
                        hue=(0.77, 1.31))
    for cfg in (AugmentConfig(), odd):
        for seed in range(5):
            rows, ref = (f(cfg, [np.random.default_rng([seed, 1, i])
                                 for i in range(n)])
                         for f in (draw_params, _uniform_draw_params))
            assert rows.shape == (2 * n, len(PARAMS))
            assert rows.tobytes() == ref.tobytes()


@pytest.mark.parametrize("cfg", [AugmentConfig(), IDENTITY, ALWAYS,
                                 SMALLEST_CROP],
                         ids=["default", "identity", "always", "min_crop"])
def test_batched_chain_matches_per_sample_oracle(cfg):
    ds = _dataset()
    for seed in range(4):
        for b in batches(ds, 16, cfg, epoch_seed=seed):
            for k, i in enumerate(b.source_indices):
                rng = np.random.default_rng([seed, 1, int(i)])
                o1, o2 = _oracle_pair(ds.inputs[i], cfg, rng)
                err = max(np.abs(b.views[2 * k] - o1).max(),
                          np.abs(b.views[2 * k + 1] - o2).max())
                assert err <= 1e-6, (seed, int(i), err)
                if cfg is IDENTITY:
                    assert np.array_equal(b.views[2 * k], ds.inputs[i])
                    assert np.array_equal(b.views[2 * k + 1], ds.inputs[i])


def test_make_view_pair_equals_batch_rows():
    ds = _dataset()
    for b in batches(ds, 32, AugmentConfig(), epoch_seed=11):
        for k, i in enumerate(b.source_indices):
            rng = np.random.default_rng([11, 1, int(i)])
            v1, v2 = make_view_pair(ds.inputs[i], AugmentConfig(), rng)
            assert np.array_equal(v1, b.views[2 * k])
            assert np.array_equal(v2, b.views[2 * k + 1])


@pytest.mark.parametrize("cfg", [AugmentConfig(), ALWAYS],
                         ids=["default", "always"])
def test_views_do_not_depend_on_batch_size(cfg):
    ds = _dataset(m=256)
    rows = {}
    for n in (2, 16, 128):
        for b in batches(ds, n, cfg, epoch_seed=5):
            for k, i in enumerate(b.source_indices):
                got = b.views[2 * k:2 * k + 2]
                if int(i) in rows:
                    assert np.array_equal(rows[int(i)], got), (n, int(i))
                rows[int(i)] = got
    assert len(rows) == 256


def test_input_validation():
    cfg = AugmentConfig()
    with pytest.raises(ValueError):
        make_view_pair(_img(8, h=8, w=8), cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        make_view_pair(_img(9) + 2.0, cfg, np.random.default_rng(0))
    for bad in (np.linspace(0.0, 1.0, 32), np.zeros((16, 16)),
                np.zeros((1, 16, 16))):
        with pytest.raises(ValueError):
            make_view_pair(bad, cfg, np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(crop_scale=(0.0, 1.0))
    with pytest.raises(ValueError):
        AugmentConfig(crop_scale=(0.8, 0.2))
    with pytest.raises(ValueError):
        AugmentConfig(flip_prob=1.5)
    with pytest.raises(ValueError):
        AugmentConfig(brightness=(1.4, 0.6))
    with pytest.raises(ValueError):
        AugmentConfig(crop_out=(0, 16))
