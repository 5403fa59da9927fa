"""Synthetic generator, outlier injection, batching, and the container."""

import math
import struct

import numpy as np
import pytest

from vcl.augmentation import AugmentConfig, augment_views, draw_params
from vcl.datasets import (MAGIC, VERSION, VIEW_BLOCK, DataFormatError,
                          GenConfig, LabeledDataset, batches, dataset_summary,
                          generate_synthetic, inject_outliers, load, save)

SMALL = GenConfig(m=64, seed=3)


def test_generator_deterministic_and_well_formed():
    a = generate_synthetic(SMALL)
    b = generate_synthetic(SMALL)
    c = generate_synthetic(GenConfig(m=64, seed=4))
    assert a == b
    assert a != c
    assert a.inputs.shape == (64, 3, 16, 16)
    assert a.inputs.dtype == np.float32
    assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0
    assert a.labels.shape == (64, 8)
    assert set(np.unique(a.labels)) <= {0, 1}
    assert not a.outlier_mask.any()


def test_generator_labels_are_roughly_balanced():
    ds = generate_synthetic(GenConfig(m=2000, seed=0))
    rates = ds.labels.mean(axis=0)
    assert (rates > 0.35).all() and (rates < 0.65).all()


def test_generator_images_carry_label_signal():
    # a linear readout of raw pixels must beat coin flipping
    ds = generate_synthetic(GenConfig(m=1500, seed=1))
    x = ds.inputs.reshape(len(ds), -1).astype(np.float64)
    x = np.hstack([x, np.ones((len(ds), 1))])
    tr, te = slice(0, 1200), slice(1200, 1500)
    correct = 0
    total = 0
    for a in range(4):
        y = ds.labels[:, a].astype(np.float64) * 2.0 - 1.0
        w, *_ = np.linalg.lstsq(x[tr], y[tr], rcond=None)
        pred = x[te] @ w > 0
        correct += (pred == (y[te] > 0)).sum()
        total += pred.size
    assert correct / total > 0.6


def test_latent_dim_extends_attributes():
    ds = generate_synthetic(GenConfig(m=32, attributes=4, latent_dim=9,
                                      seed=0))
    assert ds.labels.shape == (32, 4)
    with pytest.raises(ValueError):
        GenConfig(attributes=6, latent_dim=3)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(m=0)
    with pytest.raises(ValueError):
        GenConfig(seed=-1)
    with pytest.raises(ValueError):
        GenConfig(height=2)
    with pytest.raises(ValueError):
        GenConfig(noise_std=-0.1)
    with pytest.raises(ValueError):
        GenConfig(zoom_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        GenConfig(label_margin=-1.0)


def _generate_whole_array(cfg):
    """The generator as it was before its blocked form: float64 images
    rendered in blocks of up to 2^21 wave entries, then one noise draw
    over all of them, then clip and round."""
    rng = np.random.default_rng(cfg.seed)
    k, a = cfg.k, cfg.attributes
    h, w, c = cfg.height, cfg.width, 3
    freq = rng.uniform(cfg.freq_range[0], cfg.freq_range[1], size=k)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=k)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(k, c))
    amp = rng.uniform(0.6, 1.4, size=(k, c)) * rng.choice((-1.0, 1.0),
                                                          size=(k, c))
    yy, xx = np.meshgrid((np.arange(h) + 0.5) / h, (np.arange(w) + 0.5) / w,
                         indexing="ij")
    ramp0 = (np.cos(theta)[:, None, None] * xx[None]
             + np.sin(theta)[:, None, None] * yy[None])
    u = rng.standard_normal((cfg.m, k))
    labels = (u[:, :a] > 0).astype(np.uint8)
    u = u + cfg.label_margin * np.sign(u)
    zoom = rng.uniform(cfg.zoom_range[0], cfg.zoom_range[1], size=cfg.m)
    dyx = rng.uniform(-cfg.shift_max, cfg.shift_max, size=(cfg.m, 2))
    imgs = np.empty((cfg.m, c, h, w), dtype=np.float64)
    block = max(1, (1 << 21) // (k * c * h * w))
    tpf = 2.0 * math.pi * freq
    for lo in range(0, cfg.m, block):
        hi = min(lo + block, cfg.m)
        off = (np.cos(theta)[None, :] * dyx[lo:hi, 1:2]
               + np.sin(theta)[None, :] * dyx[lo:hi, 0:1])
        arg = (tpf[None, :, None, None] * zoom[lo:hi, None, None, None]
               * (ramp0[None] - off[:, :, None, None]))
        waves = np.sin(arg[:, :, None] + phase[None, :, :, None, None])
        waves *= amp[None, :, :, None, None]
        core = np.einsum("ik,ikchw->ichw", u[lo:hi], waves) / math.sqrt(k)
        imgs[lo:hi] = 1.0 / (1.0 + np.exp(-cfg.gain * core))
    if cfg.noise_std > 0:
        imgs = imgs + rng.normal(0.0, cfg.noise_std, size=imgs.shape)
    return np.clip(imgs, 0.0, 1.0).astype(np.float32), labels


@pytest.mark.parametrize("cfg", [
    GenConfig(), GenConfig(m=1, seed=2), GenConfig(m=23, seed=4),
    GenConfig(m=40, attributes=3, latent_dim=7, seed=5),
    GenConfig(m=30, height=9, width=11, seed=6),
    GenConfig(m=25, noise_std=0.0, seed=7)])
def test_blocked_generator_is_bit_equal_to_whole_array_form(cfg):
    # 23 rows end in a partial block of the default shape's 10-row blocks
    inputs, labels = _generate_whole_array(cfg)
    ds = generate_synthetic(cfg)
    assert ds.inputs.dtype == np.float32
    assert ds.inputs.tobytes() == inputs.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


def test_generator_scratch_is_bounded(traced_peak):
    ds, peak = traced_peak(lambda: generate_synthetic(GenConfig(m=2048)))
    assert peak <= ds.inputs.nbytes + 2 * 2**20


def test_inject_outliers_counts_and_modes():
    ds = generate_synthetic(GenConfig(m=100, seed=5))
    out = inject_outliers(ds, 0.3, seed=11, mode="full")
    assert out.outlier_mask.sum() == 30
    changed = (out.inputs != ds.inputs).any(axis=(1, 2, 3))
    assert (changed == out.outlier_mask).all()

    lab = inject_outliers(ds, 0.3, seed=11, mode="labels_only")
    assert np.array_equal(lab.inputs, ds.inputs)
    assert np.array_equal(lab.outlier_mask, out.outlier_mask)

    same = inject_outliers(ds, 0.3, seed=11, mode="full")
    assert out == same
    assert inject_outliers(ds, 0.0, seed=11).outlier_mask.sum() == 0
    with pytest.raises(ValueError):
        inject_outliers(ds, 1.0, seed=0)
    with pytest.raises(ValueError):
        inject_outliers(ds, 0.2, seed=0, mode="patch")


def test_batches_pairing_and_determinism():
    ds = generate_synthetic(SMALL)
    aug = AugmentConfig()
    got = list(batches(ds, 16, aug, epoch_seed=9))
    assert len(got) == 4
    b0 = got[0]
    assert b0.views.shape == (32, 3, 16, 16)
    assert b0.views.dtype == np.float32
    assert b0.source_indices.shape == (16,)
    idx = np.arange(32)
    assert (b0.partner[b0.partner] == idx).all()
    assert (b0.partner[0::2] == idx[1::2]).all()

    again = list(batches(ds, 16, aug, epoch_seed=9))
    for x, y in zip(got, again):
        assert np.array_equal(x.views, y.views)
        assert np.array_equal(x.source_indices, y.source_indices)
    other = next(iter(batches(ds, 16, aug, epoch_seed=10)))
    assert not np.array_equal(b0.views, other.views)


def test_batches_cover_dataset_without_short_batch():
    ds = generate_synthetic(GenConfig(m=50, seed=6))
    got = list(batches(ds, 16, AugmentConfig(), epoch_seed=0))
    assert len(got) == 3  # 50 // 16, remainder dropped
    seen = np.concatenate([b.source_indices for b in got])
    assert len(np.unique(seen)) == 48
    with pytest.raises(ValueError):
        next(batches(ds, 51, AugmentConfig(), epoch_seed=0))
    with pytest.raises(ValueError):
        next(batches(ds, 1, AugmentConfig(), epoch_seed=0))


def test_batches_start_skips_exactly():
    ds = generate_synthetic(SMALL)
    aug = AugmentConfig()
    full = list(batches(ds, 16, aug, epoch_seed=9))
    for start in (1, 3, 4):
        tail = list(batches(ds, 16, aug, epoch_seed=9, start=start))
        assert len(tail) == len(full) - start
        for x, y in zip(full[start:], tail):
            assert np.array_equal(x.views, y.views)
            assert np.array_equal(x.source_indices, y.source_indices)
    with pytest.raises(ValueError):
        next(batches(ds, 16, aug, epoch_seed=9, start=-1))


@pytest.mark.parametrize("n", [2, VIEW_BLOCK - 1, VIEW_BLOCK, VIEW_BLOCK + 1,
                               128, 2 * VIEW_BLOCK + 3, 512])
def test_batch_is_bit_equal_to_per_sample_streams(n):
    # the views, built VIEW_BLOCK samples at a time, against one
    # augment_views call over the whole batch; the epoch's last batch is
    # built after a start > 0 (but at n = 512, which fills the epoch)
    ds = generate_synthetic(GenConfig(m=512, seed=4))
    aug = AugmentConfig()
    epoch_seed = 2 ** 64 - 5  # two entropy words, as epoch seeds have
    batch = next(batches(ds, n, aug, epoch_seed=epoch_seed,
                         start=len(ds) // n - 1))
    rngs = [np.random.default_rng([epoch_seed, 1, int(i)])
            for i in batch.source_indices]
    want = augment_views(np.repeat(ds.inputs[batch.source_indices], 2, axis=0),
                         draw_params(aug, rngs), aug)
    assert batch.views.tobytes() == want.tobytes()


def test_wide_batch_scratch_is_bounded(traced_peak):
    # at N = 512 the views are 3 MiB; augmenting the whole batch in one
    # call held about 26 MiB at once, a block at a time about 7 MiB
    ds = generate_synthetic(GenConfig(m=512, seed=4))
    batch, peak = traced_peak(
        lambda: next(batches(ds, 512, AugmentConfig(), epoch_seed=0)))
    assert batch.views.shape == (1024, 3, 16, 16)
    assert peak <= 12 * 2**20


def test_batches_check_inputs_once_per_call():
    ds = generate_synthetic(SMALL)
    for bad in (ds.inputs + 2.0, ds.inputs[:, :, :8, :8],
                ds.inputs.reshape(64, -1)):
        bad_ds = LabeledDataset(inputs=bad, labels=ds.labels,
                                outlier_mask=ds.outlier_mask)
        with pytest.raises(ValueError):
            next(batches(bad_ds, 16, AugmentConfig(), epoch_seed=0))


def test_summary_fields():
    ds = inject_outliers(generate_synthetic(SMALL), 0.25, seed=0)
    summary = dataset_summary(ds)
    assert summary["m"] == 64
    assert summary["attributes"] == 8
    assert summary["input_shape"] == [3, 16, 16]
    assert summary["outlier_count"] == 16
    assert abs(summary["outlier_fraction"] - 0.25) < 1e-9
    assert len(summary["positive_rates"]) == 8


# ---------------------------------------------------------------------------
# container format

def test_save_load_roundtrip_byte_exact(tmp_path):
    ds = inject_outliers(generate_synthetic(SMALL), 0.2, seed=1)
    p1 = tmp_path / "a.vcld"
    p2 = tmp_path / "b.vcld"
    save(ds, p1)
    save(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:4] == MAGIC
    loaded = load(p1)
    assert loaded == ds
    assert loaded.inputs.dtype == np.float32


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.vcld"
    ds = generate_synthetic(GenConfig(m=8, seed=0))
    save(ds, p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="magic"):
        load(p)


def test_load_rejects_truncation(tmp_path):
    p = tmp_path / "t.vcld"
    save(generate_synthetic(GenConfig(m=8, seed=0)), p)
    raw = p.read_bytes()
    for cut in (2, 10, 21, len(raw) // 2, len(raw) - 1):
        p.write_bytes(raw[:cut])
        with pytest.raises(DataFormatError, match="truncated"):
            load(p)


def test_load_checks_a_header_against_the_file_length(tmp_path,
                                                      traced_peak):
    # a 44-byte file whose header claims 2^31 rows of 3x16x16: 6 TiB of
    # inputs, of which the file holds 12 bytes
    p = tmp_path / "huge.vcld"
    p.write_bytes(MAGIC + struct.pack("<7I", VERSION, 2**31, 8, 3, 3, 16, 16)
                  + bytes(12))
    assert p.stat().st_size == 44

    def attempt():
        with pytest.raises(DataFormatError,
                           match=f"truncated file: wanted {4 * 2**31 * 768} "
                                 "bytes for inputs at offset 32, got 12"):
            load(p)
    _, peak = traced_peak(attempt)
    assert peak <= 2**20


def test_load_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "x.vcld"
    save(generate_synthetic(GenConfig(m=8, seed=0)), p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load(p)


def test_load_rejects_unknown_version(tmp_path):
    p = tmp_path / "v.vcld"
    save(generate_synthetic(GenConfig(m=8, seed=0)), p)
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="version"):
        load(p)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(inputs=np.zeros((4, 3)), labels=np.zeros((5, 2)),
                       outlier_mask=np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        LabeledDataset(inputs=np.zeros((4, 3)), labels=np.zeros(4),
                       outlier_mask=np.zeros(4, dtype=bool))


def test_save_and_load_copy_no_whole_array(tmp_path, traced_peak):
    ds = generate_synthetic(GenConfig(m=2048, seed=0))
    path = tmp_path / "d.vcld"
    _, peak = traced_peak(lambda: save(ds, path))
    assert peak <= 2**19
    loaded, peak = traced_peak(lambda: load(path))
    assert loaded == ds
    assert peak <= loaded.inputs.nbytes + 2**19
