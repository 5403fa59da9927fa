"""Synthetic multi-label image data, outlier injection, and batching.

Each sample starts from a latent vector u ~ N(0, I). The first A latent
coordinates define binary attribute labels by their sign. Images render
the latents through a fixed bank of oriented sinusoidal patterns (one
per latent coordinate, drawn once per dataset seed), squashed through a
sigmoid and corrupted with pixel noise, so label information is present
but entangled across the whole image.

Outlier injection replaces a fraction of rows with structureless
uniform-noise images and coin-flip labels, marking them in the dataset's
outlier mask; ``labels_only`` mode corrupts just the labels.

The on-disk format is a little-endian binary container with magic
"VCLD": version, counts, input shape, then raw float32 inputs, uint8
labels and the uint8 outlier mask. Loading is strict: bad magic,
truncation or trailing bytes all raise DataFormatError with an offset.
Files are written whole or not at all (``atomic_write``).
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from vcl import kernels
from vcl.augmentation import (AugmentConfig, augment_views, check_images,
                              draw_params)

MAGIC = b"VCLD"
VERSION = 1

# samples whose two views ``batches`` builds in one augment_views call
VIEW_BLOCK = 64


class FormatError(ValueError):
    """A file violates its binary container format."""


class DataFormatError(FormatError):
    """Dataset file violates the container format."""


@dataclass(frozen=True)
class GenConfig:
    m: int = 2048
    attributes: int = 8
    latent_dim: int | None = None
    height: int = 16
    width: int = 16
    noise_std: float = 0.1
    gain: float = 2.0
    freq_range: tuple = (0.7, 2.2)
    zoom_range: tuple = (0.8, 1.25)
    shift_max: float = 0.25
    label_margin: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.attributes < 1:
            raise ValueError(f"attributes must be >= 1, got {self.attributes}")
        k = self.latent_dim if self.latent_dim is not None else self.attributes
        if k < self.attributes:
            raise ValueError(
                f"latent_dim {k} must be >= attributes {self.attributes}")
        if self.height < 4 or self.width < 4:
            raise ValueError(f"image too small: {self.height}x{self.width}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.gain <= 0:
            raise ValueError(f"gain must be > 0, got {self.gain}")
        lo, hi = self.freq_range
        if not (0 < lo <= hi):
            raise ValueError(f"bad freq_range {self.freq_range}")
        zlo, zhi = self.zoom_range
        if not (0 < zlo <= zhi):
            raise ValueError(f"bad zoom_range {self.zoom_range}")
        if self.shift_max < 0:
            raise ValueError(f"shift_max must be >= 0, got {self.shift_max}")
        if self.label_margin < 0:
            raise ValueError(
                f"label_margin must be >= 0, got {self.label_margin}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def k(self) -> int:
        return self.latent_dim if self.latent_dim is not None else self.attributes


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    inputs: np.ndarray
    labels: np.ndarray
    outlier_mask: np.ndarray

    def __post_init__(self):
        m = self.inputs.shape[0]
        if self.labels.shape[0] != m or self.outlier_mask.shape != (m,):
            raise ValueError(
                f"row counts disagree: inputs {self.inputs.shape}, labels "
                f"{self.labels.shape}, mask {self.outlier_mask.shape}")
        if self.labels.ndim != 2:
            raise ValueError(f"labels must be (M, A), got {self.labels.shape}")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (self.inputs.shape == other.inputs.shape
                and np.array_equal(self.inputs, other.inputs)
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.outlier_mask, other.outlier_mask))


@dataclass(frozen=True)
class ViewBatch:
    views: np.ndarray
    partner: np.ndarray
    source_indices: np.ndarray


def generate_synthetic(cfg: GenConfig) -> LabeledDataset:
    """Render a labeled dataset from cfg; one seed pins every byte.

    Draw order is fixed: pattern bank, then latents, then per-sample
    zooms, then per-sample shifts, then pixel noise.

    Each sample's pattern is rendered under a random zoom and shift
    drawn from the same transformation family the view augmentations
    randomize. That entangles them with the label signal in pixel space,
    yet a linear probe of raw pixels (0.706 at the acceptance probe
    split) beats every trained encoder measured so far. Rows are rendered,
    noised and clipped in float64 a block at a time, then rounded to
    float32; no entry depends on the block size.
    """
    rng = np.random.default_rng(cfg.seed)
    k, a = cfg.k, cfg.attributes
    h, w, c = cfg.height, cfg.width, 3

    # dataset-level pattern bank: oriented sinusoid per latent coordinate
    freq = rng.uniform(cfg.freq_range[0], cfg.freq_range[1], size=k)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=k)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(k, c))
    amp = rng.uniform(0.6, 1.4, size=(k, c)) * rng.choice((-1.0, 1.0),
                                                          size=(k, c))
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    # direction ramp per component, in pattern coordinates
    ramp0 = (np.cos(theta)[:, None, None] * xx[None]
             + np.sin(theta)[:, None, None] * yy[None])

    u = rng.standard_normal((cfg.m, k))
    labels = (u[:, :a] > 0).astype(np.uint8)
    # push latents off the labeling boundary; the dataset becomes a
    # mixture of separated modes instead of one Gaussian cloud
    u = u + cfg.label_margin * np.sign(u)
    zoom = rng.uniform(cfg.zoom_range[0], cfg.zoom_range[1], size=cfg.m)
    dyx = rng.uniform(-cfg.shift_max, cfg.shift_max, size=(cfg.m, 2))

    imgs = np.empty((cfg.m, c, h, w), dtype=np.float32)
    # rows per pass, so the largest float64 scratch holds about 2^16 entries
    block = max(1, (1 << 16) // (k * c * h * w))
    waves = np.empty((min(block, cfg.m), k, c, h, w))
    tpf = 2.0 * math.pi * freq
    for lo in range(0, cfg.m, block):
        hi = min(lo + block, cfg.m)
        # arg[(i,k,h,w)] = 2 pi f_k zoom_i (ramp0 - offset_i) + phase
        off = (np.cos(theta)[None, :] * dyx[lo:hi, 1:2]
               + np.sin(theta)[None, :] * dyx[lo:hi, 0:1])
        arg = (tpf[None, :, None, None] * zoom[lo:hi, None, None, None]
               * (ramp0[None] - off[:, :, None, None]))
        wv = waves[:hi - lo]
        np.add(arg[:, :, None], phase[None, :, :, None, None], out=wv)
        np.sin(wv, out=wv)
        wv *= amp[None, :, :, None, None]
        core = np.einsum("ik,ikchw->ichw", u[lo:hi], wv) / math.sqrt(k)
        core = 1.0 / (1.0 + np.exp(-cfg.gain * core))
        # nothing else draws in this loop: block draws equal one whole draw
        if cfg.noise_std > 0:
            core += rng.normal(0.0, cfg.noise_std, size=core.shape)
        imgs[lo:hi] = np.clip(core, 0.0, 1.0, out=core)
    return LabeledDataset(inputs=imgs, labels=labels,
                          outlier_mask=np.zeros(cfg.m, dtype=bool))


def inject_outliers(ds: LabeledDataset, rho: float, seed: int,
                    mode: str = "full") -> LabeledDataset:
    """Replace floor(rho * M) rows with structureless noise.

    mode "full" overwrites inputs with uniform noise and labels with
    fair coin flips; "labels_only" corrupts just the labels. The row
    choice comes first in the draw order, so both modes corrupt the
    same rows for a given seed.
    """
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    if mode not in ("full", "labels_only"):
        raise ValueError(f"unknown outlier mode {mode!r}")
    m = len(ds)
    count = int(math.floor(rho * m))
    inputs = ds.inputs.copy()
    labels = ds.labels.copy()
    mask = ds.outlier_mask.copy()
    if count:
        rng = np.random.default_rng(seed)
        idx = rng.choice(m, size=count, replace=False)
        if mode == "full":
            inputs[idx] = rng.uniform(0.0, 1.0,
                                      size=(count,) + inputs.shape[1:]).astype(
                                          inputs.dtype)
        labels[idx] = rng.integers(0, 2, size=(count,) + labels.shape[1:],
                                   dtype=np.uint8)
        mask[idx] = True
    return LabeledDataset(inputs=inputs, labels=labels, outlier_mask=mask)


def batches(ds: LabeledDataset, n: int, aug: AugmentConfig,
            epoch_seed: int, start: int = 0) -> Iterator[ViewBatch]:
    """Shuffled mini-batches of augmented view pairs; the last short
    batch is dropped.

    Views of sample k sit at rows 2k and 2k+1 of the stacked batch, and
    ``partner`` swaps them. The shuffle and each sample's augmentation
    draws come from separate streams keyed by (epoch_seed, sample index),
    so batch composition and view noise are reproducible independently
    of iteration order. ``start`` skips the epoch's first batches
    without building them; the batches after are unchanged. A batch's
    parameters are drawn at once, and its views are built VIEW_BLOCK
    samples at a time into the batch's array: ``augment_views`` builds
    each view on its own, so the views are those of one whole-batch call
    while its scratch stays block-sized.
    """
    m = len(ds)
    if n < 2:
        raise ValueError(f"batch size must be >= 2, got {n}")
    if n > m:
        raise ValueError(f"batch size {n} exceeds dataset size {m}")
    if start < 0:
        raise ValueError(f"start batch must be >= 0, got {start}")
    check_images(ds.inputs, aug)
    order = np.random.default_rng([epoch_seed, 0]).permutation(m)
    idx_pairs = np.arange(n)
    partner = np.empty(2 * n, dtype=np.int64)
    partner[2 * idx_pairs] = 2 * idx_pairs + 1
    partner[2 * idx_pairs + 1] = 2 * idx_pairs
    for b in range(start, m // n):
        chosen = order[b * n:(b + 1) * n]
        params = draw_params(aug, kernels.keyed_rngs((epoch_seed, 1), chosen))
        views = np.empty((2 * n, 3, *aug.crop_out), dtype=np.float32)
        for s in range(0, n, VIEW_BLOCK):
            rows = slice(2 * s, 2 * (s + VIEW_BLOCK))
            views[rows] = augment_views(
                np.repeat(ds.inputs[chosen[s:s + VIEW_BLOCK]], 2, axis=0),
                params[rows], aug)
        yield ViewBatch(views=views, partner=partner.copy(),
                        source_indices=chosen.astype(np.int64))


def dataset_summary(ds: LabeledDataset) -> dict:
    return {
        "m": int(len(ds)),
        "attributes": int(ds.labels.shape[1]),
        "input_shape": list(ds.inputs.shape[1:]),
        "outlier_count": int(ds.outlier_mask.sum()),
        "outlier_fraction": float(ds.outlier_mask.mean()),
        "positive_rates": [float(r) for r in ds.labels.mean(axis=0)],
    }


# ---------------------------------------------------------------------------
# binary container

def save(ds: LabeledDataset, path) -> None:
    m = len(ds)
    a = ds.labels.shape[1]
    shape = ds.inputs.shape[1:]
    with write_container(path, MAGIC, VERSION) as fh:
        fh.write(struct.pack("<III", m, a, len(shape)))
        fh.write(struct.pack(f"<{len(shape)}I", *shape))
        fh.write(np.ascontiguousarray(ds.inputs, dtype="<f4"))
        fh.write(np.ascontiguousarray(ds.labels, dtype="<u1"))
        fh.write(np.ascontiguousarray(ds.outlier_mask, dtype="<u1"))


@contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """Yield a file opened with ``mode`` on a temp path beside ``path``,
    then move it onto ``path`` with ``os.replace``: readers see the old
    file or the whole new one. If the block raises, the temp file is
    removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def write_container(path, magic: bytes, version: int):
    """Create a binary container and yield the file, past the magic and
    version that ``read_container`` checks; see ``atomic_write``."""
    with atomic_write(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", version))
        yield fh


@contextmanager
def read_container(path, magic: bytes, version: int, error):
    """Open a binary container and yield ``read(n, what, dtype=None)``:
    the next n bytes, or, given a dtype, a new array of shape n and that
    dtype filled from the file. Bad magic, another version, truncation
    and, once the caller is done, trailing bytes raise ``error`` with an
    offset. A read is checked against the bytes left in the file before
    its array is made, so a corrupt header that claims more data than
    the file holds fails as truncation, not as an allocation."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n, what: str, dtype=None):
            shape = n
            if dtype is not None:
                n = math.prod(shape) * np.dtype(dtype).itemsize
            at = fh.tell()
            got = max(0, min(n, size - at))
            if got == n:  # allocate only what the file can fill
                buf = fh.read(n) if dtype is None else np.empty(shape, dtype)
                got = len(buf) if dtype is None else fh.readinto(buf)
            if got != n:
                raise error(f"truncated file: wanted {n} bytes for {what} "
                            f"at offset {at}, got {got}")
            return buf

        got = read(4, "magic")
        if got != magic:
            raise error(f"bad magic at offset 0: {got!r}, expected {magic!r}")
        (got,) = struct.unpack("<I", read(4, "version"))
        if got != version:
            raise error(f"unsupported version {got}")
        yield read
        if fh.read(1):
            raise error(f"trailing bytes at offset {fh.tell() - 1}")


def load(path) -> LabeledDataset:
    with read_container(path, MAGIC, VERSION, DataFormatError) as read:
        m, a, ndim = struct.unpack("<III", read(12, "header"))
        if ndim < 1 or ndim > 4:
            raise DataFormatError(f"implausible input rank {ndim}")
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim, "shape"))
        inputs = read((m,) + shape, "inputs", "<f4")
        labels = read((m, a), "labels", "<u1")
        mask = read((m,), "outlier mask", "<u1").astype(bool)
    return LabeledDataset(inputs=inputs, labels=labels, outlier_mask=mask)
