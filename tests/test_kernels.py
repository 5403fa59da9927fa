"""Kernel-level checks against numeric references."""

import numpy as np
import pytest

from vcl import kernels


def _naive_sqdist(z):
    n = z.shape[0]
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sum((z[i].astype(np.float64)
                                - z[j].astype(np.float64)) ** 2)
    return out


def test_pairwise_sqdist_matches_naive():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((17, 5)).astype(np.float32)
    out = kernels.pairwise_sqdist(z)
    assert out.shape == (17, 17)
    assert np.allclose(out, _naive_sqdist(z), atol=1e-4)
    assert np.allclose(np.diag(out), 0.0, atol=1e-5)
    assert (out >= 0).all()
    assert np.allclose(out, out.T, atol=1e-5)


def _one_shot_sqdist(z):
    """The unblocked form: one (n, n, d) float64 difference tensor."""
    diff = (z[:, None, :] - z[None, :, :]).astype(np.float64)
    return np.einsum("ijk,ijk->ij", diff, diff).astype(z.dtype)


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("n", [17, 1023, 1024])
def test_blocked_pairwise_sqdist_is_bit_equal_to_one_shot(n, offset):
    # 17 and 1023 end in a partial block, 1024 in a full one; at an
    # offset of 1e3 a Gram form |a|^2 + |b|^2 - 2 a.b would cancel most
    # of its digits
    assert (n % kernels.SQDIST_BLOCK == 0) == (n == 1024)
    z = np.random.default_rng(n).standard_normal((n, 32)).astype(np.float32)
    z += np.float32(offset)
    out = kernels.pairwise_sqdist(z)
    assert out.dtype == np.float32
    assert out.tobytes() == _one_shot_sqdist(z).tobytes()


def test_blocked_pairwise_sqdist_keeps_float64_storage():
    z = np.random.default_rng(5).standard_normal((13, 4))
    out = kernels.pairwise_sqdist(z)
    assert out.dtype == np.float64
    assert out.tobytes() == _one_shot_sqdist(z).tobytes()


def _sqdist_via_storage_diff(z):
    """The blocked form that took each block's differences into a
    storage-dtype buffer and then copied them into the float64 one."""
    n, d = z.shape
    out = np.empty((n, n), dtype=z.dtype)
    blk = kernels.SQDIST_BLOCK
    for i in range(0, n, blk):
        b = min(blk, n - i)
        dv = np.subtract(z[i:i + b, None, :], z[None, i:, :])
        dv64 = dv.astype(np.float64)
        av = np.einsum("ijk,ijk->ij", dv64, dv64)
        out[i:i + b, i:] = av
        out[i:, i:i + b] = av.T
    return out


def _awkward_rows(n, dtype):
    """Random rows seeded with +-0, subnormals and +-inf."""
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, 16)).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, np.inf, -np.inf],
                       dtype=dtype)
    flat = z.reshape(-1)
    flat[rng.choice(flat.size, min(flat.size, 24), replace=False)] = \
        special[np.arange(min(flat.size, 24)) % special.size]
    return z


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2, 7, 8, 9, 256, 1024])
def test_sqdist_differences_go_straight_to_float64(n, dtype):
    # 2 and 7 are below one block, 8 is one, 9 ends in a one-row block
    z = _awkward_rows(n, dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        out = kernels.pairwise_sqdist(z)
        want = _sqdist_via_storage_diff(z)
    assert out.dtype == dtype
    assert out.tobytes() == want.tobytes()
    if n == 1024 and dtype == np.float32:
        assert np.isnan(out).any() and np.isinf(out).any()


def test_pairwise_sqdist_vjp_matches_finite_differences():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((6, 3))
    gout = rng.standard_normal((6, 6))
    grad = kernels.pairwise_sqdist_vjp(z, gout)
    eps = 1e-6
    fd = np.empty_like(z)
    for i in range(z.shape[0]):
        for k in range(z.shape[1]):
            up = z.copy()
            up[i, k] += eps
            dn = z.copy()
            dn[i, k] -= eps
            fd[i, k] = (np.sum(gout * _naive_sqdist(up))
                        - np.sum(gout * _naive_sqdist(dn))) / (2 * eps)
    assert np.allclose(grad, fd, atol=1e-4)


def test_bilinear_resize_basics():
    rng = np.random.default_rng(2)
    src = rng.uniform(0, 1, (3, 10, 8)).astype(np.float32)
    same = kernels.bilinear_resize(src, 10, 8)
    assert np.allclose(same, src, atol=1e-6)
    const = np.full((3, 7, 7), 0.42, dtype=np.float32)
    up = kernels.bilinear_resize(const, 13, 5)
    assert up.shape == (3, 13, 5)
    assert np.allclose(up, 0.42, atol=1e-6)
    down = kernels.bilinear_resize(src, 4, 4)
    assert down.min() >= src.min() - 1e-6
    assert down.max() <= src.max() + 1e-6


def _naive_resize(src, out_h, out_w):
    """Per-pixel bilinear resize, half-pixel centres clipped to the image."""
    c, h, w = src.shape
    out = np.empty((c, out_h, out_w))
    for oy in range(out_h):
        ys = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(ys)
        y1 = min(y0 + 1, h - 1)
        for ox in range(out_w):
            xs = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(xs)
            x1 = min(x0 + 1, w - 1)
            wy, wx = ys - y0, xs - x0
            out[:, oy, ox] = ((1 - wy) * ((1 - wx) * src[:, y0, x0]
                                          + wx * src[:, y0, x1])
                              + wy * ((1 - wx) * src[:, y1, x0]
                                      + wx * src[:, y1, x1]))
    return out


def test_crop_resize_matches_per_window_reference():
    rng = np.random.default_rng(4)
    src = rng.uniform(0, 1, (4, 3, 16, 12)).astype(np.float32)
    boxes = np.array([[0, 0, 16, 12], [2, 3, 9, 7], [15, 11, 1, 1],
                      [4, 0, 12, 12]])
    out = kernels.crop_resize(src, boxes, 10, 14)
    assert out.shape == (4, 3, 10, 14) and out.dtype == np.float32
    for img, (y0, x0, h, w), got in zip(src, boxes, out):
        window = img[:, y0:y0 + h, x0:x0 + w].astype(np.float64)
        assert np.abs(got - _naive_resize(window, 10, 14)).max() < 1e-6
    full = kernels.crop_resize(src, np.tile([0, 0, 16, 12], (4, 1)), 16, 12)
    assert np.array_equal(full, src)
    for bad in ([[0, 0, 17, 12]] * 4, [[-1, 0, 4, 4]] * 4, [[0, 0, 0, 4]] * 4,
                [[0, 9, 4, 4]] * 4, [[0, 0, 4, 4]] * 3):
        with pytest.raises(ValueError):
            kernels.crop_resize(src, bad, 8, 8)


def test_adamw_update_hand_value():
    p = np.array([1.0])
    g = np.array([0.1])
    p2, m2, v2 = kernels.adamw_update(p, g, np.zeros(1), np.zeros(1), 1,
                                      1e-2, 0.9, 0.999, 1e-8, 1e-2)
    # one step by hand: mhat 0.1, vhat 0.01, decoupled decay 1e-4
    expected = 1.0 - 1e-2 * 1e-2 - 1e-2 * 0.1 / (0.1 + 1e-8)
    assert abs(p2[0] - expected) < 1e-15
    assert abs(m2[0] - 0.01) < 1e-15
    assert abs(v2[0] - 1e-5) < 1e-18
    assert p[0] == 1.0  # out of place


def test_adamw_update_zero_grad_only_decays():
    p = np.array([2.0])
    p2, _, _ = kernels.adamw_update(p, np.zeros(1), np.zeros(1), np.zeros(1),
                                    1, 1e-2, 0.9, 0.999, 1e-8, 0.1)
    assert abs(p2[0] - 2.0 * (1.0 - 1e-2 * 0.1)) < 1e-15


def _adamw_out_of_place(p, g, m, v, t, lr, beta1, beta2, eps, wd,
                        work=np.float64):
    """The update as whole-array expressions, one temporary per
    operation, in dtype ``work``."""
    pw = p.astype(work)
    gw = g.astype(work)
    m2 = beta1 * m.astype(work) + (1.0 - beta1) * gw
    v2 = beta2 * v.astype(work) + (1.0 - beta2) * gw * gw
    mhat = m2 / (1.0 - beta1 ** t)
    vhat = v2 / (1.0 - beta2 ** t)
    p2 = pw - lr * mhat / (np.sqrt(vhat) + eps) - lr * wd * pw
    return p2.astype(p.dtype), m2.astype(p.dtype), v2.astype(p.dtype)


# the 12 parameter shapes of the 768-256-256-64 encoder with a 32-dim head
MODEL_SHAPES = [(768, 256), (256,), (256, 256), (256,), (256, 64), (64,),
                (64, 64), (64,), (64, 32), (32,), (64, 32), (32,)]


B = kernels.ADAMW_BLOCK
# the float32 update's block: its two float32 buffers fill the scratch
BF = kernels.ADAMW_SCRATCH // (2 * 4)
HYPER = (3e-3, 0.9, 0.999, 1e-8, 0.05)


def _adamw_cases(dtype, shapes, seed=6):
    """(p, g, m, v) per shape, with signed zeros in the gradient and in
    the moments they meet, and zero second moments."""
    rng = np.random.default_rng(seed)
    for shape in shapes:
        p, g, m = (rng.standard_normal(shape).astype(dtype) for _ in range(3))
        v = np.abs(rng.standard_normal(shape)).astype(dtype) * 1e-3
        g.flat[::7] = -0.0
        g.flat[3::7] = 0.0
        m.flat[::14] = -0.0
        v.flat[::21] = 0.0
        yield p, g, m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_update_is_bit_equal_to_out_of_place_form(dtype):
    # the model's shapes, then sizes around one block, one float32
    # block and one of 24 blocks
    for p, g, m, v in _adamw_cases(dtype, MODEL_SHAPES + [
            (1,), (B - 1,), (B,), (B + 1,), (BF - 1,), (BF,), (BF + 1,),
            (196608,)]):
        before = [a.copy() for a in (p, g, m, v)]
        for t in (1, 2, 500):
            want = _adamw_out_of_place(p, g, m, v, t, *HYPER)
            # no out, and out = (p, m, v) in place
            own = tuple(a.copy() for a in (p, m, v))
            forms = [kernels.adamw_update(p, g, m, v, t, *HYPER),
                     kernels.adamw_update(own[0], g, own[1], own[2], t,
                                          *HYPER, out=own)]
            assert all(x is y for x, y in zip(forms[1], own))
            for form in forms:
                for x, y in zip(form, want):
                    assert x.dtype == dtype
                    assert x.tobytes() == y.tobytes()
        for a, b in zip((p, g, m, v), before):
            assert a.tobytes() == b.tobytes()


# float32's unit roundoff, and its smallest normal number: below it the
# roundings are absolute, at most half of 2^-149 each
U32 = 2.0**-24
TINY32 = 2.0**-126


def test_float32_adamw_update_is_within_its_bound():
    """Each float32 rounding is within U32 of its exact value, relative.
    Summing them over the operations, with the rounding of the float32
    constants and of the float64 reference, bounds each entry against
    the float64 update. With M = beta1 |m| + (1 - beta1) |g| and
    V = beta2 v + (1 - beta2) g^2:

        m2   4 U32 M          2 per term, 1 for the sum, 1 reference
        v2   5 U32 V          3 per term at most, 1 for the sum, 1 reference
        p2   20 U32 (|p| + A + D)

    where A = lr M / (1 - beta1^t) / (sqrt(V / (1 - beta2^t)) + eps) is
    the update with its numerator's terms taken in absolute value and
    D = lr wd |p| the decay: 14 for A (mhat 5, the denominator 6, lr 2,
    the division 1), 2 for D, 3 for the two subtractions and the
    reference, and one to spare. Each bound adds TINY32 for results
    near underflow.
    """
    lr, beta1, beta2, eps, wd = HYPER
    for p, g, m, v in _adamw_cases(np.float32, MODEL_SHAPES + [
            (1,), (B - 1,), (B,), (B + 1,), (BF - 1,), (BF,), (BF + 1,)]):
        before = [a.copy() for a in (p, g, m, v)]
        p64, g64, m64, v64 = (a.astype(np.float64) for a in (p, g, m, v))
        big_m = beta1 * np.abs(m64) + (1.0 - beta1) * np.abs(g64)
        big_v = beta2 * v64 + (1.0 - beta2) * g64 * g64
        for t in (1, 2, 500):
            ref = _adamw_out_of_place(p, g, m, v, t, *HYPER)
            big_a = (lr * big_m / (1.0 - beta1 ** t)
                     / (np.sqrt(big_v / (1.0 - beta2 ** t)) + eps))
            bounds = (20 * U32 * (np.abs(p64) + big_a + lr * wd * np.abs(p64)),
                      4 * U32 * big_m, 5 * U32 * big_v)
            own = tuple(a.copy() for a in (p, m, v))
            forms = [kernels.adamw_update(p, g, m, v, t, *HYPER,
                                          float32_update=True),
                     kernels.adamw_update(own[0], g, own[1], own[2], t,
                                          *HYPER, out=own,
                                          float32_update=True)]
            # one op sequence: the whole-array form, in float32
            same = _adamw_out_of_place(p, g, m, v, t, *HYPER,
                                       work=np.float32)
            for form in forms:
                for x, r, bound, y in zip(form, ref, bounds, same):
                    assert x.dtype == np.float32
                    err = np.abs(x.astype(np.float64) - r)
                    assert np.all(err <= bound + TINY32)
                    assert x.tobytes() == y.tobytes()
        for a, b in zip((p, g, m, v), before):
            assert a.tobytes() == b.tobytes()


def test_float32_adamw_update_refuses_misuse():
    p, g, m, v = (np.zeros(4, dtype=np.float32) for _ in range(4))
    # float64 parameters would lose precision without a word
    p64, m64, v64 = (np.zeros(4) for _ in range(3))
    with pytest.raises(ValueError, match="float32 p"):
        kernels.adamw_update(p64, g, m64, v64, 1, *HYPER, float32_update=True)
    # an eps of 0 in float32 would make a zero-gradient entry 0/0
    lr, beta1, beta2, _, wd = HYPER
    with pytest.raises(ValueError, match="rounds to 0"):
        kernels.adamw_update(p, g, m, v, 1, lr, beta1, beta2, 1e-46, wd,
                             float32_update=True)
    # the smallest float32 eps still gives finite results
    p2, _, _ = kernels.adamw_update(p, g, m, v, 1, lr, beta1, beta2, 1e-45,
                                    wd, float32_update=True)
    assert np.all(p2 == 0)


def test_adamw_update_rejects_an_unsafe_out():
    p, g, m, v = (np.zeros(2 * B) for _ in range(4))
    wide = np.zeros(4 * B)
    # too few, another dtype, strided, aliasing g, aliasing the wrong
    # input, two outputs overlapping, three separate buffers
    for out in ((p, m), (p, m, v.astype(np.float32)), (p, m, wide[::2]),
                (g, m, v), (p, v, m), (wide[:2 * B], m, wide[B:3 * B]),
                tuple(np.zeros(2 * B) for _ in range(3))):
        with pytest.raises(ValueError):
            kernels.adamw_update(p, g, m, v, 1, *HYPER, out=out)
    # (p, m, v) themselves, but one of them strided, read-only or of
    # another dtype than p
    strided, frozen = wide[::2], np.zeros(2 * B)
    frozen.flags.writeable = False
    for p2, m2, v2 in ((p, m, strided), (frozen, m, v),
                       (p, m, v.astype(np.float32))):
        with pytest.raises(ValueError):
            kernels.adamw_update(p2, g, m2, v2, 1, *HYPER, out=(p2, m2, v2))


def _sqdist_vjp_whole_matrix(z, gout):
    """The backward with the symmetric sum as one whole-matrix g + g.T."""
    g = gout.astype(np.float64)
    z64 = z.astype(np.float64)
    gs = g + g.T
    row = gs.sum(axis=1)
    out = 2.0 * (row[:, None] * z64 - gs @ z64)
    return out.astype(z.dtype)


def _sqdist_vjp_tile_ordered(z, gout):
    """The whole-matrix backward with the operand order of the tiled
    symmetric sum: g[i,j] + g[j,i] where i's tile is at or above j's,
    g[j,i] + g[i,j] below, which decides the payload of a NaN pair."""
    g = gout.astype(np.float64)
    tile = np.arange(len(g)) // kernels.SYM_TILE
    gs = np.where(tile[:, None] <= tile[None, :], g + g.T, g.T + g)
    z64 = z.astype(np.float64)
    row = gs.sum(axis=1)
    return (2.0 * (row[:, None] * z64 - gs @ z64)).astype(z.dtype)


def _nan_with_payload(k, dtype):
    bits = np.array(np.nan, dtype=dtype).view(f"u{np.dtype(dtype).itemsize}")
    return (bits + np.array(k, dtype=bits.dtype)).view(dtype)


@pytest.mark.parametrize("n", [4, 17, 127, 128, 129, 300, 1023, 1024])
def test_tiled_sqdist_vjp_is_bit_equal_to_whole_matrix_form(n):
    # 4 and 17 are below one band of SYM_TILE rows; 129 ends in a
    # one-row band, 300 and 1023 in part bands, 1024 in a full one
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, 32)).astype(np.float32)
    gout = rng.standard_normal((n, n)).astype(np.float32)
    out = kernels.pairwise_sqdist_vjp(z, gout)
    assert out.dtype == np.float32
    assert out.tobytes() == _sqdist_vjp_whole_matrix(z, gout).tobytes()
    for zz, g in ((z, gout.astype(np.float64)),
                  (z.astype(np.float64), gout.astype(np.float64))):
        assert (kernels.pairwise_sqdist_vjp(zz, g).tobytes()
                == _sqdist_vjp_whole_matrix(zz, g).tobytes())
    # NaN pairs with distinct payloads, across and within tiles, leave
    # some rows of the result NaN and the rest finite
    pairs = [(0, n - 1), (1, 2), (n // 2, n - 2)][:1 if n < 8 else 3]
    for dtype in (np.float32, np.float64):
        g = gout.astype(dtype)
        for k, (i, j) in enumerate(pairs):
            g[i, j] = _nan_with_payload(2 * k + 1, dtype)
            g[j, i] = _nan_with_payload(2 * k + 2, dtype)
        zz = z.astype(dtype)
        with np.errstate(invalid="ignore"):
            out = kernels.pairwise_sqdist_vjp(zz, g)
            want = _sqdist_vjp_tile_ordered(zz, g)
        assert np.isnan(out).any() and np.isfinite(out).any()
        assert out.tobytes() == want.tobytes()


def test_row_band_sqdist_vjp_scratch_is_bounded(traced_peak):
    # the whole (n, n) float64 symmetric sum held 8 MiB at n = 1024; a
    # band of SYM_TILE rows holds 1 MiB
    rng = np.random.default_rng(3)
    z = rng.standard_normal((1024, 32)).astype(np.float32)
    gout = rng.standard_normal((1024, 1024)).astype(np.float32)
    _, peak = traced_peak(lambda: kernels.pairwise_sqdist_vjp(z, gout))
    assert peak <= 3 * 2**20


def _default_rngs(key, indices):
    """The per-row derivation: one SeedSequence and PCG64 seeding each."""
    return [np.random.default_rng(list(key) + [int(i)]) for i in indices]


KEYS = {
    "one_word": (7,),
    "zero": (0,),
    "empty": (),
    "uint64_epoch_seed": (2 ** 64 - 1, 1),
    "multi_word": (12345678901234567890, 2, 3),
    "past_pool": (2 ** 40, 2 ** 33, 9, 1, 5),
}


@pytest.mark.parametrize("key", KEYS.values(), ids=KEYS.keys())
def test_keyed_rngs_equal_default_rng_streams(key):
    indices = np.array([0, 1, 7, 2 ** 31, 2 ** 32 - 1], dtype=np.uint64)
    got = kernels.keyed_rngs(key, indices)
    assert len(got) == len(indices)
    for rng, want, i in zip(got, _default_rngs(key, indices), indices):
        words = np.random.SeedSequence(list(key) + [int(i)]).generate_state(
            4, np.uint64)
        assert (rng.bit_generator.seed_seq.generate_state(4, np.uint64)
                .tobytes() == words.tobytes())
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.standard_normal(9).tobytes() == \
            want.standard_normal(9).tobytes()
        assert rng.uniform(0, 1, 20).tobytes() == \
            want.uniform(0, 1, 20).tobytes()


def test_keyed_rngs_reject_indices_outside_uint32():
    assert kernels.keyed_rngs((1, 2), []) == []
    for bad in ([-1], [0, 2 ** 32], np.array([2 ** 40]), [0.5],
                np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(ValueError):
            kernels.keyed_rngs((1, 2), bad)
    with pytest.raises(ValueError):
        kernels.keyed_rngs((-1, 2), [0])


def test_adamw_update_scratch_is_bounded(traced_peak):
    rng = np.random.default_rng(7)
    p, g, m = (rng.standard_normal((768, 256)).astype(np.float32)
               for _ in range(3))
    v = np.abs(rng.standard_normal((768, 256))).astype(np.float32)
    outs, peak = traced_peak(lambda: kernels.adamw_update(
        p, g, m, v, 3, 1e-3, 0.9, 0.999, 1e-8, 0.01))
    assert peak <= sum(o.nbytes for o in outs) + 2**20
    # in place, nothing of the tensor's size is allocated
    _, peak = traced_peak(lambda: kernels.adamw_update(
        p, g, m, v, 3, 1e-3, 0.9, 0.999, 1e-8, 0.01, out=(p, m, v)))
    assert peak <= 2**20
    # float32 work takes half the scratch
    outs, peak = traced_peak(lambda: kernels.adamw_update(
        p, g, m, v, 3, 1e-3, 0.9, 0.999, 1e-8, 0.01, float32_update=True))
    assert peak <= sum(o.nbytes for o in outs) + 2**19
    # and in place it holds two float32 blocks, gw and tmp: a third
    # buffer of BF entries would take 160 KiB more
    _, peak = traced_peak(lambda: kernels.adamw_update(
        p, g, m, v, 3, 1e-3, 0.9, 0.999, 1e-8, 0.01, out=(p, m, v),
        float32_update=True))
    assert peak <= 2 * BF * 4 + 2**14
