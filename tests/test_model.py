"""Encoder, Gaussian head, and parameter-dict plumbing."""

import numpy as np
import pytest

from vcl.autograd import ShapeError, Tensor, tsum
from vcl.model import (LOGVAR_MAX, LOGVAR_MIN, EncoderConfig, GaussianParams,
                       encode, gaussian_head, init_params, params_fingerprint,
                       reparameterize)

CFG = EncoderConfig(input_shape=(3, 8, 8), hidden_dims=(32, 16), embed_dim=12)


def test_init_params_layout_and_determinism():
    p1 = init_params(CFG, head_dim=6, seed=5)
    p2 = init_params(CFG, head_dim=6, seed=5)
    p3 = init_params(CFG, head_dim=6, seed=6)
    assert p1["enc0.w"].data.shape == (192, 32)
    assert p1["enc1.w"].data.shape == (32, 16)
    assert p1["enc_out.w"].data.shape == (16, 12)
    assert p1["head_hidden.w"].data.shape == (12, 12)
    assert p1["head_mu.w"].data.shape == (12, 6)
    assert p1["head_logvar.w"].data.shape == (12, 6)
    assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)
    assert not np.array_equal(p1["enc0.w"].data, p3["enc0.w"].data)
    assert all(p1[k].requires_grad for k in p1)
    assert np.array_equal(p1["enc0.b"].data, np.zeros(32, dtype=np.float32))


def test_encode_shapes_and_flattening():
    params = init_params(CFG, head_dim=6, seed=0)
    imgs = np.random.default_rng(0).uniform(0, 1, (5, 3, 8, 8))
    h = encode(params, imgs)
    assert h.data.shape == (5, 12)
    flat = encode(params, imgs.reshape(5, -1).astype(np.float32))
    assert np.allclose(h.data, flat.data, atol=1e-6)


def test_encode_rejects_wrong_width():
    params = init_params(CFG, head_dim=6, seed=0)
    with pytest.raises(ShapeError):
        encode(params, np.zeros((4, 100), dtype=np.float32))
    with pytest.raises(ShapeError):
        encode(params, np.zeros(192, dtype=np.float32))
    with pytest.raises(KeyError):
        encode({"enc_out.w": params["enc_out.w"]}, np.zeros((1, 192)))


def test_gaussian_head_clamps_logvar():
    params = init_params(CFG, head_dim=6, seed=0)
    # drive the logvar affine map hard in both directions
    params["head_logvar.b"].data[:] = 1e4
    g = gaussian_head(params, Tensor(np.ones((3, 12), dtype=np.float32)))
    assert (g.logvar.data == LOGVAR_MAX).all()
    params["head_logvar.b"].data[:] = -1e4
    g = gaussian_head(params, Tensor(np.ones((3, 12), dtype=np.float32)))
    assert (g.logvar.data == LOGVAR_MIN).all()
    assert g.mu.data.shape == (3, 6)


def test_reparameterize_formula_both_modes():
    rng = np.random.default_rng(4)
    mu = rng.standard_normal((4, 3)).astype(np.float32)
    lv = rng.standard_normal((4, 3)).astype(np.float32)
    xi = rng.standard_normal((4, 3)).astype(np.float32)
    g = GaussianParams(mu=Tensor(mu), logvar=Tensor(lv))
    z_std = reparameterize(g, xi, "std")
    assert np.allclose(z_std.data, mu + np.exp(0.5 * lv) * xi, atol=1e-6)
    z_lit = reparameterize(g, xi, "literal")
    assert np.allclose(z_lit.data, mu + np.exp(lv) * xi, atol=1e-5)
    with pytest.raises(ValueError):
        reparameterize(g, xi, "other")
    with pytest.raises(ShapeError):
        reparameterize(g, xi[:2], "std")


def test_reparameterize_routes_gradients_to_moments():
    mu = Tensor(np.zeros((2, 2), dtype=np.float64), requires_grad=True,
                dtype=np.float64)
    lv = Tensor(np.zeros((2, 2), dtype=np.float64), requires_grad=True,
                dtype=np.float64)
    xi = np.full((2, 2), 2.0)
    z = reparameterize(GaussianParams(mu=mu, logvar=lv), xi, "std")
    tsum(z).backward()
    assert np.allclose(mu.grad, np.ones((2, 2)))
    # d/dlv [exp(lv/2) xi] = xi/2 at lv=0
    assert np.allclose(lv.grad, np.ones((2, 2)))


def test_gaussian_params_validation():
    with pytest.raises(ShapeError):
        GaussianParams(mu=Tensor(np.zeros((2, 3))),
                       logvar=Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeError):
        GaussianParams(mu=Tensor(np.zeros(3)), logvar=Tensor(np.zeros(3)))


def test_fingerprint_tracks_bytes():
    params = init_params(CFG, head_dim=6, seed=0)
    fp = params_fingerprint(params)
    assert fp == params_fingerprint(
        {k: Tensor(v.data.copy()) for k, v in params.items()})
    params["head_mu.b"].data[0] += 1e-3
    assert fp != params_fingerprint(params)


def test_encoder_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(input_shape=(), hidden_dims=(8,), embed_dim=4)
    with pytest.raises(ValueError):
        EncoderConfig(input_shape=(3, 8, 8), hidden_dims=(), embed_dim=4)
    with pytest.raises(ValueError):
        EncoderConfig(input_shape=(3, 8, 8), hidden_dims=(8,), embed_dim=1)
    with pytest.raises(ValueError):
        init_params(CFG, head_dim=0, seed=0)
