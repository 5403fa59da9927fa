"""Loss-term references and frozen oracles.

Every differentiable loss is compared against an independent plain-loop
reimplementation on float64 inputs, then against closed-form values
where the geometry admits one. The fused contrastive node is also
compared, bit for bit in float32, with the chain of elementary tape ops
it replaced.
"""

import math

import numpy as np
import pytest

from vcl import losses, trainer
from vcl.autograd import (DomainError, ShapeError, Tensor, add, exp,
                          grad_check, log, matmul, mul, record, scale, sub,
                          tmean, transpose, tsum)
from vcl.config import parse_run_config
from vcl.losses import (LossConfig, beta_dist_at, beta_nt_xent,
                        dist_normalizing, dist_similarity, l2_normalize_rows,
                        nt_xent_cosine, pairwise_sq_distances, total_loss)
from vcl.model import GaussianParams, params_fingerprint

CFG = LossConfig()
PARTNER6 = np.array([1, 0, 3, 2, 5, 4])

BETA_DIST_AT_ZERO = 0.2267922659886359  # mpmath, 50 digits, defaults


# ---------------------------------------------------------------------------
# naive references (no tape, no shared code)

def ref_beta_dist(d, beta, sigma0):
    s2 = sigma0 * sigma0
    norm = (2.0 * math.pi * s2) ** (-beta / 2.0)
    return -((beta + 1.0) / beta) * (norm * math.exp(-beta * d / (2.0 * s2))
                                     - 1.0)


def ref_nt_xent(sim, partner, tau):
    n = sim.shape[0]
    total = 0.0
    for i in range(n):
        logits = [sim[i, k] / tau for k in range(n) if k != i]
        mx = max(logits)
        lse = mx + math.log(sum(math.exp(v - mx) for v in logits))
        total += lse - sim[i, partner[i]] / tau
    return total / n


def ref_beta_nt_xent(z, partner, cfg):
    z = np.asarray(z, dtype=np.float64)
    if cfg.normalize_z:
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    n = z.shape[0]
    sim = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d = float(np.sum((z[i] - z[j]) ** 2))
            val = ref_beta_dist(d, cfg.beta, cfg.sigma0)
            sim[i, j] = -val if cfg.sign_mode == "negated" else val
    return ref_nt_xent(sim, partner, cfg.tau)


def ref_cosine_nt_xent(z, partner, tau):
    z = np.asarray(z, dtype=np.float64)
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    return ref_nt_xent(zn @ zn.T, partner, tau)


def ref_dist_similarity(mu_i, lv_i, mu_j, lv_j):
    si = np.exp(0.5 * lv_i)
    sj = np.exp(0.5 * lv_j)
    sm = 0.5 * (si + sj)
    mm = 0.5 * (mu_i + mu_j)
    per = 0.5 * np.sum(2.0 * np.log(sm) - 0.5 * lv_i - 0.5 * lv_j
                       + ((mu_i - mm) ** 2 + (mu_j - mm) ** 2)
                       / (2.0 * sm ** 2), axis=1)
    return float(per.mean())


def ref_dist_normalizing(mu, lv):
    per = 0.5 * np.sum(mu ** 2 + np.exp(lv) - 1.0 - lv, axis=1)
    return float(per.mean())


# ---------------------------------------------------------------------------
# the contrastive losses as chains of elementary tape ops: the oracle of
# the fused node, which must reproduce their float32 bits

def chain_nt_xent(s, partner, tau):
    n = s.data.shape[0]
    dt = s.data.dtype
    logits = scale(s, 1.0 / float(tau))
    eye = np.eye(n, dtype=bool)
    row_max = np.where(eye, -np.inf, logits.data).max(axis=1)
    shifted = sub(logits, Tensor(row_max[:, None].astype(dt), dtype=dt))
    diag_gate = np.where(eye, -np.inf, 0.0).astype(dt)
    gated = add(shifted, Tensor(diag_gate, dtype=dt))
    denom = tsum(exp(gated), axis=1)
    lse = add(log(denom), Tensor(row_max.astype(dt), dtype=dt))
    pos_mask = np.zeros((n, n), dtype=dt)
    pos_mask[np.arange(n), partner] = 1.0
    pos = tsum(mul(logits, Tensor(pos_mask, dtype=dt)), axis=1)
    return tmean(sub(lse, pos))


def chain_beta_nt_xent(z, partner, cfg):
    partner = np.asarray(partner)
    if cfg.normalize_z:
        z = l2_normalize_rows(z)
    d2 = pairwise_sq_distances(z)
    b = float(cfg.beta)
    s2 = float(cfg.sigma0) ** 2
    dt = z.data.dtype
    u = add(scale(d2, -b / (2.0 * s2)),
            Tensor(np.asarray(-(b / 2.0) * math.log(2.0 * math.pi * s2),
                              dtype=dt), dtype=dt))
    em1 = np.expm1(u.data)
    dissim = scale(record(em1, (u,), lambda g: g * (em1 + 1.0)),
                   -(b + 1.0) / b)
    s = scale(dissim, -1.0) if cfg.sign_mode == "negated" else dissim
    return chain_nt_xent(s, partner, cfg.tau)


def chain_nt_xent_cosine(z, partner, tau):
    zn = l2_normalize_rows(z)
    return chain_nt_xent(matmul(zn, transpose(zn)), np.asarray(partner), tau)


def _loss_and_grad(loss_fn, z0, *args):
    z = Tensor(z0, requires_grad=True, dtype=z0.dtype)
    out = loss_fn(z, *args)
    out.backward()
    return out.data, z.grad


def _pairs(n):
    return np.arange(n) ^ 1


def _z(seed, n=6, d=4, scl=0.6):
    return np.random.default_rng(seed).standard_normal((n, d)) * scl


def _moments(seed, n=6, d=4):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, d)) * 0.8,
            rng.standard_normal((n, d)) * 0.5)


# ---------------------------------------------------------------------------
# scalar forms

def test_beta_dist_matches_reference_grid():
    for beta in (0.001, 0.005, 0.05, 0.5):
        for sigma0 in (0.5, 1.0, 2.0):
            cfg = LossConfig(beta=beta, sigma0=sigma0)
            for d in (0.0, 0.3, 1.0, 7.5, 120.0):
                assert abs(beta_dist_at(d, cfg)
                           - ref_beta_dist(d, beta, sigma0)) < 1e-10


def test_beta_dist_frozen_oracle_at_zero():
    assert abs(beta_dist_at(0.0, CFG) - BETA_DIST_AT_ZERO) < 1e-13
    with pytest.raises(DomainError):
        beta_dist_at(-0.1, CFG)


def test_beta_dist_small_beta_limit():
    # beta -> 0 pointwise limit: d / (2 sigma0^2) + 0.5 log(2 pi sigma0^2)
    s2 = CFG.sigma0 ** 2
    for beta in (1e-5, 1e-6):
        cfg = LossConfig(beta=beta, sigma0=CFG.sigma0)
        for d in (0.0, 0.5, 1.0, 5.0):
            limit = d / (2.0 * s2) + 0.5 * math.log(2.0 * math.pi * s2)
            assert abs(beta_dist_at(d, cfg) - limit) < 1e-3


def test_beta_dist_bounded_influence():
    eps = 1.0
    slope_far = (beta_dist_at(1e4 + eps, CFG) - beta_dist_at(1e4 - eps, CFG)) / 2
    slope_near = (beta_dist_at(eps, CFG) - beta_dist_at(0.0, CFG)) / eps
    assert slope_far < 1e-6 * slope_near
    assert beta_dist_at(1e9, CFG) < (CFG.beta + 1.0) / CFG.beta + 1e-9


# ---------------------------------------------------------------------------
# batch losses against the references

def test_pairwise_sq_distances_value_and_grad():
    z0 = _z(0)
    out = pairwise_sq_distances(Tensor(z0, dtype=np.float64))
    n = z0.shape[0]
    want = np.array([[np.sum((z0[i] - z0[j]) ** 2) for j in range(n)]
                     for i in range(n)])
    assert np.allclose(out.data, want, atol=1e-10)
    rep = grad_check(lambda z: tsum(pairwise_sq_distances(z)),
                     Tensor(z0, dtype=np.float64), eps=1e-5, tol=1e-6)
    assert rep.passed, rep.max_rel_err
    with pytest.raises(ShapeError):
        pairwise_sq_distances(Tensor(np.zeros(3), dtype=np.float64))


def test_l2_normalize_rows():
    z = Tensor(_z(1), dtype=np.float64)
    zn = l2_normalize_rows(z)
    assert np.allclose(np.linalg.norm(zn.data, axis=1), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        l2_normalize_rows(Tensor(np.zeros((2, 3)), dtype=np.float64))


@pytest.mark.parametrize("sign_mode", ["negated", "literal"])
def test_beta_nt_xent_matches_reference(sign_mode):
    for seed in range(5):
        cfg = LossConfig(sign_mode=sign_mode)
        z0 = _z(seed)
        out = beta_nt_xent(Tensor(z0, dtype=np.float64), PARTNER6, cfg)
        assert abs(float(out.data) - ref_beta_nt_xent(z0, PARTNER6, cfg)) < 1e-10


def test_beta_nt_xent_normalized_matches_reference():
    cfg = LossConfig(normalize_z=True)
    for seed in range(5):
        z0 = _z(seed, scl=1.0)
        out = beta_nt_xent(Tensor(z0, dtype=np.float64), PARTNER6, cfg)
        assert abs(float(out.data) - ref_beta_nt_xent(z0, PARTNER6, cfg)) < 1e-10


def test_beta_nt_xent_identical_views_is_ln3():
    z = Tensor(np.ones((4, 5), dtype=np.float64) * 0.7, dtype=np.float64)
    out = beta_nt_xent(z, np.array([1, 0, 3, 2]), CFG)
    assert abs(float(out.data) - math.log(3.0)) < 1e-12


def test_nt_xent_cosine_matches_reference():
    for seed in range(5):
        z0 = _z(seed, scl=1.0)
        out = nt_xent_cosine(Tensor(z0, dtype=np.float64), PARTNER6, 0.07)
        assert abs(float(out.data)
                   - ref_cosine_nt_xent(z0, PARTNER6, 0.07)) < 1e-10


def test_nt_xent_cosine_scale_invariant():
    z0 = _z(2, scl=1.0)
    a = nt_xent_cosine(Tensor(z0, dtype=np.float64), PARTNER6, 0.1)
    b = nt_xent_cosine(Tensor(z0 * 37.0, dtype=np.float64), PARTNER6, 0.1)
    assert abs(float(a.data) - float(b.data)) < 1e-9


FUSED_CASES = [
    pytest.param(("negated", False), id="negated"),
    pytest.param(("literal", False), id="literal"),
    pytest.param(("negated", True), id="negated-normalized"),
    pytest.param(("literal", True), id="literal-normalized"),
    pytest.param(("cosine", False), id="cosine")]


def _fused_and_chain(case):
    mode, normalize = case
    if mode == "cosine":
        return nt_xent_cosine, chain_nt_xent_cosine, (0.07,)
    cfg = LossConfig(sign_mode=mode, normalize_z=normalize)
    return beta_nt_xent, chain_beta_nt_xent, (cfg,)


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("case", FUSED_CASES)
def test_fused_contrastive_node_is_bit_equal_to_op_chain(case, n):
    fused, chain, args = _fused_and_chain(case)
    rng = np.random.default_rng(n)
    z0 = (rng.standard_normal((n, 32)) * 0.6).astype(np.float32)
    loss, grad = _loss_and_grad(fused, z0, _pairs(n), *args)
    want_loss, want_grad = _loss_and_grad(chain, z0, _pairs(n), *args)
    assert loss.dtype == grad.dtype == np.float32
    assert loss.tobytes() == want_loss.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("case", FUSED_CASES)
def test_fused_contrastive_node_matches_op_chain_in_float64(case):
    fused, chain, args = _fused_and_chain(case)
    for seed in range(5):
        z0 = _z(seed, scl=1.0)
        loss, grad = _loss_and_grad(fused, z0, PARTNER6, *args)
        want_loss, want_grad = _loss_and_grad(chain, z0, PARTNER6, *args)
        assert abs(float(loss) - float(want_loss)) <= 1e-12
        assert np.abs(grad - want_grad).max() <= 1e-12


def test_pretrain_with_op_chain_ends_with_same_parameters(monkeypatch):
    run = parse_run_config({"steps": 5, "batch_n": 8,
                            "model": {"hidden_dims": [16]},
                            "data": {"m": 32, "seed": 3}})
    ds = trainer.build_dataset(run)
    fused = trainer.pretrain(run, dataset=ds)
    monkeypatch.setattr(losses, "beta_nt_xent", chain_beta_nt_xent)
    chain = trainer.pretrain(run, dataset=ds)
    assert ([r["total"] for r in fused.step_records]
            == [r["total"] for r in chain.step_records])
    assert params_fingerprint(fused.params) == params_fingerprint(chain.params)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", FUSED_CASES)
def test_non_finite_embedding_gives_non_finite_loss(case, bad):
    fused, _, args = _fused_and_chain(case)
    z0 = _z(4).astype(np.float32)
    z0[2, 1] = bad
    with np.errstate(all="ignore"):
        out = fused(Tensor(z0), PARTNER6, *args)
    assert not np.isfinite(out.data)


def test_partner_validation():
    z = Tensor(_z(3), dtype=np.float64)
    with pytest.raises(ShapeError):
        beta_nt_xent(z, np.array([1, 0]), CFG)
    with pytest.raises(ValueError):
        beta_nt_xent(z, np.array([0, 1, 3, 2, 5, 4]), CFG)  # fixed point
    with pytest.raises(ValueError):
        beta_nt_xent(z, np.array([2, 0, 3, 1, 5, 4]), CFG)  # not involutive
    with pytest.raises(ValueError):
        beta_nt_xent(z, np.array([1, 0, 3, 2, 5, 9]), CFG)  # out of range
    with pytest.raises(ShapeError):
        beta_nt_xent(Tensor(_z(3, n=2), dtype=np.float64),
                     np.array([1, 0]), CFG)


def test_dist_similarity_matches_reference():
    for seed in range(5):
        mu_i, lv_i = _moments(seed)
        mu_j, lv_j = _moments(seed + 50)
        gi = GaussianParams(mu=Tensor(mu_i, dtype=np.float64),
                            logvar=Tensor(lv_i, dtype=np.float64))
        gj = GaussianParams(mu=Tensor(mu_j, dtype=np.float64),
                            logvar=Tensor(lv_j, dtype=np.float64))
        out = dist_similarity(gi, gj)
        assert abs(float(out.data)
                   - ref_dist_similarity(mu_i, lv_i, mu_j, lv_j)) < 1e-10


def test_dist_similarity_zero_iff_equal_moments():
    mu, lv = _moments(9)
    g = GaussianParams(mu=Tensor(mu, dtype=np.float64),
                       logvar=Tensor(lv, dtype=np.float64))
    assert abs(float(dist_similarity(g, g).data)) < 1e-12
    g2 = GaussianParams(mu=Tensor(mu + 0.1, dtype=np.float64),
                        logvar=Tensor(lv, dtype=np.float64))
    assert float(dist_similarity(g, g2).data) > 0.0
    with pytest.raises(ShapeError):
        dist_similarity(g, GaussianParams(mu=Tensor(mu[:2], dtype=np.float64),
                                          logvar=Tensor(lv[:2],
                                                        dtype=np.float64)))


def test_dist_similarity_frozen_oracle():
    # one dimension, mu 0 vs 2, unit variances: quad term alone gives 0.5
    gi = GaussianParams(mu=Tensor([[0.0]], dtype=np.float64),
                        logvar=Tensor([[0.0]], dtype=np.float64))
    gj = GaussianParams(mu=Tensor([[2.0]], dtype=np.float64),
                        logvar=Tensor([[0.0]], dtype=np.float64))
    assert abs(float(dist_similarity(gi, gj).data) - 0.5) < 1e-12


def test_dist_normalizing_matches_reference():
    for seed in range(5):
        mu, lv = _moments(seed + 100)
        g = GaussianParams(mu=Tensor(mu, dtype=np.float64),
                           logvar=Tensor(lv, dtype=np.float64))
        assert abs(float(dist_normalizing(g).data)
                   - ref_dist_normalizing(mu, lv)) < 1e-10


def test_dist_normalizing_frozen_oracle():
    g = GaussianParams(mu=Tensor([[1.0]], dtype=np.float64),
                       logvar=Tensor([[0.0]], dtype=np.float64))
    assert float(dist_normalizing(g).data) == 0.5
    std = GaussianParams(mu=Tensor([[0.0, 0.0]], dtype=np.float64),
                         logvar=Tensor([[0.0, 0.0]], dtype=np.float64))
    assert float(dist_normalizing(std).data) == 0.0


# ---------------------------------------------------------------------------
# composition

def test_total_loss_composition_and_weights():
    z0 = _z(20)
    mu, lv = _moments(21)
    z = Tensor(z0, dtype=np.float64)
    g = GaussianParams(mu=Tensor(mu, dtype=np.float64),
                       logvar=Tensor(lv, dtype=np.float64))
    cfg = LossConfig(lambda_dist=0.7, lambda_norm=0.2)
    total, detail = total_loss(z, g, PARTNER6, cfg)
    want = (detail.l_beta + 0.7 * detail.l_dist + 0.2 * detail.l_norm)
    assert abs(detail.total - want) < 1e-9
    assert abs(float(total.data) - detail.total) < 1e-12
    assert abs(detail.l_beta - ref_beta_nt_xent(z0, PARTNER6, cfg)) < 1e-10
    assert abs(detail.l_norm - ref_dist_normalizing(mu, lv)) < 1e-10
    # l_dist pairs each row with its partner view
    assert abs(detail.l_dist
               - ref_dist_similarity(mu, lv, mu[PARTNER6], lv[PARTNER6])) < 1e-10

    bare, bare_detail = total_loss(z, g, PARTNER6,
                                   LossConfig(lambda_dist=0.0,
                                              lambda_norm=0.0))
    assert abs(float(bare.data) - bare_detail.l_beta) < 1e-12


def test_total_loss_shape_guard():
    z = Tensor(_z(22), dtype=np.float64)
    mu, lv = _moments(23, n=4)
    g = GaussianParams(mu=Tensor(mu, dtype=np.float64),
                       logvar=Tensor(lv, dtype=np.float64))
    with pytest.raises(ShapeError):
        total_loss(z, g, PARTNER6, CFG)


def test_total_loss_gradient():
    mu, lv = _moments(24)
    rng = np.random.default_rng(25)
    xi = rng.standard_normal((6, 4))

    def f(flat):
        from vcl.autograd import add, exp, gather_rows, mul, scale
        m = gather_rows(flat, np.arange(6))
        l = gather_rows(flat, np.arange(6, 12))
        g = GaussianParams(mu=m, logvar=l)
        z = add(m, mul(exp(scale(l, 0.5)), Tensor(xi, dtype=np.float64)))
        total, _ = total_loss(z, g, PARTNER6, CFG)
        return total

    x0 = Tensor(np.vstack([mu * 0.15, lv * 0.3]), dtype=np.float64)
    rep = grad_check(f, x0, eps=1e-4, tol=1e-3)
    assert rep.passed, rep.max_rel_err


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(tau=0.0)
    with pytest.raises(ValueError):
        LossConfig(beta=-0.1)
    with pytest.raises(ValueError):
        LossConfig(sigma0=0.0)
    with pytest.raises(ValueError):
        LossConfig(lambda_dist=-1.0)
    with pytest.raises(ValueError):
        LossConfig(sign_mode="flipped")
