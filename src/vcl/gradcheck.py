"""Registry of finite-difference gradient checks over ops and losses.

Every differentiable op and every loss has an entry here. A check draws
a batch of small random instances (seeded, kink-avoiding where the op
has one) and reports the worst relative error between the analytic
gradient and a float64 central difference. Ops must pass at 1e-4,
composite losses and model paths at 1e-3.

Factories draw all their constants up front and close over them, so the
function handed to the checker is pure. The contrastive losses use a
smaller step: their logits carry a 1/tau amplification, and the
second-order truncation term of a central difference grows with the
cube of that slope.

``include_broken`` adds a deliberately wrong op so the harness can
demonstrate that it fails loudly rather than vacuously passing.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from vcl import autograd as ag
from vcl.autograd import Tensor, grad_check
from vcl.losses import (LossConfig, beta_nt_xent, dist_normalizing,
                        dist_similarity, nt_xent_cosine,
                        pairwise_sq_distances, total_loss)
from vcl.model import (EncoderConfig, GaussianParams, encode, gaussian_head,
                       init_params, reparameterize)

OP_TOL = 1e-4
LOSS_TOL = 1e-3
OP_EPS = 1e-3
LOSS_EPS = 3e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tol: float
    passed: bool


def _t(rng, shape, positive=False, off_zero=0.0, scale=1.0) -> Tensor:
    """Random float64 tensor; optionally positive or bounded away from 0."""
    x = rng.standard_normal(shape)
    if positive:
        x = np.abs(x) + 0.5
    elif off_zero > 0.0:
        x = np.sign(x) * (np.abs(x) + off_zero)
    return Tensor(scale * x, dtype=np.float64)


def _away_from(x: np.ndarray, points, margin: float = 0.06) -> np.ndarray:
    """Nudge values off non-differentiable points so fd stays two-sided."""
    y = x.copy()
    for p in points:
        close = np.abs(y - p) < margin
        y[close] = p + 2.0 * margin * np.where(y[close] >= p, 1.0, -1.0)
    return y


_PARTNER6 = np.array([1, 0, 3, 2, 5, 4])

Entry = tuple[str, float, float, Callable]


def _registry() -> list[Entry]:
    """(name, tol, eps, factory); factory(rng) -> (f, x0)."""
    cfg = LossConfig()
    cfg_lit = LossConfig(sign_mode="literal")
    cfg_norm = LossConfig(normalize_z=True)

    entries: list[Entry] = []

    def op(name, factory, tol=OP_TOL, eps=OP_EPS):
        entries.append((name, tol, eps, factory))

    def loss(name, factory, tol=LOSS_TOL, eps=LOSS_EPS):
        entries.append((name, tol, eps, factory))

    def with_const(build, shape=(3, 4), **tkw):
        """Factory template: one probe tensor plus one fixed constant."""
        def factory(rng):
            c = _t(rng, (3, 4))
            x0 = _t(rng, shape, **tkw)
            return build(c), x0
        return factory

    op("add", with_const(lambda c: lambda x: ag.tsum(ag.add(x, c))))
    op("add_rowvec", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.add(x, c)))(_t(rng, (4,))),
        _t(rng, (3, 4))))
    op("add_colvec", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.add(x, c)))(_t(rng, (3, 1))),
        _t(rng, (3, 4))))
    op("add_scalar", lambda rng: (lambda x: ag.tsum(ag.add(x, 1.7)),
                                  _t(rng, (3, 4))))
    op("sub", with_const(lambda c: lambda x: ag.tsum(ag.sub(c, x))))
    op("mul", with_const(lambda c: lambda x: ag.tsum(ag.mul(x, c))))
    op("mul_rowvec", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.mul(c, x)))(_t(rng, (3, 4))),
        _t(rng, (4,))))
    op("div_num", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.div(x, c)))(_t(rng, (3, 4), positive=True)),
        _t(rng, (3, 4))))
    op("div_den", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.div(c, x)))(_t(rng, (3, 4))),
        _t(rng, (3, 4), positive=True)))
    op("scale", lambda rng: (lambda x: ag.tsum(ag.scale(x, -2.5)),
                             _t(rng, (3, 4))))
    op("matmul_lhs", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.matmul(x, c)))(_t(rng, (4, 2))),
        _t(rng, (3, 4))))
    op("matmul_rhs", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.matmul(c, x)))(_t(rng, (3, 4))),
        _t(rng, (4, 2))))
    op("transpose", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.mul(ag.transpose(x), c)))(_t(rng, (4, 3))),
        _t(rng, (3, 4))))
    op("reshape", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.mul(ag.reshape(x, (4, 3)), c)))(
            _t(rng, (4, 3))),
        _t(rng, (3, 4))))
    op("exp", lambda rng: (lambda x: ag.tsum(ag.exp(x)), _t(rng, (3, 4))))
    op("log", lambda rng: (lambda x: ag.tsum(ag.log(x)),
                           _t(rng, (3, 4), positive=True)))
    op("pow_square", lambda rng: (lambda x: ag.tsum(ag.pow_scalar(x, 2.0)),
                                  _t(rng, (3, 4))))
    op("pow_cube", lambda rng: (lambda x: ag.tsum(ag.pow_scalar(x, 3.0)),
                                _t(rng, (3, 4), off_zero=0.3)))
    op("pow_sqrt", lambda rng: (lambda x: ag.tsum(ag.pow_scalar(x, 0.5)),
                                _t(rng, (3, 4), positive=True)))
    op("pow_recip", lambda rng: (lambda x: ag.tsum(ag.pow_scalar(x, -1.0)),
                                 _t(rng, (3, 4), positive=True)))

    def relu_factory(rng):
        c = _t(rng, (3, 4))
        x = _away_from(rng.standard_normal((3, 4)), (0.0,))
        return (lambda t: ag.tsum(ag.mul(ag.relu(t), c)),
                Tensor(x, dtype=np.float64))
    op("relu", relu_factory)

    def clamp_factory(rng):
        c = _t(rng, (3, 4))
        x = _away_from(2.0 * rng.standard_normal((3, 4)), (-0.5, 0.5))
        return (lambda t: ag.tsum(ag.mul(ag.clamp(t, -0.5, 0.5), c)),
                Tensor(x, dtype=np.float64))
    op("clamp", clamp_factory)

    op("sum_all", lambda rng: (lambda x: ag.tsum(x), _t(rng, (3, 4))))
    op("sum_axis0", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.mul(ag.tsum(x, axis=0), c)))(
            _t(rng, (4,))),
        _t(rng, (3, 4))))
    op("sum_axis1", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.mul(ag.tsum(x, axis=1), c)))(
            _t(rng, (3,))),
        _t(rng, (3, 4))))
    op("mean_all", lambda rng: (lambda x: ag.tmean(x), _t(rng, (3, 4))))
    op("mean_axis1", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.mul(ag.tmean(x, axis=1), c)))(
            _t(rng, (3,))),
        _t(rng, (3, 4))))
    op("gather_rows", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.mul(
            ag.gather_rows(x, np.array([2, 0, 2, 3])), c)))(_t(rng, (4, 4))),
        _t(rng, (4, 4))))
    op("pairwise_sqdist", lambda rng: (
        (lambda c: lambda x: ag.tsum(ag.mul(pairwise_sq_distances(x), c)))(
            _t(rng, (4, 4))),
        _t(rng, (4, 3))))

    # composite losses
    #
    # Contrastive checks draw z at scale 0.15 with eps 1e-4.  At unit scale
    # some rows have their positive pair dominating the row softmax; those
    # coordinates carry gradients ~exp(-gap/tau), below what central
    # differences can resolve against f64 rounding of an O(100) loss value.
    # Small-scale draws keep every coordinate fd-resolvable, and the smaller
    # step controls the 1/tau softmax curvature in the truncation term.
    loss("beta_nt_xent_negated", lambda rng: (
        lambda z: beta_nt_xent(z, _PARTNER6, cfg),
        _t(rng, (6, 4), scale=0.15)), eps=1e-4)
    loss("beta_nt_xent_literal", lambda rng: (
        lambda z: beta_nt_xent(z, _PARTNER6, cfg_lit),
        _t(rng, (6, 4), scale=0.15)), eps=1e-4)
    def beta_nt_xent_norm(rng):
        # Normalization erases draw scale, so cluster the rows around a
        # shared unit vector instead; on-sphere distances stay comparable
        # and no row saturates its softmax.
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        z0 = u[None, :] + 0.3 * rng.standard_normal((6, 4))
        return (lambda z: beta_nt_xent(z, _PARTNER6, cfg_norm),
                Tensor(z0, dtype=np.float64))
    loss("beta_nt_xent_normalized", beta_nt_xent_norm, eps=1e-4)
    loss("nt_xent_cosine", lambda rng: (
        lambda z: nt_xent_cosine(z, _PARTNER6, 0.07), _t(rng, (6, 4))))

    def dist_sim_mu(rng):
        mu_j = _t(rng, (3, 4))
        lv_i = _t(rng, (3, 4))
        lv_j = _t(rng, (3, 4))
        return (lambda mu: dist_similarity(GaussianParams(mu, lv_i),
                                           GaussianParams(mu_j, lv_j)),
                _t(rng, (3, 4)))
    loss("dist_similarity_mu", dist_sim_mu)

    def dist_sim_logvar(rng):
        mu_i = _t(rng, (3, 4))
        mu_j = _t(rng, (3, 4))
        lv_j = _t(rng, (3, 4))
        return (lambda lv: dist_similarity(GaussianParams(mu_i, lv),
                                           GaussianParams(mu_j, lv_j)),
                _t(rng, (3, 4)))
    loss("dist_similarity_logvar", dist_sim_logvar)

    def dist_norm_mu(rng):
        lv = _t(rng, (3, 4))
        return (lambda mu: dist_normalizing(GaussianParams(mu, lv)),
                _t(rng, (3, 4)))
    loss("dist_normalizing_mu", dist_norm_mu)

    def dist_norm_logvar(rng):
        mu = _t(rng, (3, 4))
        return (lambda lv: dist_normalizing(GaussianParams(mu, lv)),
                _t(rng, (3, 4)))
    loss("dist_normalizing_logvar", dist_norm_logvar)

    def total_via_mu(rng):
        lv = _t(rng, (6, 4))

        def f(mu):
            g = GaussianParams(mu, lv)
            t, _ = total_loss(mu, g, _PARTNER6, cfg)
            return t
        return f, _t(rng, (6, 4))
    loss("total_loss_mu", total_via_mu)

    def total_via_logvar(rng):
        mu = _t(rng, (6, 4))

        def f(lv):
            g = GaussianParams(mu, lv)
            t, _ = total_loss(mu, g, _PARTNER6, cfg)
            return t
        return f, _t(rng, (6, 4))
    loss("total_loss_logvar", total_via_logvar)

    # model paths
    enc_cfg = EncoderConfig(input_shape=(12,), hidden_dims=(8,), embed_dim=6)

    def _relu_margin(params, x64):
        """Smallest |pre-activation| over every relu layer in the model.

        Central differences assume the function is smooth across the fd
        window; a pre-activation within ~eps of zero puts a relu kink
        inside it.  Factories redraw until this margin is comfortable.
        """
        h = x64
        pre0 = h @ params["enc0.w"].data.astype(np.float64)
        pre0 = pre0 + params["enc0.b"].data.astype(np.float64)
        m = np.abs(pre0).min()
        h = np.maximum(pre0, 0.0)
        e = h @ params["enc_out.w"].data.astype(np.float64)
        e = e + params["enc_out.b"].data.astype(np.float64)
        pre_h = e @ params["head_hidden.w"].data.astype(np.float64)
        pre_h = pre_h + params["head_hidden.b"].data.astype(np.float64)
        return min(m, np.abs(pre_h).min())

    def encode_wrt_w0(rng):
        for _ in range(64):
            params = init_params(enc_cfg, 4, seed=int(rng.integers(1 << 30)))
            xd = rng.standard_normal((3, 12))
            if _relu_margin(params, xd) > 5e-3:
                break
        x = Tensor(xd, dtype=np.float64)
        w0 = Tensor(params["enc0.w"].data.astype(np.float64),
                    dtype=np.float64)

        def f(w):
            p = dict(params)
            p["enc0.w"] = w
            return ag.tsum(encode(p, x))
        return f, w0
    loss("encode_wrt_first_weight", encode_wrt_w0)

    def model_end_to_end(rng):
        for _ in range(64):
            params = init_params(enc_cfg, 4, seed=int(rng.integers(1 << 30)))
            xd = rng.standard_normal((2, 12))
            if _relu_margin(params, xd) > 5e-3:
                break
        xi = Tensor(rng.standard_normal((2, 4)), dtype=np.float64)
        x0 = Tensor(xd, dtype=np.float64)

        def f(x):
            h = encode(params, x)
            g = gaussian_head(params, h)
            z = reparameterize(g, xi)
            return ag.tsum(ag.mul(z, z))
        return f, x0
    loss("model_end_to_end", model_end_to_end)

    return entries


def _broken_exp(a: Tensor) -> Tensor:
    # deliberately wrong VJP used only for the harness self-test
    data = np.exp(a.data)
    return ag.record(data, (a,), lambda g: g * data * 1.1)


def run_suite(instances: int = 20, seed: int = 0,
              include_broken: bool = False) -> list[CheckResult]:
    """Run every registered check; each instance is an independent draw."""
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    entries = _registry()
    if include_broken:
        entries.append(("selftest_broken_op", OP_TOL, OP_EPS, lambda rng: (
            lambda x: ag.tsum(_broken_exp(x)), _t(rng, (3, 4)))))
    results = []
    for name, tol, eps, factory in entries:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        worst = 0.0
        for _ in range(instances):
            f, x0 = factory(rng)
            rep = grad_check(f, x0, eps=eps, tol=tol)
            worst = max(worst, rep.max_rel_err)
        results.append(CheckResult(name=name, max_rel_err=worst, tol=tol,
                                   passed=worst <= tol))
    return results


def suite_report(results: list[CheckResult]) -> dict:
    return {
        "checks": [asdict(r) for r in results],
        "total": len(results),
        "failures": sum(1 for r in results if not r.passed),
        "passed": all(r.passed for r in results),
    }
