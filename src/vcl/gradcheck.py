"""Registry of finite-difference gradient checks over ops and losses.

Every differentiable op and every loss has an entry here. A check draws
a batch of small random instances (seeded, kink-avoiding where the op
has one) and reports the worst relative error between the analytic
gradient and a float64 central difference. Ops must pass at 1e-4,
composite losses and model paths at 1e-3.

The registry is a table. A row names a check, its checked function
``fn(x, *consts)``, the probe's draw and one draw per constant.
``_probe`` makes the row's factory: it draws the constants in order and
the probe last, and hands the checker ``x -> fn(x, *consts)``. A draw
is ``draw(rng, *consts)``; only a probe draw reads the constants.
Adding a check is adding one row, to the op table (``OP_TOL``,
``OP_EPS``) or to the loss table (``LOSS_TOL`` and the row's own step).
Each check's stream is keyed by its name, so a new row leaves every
other check's draws as they were.

The contrastive losses use a smaller step: their logits carry a 1/tau
amplification, and the second-order truncation term of a central
difference grows with the cube of that slope.

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


def _draw(shape, **kw):
    """Draw of one ``_t`` tensor."""
    return lambda rng, *_: _t(rng, shape, **kw)


def _probe(fn, draw_x, *draw_consts):
    """Factory: draw each constant in order, then the probe x0."""
    def factory(rng):
        consts = [draw(rng) for draw in draw_consts]
        return (lambda x: fn(x, *consts)), draw_x(rng, *consts)
    return factory


def _away_from(points, scale: float = 1.0, margin: float = 0.06):
    """Draw of a (3, 4) probe nudged off non-differentiable points, so
    the central difference stays on one side of each kink."""
    def draw(rng, *_):
        y = scale * rng.standard_normal((3, 4))
        for p in points:
            close = np.abs(y - p) < margin
            y[close] = p + 2.0 * margin * np.where(y[close] >= p, 1.0, -1.0)
        return Tensor(y, dtype=np.float64)
    return draw


def _clustered(rng, *_) -> Tensor:
    """Draw of six rows clustered around a shared unit vector.

    Normalization erases draw scale, so on-sphere distances stay
    comparable this way and no row saturates its softmax.
    """
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    return Tensor(u[None, :] + 0.3 * rng.standard_normal((6, 4)),
                  dtype=np.float64)


_ENC = EncoderConfig(input_shape=(12,), hidden_dims=(8,), embed_dim=6)


def _relu_margin(params, x64) -> float:
    """Smallest |pre-activation| over every relu layer in the model.

    Central differences assume the function is smooth across the fd
    window; a pre-activation within ~eps of zero puts a relu kink
    inside it.
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


def _smooth_model(rows: int):
    """Draw of (params, inputs) for ``_ENC``, redrawn until every relu
    pre-activation keeps a comfortable margin from its kink."""
    def draw(rng, *_):
        for _ in range(64):
            params = init_params(_ENC, 4, seed=int(rng.integers(1 << 30)))
            xd = rng.standard_normal((rows, 12))
            if _relu_margin(params, xd) > 5e-3:
                break
        return params, Tensor(xd, dtype=np.float64)
    return draw


_PARTNER6 = np.array([1, 0, 3, 2, 5, 4])

Entry = tuple[str, float, float, Callable]


def _registry() -> list[Entry]:
    """(name, tol, eps, factory); factory(rng) -> (f, x0)."""
    cfg = LossConfig()
    cfg_lit = LossConfig(sign_mode="literal")
    cfg_norm = LossConfig(normalize_z=True)
    mat, pos = _draw((3, 4)), _draw((3, 4), positive=True)
    vec3, vec4, z6 = _draw((3,)), _draw((4,)), _draw((6, 4))
    gp = GaussianParams

    # (name, fn, probe draw, *constant draws)
    ops = [
        ("add", lambda x, c: ag.tsum(ag.add(x, c)), mat, mat),
        ("add_rowvec", lambda x, c: ag.tsum(ag.add(x, c)), mat, vec4),
        ("add_colvec", lambda x, c: ag.tsum(ag.add(x, c)), mat,
         _draw((3, 1))),
        ("add_scalar", lambda x: ag.tsum(ag.add(x, 1.7)), mat),
        ("sub", lambda x, c: ag.tsum(ag.sub(c, x)), mat, mat),
        ("mul", lambda x, c: ag.tsum(ag.mul(x, c)), mat, mat),
        ("mul_rowvec", lambda x, c: ag.tsum(ag.mul(c, x)), vec4, mat),
        ("div_num", lambda x, c: ag.tsum(ag.div(x, c)), mat, pos),
        ("div_den", lambda x, c: ag.tsum(ag.div(c, x)), pos, mat),
        ("scale", lambda x: ag.tsum(ag.scale(x, -2.5)), mat),
        ("matmul_lhs", lambda x, c: ag.tsum(ag.matmul(x, c)), mat,
         _draw((4, 2))),
        ("matmul_rhs", lambda x, c: ag.tsum(ag.matmul(c, x)),
         _draw((4, 2)), mat),
        ("transpose", lambda x, c: ag.tsum(ag.mul(ag.transpose(x), c)),
         mat, _draw((4, 3))),
        ("reshape", lambda x, c: ag.tsum(ag.mul(ag.reshape(x, (4, 3)), c)),
         mat, _draw((4, 3))),
        ("exp", lambda x: ag.tsum(ag.exp(x)), mat),
        ("log", lambda x: ag.tsum(ag.log(x)), pos),
        ("pow_square", lambda x: ag.tsum(ag.pow_scalar(x, 2.0)), mat),
        ("pow_cube", lambda x: ag.tsum(ag.pow_scalar(x, 3.0)),
         _draw((3, 4), off_zero=0.3)),
        ("pow_sqrt", lambda x: ag.tsum(ag.pow_scalar(x, 0.5)), pos),
        ("pow_recip", lambda x: ag.tsum(ag.pow_scalar(x, -1.0)), pos),
        ("relu", lambda x, c: ag.tsum(ag.mul(ag.relu(x), c)),
         _away_from((0.0,)), mat),
        ("clamp", lambda x, c: ag.tsum(ag.mul(ag.clamp(x, -0.5, 0.5), c)),
         _away_from((-0.5, 0.5), scale=2.0), mat),
        ("sum_all", lambda x: ag.tsum(x), mat),
        ("sum_axis0", lambda x, c: ag.tsum(ag.mul(ag.tsum(x, axis=0), c)),
         mat, vec4),
        ("sum_axis1", lambda x, c: ag.tsum(ag.mul(ag.tsum(x, axis=1), c)),
         mat, vec3),
        ("mean_all", lambda x: ag.tmean(x), mat),
        ("mean_axis1", lambda x, c: ag.tsum(ag.mul(ag.tmean(x, axis=1), c)),
         mat, vec3),
        ("gather_rows", lambda x, c: ag.tsum(ag.mul(
            ag.gather_rows(x, np.array([2, 0, 2, 3])), c)),
         _draw((4, 4)), _draw((4, 4))),
        ("pairwise_sqdist",
         lambda x, c: ag.tsum(ag.mul(pairwise_sq_distances(x), c)),
         _draw((4, 3)), _draw((4, 4))),
    ]

    # (name, eps, fn, probe draw, *constant draws)
    #
    # Contrastive checks draw z at scale 0.15 with eps 1e-4.  At unit scale
    # some rows have their positive pair dominating the row softmax; those
    # coordinates carry gradients ~exp(-gap/tau), below what central
    # differences can resolve against f64 rounding of an O(100) loss value.
    # Small-scale draws keep every coordinate fd-resolvable, and the smaller
    # step controls the 1/tau softmax curvature in the truncation term.
    losses = [
        ("beta_nt_xent_negated", 1e-4,
         lambda z: beta_nt_xent(z, _PARTNER6, cfg),
         _draw((6, 4), scale=0.15)),
        ("beta_nt_xent_literal", 1e-4,
         lambda z: beta_nt_xent(z, _PARTNER6, cfg_lit),
         _draw((6, 4), scale=0.15)),
        ("beta_nt_xent_normalized", 1e-4,
         lambda z: beta_nt_xent(z, _PARTNER6, cfg_norm), _clustered),
        ("nt_xent_cosine", LOSS_EPS,
         lambda z: nt_xent_cosine(z, _PARTNER6, 0.07), z6),
        ("dist_similarity_mu", LOSS_EPS, lambda mu, mu_j, lv_i, lv_j:
         dist_similarity(gp(mu, lv_i), gp(mu_j, lv_j)), mat, mat, mat, mat),
        ("dist_similarity_logvar", LOSS_EPS, lambda lv, mu_i, mu_j, lv_j:
         dist_similarity(gp(mu_i, lv), gp(mu_j, lv_j)), mat, mat, mat, mat),
        ("dist_normalizing_mu", LOSS_EPS,
         lambda mu, lv: dist_normalizing(gp(mu, lv)), mat, mat),
        ("dist_normalizing_logvar", LOSS_EPS,
         lambda lv, mu: dist_normalizing(gp(mu, lv)), mat, mat),
        ("total_loss_mu", LOSS_EPS,
         lambda mu, lv: total_loss(mu, gp(mu, lv), _PARTNER6, cfg)[0],
         z6, z6),
        ("total_loss_logvar", LOSS_EPS,
         lambda lv, mu: total_loss(mu, gp(mu, lv), _PARTNER6, cfg)[0],
         z6, z6),
        # model paths: the probe is read off the drawn model
        ("encode_wrt_first_weight", LOSS_EPS,
         lambda w, m: ag.tsum(encode({**m[0], "enc0.w": w}, m[1])),
         lambda rng, m: Tensor(m[0]["enc0.w"].data.astype(np.float64),
                               dtype=np.float64),
         _smooth_model(3)),
        ("model_end_to_end", LOSS_EPS,
         lambda x, m, xi: ag.tsum(ag.mul(z := reparameterize(
             gaussian_head(m[0], encode(m[0], x)), xi), z)),
         lambda rng, m, xi: m[1], _smooth_model(2), _draw((2, 4))),
    ]
    return ([(name, OP_TOL, OP_EPS, _probe(*row)) for name, *row in ops]
            + [(name, LOSS_TOL, eps, _probe(*row))
               for name, eps, *row in losses])


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
        entries.append(("selftest_broken_op", OP_TOL, OP_EPS, _probe(
            lambda x: ag.tsum(_broken_exp(x)), _draw((3, 4)))))
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
