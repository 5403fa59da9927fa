"""Unit checks for the reverse-mode tensor core.

Linear ops get exact closed-form gradient assertions; the rest run
seeded finite-difference sweeps through grad_check.
"""

import gc
import weakref

import numpy as np
import pytest

from vcl import autograd, losses, model
from vcl.autograd import (DomainError, ShapeError, Tensor, _expit, add,
                          clamp, div, exp, gather_rows, grad_check, log,
                          matmul, mul, pow_scalar, record, relu, reshape,
                          scale, sub, tmean, transpose, tsum)


def _rand(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True,
                  dtype=np.float64)


# ---------------------------------------------------------------------------
# forward values

def test_elementwise_forward_values():
    a = Tensor([[1.0, -2.0], [0.5, 4.0]], dtype=np.float64)
    b = Tensor([[2.0, 3.0], [1.0, -1.0]], dtype=np.float64)
    assert np.array_equal(add(a, b).data, [[3.0, 1.0], [1.5, 3.0]])
    assert np.array_equal(sub(a, b).data, [[-1.0, -5.0], [-0.5, 5.0]])
    assert np.array_equal(mul(a, b).data, [[2.0, -6.0], [0.5, -4.0]])
    assert np.array_equal(div(a, b).data, [[0.5, -2.0 / 3.0], [0.5, -4.0]])
    assert np.array_equal(scale(a, -2.0).data, [[-2.0, 4.0], [-1.0, -8.0]])
    assert np.array_equal(relu(a).data, [[1.0, 0.0], [0.5, 4.0]])


def test_matmul_forward_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5))
    w = rng.standard_normal((5, 2))
    out = matmul(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64))
    assert np.allclose(out.data, x @ w, atol=1e-12)


def test_reductions_and_shapes():
    a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert float(tsum(a).data) == 15.0
    assert np.array_equal(tsum(a, axis=0).data, [3.0, 5.0, 7.0])
    assert tsum(a, axis=1, keepdims=True).data.shape == (2, 1)
    assert np.allclose(tmean(a, axis=1).data, [1.0, 4.0])
    assert transpose(a).data.shape == (3, 2)
    assert reshape(a, (3, 2)).data.shape == (3, 2)


def test_row_ops_roundtrip():
    a = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3))
    perm = np.array([2, 0, 3, 1])
    back = gather_rows(gather_rows(a, perm), np.argsort(perm))
    assert np.array_equal(back.data, a.data)
    picked = gather_rows(a, [2, 0, 2])
    assert np.array_equal(picked.data, a.data[[2, 0, 2]])


# ---------------------------------------------------------------------------
# exact gradients

def test_add_broadcast_gradient_is_counted():
    a = Tensor(np.zeros((3, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(np.zeros(4), requires_grad=True, dtype=np.float64)
    tsum(add(a, b)).backward()
    assert np.array_equal(a.grad, np.ones((3, 4)))
    # broadcast rows collapse back onto the vector
    assert np.array_equal(b.grad, np.full(4, 3.0))


def test_reused_tensor_accumulates():
    x = Tensor([2.0], requires_grad=True, dtype=np.float64)
    y = add(mul(x, x), x)  # x^2 + x
    y.backward()
    assert np.allclose(x.grad, [5.0])


def test_diamond_graph_gradient():
    x = Tensor([3.0], requires_grad=True, dtype=np.float64)
    a = mul(x, x)
    b = scale(x, 2.0)
    tsum(add(a, b)).backward()
    assert np.allclose(x.grad, [8.0])


def test_matmul_gradients_exact():
    rng = np.random.default_rng(1)
    x = _rand(rng, (4, 3))
    w = _rand(rng, (3, 2))
    g = rng.standard_normal((4, 2))
    tsum(mul(matmul(x, w), Tensor(g, dtype=np.float64))).backward()
    assert np.allclose(x.grad, g @ w.data.T, atol=1e-12)
    assert np.allclose(w.grad, x.data.T @ g, atol=1e-12)


U32 = 2.0**-24  # float32's unit roundoff


def _within_gemm_bound(got, x, y):
    """Whether the float32 product ``got`` of float32 x @ y is within
    K u (|x| @ |y|) + u |ref| of the float64-accumulated product ref,
    entry by entry: Higham's gamma_K bound for an inner dimension K,
    plus the rounding of ref itself to float32."""
    x64, y64 = x.astype(np.float64), y.astype(np.float64)
    ref = x64 @ y64
    bound = x.shape[1] * U32 * (np.abs(x64) @ np.abs(y64)) + U32 * np.abs(ref)
    return got.dtype == np.float32 and bool(
        np.all(np.abs(got.astype(np.float64) - ref) <= bound))


@pytest.mark.parametrize("m,k,n", [
    (256, 768, 256),   # the encoder's first layer at N = 128
    (1024, 768, 256),  # ... at N = 512
    (163, 64, 8),      # the low-shot head
    (256, 64, 32),     # the Gaussian head's 64 x 32 layers
    (256, 256, 64),    # the encoder's output layer
])
def test_float32_matmul_and_vjps_are_within_the_gemm_bound(m, k, n):
    rng = np.random.default_rng(m * k + n)
    a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
    b = Tensor(rng.standard_normal((k, n)) * 0.1, requires_grad=True)
    g = rng.standard_normal((m, n)).astype(np.float32)
    out = matmul(a, b, float32_gemm=True)
    out.backward(g)
    assert _within_gemm_bound(out.data, a.data, b.data)
    # a float32 GEMM, not the default float64 product rounded once
    assert out.data.tobytes() != matmul(a, b).data.tobytes()
    # the VJPs multiply by the transposed operands: K = n, then K = m
    assert _within_gemm_bound(a.grad, g, b.data.T)
    assert _within_gemm_bound(b.grad, a.data.T, g)


def test_float32_matmul_keeps_float64_and_mixed_operands_in_float64():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 4))
    w = rng.standard_normal((4, 3))
    for a, b in ((x, w), (x.astype(np.float32), w),
                 (x, w.astype(np.float32))):
        out = matmul(Tensor(a, dtype=a.dtype), Tensor(b, dtype=b.dtype),
                     float32_gemm=True)
        assert out.data.dtype == np.float64
        assert out.data.tobytes() == (a @ b).tobytes()


def test_float32_operands_accumulate_in_float64_by_default():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((64, 768)).astype(np.float32)
    w = rng.standard_normal((768, 32)).astype(np.float32)
    want = (x.astype(np.float64) @ w.astype(np.float64)).astype(np.float32)
    assert matmul(Tensor(x), Tensor(w)).data.tobytes() == want.tobytes()


def test_gather_rows_accumulates_repeats():
    a = Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
    tsum(gather_rows(a, [1, 1, 0])).backward()
    assert np.array_equal(a.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def test_relu_subgradient_zero_at_kink():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True, dtype=np.float64)
    tsum(relu(x)).backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_clamp_gradient_gates_boundaries():
    x = Tensor([-2.0, 0.5, 3.0], requires_grad=True, dtype=np.float64)
    tsum(clamp(x, -1.0, 1.0)).backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_untracked_leaf_gets_no_grad():
    x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    c = Tensor([3.0, 4.0], dtype=np.float64)
    tsum(mul(x, c)).backward()
    assert np.array_equal(x.grad, [3.0, 4.0])
    assert c.grad is None


# ---------------------------------------------------------------------------
# finite-difference sweeps

def test_gradcheck_elementwise_chain():
    rng = np.random.default_rng(7)
    for seed in range(5):
        r = np.random.default_rng([seed, 11])
        x0 = Tensor(r.standard_normal((3, 4)), dtype=np.float64)

        def f(x):
            y = mul(log(add(exp(x), 1.0)), add(x, 0.5))
            return tsum(div(y, add(exp(scale(x, -1.0)), 1.5)))

        rep = grad_check(f, x0, eps=1e-4, tol=1e-6)
        assert rep.passed, rep.max_rel_err
    del rng


def test_gradcheck_log_exp_pow():
    for seed in range(5):
        r = np.random.default_rng([seed, 12])
        x0 = Tensor(np.abs(r.standard_normal((2, 5))) + 0.5, dtype=np.float64)

        def f(x):
            return tsum(add(log(x), mul(pow_scalar(x, 1.7),
                                        sub(exp(scale(x, 0.3)), 1.0))))

        rep = grad_check(f, x0, eps=1e-5, tol=1e-6)
        assert rep.passed, rep.max_rel_err


def test_gradcheck_broadcast_div():
    for seed in range(5):
        r = np.random.default_rng([seed, 14])
        x0 = Tensor(np.abs(r.standard_normal((3, 4))) + 1.0, dtype=np.float64)

        def f(x):
            denom = add(tsum(x, axis=1, keepdims=True), 2.0)
            return tsum(div(x, denom))

        rep = grad_check(f, x0, eps=1e-5, tol=1e-6)
        assert rep.passed, rep.max_rel_err


# ---------------------------------------------------------------------------
# numerical stability

def test_sigmoid_softplus_large_inputs():
    # the sigmoid of the evaluation heads; the tape has no softplus op
    with np.errstate(over="raise"):
        s = _expit(np.array([60.0, -60.0]))
    assert np.allclose(s, [1.0, 0.0], atol=1e-15)


def _expit_where(x):
    # the two-branch form _expit replaced, kept as its bit oracle
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_expit_is_bit_equal_to_the_where_form(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    special = np.array([0.0, -0.0, 1e4, -1e4, 1.0, -1.0, 88.0, -104.0,
                        np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
                        3 * tiny, -3 * tiny], dtype=dtype)
    rng = np.random.default_rng(4)
    x = (rng.standard_normal((1638, 8)) * 12).astype(dtype)
    x.flat[:special.size] = special
    for probe in (x, special, x[:5, 1:4].T):
        got, want = _expit(probe), _expit_where(probe)
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# errors

def test_shape_and_domain_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3)), dtype=np.float64),
               Tensor(np.zeros((2, 3)), dtype=np.float64))
    with pytest.raises(DomainError):
        log(Tensor([-1.0], dtype=np.float64))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2)), requires_grad=True).backward()
    with pytest.raises(TypeError):
        Tensor(Tensor([1.0]))


def test_backward_without_tape_rejected():
    t = Tensor([1.0], dtype=np.float64)
    with pytest.raises(ValueError):
        t.backward()


def test_backward_consumes_and_frees_the_tape():
    x = Tensor(np.arange(3.0), requires_grad=True, dtype=np.float64)
    y = exp(x)
    y_data = weakref.ref(y.data)
    loss = tsum(y)
    del y
    gc.disable()
    try:
        loss.backward()
        with pytest.raises(ValueError):
            loss.backward()
        assert np.allclose(x.grad, np.exp(np.arange(3.0)))
        # no reference cycle is left: dropping the root frees every node
        del loss
        assert y_data() is None
    finally:
        gc.enable()


def test_backward_keeps_only_root_and_leaf_grads():
    # quarters and small integers: every sum below is exact in any order
    x = Tensor(np.arange(12.0).reshape(3, 4) / 4, requires_grad=True,
               dtype=np.float64)
    b = Tensor([0.5, -1.0, 0.25, 2.0], requires_grad=True, dtype=np.float64)
    c = Tensor(np.full((3, 4), 2.0), dtype=np.float64)
    u = add(x, b)  # b is broadcast over the rows
    v = mul(u, u)  # u fans out: twice here, once more below
    cv = mul(v, c)
    w = add(cv, u)
    root = tsum(w)
    du = 4 * u.data + 1  # d/du sum(2 u^2 + u)
    want = {"root": np.ones(()), "x": du, "b": du.sum(axis=0)}
    root.backward()
    assert [t.grad is None for t in (u, v, cv, w)] == [True] * 4
    got = {"root": root.grad, "x": x.grad, "b": b.grad}
    for name, arr in want.items():
        assert got[name].tobytes() == arr.tobytes(), name
    # perfbench's tape count walks the parent links after a backward
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert seen == {id(t) for t in (root, w, cv, v, u, x, b, c)}


def _two_layer(rng):
    w1 = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
    b1 = Tensor(rng.standard_normal(7), requires_grad=True)
    w2 = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((6, 5)))
    y = add(matmul(relu(add(matmul(x, w1), b1)), w2), b1.data[:3])
    return y, (w1, b1, w2)


def test_seeded_backward_equals_weighted_sum_loss():
    for seed in range(5):
        g = np.random.default_rng([seed, 1]).standard_normal(
            (6, 3)).astype(np.float32)
        y, leaves = _two_layer(np.random.default_rng(seed))
        y.backward(g)
        y_ref, ref = _two_layer(np.random.default_rng(seed))
        tsum(mul(y_ref, Tensor(g))).backward()
        for t, r in zip(leaves, ref):
            assert t.grad.dtype == r.grad.dtype == np.float32
            assert t.grad.tobytes() == r.grad.tobytes()


def test_seeded_backward_checks_shape_and_spent_tape():
    y, (w1, _, _) = _two_layer(np.random.default_rng(0))
    for bad in (np.ones((3, 6)), np.ones(18), np.ones(())):
        with pytest.raises(ShapeError):
            y.backward(bad)
    assert w1.grad is None
    y.backward(np.ones((6, 3)))
    with pytest.raises(ValueError):
        y.backward(np.ones((6, 3)))
    with pytest.raises(ShapeError):
        y.backward()  # a non-scalar root still needs a seed


def test_gradcheck_flags_wrong_gradient():
    def bad(x):
        data = np.exp(x.data)
        return tsum(record(data, (x,), lambda g: g * data * 1.05))

    x0 = Tensor(np.random.default_rng(3).standard_normal((2, 3)),
                dtype=np.float64)
    rep = grad_check(bad, x0, eps=1e-4, tol=1e-4)
    assert not rep.passed


def test_deep_graph_does_not_recurse():
    x = Tensor([1.0], requires_grad=True, dtype=np.float64)
    y = x
    for _ in range(5000):
        y = add(y, 0.0)
    tsum(y).backward()
    assert np.allclose(x.grad, [1.0])


# ---------------------------------------------------------------------------
# skipped vector-Jacobian products

def _both_vjps(forward, vjp_a, vjp_b):
    """A binary op that computes both operands' VJPs, tracked or not: a
    tracked operand's VJP also computes an untracked partner's, which
    is then dropped."""

    def op(a, b, float32_gemm=False):
        assert not float32_gemm  # the products below are the default's
        if not isinstance(b, Tensor):
            b = autograd._operand(b, a)

        def vjp(own, other, other_t):
            def f(g):
                if not other_t.requires_grad:
                    other(g, a.data, b.data)
                return own(g, a.data, b.data)
            return f
        return record(forward(a.data, b.data), (a, b),
                      vjp(vjp_a, vjp_b, b), vjp(vjp_b, vjp_a, a))

    return op


BOTH_VJPS = {
    "add": _both_vjps(np.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": _both_vjps(np.subtract, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": _both_vjps(np.multiply, lambda g, a, b: g * b,
                      lambda g, a, b: g * a),
    "div": _both_vjps(np.divide, lambda g, a, b: g / b,
                      lambda g, a, b: -g * a / (b * b)),
    "matmul": _both_vjps(lambda a, b: autograd._mm(a, b),
                         lambda g, a, b: autograd._mm(g, b.T),
                         lambda g, a, b: autograd._mm(a.T, g)),
}


def test_backward_skips_vjps_of_untracked_operands(monkeypatch):
    enc = model.EncoderConfig(input_shape=(3, 16, 16), hidden_dims=(256, 256),
                              embed_dim=64)
    rng = np.random.default_rng(3)
    views = rng.uniform(0.0, 1.0, (16, 3, 16, 16)).astype(np.float32)
    xi = rng.standard_normal((16, 32)).astype(np.float32)
    partner = np.arange(16) ^ 1
    calls = []
    real_mm = autograd._mm

    def counted_mm(x, y):
        calls.append(x.shape)
        return real_mm(x, y)

    monkeypatch.setattr(autograd, "_mm", counted_mm)

    def backward():
        params = model.init_params(enc, 32, seed=0)
        g = model.gaussian_head(params, model.encode(params, views))
        z = model.reparameterize(g, xi)
        loss, _ = losses.total_loss(z, g, partner, losses.LossConfig())
        calls.clear()
        loss.backward()
        return len(calls), {k: p.grad.tobytes() for k, p in params.items()}

    n_skip, skipped = backward()
    for name, op in BOTH_VJPS.items():
        for mod in (model, losses):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, op)
    n_both, both = backward()
    # six matmuls: two VJPs each, less the input batch's (16, 768) one
    assert (n_skip, n_both) == (11, 12)
    assert skipped == both


# ---------------------------------------------------------------------------
# a node's first cotangent kept as its gradient

def _signed_zeros_and_nans(dtype):
    x = Tensor([[1.5, -2.0, 0.25], [3.0, 1.0, 0.0]], requires_grad=True,
               dtype=dtype)
    seed = np.array([[0.0, np.nan, -0.0], [1.0, -np.nan, 2.0]], dtype=dtype)
    return scale(x, -1.0), seed, [x]


def _fortran_cotangent(dtype):
    # the VJP's fresh result follows the seed's Fortran order
    root, seed, leaves = _signed_zeros_and_nans(dtype)
    return root, np.asfortranarray(seed), leaves


def _fan_out(dtype):
    a = Tensor([[0.5, -1.0], [2.0, -0.0]], requires_grad=True, dtype=dtype)
    s = Tensor(-0.5, requires_grad=True, dtype=dtype)  # its VJP gives a scalar
    return mul(tsum(add(add(a, a), mul(a, a))), s), None, [a, s]


def _add_passes_out_grad(dtype):
    a = Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype=dtype)
    b = Tensor([4.0, 5.0, 6.0], requires_grad=True, dtype=dtype)
    return add(a, b), np.array([-0.0, np.nan, 2.0], dtype=dtype), [a, b]


def _view_vjps(dtype):
    x = Tensor(np.arange(6.0).reshape(2, 3) - 2.5, requires_grad=True,
               dtype=dtype)
    y = transpose(reshape(x, (3, 2)))
    c = Tensor([[1.0, -0.0, 2.0], [0.5, -3.0, 0.0]], dtype=dtype)
    return mul(y, c), np.array([[-0.0, 1.0, -2.0], [np.nan, 0.0, -1.0]],
                               dtype=dtype), [x]


def _view_of_root(dtype):
    x = Tensor([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]], requires_grad=True,
               dtype=dtype)
    seed = np.array([[-0.0, np.nan], [1.0, -2.0], [0.0, -0.0]], dtype=dtype)
    return reshape(x, (3, 2)), seed, [x]


def _mixed_dtypes(dtype):
    # b's cotangent comes back in the other float width
    other = np.float64 if dtype == np.float32 else np.float32
    a = Tensor([1.0, -2.0, 0.5], requires_grad=True, dtype=other)
    b = Tensor([0.25, 0.0, -1.5], requires_grad=True, dtype=dtype)
    return sub(a, b), np.array([-0.0, 2.0, np.nan], dtype=other), [a, b]


def _model_loss(dtype):
    enc = model.EncoderConfig(input_shape=(3, 4, 4), hidden_dims=(8,),
                              embed_dim=6)
    rng = np.random.default_rng(5)
    params = {k: Tensor(p.data, requires_grad=True, dtype=dtype)
              for k, p in model.init_params(enc, 4, seed=1).items()}
    views = rng.uniform(0.0, 1.0, (8, 3, 4, 4)).astype(dtype)
    g = model.gaussian_head(params, model.encode(params, views))
    z = model.reparameterize(g, rng.standard_normal((8, 4)).astype(dtype))
    loss, _ = losses.total_loss(z, g, np.arange(8) ^ 1, losses.LossConfig())
    return loss, None, list(params.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("build", [_signed_zeros_and_nans, _fortran_cotangent,
                                   _fan_out,
                                   _add_passes_out_grad, _view_vjps,
                                   _view_of_root, _mixed_dtypes,
                                   _model_loss])
def test_kept_cotangent_equals_zero_buffer_sum(build, dtype, monkeypatch):
    # the reference adds every first cotangent into a zero-filled buffer,
    # as backward did before it kept a fresh one as the gradient
    runs = []
    for zero_buffer in (False, True):
        if zero_buffer:
            monkeypatch.setattr(autograd, "_fresh", lambda g, dtype: False)
        root, seed, leaves = build(dtype)
        root.backward(seed)
        grads = [root.grad] + [t.grad for t in leaves]
        for i, a in enumerate(grads):
            assert not any(np.shares_memory(a, b) for b in grads[i + 1:])
        runs.append([(type(g), g.dtype, g.strides, g.tobytes())
                     for g in grads])
    assert runs[0] == runs[1]


def test_grad_check_is_unchanged_by_kept_cotangents(monkeypatch):
    x = Tensor(np.random.default_rng(2).standard_normal((3, 4)))

    def f(t):  # t fans out, once through two view-returning VJPs
        return tsum(mul(exp(scale(t, 0.5)), reshape(transpose(t), (3, 4))))

    got = grad_check(f, x)
    monkeypatch.setattr(autograd, "_fresh", lambda g, dtype: False)
    assert grad_check(f, x) == got
