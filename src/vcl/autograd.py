"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is deliberately small. A Tensor wraps a numpy array together
with the parent links and callback needed to replay the chain rule.
Every op whose inputs require gradients records itself on the implicit
tape (the DAG of parent links); ``Tensor.backward`` topologically sorts
that DAG once and accumulates vector-Jacobian products into ``.grad``
buffers. Gradient accumulation is plain addition, so fan-out (one tensor
feeding several ops) sums contributions and repeated backward passes on
a freshly built graph are bit-identical. The root of a backward pass is
a scalar loss seeded with 1, or a tensor of any shape seeded with a
given cotangent, so a caller that knows the gradient of a loss with
respect to some output need not record the loss itself. A backward pass
consumes its tape: a second one through the same nodes raises
ValueError. The binary
ops compute an operand's vector-Jacobian product only when that operand
requires gradients, so constants and the input batch cost no backward
work.

Storage is float32 by default. Reductions (``sum``, ``mean``, ``matmul``
and the implicit reductions that undo broadcasting) accumulate in
float64 before rounding back to the storage dtype. ``grad_check``
promotes its input to float64 so the central-difference oracle is not
drowned in storage rounding noise.

Broadcasting is intentionally limited: equal shapes, a scalar on either
side, a trailing-aligned lower-rank operand such as ``(D,)`` against
``(B, D)``, and same-rank operands where a mismatched axis is 1 on one
side. Anything else raises ShapeError naming both shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform to the op."""


class DomainError(ValueError):
    """Operand values fall outside the op's mathematical domain."""


def _broadcast_shape(sa: tuple, sb: tuple) -> tuple:
    if sa == sb:
        return sa
    if len(sa) == 0:
        return sb
    if len(sb) == 0:
        return sa
    if len(sa) != len(sb):
        lo, hi = (sa, sb) if len(sa) < len(sb) else (sb, sa)
        if hi[len(hi) - len(lo):] == lo:
            return hi
        raise ShapeError(f"cannot broadcast shape {sa} with shape {sb}")
    out = []
    for da, db in zip(sa, sb):
        if da == db:
            out.append(da)
        elif da == 1:
            out.append(db)
        elif db == 1:
            out.append(da)
        else:
            raise ShapeError(f"cannot broadcast shape {sa} with shape {sb}")
    return tuple(out)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = np.sum(g, axis=tuple(range(extra)), dtype=np.float64)
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = np.sum(g, axis=axes, keepdims=True, dtype=np.float64)
    return g.reshape(shape)


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # matmul accumulates in float64 even for float32 operands
    if x.dtype == np.float32 and y.dtype == np.float32:
        return (x.astype(np.float64) @ y.astype(np.float64)).astype(np.float32)
    return x @ y


def _expit(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _consumed() -> None:
    raise ValueError("this tape was already backpropagated; build it again")


class Tensor:
    """Dense array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        if isinstance(data, Tensor):
            raise TypeError("Tensor wraps numpy data, not another Tensor")
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Callable[[], None] | None = None

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        tracked = any(p.requires_grad for p in parents)
        out.requires_grad = tracked
        out._parents = parents if tracked else ()
        out._backward = None
        return out

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor into every tracked leaf's .grad.

        With no ``grad`` the root must be a scalar and is seeded with 1.
        ``grad`` seeds a root of any shape with that cotangent, cast to
        the root's dtype; it must have the root's shape. Seeding y with
        g gives the same bits as backpropagating sum(y * g) when g has
        no negative zero.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward needs a scalar loss, got shape {self.data.shape}")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ShapeError(f"backward seed of shape {np.shape(grad)} for "
                             f"a root of shape {self.data.shape}")
        if not self.requires_grad:
            raise ValueError("tensor is not recorded on a tape")
        # iterative post-order: deep graphs must not hit the recursion limit
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.array(grad, dtype=self.data.dtype)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()
                # the closure refers to its own node; dropping it breaks
                # that cycle, so reference counting frees the tape as
                # soon as its root goes, not the next cyclic collection
                node._backward = _consumed

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype), dtype=like.data.dtype)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _broadcast_shape(a.data.shape, b.data.shape)
    out = Tensor._from_op(a.data + b.data, (a, b))
    if out.requires_grad:
        def backward():
            if a.requires_grad:
                _accum(a, _unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(out.grad, b.data.shape))
        out._backward = backward
    return out


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _broadcast_shape(a.data.shape, b.data.shape)
    out = Tensor._from_op(a.data - b.data, (a, b))
    if out.requires_grad:
        def backward():
            if a.requires_grad:
                _accum(a, _unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(-out.grad, b.data.shape))
        out._backward = backward
    return out


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _broadcast_shape(a.data.shape, b.data.shape)
    out = Tensor._from_op(a.data * b.data, (a, b))
    if out.requires_grad:
        def backward():
            if a.requires_grad:
                _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))
        out._backward = backward
    return out


def div(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _broadcast_shape(a.data.shape, b.data.shape)
    if (b.data == 0).any():
        raise DomainError("division by zero")
    out = Tensor._from_op(a.data / b.data, (a, b))
    if out.requires_grad:
        def backward():
            if a.requires_grad:
                _accum(a, _unbroadcast(out.grad / b.data, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(-out.grad * a.data / (b.data * b.data),
                                       b.data.shape))
        out._backward = backward
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor._from_op(a.data * s, (a,))
    if out.requires_grad:
        def backward():
            _accum(a, out.grad * s)
        out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul needs 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out = Tensor._from_op(_mm(a.data, b.data), (a, b))
    if out.requires_grad:
        def backward():
            if a.requires_grad:
                _accum(a, _mm(out.grad, b.data.T))
            if b.requires_grad:
                _accum(b, _mm(a.data.T, out.grad))
        out._backward = backward
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d operand, got {a.data.shape}")
    out = Tensor._from_op(a.data.T.copy(), (a,))
    if out.requires_grad:
        def backward():
            _accum(a, out.grad.T)
        out._backward = backward
    return out


def reshape(a: Tensor, shape: tuple) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.data.shape} to {shape}")
    out = Tensor._from_op(a.data.reshape(shape), (a,))
    if out.requires_grad:
        def backward():
            _accum(a, out.grad.reshape(a.data.shape))
        out._backward = backward
    return out


def exp(a: Tensor) -> Tensor:
    out = Tensor._from_op(np.exp(a.data), (a,))
    if out.requires_grad:
        def backward():
            _accum(a, out.grad * out.data)
        out._backward = backward
    return out


def expm1(a: Tensor) -> Tensor:
    """exp(x) - 1 without cancellation near x = 0."""
    out = Tensor._from_op(np.expm1(a.data), (a,))
    if out.requires_grad:
        def backward():
            _accum(a, out.grad * (out.data + 1.0))
        out._backward = backward
    return out


def log(a: Tensor) -> Tensor:
    if (a.data <= 0).any():
        raise DomainError(
            f"log needs strictly positive input, min was {a.data.min()!r}")
    out = Tensor._from_op(np.log(a.data), (a,))
    if out.requires_grad:
        def backward():
            _accum(a, out.grad / a.data)
        out._backward = backward
    return out


def pow_scalar(a: Tensor, p: float) -> Tensor:
    p = float(p)
    if not p.is_integer() and (a.data < 0).any():
        raise DomainError(f"x**{p} needs non-negative input")
    out = Tensor._from_op(np.power(a.data, p), (a,))
    if out.requires_grad:
        def backward():
            _accum(a, out.grad * p * np.power(a.data, p - 1.0))
        out._backward = backward
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor._from_op(np.maximum(a.data, 0), (a,))
    if out.requires_grad:
        def backward():
            _accum(a, out.grad * (a.data > 0))
        out._backward = backward
    return out


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes where lo <= x <= hi."""
    if lo > hi:
        raise ValueError(f"clamp bounds out of order: {lo} > {hi}")
    out = Tensor._from_op(np.clip(a.data, lo, hi), (a,))
    if out.requires_grad:
        def backward():
            inside = (a.data >= lo) & (a.data <= hi)
            _accum(a, out.grad * inside)
        out._backward = backward
    return out


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow for large x."""
    out = Tensor._from_op(np.logaddexp(0.0, a.data).astype(a.data.dtype),
                          (a,))
    if out.requires_grad:
        def backward():
            _accum(a, out.grad * _expit(a.data))
        out._backward = backward
    return out


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    data = np.asarray(np.sum(a.data, axis=axis, keepdims=keepdims,
                             dtype=np.float64)).astype(a.data.dtype)
    out = Tensor._from_op(data, (a,))
    if out.requires_grad:
        def backward():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.data.shape))
        out._backward = backward
    return out


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    if n == 0:
        raise ShapeError("mean over an empty axis")
    data = np.asarray(np.mean(a.data, axis=axis,
                              dtype=np.float64)).astype(a.data.dtype)
    out = Tensor._from_op(data, (a,))
    if out.requires_grad:
        def backward():
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.data.shape) / n)
        out._backward = backward
    return out


def gather_rows(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs a 1-d index, got {idx.shape}")
    n = a.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"gather index out of range for {n} rows")
    out = Tensor._from_op(a.data[idx], (a,))
    if out.requires_grad:
        def backward():
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, out.grad)
            _accum(a, buf)
        out._backward = backward
    return out


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    passed: bool


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor,
               eps: float = 1e-3, tol: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of a scalar-valued f against central
    differences.

    Both paths evaluate in float64 regardless of the dtype of ``x``: the
    probe tensor is a promoted copy, so storage rounding of a float32
    model does not mask real gradient bugs. Error is relative:
    ``|analytic - fd| / max(1e-8, |analytic| + |fd|)`` per coordinate,
    and the report carries the maximum.
    """
    base = np.asarray(x.data, dtype=np.float64)
    probe = Tensor(base.copy(), requires_grad=True, dtype=np.float64)
    y = f(probe)
    if y.data.size != 1:
        raise ShapeError(f"grad_check needs a scalar f, got {y.data.shape}")
    y.backward()
    analytic = (probe.grad if probe.grad is not None
                else np.zeros_like(base)).reshape(-1)

    flat = base.reshape(-1)
    fd = np.empty_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += eps
        dn = flat.copy()
        dn[i] -= eps
        fp = float(f(Tensor(up.reshape(base.shape), dtype=np.float64)).data)
        fm = float(f(Tensor(dn.reshape(base.shape), dtype=np.float64)).data)
        fd[i] = (fp - fm) / (2.0 * eps)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(fd))
    max_rel = float(np.max(np.abs(analytic - fd) / denom)) if flat.size else 0.0
    return GradCheckReport(max_rel_err=max_rel, passed=max_rel <= tol)
