"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is deliberately small. A Tensor wraps a numpy array together
with the parent links and callback needed to replay the chain rule.
Every op is its checks, its forward expression and one vector-Jacobian
product (VJP) per operand, handed to ``record``: the one function that
puts a node on the implicit tape (the DAG of parent links). It records
only when some operand requires gradients, and its backward step calls
only the VJPs of operands that do, so constants and the input batch
cost no backward work; it also sums the cotangent of a broadcast
operand back to that operand's shape, so no op does either itself.
``Tensor.backward`` topologically sorts the DAG once and replays those
steps into ``.grad`` buffers. A node's first cotangent becomes its
``.grad`` without a copy when the VJP made it fresh; later ones are
added into it. Only the root's and the leaves' ``.grad`` survive the
pass: an inner node's is dropped as soon as its step has passed it on
to the node's parents, so the pass holds the gradients of the nodes
still waiting for their step, not of the whole tape. The parent links
stay. Gradient accumulation is plain addition, so fan-out (one tensor
feeding several ops) sums contributions and repeated backward passes on
a freshly built graph are bit-identical.
The root of a backward pass is a scalar loss seeded with 1, or a tensor
of any shape seeded with a given cotangent, so a caller that knows the
gradient of a loss with respect to some output need not record the loss
itself. A backward pass consumes its tape: a second one through the
same nodes raises ValueError. So each VJP runs at most once, and may
build its result in a buffer its closure owns, such as a forward
intermediate kept only for the backward.

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
    """The logistic sigmoid, 1 / (1 + e) where x >= 0 and e / (1 + e)
    elsewhere, with e = exp(-|x|), so neither tail overflows.

    The numerator, 1 or e, is picked by a bit select on the integer view
    of e (of the float's own width), so each entry costs one addition
    and one division instead of both branches' two of each.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1 + e
    bits = e.view(f"i{e.itemsize}")
    keep = np.greater_equal(x, 0).view(np.int8)
    np.negative(keep, out=keep)  # 0, or all bits set where x >= 0
    flip = bits ^ np.ones((), e.dtype).view(bits.dtype)
    flip &= keep
    bits ^= flip
    return np.divide(e, d, out=e)


def _fresh(g, dtype) -> bool:
    """Whether g is an array of ``dtype`` that owns its C-ordered buffer,
    so it can become a ``.grad`` without a copy."""
    return (isinstance(g, np.ndarray) and g.base is None
            and g.dtype == dtype and g.flags.c_contiguous)


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

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor into every tracked leaf's .grad.

        With no ``grad`` the root must be a scalar and is seeded with 1.
        ``grad`` seeds a root of any shape with that cotangent, cast to
        the root's dtype; it must have the root's shape. Seeding y with
        g gives the same bits as backpropagating sum(y * g) when g has
        no negative zero.

        Afterwards the root and the leaves keep their ``.grad``; every
        inner node's is None, freed once its backward step has passed it
        on. The ``_parents`` links stay, so the tape can still be walked.
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
                # passed on to its parents, an inner gradient is spent
                if node is not self:
                    node.grad = None

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def record(data: np.ndarray, parents: tuple, *vjps) -> Tensor:
    """The output ``data`` of an op over ``parents``, on the tape.

    ``vjps[i]`` maps the output's cotangent to parent i's. If any parent
    requires gradients, the output keeps its parents and one backward
    step: for each parent that requires gradients, in order, it calls
    that parent's VJP, sums the result back to the parent's shape when
    the parent was broadcast, and adds it to the parent's ``.grad``.
    A parent with no ``.grad`` yet takes a ``_fresh`` result that is not
    the output's own ``.grad`` as it is, after ``+= 0``, which turns -0
    into +0 as adding it into zeros did; any other result is added into
    a zero-filled buffer. So a VJP returns a view or an array that
    nothing else holds: a fresh one, or a buffer only its closure owns,
    which it may overwrite since it is called once.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = ()
    out._backward = None
    if out.requires_grad:
        def backward():
            for p, vjp in zip(parents, vjps):
                if p.requires_grad:
                    g = _unbroadcast(vjp(out.grad), p.data.shape)
                    if p.grad is not None:
                        p.grad += g
                    elif g is not out.grad and _fresh(g, p.data.dtype):
                        g += 0  # -0 becomes +0, as it did in 0 + g
                        p.grad = g
                    else:
                        p.grad = np.zeros_like(p.data)
                        p.grad += g
        out._parents = parents
        out._backward = backward
    return out


def _operand(b, a: Tensor) -> Tensor:
    """b as the second operand of a broadcasting binary op over a."""
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype), dtype=a.data.dtype)
    _broadcast_shape(a.data.shape, b.data.shape)
    return b


def add(a: Tensor, b) -> Tensor:
    b = _operand(b, a)
    return record(a.data + b.data, (a, b), lambda g: g, lambda g: g)


def sub(a: Tensor, b) -> Tensor:
    b = _operand(b, a)
    return record(a.data - b.data, (a, b), lambda g: g, lambda g: -g)


def mul(a: Tensor, b) -> Tensor:
    b = _operand(b, a)
    return record(a.data * b.data, (a, b),
                  lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b) -> Tensor:
    b = _operand(b, a)
    if (b.data == 0).any():
        raise DomainError("division by zero")
    return record(a.data / b.data, (a, b), lambda g: g / b.data,
                  lambda g: -g * a.data / (b.data * b.data))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return record(a.data * s, (a,), lambda g: g * s)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul needs 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    return record(_mm(a.data, b.data), (a, b), lambda g: _mm(g, b.data.T),
                  lambda g: _mm(a.data.T, g))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d operand, got {a.data.shape}")
    return record(a.data.T.copy(), (a,), lambda g: g.T)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.data.shape} to {shape}")
    return record(a.data.reshape(shape), (a,),
                  lambda g: g.reshape(a.data.shape))


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return record(data, (a,), lambda g: g * data)


def log(a: Tensor) -> Tensor:
    if (a.data <= 0).any():
        raise DomainError(
            f"log needs strictly positive input, min was {a.data.min()!r}")
    return record(np.log(a.data), (a,), lambda g: g / a.data)


def pow_scalar(a: Tensor, p: float) -> Tensor:
    p = float(p)
    if not p.is_integer() and (a.data < 0).any():
        raise DomainError(f"x**{p} needs non-negative input")
    return record(np.power(a.data, p), (a,),
                  lambda g: g * p * np.power(a.data, p - 1.0))


def relu(a: Tensor) -> Tensor:
    return record(np.maximum(a.data, 0), (a,), lambda g: g * (a.data > 0))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes where lo <= x <= hi."""
    if lo > hi:
        raise ValueError(f"clamp bounds out of order: {lo} > {hi}")
    return record(np.clip(a.data, lo, hi), (a,),
                  lambda g: g * ((a.data >= lo) & (a.data <= hi)))


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    data = np.asarray(np.sum(a.data, axis=axis, keepdims=keepdims,
                             dtype=np.float64)).astype(a.data.dtype)
    kept = axis is None or keepdims
    return record(data, (a,), lambda g: np.broadcast_to(
        g if kept else np.expand_dims(g, axis), a.data.shape))


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    if n == 0:
        raise ShapeError("mean over an empty axis")
    data = np.asarray(np.mean(a.data, axis=axis,
                              dtype=np.float64)).astype(a.data.dtype)
    return record(data, (a,), lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), a.data.shape) / n)


def gather_rows(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs a 1-d index, got {idx.shape}")
    n = a.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"gather index out of range for {n} rows")

    def vjp(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return buf
    return record(a.data[idx], (a,), vjp)


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
